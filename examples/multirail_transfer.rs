//! Multirail: one logical message striped across two NICs.
//!
//! NewMadeleine's optimization layer distributes rendezvous chunks
//! round-robin over every rail of a gate, so one logical message can use
//! the aggregate bandwidth of several NICs.
//!
//! ```sh
//! cargo run --release --example multirail_transfer
//! ```

use std::sync::Arc;
use std::time::Instant;

use nomad::core::{CoreBuilder, CoreConfig, GateId};
use nomad::fabric::{Fabric, WireModel};
use nomad::sync::WaitStrategy;

fn transfer(rails: &[WireModel], label: &str) -> f64 {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(rails, true);
    // The eager threshold must fit the *smallest* rail's MTU (ConnectX
    // packets carry at most 2 KiB here).
    let min_mtu = rails.iter().map(|r| r.mtu).min().unwrap();
    let config = CoreConfig::default()
        .eager_threshold((min_mtu / 2).min(16 * 1024))
        .rdv_chunk(min_mtu / 2);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();

    const SIZE: usize = 2 << 20; // 2 MiB
    let payload = bytes::Bytes::from(vec![0xABu8; SIZE]);

    let b2 = Arc::clone(&b);
    let recv = std::thread::spawn(move || {
        let r = b2.irecv(GateId(0), 0).expect("irecv");
        b2.wait(&r, WaitStrategy::Busy).unwrap();
        r.take_data().expect("payload")
    });

    let t0 = Instant::now();
    let s = a.isend(GateId(0), 0, payload).expect("isend");
    a.wait(&s, WaitStrategy::Busy).unwrap();
    let got = recv.join().expect("receiver");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(got.len(), SIZE);

    let gbps = (SIZE as f64 * 8.0) / secs / 1e9;
    println!(
        "{label:<28} {SIZE:>9} bytes in {:>8.2} ms  ->  {gbps:.2} Gbit/s",
        secs * 1e3
    );
    for (i, d) in pa.sim_drivers().iter().enumerate() {
        println!(
            "    rail {i}: {} packets, {} bytes",
            d.counters().tx_packets.get(),
            d.nic().tx_bytes()
        );
    }
    gbps
}

fn main() {
    println!("transferring 2 MiB with one vs two rails:\n");
    let single = transfer(&[WireModel::myri_10g()], "one Myri-10G rail");
    let dual = transfer(
        &[WireModel::myri_10g(), WireModel::myri_10g()],
        "two Myri-10G rails",
    );
    println!(
        "\nmultirail speedup: {:.2}x (wire-limited upper bound: 2.0x;\n\
         software overheads dominate on hosts with few cores)",
        dual / single
    );
}
