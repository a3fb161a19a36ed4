//! The failure flight recorder, end to end: a chaos run that kills a
//! rail must leave a JSON dump holding the dead rail's retransmit span
//! timeline — the black box a postmortem actually needs.
//!
//! Single test on purpose: the recording, the dump slot and the
//! `NOMAD_FLIGHT_DIR` variable are process-global.

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, ReliabilityConfig, StrategyKind};
use nm_fabric::{ChaosDriver, Driver, FaultPlan, LoopbackDriver};
use nm_sync::WaitStrategy;

const G: GateId = GateId(0);

#[test]
fn rail_death_dumps_the_retransmit_span_timeline() {
    // Respect a caller-provided dump directory (CI uploads it as an
    // artifact); default to a temp dir that is cleaned up on success.
    let (dir, ephemeral) = match std::env::var("NOMAD_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => (std::path::PathBuf::from(d), false),
        _ => {
            let d = std::env::temp_dir().join(format!("nm-flight-{}", std::process::id()));
            std::env::set_var("NOMAD_FLIGHT_DIR", &d);
            (d, true)
        }
    };
    std::fs::create_dir_all(&dir).unwrap();
    // Spans exist only while a recording is live; the dump reads them.
    let recording = nm_metrics::trace::record();
    let _ = nm_metrics::flight::take_last_dump();

    // Rail 0 of the a→b direction drops everything; rail 1 is clean.
    // Frames on rail 0 retransmit until the rail is declared dead and
    // its unacked window fails over to rail 1.
    let (da0, db0) = LoopbackDriver::pair(256);
    let (da1, db1) = LoopbackDriver::pair(256);
    let rel = ReliabilityConfig {
        rto_base_ns: 5_000,
        rto_max_ns: 50_000,
        max_retries: 2,
        rail_dead_threshold: 1,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(rel);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(da0) as Arc<dyn Driver>,
            Arc::new(da1) as Arc<dyn Driver>,
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![
            Arc::new(ChaosDriver::new(db0, FaultPlan::new(3).loss(1.0))) as Arc<dyn Driver>,
            Arc::new(db1) as Arc<dyn Driver>,
        ])
        .build();

    stream(&a, &b, 20);
    assert_eq!(a.stats().rails_failed.get(), 1, "rail 0 must die");

    // The kill published a dump; it must carry at least one message
    // timeline with the retransmits the dying rail performed.
    let dump = nm_metrics::flight::take_last_dump().expect("rail death must record a flight dump");
    drop(recording);
    assert!(
        dump.contains("\"reason\": \"rail-dead\""),
        "dump must name the trigger: {dump}"
    );
    assert!(
        dump.contains("\"event\": \"SpanRetx\""),
        "dump must contain the dead rail's retransmit span timeline"
    );
    assert!(
        dump.contains("\"event\": \"SpanWireTx\""),
        "retransmit timeline must belong to a real transmitted message"
    );
    assert!(
        dump.contains("\"metrics\""),
        "dump carries a metrics snapshot"
    );

    // The same dump was persisted to NOMAD_FLIGHT_DIR.
    let on_disk = std::fs::read_to_string(dir.join("flight-0.json"))
        .expect("NOMAD_FLIGHT_DIR must receive flight-0.json");
    assert_eq!(on_disk, dump);

    if ephemeral {
        std::env::remove_var("NOMAD_FLIGHT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Streams `n` tagged messages a→b and waits for in-order delivery.
fn stream(a: &Arc<CommCore>, b: &Arc<CommCore>, n: u64) {
    let sends: Vec<_> = (0..n)
        .map(|i| {
            a.isend(G, 7, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..n).map(|_| b.irecv(G, 7).unwrap()).collect();
    for (i, r) in recvs.iter().enumerate() {
        while !r.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(r.take_data().unwrap().as_ref(), (i as u64).to_le_bytes());
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
}
