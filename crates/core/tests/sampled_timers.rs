//! `isend` and `irecv` time one call in 64.
//!
//! `core.send_ns` and `core.recv_ns` take a sampled timer: one call in
//! `SAMPLE_EVERY` reads the clock and records with weight
//! `SAMPLE_EVERY`, so the histograms still count every call while 63 in
//! 64 read no clock. A timer on every call would also count every call,
//! but one at a time: the bucket deltas pin the sampling.

use std::collections::BTreeMap;

use bytes::Bytes;

use nm_core::{CoreBuilder, CoreConfig, GateId};
use nm_fabric::{Fabric, WireModel};
use nm_metrics::SAMPLE_EVERY;

const G: GateId = GateId(0);
const MSGS: u64 = 6400;
const NAMES: [&str; 2] = ["core.send_ns", "core.recv_ns"];

/// Bucket upper bound → count, per histogram in [`NAMES`].
fn buckets() -> Vec<BTreeMap<u64, u64>> {
    NAMES
        .iter()
        .map(|name| {
            let snap = nm_metrics::metrics().histogram(name).snapshot();
            snap.nonzero().into_iter().collect()
        })
        .collect()
}

// One test function on purpose: the histograms are process-wide, so a
// second #[test] running concurrently would record into them too.
#[test]
fn isend_and_irecv_time_one_call_in_64() {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(pb.drivers())
        .build();
    let payload = Bytes::from_static(&[0x5A; 8]);

    let before = buckets();
    for _ in 0..MSGS {
        let recv = b.irecv(G, 1).unwrap();
        let send = a.isend(G, 1, payload.clone()).unwrap();
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(recv.take_data(), Some(payload.clone()));
    }
    let after = buckets();

    for ((name, before), after) in NAMES.iter().zip(&before).zip(&after) {
        let mut calls = 0;
        for (bound, &count) in after {
            let delta = count - before.get(bound).copied().unwrap_or(0);
            assert_eq!(
                delta % SAMPLE_EVERY,
                0,
                "{name}: bucket ≤ {bound} ns moved by {delta}, not by samples of weight {SAMPLE_EVERY}"
            );
            calls += delta;
        }
        assert_eq!(calls, MSGS, "{name} counts every call");
    }
}
