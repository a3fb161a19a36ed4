//! Property-based tests of the simulated fabric.

use bytes::Bytes;
use proptest::prelude::*;

use nm_fabric::{ClockSource, SimNic, WireModel};

fn arbitrary_model() -> impl Strategy<Value = WireModel> {
    (
        0u64..10_000,
        0u64..8,
        0u64..500,
        64usize..65_536,
        1usize..64,
    )
        .prop_map(
            |(latency_ns, ns_per_byte, per_packet_ns, mtu, tx_depth)| WireModel {
                latency_ns,
                ns_per_byte: ns_per_byte as f64 / 2.0,
                per_packet_ns,
                mtu,
                tx_depth,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Delivery preserves FIFO order and payload contents for any model
    /// and any interleaving of sends and clock advances.
    #[test]
    fn fifo_delivery_any_model(
        model in arbitrary_model(),
        script in prop::collection::vec((any::<bool>(), 1usize..256), 1..64),
    ) {
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair("prop", model, clock.clone());
        let mut sent: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mut received = 0usize;
        let mut seq = 0u8;
        for (do_send, amount) in script {
            if do_send {
                let len = amount.min(model.mtu);
                let payload: Vec<u8> = (0..len).map(|j| seq ^ (j as u8)).collect();
                if a.post_send_vci(0, Bytes::from(payload.clone())).is_ok() {
                    sent.push_back(payload);
                    seq = seq.wrapping_add(1);
                }
            } else {
                clock.advance(amount as u64 * 1_000);
                while let Some(got) = b.poll_recv_vci(0) {
                    let expect = sent.pop_front().expect("received more than sent");
                    prop_assert_eq!(&got.head()[..], &expect[..]);
                    received += 1;
                }
            }
        }
        // Drain everything still in flight.
        clock.advance(u32::MAX as u64);
        while let Some(got) = b.poll_recv_vci(0) {
            let expect = sent.pop_front().expect("received more than sent");
            prop_assert_eq!(&got.head()[..], &expect[..]);
            received += 1;
        }
        prop_assert!(sent.is_empty(), "{} packets lost", sent.len());
        prop_assert_eq!(b.counters().rx_packets.get() as usize, received);
    }

    /// Packets are never visible before `one_way_ns` has elapsed.
    #[test]
    fn never_early(
        model in arbitrary_model(),
        len in 1usize..1_000,
    ) {
        let len = len.min(model.mtu);
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair("early", model, clock.clone());
        a.post_send_vci(0, Bytes::from(vec![1u8; len])).unwrap();
        let min_time = model.one_way_ns(len);
        if min_time > 0 {
            clock.advance_to(min_time - 1);
            prop_assert_eq!(b.poll_recv_vci(0), None, "delivered before {} ns", min_time);
        }
        clock.advance_to(min_time);
        prop_assert!(b.poll_recv_vci(0).is_some());
    }

    /// One-way time is monotone in message size.
    #[test]
    fn one_way_monotone(model in arbitrary_model(), a in 0usize..100_000, b in 0usize..100_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.one_way_ns(lo) <= model.one_way_ns(hi));
    }
}
