//! Property-based tests on the stack's core invariants.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use nomad::core::{CoreBuilder, CoreConfig, GateId, LockingMode};
use nomad::fabric::{Driver, LoopbackDriver, MpmcRing};

/// Deterministic payload for message `i` of length `len`.
fn payload(i: usize, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|j| ((i.wrapping_mul(131)).wrapping_add(j.wrapping_mul(7)) % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Any mix of message sizes and tags is delivered exactly once, with
    /// correct contents, FIFO per tag — whatever the locking mode and
    /// posting order.
    #[test]
    fn messages_delivered_exactly_once(
        msgs in prop::collection::vec((0u64..4, 0usize..3_000), 1..16),
        mode_idx in 0usize..3,
        recv_first in any::<bool>(),
    ) {
        let mode = LockingMode::ALL[mode_idx];
        let (da, db) = LoopbackDriver::pair(256);
        let config = CoreConfig::default().locking(mode).eager_threshold(1024);
        let a = CoreBuilder::new(config.clone())
            .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
            .build();
        let b = CoreBuilder::new(config)
            .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
            .build();

        let mut recvs = Vec::new();
        if recv_first {
            for &(tag, _) in &msgs {
                recvs.push(b.irecv(GateId(0), tag).unwrap());
            }
        }
        let sends: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(i, &(tag, len))| a.isend(GateId(0), tag, payload(i, len)).unwrap())
            .collect();
        if !recv_first {
            for &(tag, _) in &msgs {
                recvs.push(b.irecv(GateId(0), tag).unwrap());
            }
        }

        // Drive both cores until every request completes.
        let mut passes = 0;
        while recvs.iter().any(|r| !r.is_complete())
            || sends.iter().any(|s| !s.is_complete())
        {
            a.progress();
            b.progress();
            passes += 1;
            prop_assert!(passes < 1_000_000, "stack stopped making progress");
        }

        // Per tag, receives see that tag's messages in send order.
        let mut expected_per_tag: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &(tag, _)) in msgs.iter().enumerate() {
            expected_per_tag.entry(tag).or_default().push(i);
        }
        let mut cursor: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for (r, &(tag, len)) in recvs.iter().zip(&msgs) {
            let data = r.take_data().expect("completed recv has data");
            let k = cursor.entry(tag).or_default();
            let msg_index = expected_per_tag[&tag][*k];
            *k += 1;
            prop_assert_eq!(
                data,
                payload(msg_index, msgs[msg_index].1),
                "tag {} delivery #{} (len {})", tag, *k, len
            );
        }
    }

    /// Wire-format roundtrip for arbitrary entry sequences.
    #[test]
    fn wire_format_roundtrip(
        entries in prop::collection::vec(
            (0u8..4, any::<u64>(), any::<u32>(), 0usize..2_000),
            1..16
        )
    ) {
        use nomad::core::wire::{decode_packet, encode_packet, Entry};
        let entries: Vec<Entry> = entries
            .into_iter()
            .map(|(kind, tag, seq, len)| match kind {
                0 => Entry::Eager {
                    tag,
                    seq,
                    data: payload(seq as usize, len),
                },
                1 => Entry::Rts {
                    tag,
                    seq,
                    total: len as u32,
                },
                2 => Entry::Cts { tag, seq },
                _ => Entry::Data {
                    tag,
                    seq,
                    offset: (len as u32).wrapping_mul(3),
                    data: payload(tag as usize, len),
                },
            })
            .collect();
        let decoded = decode_packet(encode_packet(&entries)).expect("decode");
        prop_assert_eq!(decoded, entries);
    }

    /// The MPMC ring behaves like a FIFO queue under sequential use, for
    /// any interleaving of pushes and pops.
    #[test]
    fn mpmc_ring_matches_model(
        ops in prop::collection::vec(any::<bool>(), 1..200),
        cap in 1usize..32,
    ) {
        let ring = MpmcRing::new(cap);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for push in ops {
            if push {
                let ok = ring.push(next).is_ok();
                let model_ok = model.len() < ring.capacity();
                prop_assert_eq!(ok, model_ok, "push acceptance diverged");
                if ok {
                    model.push_back(next);
                }
                next += 1;
            } else {
                prop_assert_eq!(ring.pop(), model.pop_front());
            }
        }
        // Drain and compare the tails.
        while let Some(v) = ring.pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// Rendezvous chunking reassembles arbitrary large payloads intact
    /// for any chunk size.
    #[test]
    fn rendezvous_reassembly(
        len in 1usize..60_000,
        chunk in 512usize..8_192,
        seed in any::<u8>(),
    ) {
        let (da, db) = LoopbackDriver::pair(512);
        let config = CoreConfig::default()
            .eager_threshold(64)
            .rdv_chunk(chunk);
        let a = CoreBuilder::new(config.clone())
            .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
            .build();
        let b = CoreBuilder::new(config)
            .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
            .build();
        let data = Bytes::from(
            (0..len).map(|j| (j % (seed as usize + 2)) as u8).collect::<Vec<u8>>()
        );
        let recv = b.irecv(GateId(0), 0).unwrap();
        let send = a.isend(GateId(0), 0, data.clone()).unwrap();
        let mut passes = 0;
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
            passes += 1;
            prop_assert!(passes < 1_000_000, "rendezvous stalled");
        }
        prop_assert_eq!(recv.take_data().unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The sliced CRC-32 kernel equals the bit-at-a-time definition for
    /// any length (block loop and tail) at any start alignment.
    #[test]
    fn sliced_crc32_matches_bitwise(
        len in 0usize..70_001,
        start in 0usize..64,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let buf: Vec<u8> = (0..start + len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let data = &buf[start..];
        let mut want = !0u32;
        for &b in data {
            want ^= b as u32;
            for _ in 0..8 {
                want = if want & 1 != 0 { 0xEDB88320 ^ (want >> 1) } else { want >> 1 };
            }
        }
        prop_assert_eq!(nomad::core::wire::crc32(data), !want, "len {} start {}", len, start);
    }
}

/// Pinned regression: the legacy proptest regression file recorded a
/// shrunk failure `entries = [(3, 140814840257324742, 0, 1489)]` for
/// `wire_format_roundtrip` (a single `Entry::Data` whose 1489-byte payload
/// once tripped a length-prefix bug). The vendored proptest runner cannot
/// replay foreign `cc` hashes, so the case lives on as an explicit test.
#[test]
fn wire_format_roundtrip_data_entry_1489_bytes() {
    use nomad::core::wire::{decode_packet, encode_packet, Entry};
    let entries = vec![Entry::Data {
        tag: 140814840257324742,
        seq: 0,
        offset: 1489u32.wrapping_mul(3),
        data: payload(140814840257324742u64 as usize, 1489),
    }];
    let decoded = decode_packet(encode_packet(&entries)).expect("decode");
    assert_eq!(decoded, entries);
}
