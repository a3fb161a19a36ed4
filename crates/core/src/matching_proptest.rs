//! Property test: the hashed-bin matching state ([`RxState`]) must be
//! observationally identical to the original linear-scan implementation.
//!
//! The oracle below is a faithful copy of the pre-sharding `RxState`
//! methods (one `VecDeque` per table, `position`/`min_by_key` scans).
//! Random interleavings of exact and wildcard posts, eager and RTS
//! arrivals, and unexpected/RTS takes are applied to both; every match
//! outcome must agree — per-tag FIFO for posted receives, post-order
//! arbitration between exact and wildcard posts, and earliest-seq
//! selection for wildcard takes.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;

use crate::gate::{PendingRts, PostedRecv, RxState, TagPattern, UnexpectedMsg};
use crate::request::{Request, RequestKind};

/// The original linear-scan matching state, kept verbatim as the oracle.
/// Posted receives carry a plain id; buffered entries are `(tag, seq)`.
#[derive(Default)]
struct OracleRx {
    posted: VecDeque<(TagPattern, usize)>,
    unexpected: VecDeque<(u64, u32)>,
    pending_rts: VecDeque<(u64, u32)>,
}

impl OracleRx {
    fn take_posted(&mut self, tag: u64) -> Option<usize> {
        let idx = self.posted.iter().position(|(p, _)| p.matches(tag))?;
        self.posted.remove(idx).map(|(_, id)| id)
    }

    fn take_unexpected_matching(&mut self, pattern: TagPattern) -> Option<u32> {
        let idx = self
            .unexpected
            .iter()
            .enumerate()
            .filter(|(_, (tag, _))| pattern.matches(*tag))
            .min_by_key(|(_, (_, seq))| *seq)
            .map(|(i, _)| i)?;
        self.unexpected.remove(idx).map(|(_, seq)| seq)
    }

    fn take_pending_rts(&mut self, pattern: TagPattern) -> Option<u32> {
        let idx = self
            .pending_rts
            .iter()
            .enumerate()
            .filter(|(_, (tag, _))| pattern.matches(*tag))
            .min_by_key(|(_, (_, seq))| *seq)
            .map(|(i, _)| i)?;
        self.pending_rts.remove(idx).map(|(_, seq)| seq)
    }
}

/// The implementation under test, with a side registry that recovers
/// which posted receive a `take_posted` returned: each receive gets a
/// fresh `Request`, and completing the returned one identifies its id.
#[derive(Default)]
struct Subject {
    rx: RxState,
    posts: Vec<(usize, Request)>,
}

impl Subject {
    fn post(&mut self, id: usize, pattern: TagPattern) {
        let req = Request::new(RequestKind::Recv);
        self.posts.push((id, req.clone()));
        self.rx.push_posted(PostedRecv { pattern, req });
    }

    fn take_posted(&mut self, tag: u64) -> Option<usize> {
        let p = self.rx.take_posted(tag)?;
        p.req.complete();
        let idx = self
            .posts
            .iter()
            .position(|(_, r)| r.is_complete())
            .expect("returned receive must be registered");
        Some(self.posts.swap_remove(idx).0)
    }
}

/// One step of the interleaving. Tags are drawn from a tiny domain to
/// force bin collisions and wildcard/exact races.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Post a receive with an exact tag.
    PostExact(u64),
    /// Post a wildcard receive.
    PostAny,
    /// An eager message for `tag` arrives (matched or buffered).
    Eager(u64),
    /// An RTS for `tag` arrives (matched or parked).
    Rts(u64),
    /// A receive drains the unexpected table (exact or wildcard).
    TakeUnexpected(Option<u64>),
    /// A receive claims a parked RTS (exact or wildcard).
    TakeRts(Option<u64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof`; select the variant by
    // index (arrivals weighted double so tables actually fill up).
    (0u8..10, 0u64..3).prop_map(|(k, tag)| match k {
        0 => Op::PostExact(tag),
        1 => Op::PostAny,
        2 | 3 => Op::Eager(tag),
        4 | 5 => Op::Rts(tag),
        6 => Op::TakeUnexpected(Some(tag)),
        7 => Op::TakeUnexpected(None),
        8 => Op::TakeRts(Some(tag)),
        _ => Op::TakeRts(None),
    })
}

fn pattern(tag: Option<u64>) -> TagPattern {
    match tag {
        Some(t) => TagPattern::Exact(t),
        None => TagPattern::Any,
    }
}

proptest! {
    #[test]
    fn hashed_bins_match_linear_scan_oracle(
        ops in prop::collection::vec(op_strategy(), 1..120),
        // Raw arrival seqs: arbitrary (not monotonic) to also exercise
        // the out-of-order bin insertion path.
        raw_seqs in prop::collection::vec(any::<u32>(), 240..241),
    ) {
        let mut oracle = OracleRx::default();
        let mut subject = Subject::default();
        // Unique-ify the seq streams (keeping their random order, so
        // arrivals genuinely come out of order); eager and rdv ids are
        // separate spaces in the real gate, so split them apart too.
        let mut seen = std::collections::HashSet::new();
        let seqs: Vec<u32> = raw_seqs.into_iter().filter(|s| seen.insert(*s)).collect();
        let mut eager_seqs = seqs.iter().copied().step_by(2);
        let mut rdv_seqs = seqs.iter().copied().skip(1).step_by(2);

        let mut next_post_id = 0usize;
        for op in ops {
            match op {
                Op::PostExact(tag) => {
                    oracle.posted.push_back((TagPattern::Exact(tag), next_post_id));
                    subject.post(next_post_id, TagPattern::Exact(tag));
                    next_post_id += 1;
                }
                Op::PostAny => {
                    oracle.posted.push_back((TagPattern::Any, next_post_id));
                    subject.post(next_post_id, TagPattern::Any);
                    next_post_id += 1;
                }
                Op::Eager(tag) => {
                    let Some(seq) = eager_seqs.next() else { break };
                    let expect = oracle.take_posted(tag);
                    let got = subject.take_posted(tag);
                    prop_assert_eq!(expect, got, "eager match order diverged");
                    if expect.is_none() {
                        oracle.unexpected.push_back((tag, seq));
                        subject.rx.push_unexpected(UnexpectedMsg {
                            tag,
                            seq,
                            data: Bytes::new(),
                        });
                    }
                }
                Op::Rts(tag) => {
                    let Some(seq) = rdv_seqs.next() else { break };
                    let expect = oracle.take_posted(tag);
                    let got = subject.take_posted(tag);
                    prop_assert_eq!(expect, got, "RTS match order diverged");
                    if expect.is_none() {
                        oracle.pending_rts.push_back((tag, seq));
                        subject.rx.push_pending_rts(PendingRts { tag, seq, total: 1 });
                    }
                }
                Op::TakeUnexpected(tag) => {
                    let expect = oracle.take_unexpected_matching(pattern(tag));
                    let got = subject
                        .rx
                        .take_unexpected_matching(pattern(tag))
                        .map(|m| m.seq);
                    prop_assert_eq!(expect, got, "unexpected take diverged");
                }
                Op::TakeRts(tag) => {
                    let expect = oracle.take_pending_rts(pattern(tag));
                    let got = subject.rx.take_pending_rts(pattern(tag)).map(|r| r.seq);
                    prop_assert_eq!(expect, got, "pending-RTS take diverged");
                }
            }
        }
        // Final state must agree too: drain everything wildcard.
        loop {
            let expect = oracle.take_unexpected_matching(TagPattern::Any);
            let got = subject
                .rx
                .take_unexpected_matching(TagPattern::Any)
                .map(|m| m.seq);
            prop_assert_eq!(expect, got);
            if expect.is_none() {
                break;
            }
        }
        loop {
            let expect = oracle.take_pending_rts(TagPattern::Any);
            let got = subject.rx.take_pending_rts(TagPattern::Any).map(|r| r.seq);
            prop_assert_eq!(expect, got);
            if expect.is_none() {
                break;
            }
        }
        for tag in 0..3u64 {
            loop {
                let expect = oracle.take_posted(tag);
                let got = subject.take_posted(tag);
                prop_assert_eq!(expect, got);
                if expect.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(subject.rx.posted_len(), oracle.posted.len());
    }
}
