//! Deterministic chaos fabric: seeded fault injection over any [`Driver`].
//!
//! The ROADMAP's real-transport item calls for "packet loss/jitter via
//! the existing `reorder` machinery promoted to a chaos-fabric mode" —
//! this module is that promotion. A [`ChaosDriver`] wraps any driver and
//! perturbs its traffic according to a [`FaultPlan`]: packet loss,
//! duplication, single-byte corruption, delay/jitter (packets held for a
//! number of polls), transient NIC stalls (injection refused for a
//! window) and within-rail reordering. All perturbations draw from
//! **one** seeded linear-congruential sequence, so a run is a pure
//! function of the seed and the call sequence: every fault scenario is a
//! reproducible test.
//!
//! Faults are injected on the receive side (`poll_vci`), modelling the
//! wire, except stalls, which model the local NIC and gate
//! `can_post_vci`/`post_frame_vci`. A fault acts on a whole [`WireFrame`]:
//! a two-part frame is lost, duplicated or held as one packet, and the
//! byte a corruption flips is drawn from head and body together.
//! Every injected fault increments a global `fabric.chaos_*` counter in
//! `nm-metrics`, a per-driver [`ChaosStats`] counter, and emits a trace
//! event (`FaultLoss`, `FaultDup`, `FaultCorrupt`, `FaultDelay`,
//! `FaultStall`, `FaultReorder`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::{Bytes, BytesMut};

use nm_metrics::trace_event;
use nm_sync::SpinLock;

use crate::{metrics, ClockSource, Driver, DriverCaps, PostError, WireFrame};

/// The kinds of fault a [`ChaosDriver`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Packet silently dropped (never delivered).
    Loss,
    /// Packet delivered twice.
    Duplicate,
    /// One payload byte flipped (the reliability layer's checksum must
    /// catch it; a plan with this fault sets `DriverCaps::may_corrupt`).
    Corrupt,
    /// Packet held back for a number of polls (latency jitter).
    Delay,
    /// Transient NIC stall: injection refused for a window.
    Stall,
    /// Within-rail reordering: packets released out of arrival order.
    Reorder,
}

impl FaultKind {
    /// All kinds, in injection order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Loss,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
        FaultKind::Delay,
        FaultKind::Stall,
        FaultKind::Reorder,
    ];
}

/// Probabilities are stored in parts-per-million so fault decisions are
/// exact integer comparisons against the LCG stream (bit-deterministic
/// across platforms; no floating-point rounding in the replay path).
const PPM: u64 = 1_000_000;

fn to_ppm(p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    (p * PPM as f64).round() as u32
}

/// Per-wire fault configuration of a [`ChaosDriver`] (builder-style).
///
/// The default plan (any seed, no faults enabled) is a transparent
/// wrapper; each knob enables one [`FaultKind`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    loss_ppm: u32,
    dup_ppm: u32,
    corrupt_ppm: u32,
    delay_ppm: u32,
    delay_polls: u32,
    stall_period: u64,
    stall_len: u32,
    reorder_depth: usize,
}

impl FaultPlan {
    /// A no-fault plan drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
            delay_ppm: 0,
            delay_polls: 0,
            stall_period: 0,
            stall_len: 0,
            reorder_depth: 1,
        }
    }

    /// Drops each delivered packet with probability `p`.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss_ppm = to_ppm(p);
        self
    }

    /// Duplicates each delivered packet with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_ppm = to_ppm(p);
        self
    }

    /// Flips one byte of each delivered packet with probability `p`.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt_ppm = to_ppm(p);
        self
    }

    /// Holds each delivered packet back for `polls` polls with
    /// probability `p` (latency jitter in poll units).
    pub fn delay(mut self, p: f64, polls: u32) -> Self {
        self.delay_ppm = to_ppm(p);
        self.delay_polls = polls;
        self
    }

    /// Stalls the NIC after every `period` accepted posts: the next
    /// `len` injection attempts are refused (`can_post_vci` false,
    /// `post_frame_vci` returns [`PostError::WouldBlock`]). `period = 0`
    /// disables stalls.
    pub fn stall(mut self, period: u64, len: u32) -> Self {
        self.stall_period = period;
        self.stall_len = len;
        self
    }

    /// Buffers up to `depth` packets and releases them in seeded random
    /// order ([`FaultKind::Reorder`]; `depth = 1` preserves order).
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn reorder(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be at least 1");
        self.reorder_depth = depth;
        self
    }

    /// A plan whose only fault is reordering within `depth` packets.
    pub fn reorder_only(depth: usize, seed: u64) -> Self {
        FaultPlan::new(seed).reorder(depth)
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Per-driver injected-fault counters (cheap snapshot in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Packets dropped.
    pub lost: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Packets with a flipped byte.
    pub corrupted: u64,
    /// Packets held back at least one poll.
    pub delayed: u64,
    /// Stall windows entered.
    pub stalls: u64,
    /// Packets released out of arrival order.
    pub reordered: u64,
}

impl ChaosStats {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.lost + self.duplicated + self.corrupted + self.delayed + self.stalls + self.reordered
    }
}

/// A buffered inbound packet, with the polls it must still wait.
struct Held {
    data: WireFrame,
    hold: u32,
    /// Arrival index (for reorder detection).
    arrival: u64,
}

struct ChaosState {
    lcg: u64,
    held: VecDeque<Held>,
    /// Accepted posts since the last stall window.
    posts_since_stall: u64,
    /// Injection attempts still refused by the active stall window.
    stall_left: u32,
    /// Next arrival index / last released arrival index.
    arrivals: u64,
    last_released: u64,
    stats: ChaosStats,
}

impl ChaosState {
    /// Numerical Recipes LCG: deterministic, seedable, dependency-free.
    fn next(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 33
    }

    fn roll(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next() % PPM < ppm as u64
    }
}

/// Wraps a driver with deterministic, seeded fault injection.
///
/// Composable: any [`Driver`] can be wrapped, including another
/// `ChaosDriver` (e.g. independent loss and reorder seeds per layer).
///
/// A chaos driver always exposes **one** VCI context (the trait
/// default), whatever the inner driver reports, and carries its traffic
/// on the inner driver's context 0: every fault decision draws from one
/// seeded sequence, and splitting that stream across concurrently
/// polled contexts would make replay depend on thread interleaving.
/// Wrap per-VCI drivers individually if per-context chaos is needed.
pub struct ChaosDriver<D> {
    inner: D,
    plan: FaultPlan,
    /// The inner driver's caps, with `may_corrupt` also set when the
    /// plan flips bytes.
    caps: DriverCaps,
    chaos: SpinLock<ChaosState>,
    /// `held` is not empty, readable without the chaos lock. Written
    /// only under that lock and only when it changes, so at every
    /// release of the lock it says whether a packet is held back.
    holding: AtomicBool,
}

impl<D: Driver> ChaosDriver<D> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let seed = plan.seed | 1;
        let mut caps = inner.caps().clone();
        caps.may_corrupt |= plan.corrupt_ppm > 0;
        ChaosDriver {
            inner,
            plan,
            caps,
            // Unclassed, like every driver-internal lock: drivers are
            // leaves of the lock hierarchy (`poll_vci`/`post_frame_vci` are
            // called under `core.driver`) and take no classed locks.
            chaos: SpinLock::new(ChaosState {
                lcg: seed,
                held: VecDeque::new(),
                posts_since_stall: 0,
                stall_left: 0,
                arrivals: 0,
                last_released: 0,
                stats: ChaosStats::default(),
            }),
            holding: AtomicBool::new(false),
        }
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.chaos.lock().stats
    }

    /// Pulls packets from the inner driver into the shuffle buffer,
    /// applying per-packet fault rolls. Rolls happen in a fixed order
    /// (loss, duplicate, corrupt, delay) so a seed replays exactly.
    fn fill(&self, st: &mut ChaosState) {
        while st.held.len() < self.plan.reorder_depth {
            let Some(data) = self.inner.poll_vci(0) else {
                break;
            };
            if st.roll(self.plan.loss_ppm) {
                st.stats.lost += 1;
                metrics::chaos_lost().incr();
                trace_event!(FaultLoss, data.len());
                continue;
            }
            let copies = if st.roll(self.plan.dup_ppm) {
                st.stats.duplicated += 1;
                metrics::chaos_duplicated().incr();
                trace_event!(FaultDup, data.len());
                2
            } else {
                1
            };
            let data = if st.roll(self.plan.corrupt_ppm) && !data.is_empty() {
                let idx = (st.next() as usize) % data.len();
                st.stats.corrupted += 1;
                metrics::chaos_corrupted().incr();
                trace_event!(FaultCorrupt, idx);
                flip(data, idx)
            } else {
                data
            };
            let hold = if st.roll(self.plan.delay_ppm) {
                st.stats.delayed += 1;
                metrics::chaos_delayed().incr();
                trace_event!(FaultDelay, self.plan.delay_polls);
                self.plan.delay_polls
            } else {
                0
            };
            for _ in 0..copies {
                let arrival = st.arrivals;
                st.arrivals += 1;
                st.held.push_back(Held {
                    data: data.clone(),
                    hold,
                    arrival,
                });
            }
        }
    }

    /// One poll under the chaos lock: refills the shuffle buffer, ages
    /// the packets held back and releases one that is due.
    fn release(&self, st: &mut ChaosState) -> Option<WireFrame> {
        self.fill(st);
        if st.held.is_empty() {
            return None;
        }
        // Age delayed packets one poll per call.
        for h in st.held.iter_mut() {
            h.hold = h.hold.saturating_sub(1);
        }
        let ready: Vec<usize> = st
            .held
            .iter()
            .enumerate()
            .filter(|(_, h)| h.hold == 0)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            return None;
        }
        // Only release out of order while more packets are (or may be)
        // behind; a lone packet is released as-is.
        let pick = if self.plan.reorder_depth > 1 && ready.len() > 1 {
            let n = ready.len();
            ready[(st.next() as usize) % n]
        } else {
            ready[0]
        };
        let held = st.held.remove(pick).expect("index from enumerate");
        if held.arrival < st.last_released {
            st.stats.reordered += 1;
            metrics::chaos_reordered().incr();
            trace_event!(FaultReorder, st.held.len() + 1);
        }
        st.last_released = st.last_released.max(held.arrival);
        Some(held.data)
    }
}

/// `frame` with byte `idx` of its wire bytes, head then body, inverted.
fn flip(frame: WireFrame, idx: usize) -> WireFrame {
    let flipped = |part: &Bytes, i: usize| {
        let mut buf = BytesMut::from(&part[..]);
        buf[i] ^= 0xFF;
        buf.freeze()
    };
    let (head, body) = frame.into_parts();
    match body {
        Some(body) if idx >= head.len() => {
            let body = flipped(&body, idx - head.len());
            WireFrame::from_parts(head, Some(body))
        }
        body => WireFrame::from_parts(flipped(&head, idx), body),
    }
}

impl<D: Driver> Driver for ChaosDriver<D> {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }

    fn can_post_vci(&self, vci: usize) -> bool {
        debug_assert_eq!(vci, 0);
        if self.plan.stall_period > 0 {
            let st = self.chaos.lock();
            if st.stall_left > 0 {
                return false;
            }
        }
        self.inner.can_post_vci(0)
    }

    fn post_frame_vci(&self, vci: usize, data: WireFrame) -> Result<(), PostError> {
        debug_assert_eq!(vci, 0);
        if self.plan.stall_period > 0 {
            let mut st = self.chaos.lock();
            if st.stall_left > 0 {
                st.stall_left -= 1;
                return Err(PostError::WouldBlock);
            }
            st.posts_since_stall += 1;
            if st.posts_since_stall >= self.plan.stall_period {
                st.posts_since_stall = 0;
                st.stall_left = self.plan.stall_len;
                st.stats.stalls += 1;
                metrics::chaos_stalls().incr();
                trace_event!(FaultStall, self.plan.stall_len);
            }
        }
        self.inner.post_frame_vci(0, data)
    }

    fn poll_vci(&self, vci: usize) -> Option<WireFrame> {
        debug_assert_eq!(vci, 0);
        let mut st = self.chaos.lock();
        let out = self.release(&mut st);
        let holding = !st.held.is_empty();
        // relaxed: (load and store) the flag publishes nothing — `held`
        // is only read under the lock — and the lock's release orders it
        // for the next holder. Stored only on change, so polls that find
        // nothing do not dirty the line the doorbell reads.
        if self.holding.load(Ordering::Relaxed) != holding {
            self.holding.store(holding, Ordering::Relaxed);
        }
        out
    }

    fn has_inbound_vci(&self, vci: usize) -> bool {
        debug_assert_eq!(vci, 0);
        // relaxed: advisory, see `holding`; a held packet still needs
        // polls to age and be released.
        self.holding.load(Ordering::Relaxed) || self.inner.has_inbound_vci(0)
    }

    fn next_event_ns_vci(&self, vci: usize) -> Option<u64> {
        debug_assert_eq!(vci, 0);
        if self.chaos.lock().held.is_empty() {
            self.inner.next_event_ns_vci(0)
        } else {
            Some(0)
        }
    }

    fn clock(&self) -> ClockSource {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopbackDriver;

    fn drain<D: Driver>(d: &D) -> Vec<u8> {
        let mut out = Vec::new();
        let mut idle = 0;
        // Delayed packets return None while aging; keep polling until the
        // buffer stays empty.
        while idle < 64 {
            match d.poll_vci(0) {
                Some(p) => {
                    out.push(p.head()[0]);
                    idle = 0;
                }
                None => idle += 1,
            }
        }
        out
    }

    fn send<D: Driver>(tx: &D, n: u8) {
        for i in 0..n {
            tx.post_frame_vci(0, Bytes::copy_from_slice(&[i]).into())
                .unwrap();
        }
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let (tx, rx) = LoopbackDriver::pair(64);
        let rx = ChaosDriver::new(rx, FaultPlan::new(1));
        send(&tx, 16);
        assert_eq!(drain(&rx), (0..16).collect::<Vec<u8>>());
        assert_eq!(rx.stats().total(), 0);
    }

    #[test]
    fn loss_drops_deterministically() {
        let run = || {
            let (tx, rx) = LoopbackDriver::pair(256);
            let rx = ChaosDriver::new(rx, FaultPlan::new(7).loss(0.3));
            send(&tx, 200);
            drain(&rx)
        };
        let got = run();
        assert!(got.len() < 200, "some packets must be lost");
        assert!(!got.is_empty(), "not all packets may be lost at 30%");
        assert_eq!(got, run(), "same seed must lose the same packets");
    }

    #[test]
    fn duplication_delivers_copies() {
        let (tx, rx) = LoopbackDriver::pair(256);
        let rx = ChaosDriver::new(rx, FaultPlan::new(3).duplicate(0.5));
        send(&tx, 100);
        let got = drain(&rx);
        assert!(got.len() > 100, "some packets must be duplicated");
        assert_eq!(got.len() as u64 - 100, rx.stats().duplicated);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let (tx, rx) = LoopbackDriver::pair(16);
        let rx = ChaosDriver::new(rx, FaultPlan::new(5).corrupt(1.0));
        tx.post_frame_vci(0, Bytes::from_static(b"hello world").into())
            .unwrap();
        let got = rx.poll_vci(0).unwrap();
        let diff: Vec<usize> = got
            .head()
            .iter()
            .zip(b"hello world".iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff.len(), 1, "exactly one byte must differ");
        assert_eq!(rx.stats().corrupted, 1);
    }

    #[test]
    fn delay_holds_packets_across_polls() {
        let (tx, rx) = LoopbackDriver::pair(16);
        let rx = ChaosDriver::new(rx, FaultPlan::new(9).delay(1.0, 3));
        tx.post_frame_vci(0, Bytes::from_static(b"x").into())
            .unwrap();
        assert_eq!(rx.poll_vci(0), None);
        assert_eq!(rx.poll_vci(0), None);
        assert_eq!(rx.poll_vci(0), Some(Bytes::from_static(b"x").into()));
        assert_eq!(rx.stats().delayed, 1);
    }

    #[test]
    fn stall_refuses_a_window_then_recovers() {
        let (tx, rx) = LoopbackDriver::pair(64);
        let tx = ChaosDriver::new(tx, FaultPlan::new(2).stall(4, 2));
        for i in 0..4u8 {
            tx.post_frame_vci(0, Bytes::copy_from_slice(&[i]).into())
                .unwrap();
        }
        // The 4th accepted post opened a stall window of 2 attempts.
        assert!(!tx.can_post_vci(0));
        assert_eq!(
            tx.post_frame_vci(0, Bytes::from_static(b"x").into()),
            Err(PostError::WouldBlock)
        );
        assert_eq!(
            tx.post_frame_vci(0, Bytes::from_static(b"x").into()),
            Err(PostError::WouldBlock)
        );
        // Window exhausted; injection works again.
        assert!(tx.can_post_vci(0));
        tx.post_frame_vci(0, Bytes::from_static(&[4]).into())
            .unwrap();
        assert_eq!(tx.stats().stalls, 1);
        let mut got = Vec::new();
        while let Some(p) = rx.poll_vci(0) {
            got.push(p.head()[0]);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reorder_shuffles_but_loses_nothing() {
        let (tx, rx) = LoopbackDriver::pair(64);
        let rx = ChaosDriver::new(rx, FaultPlan::reorder_only(4, 7));
        send(&tx, 32);
        let mut got = drain(&rx);
        assert_ne!(got, (0..32).collect::<Vec<u8>>(), "nothing was reordered");
        assert!(rx.stats().reordered > 0);
        got.sort_unstable();
        assert_eq!(
            got,
            (0..32).collect::<Vec<u8>>(),
            "packets lost or duplicated"
        );
    }

    #[test]
    fn combined_plan_is_deterministic() {
        let run = || {
            let (tx, rx) = LoopbackDriver::pair(512);
            let rx = ChaosDriver::new(
                rx,
                FaultPlan::new(0xC0FFEE)
                    .loss(0.05)
                    .duplicate(0.05)
                    .corrupt(0.05)
                    .delay(0.1, 2)
                    .reorder(4),
            );
            send(&tx, 200);
            (drain(&rx), rx.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_composes_over_chaos() {
        let (tx, rx) = LoopbackDriver::pair(256);
        let rx = ChaosDriver::new(
            ChaosDriver::new(rx, FaultPlan::new(11).loss(0.2)),
            FaultPlan::reorder_only(4, 13),
        );
        send(&tx, 100);
        let mut got = drain(&rx);
        got.sort_unstable();
        got.dedup();
        assert!(got.len() < 100);
        assert!(rx.inner().stats().lost > 0);
    }

    #[test]
    fn passthrough_caps_and_post() {
        let (tx, rx) = LoopbackDriver::pair(2);
        let tx = ChaosDriver::new(tx, FaultPlan::new(1));
        assert!(tx.caps().thread_safe);
        assert!(tx.can_post_vci(0));
        tx.post_frame_vci(0, Bytes::from_static(b"a").into())
            .unwrap();
        tx.post_frame_vci(0, Bytes::from_static(b"b").into())
            .unwrap();
        assert_eq!(
            tx.post_frame_vci(0, Bytes::from_static(b"c").into()),
            Err(PostError::WouldBlock)
        );
        assert!(rx.poll_vci(0).is_some());
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_reorder_depth_rejected() {
        let _ = FaultPlan::new(1).reorder(0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::new(1).loss(1.5);
    }
}
