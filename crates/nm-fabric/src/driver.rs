//! The driver interface the transfer layer programs against, and the
//! frame that crosses it.

use std::sync::Arc;

use bytes::Bytes;

use crate::{ClockSource, MpmcRing, NicCounters, SimNic};

/// One packet as it crosses a [`Driver`]: a head and an optional body.
/// On the wire the packet is the head's bytes followed by the body's,
/// as one unit: a driver posts, delivers, counts, drops, duplicates or
/// damages the frame whole, and its MTU bounds head and body together.
///
/// The body lets a sender post a large payload where it lies, the way a
/// NIC gathers a header and a user buffer into one packet: nothing is
/// copied to join them. The receiver gets the two parts back as they
/// were posted. Most frames are one part; they are the size of a
/// [`Bytes`] and cost nothing over one, since the parts of a two-part
/// frame are boxed out of line.
#[derive(Clone, PartialEq, Eq)]
pub struct WireFrame(Parts);

#[derive(Clone, PartialEq, Eq)]
enum Parts {
    Whole(Bytes),
    Split(Box<(Bytes, Bytes)>),
}

impl WireFrame {
    /// The frame of `head`, followed by `body` if there is one: the
    /// inverse of [`WireFrame::into_parts`].
    #[inline]
    pub fn from_parts(head: Bytes, body: Option<Bytes>) -> Self {
        match body {
            None => WireFrame(Parts::Whole(head)),
            Some(body) => WireFrame(Parts::Split(Box::new((head, body)))),
        }
    }

    /// The part that leads on the wire; all of a one-part frame.
    #[inline]
    pub fn head(&self) -> &Bytes {
        match &self.0 {
            Parts::Whole(head) => head,
            Parts::Split(parts) => &parts.0,
        }
    }

    /// The part that follows the head, if the frame has two.
    #[inline]
    pub fn body(&self) -> Option<&Bytes> {
        match &self.0 {
            Parts::Whole(_) => None,
            Parts::Split(parts) => Some(&parts.1),
        }
    }

    /// Bytes on the wire: head and body together.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Parts::Whole(head) => head.len(),
            Parts::Split(parts) => parts.0.len() + parts.1.len(),
        }
    }

    /// `true` if the frame carries no byte at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head and the body, if any.
    #[inline]
    pub fn into_parts(self) -> (Bytes, Option<Bytes>) {
        match self.0 {
            Parts::Whole(head) => (head, None),
            Parts::Split(parts) => (parts.0, Some(parts.1)),
        }
    }
}

impl From<Bytes> for WireFrame {
    /// A one-part frame.
    #[inline]
    fn from(whole: Bytes) -> Self {
        WireFrame(Parts::Whole(whole))
    }
}

impl std::fmt::Debug for WireFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Parts::Whole(head) => head.fmt(f),
            Parts::Split(parts) => write!(f, "{:?} ++ {:?}", parts.0, parts.1),
        }
    }
}

/// Static capabilities of a driver.
#[derive(Debug, Clone)]
pub struct DriverCaps {
    /// Driver name (for diagnostics and bench labels).
    pub name: String,
    /// Largest payload one packet may carry.
    pub mtu: usize,
    /// `false` for drivers that, like Myrinet MX in the paper, must never
    /// be entered by two threads at once. It is a declaration, not a
    /// switch: `nm-core` does not read it. Every `poll_vci`/`post_frame_vci`
    /// of every driver runs inside that lane's `Driver` section — a
    /// per-lane spinlock in fine-grain mode, the library-wide lock in
    /// coarse mode, the single-caller check in single-thread mode — so a
    /// thread-unsafe driver is safe under all three. The section is kept
    /// for thread-safe drivers too: it is the paper's Fig 4 per-driver
    /// lock, the one lock of the lane, covering its transfer list and
    /// reliability window as well, and the only section an idle
    /// fine-grain pass still takes.
    pub thread_safe: bool,
    /// `true` when a frame can arrive damaged. Like MX or InfiniBand,
    /// a driver whose link layer guarantees integrity says `false`, and
    /// `nm-core` then computes no checksum on an unreliable core; it
    /// refuses to build an unreliable core over a driver that says
    /// `true`, because integrity is checked only by its reliability
    /// layer.
    pub may_corrupt: bool,
}

/// Why a post was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The injection queue is full; retry when the NIC is idle again.
    WouldBlock,
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostError::WouldBlock => write!(f, "NIC injection queue full"),
        }
    }
}

impl std::error::Error for PostError {}

/// A network driver: polling completion, bounded injection, opaque packets.
///
/// This mirrors the role of the "Network Driver" box of the paper's Fig 1:
/// the transfer layer submits arranged packets here and polls for inbound
/// ones when the NIC is idle.
pub trait Driver: Send + Sync {
    /// Driver capabilities.
    fn caps(&self) -> &DriverCaps;
    /// Number of independent VCI contexts this driver exposes. The
    /// transfer layer may drive different contexts from different
    /// threads without mutual serialization. Every other method takes a
    /// context index; callers must pass `vci < num_vcis()`.
    fn num_vcis(&self) -> usize {
        1
    }
    /// `true` when another packet can be injected on this context (the
    /// NIC is idle).
    fn can_post_vci(&self, vci: usize) -> bool;
    /// Injects one frame (head and body must fit the MTU together) on
    /// one VCI context. Callers holding a `dyn Driver` may also post
    /// anything that converts into a frame through `post_vci`.
    fn post_frame_vci(&self, vci: usize, frame: WireFrame) -> Result<(), PostError>;
    /// Polls one VCI context for one inbound frame, in the parts it was
    /// posted in.
    fn poll_vci(&self, vci: usize) -> Option<WireFrame>;
    /// The context's doorbell: `false` when a poll of it would find
    /// nothing, answered without a lock and safe to ask from any thread
    /// outside the lane's section. A progression pass rings it before it
    /// enters a section to poll. It may say `true` for nothing (a packet
    /// still in flight, a poll that is about to take it), but it says
    /// `false` while a packet can be polled only if another thread's
    /// poll of the context is under way and will deliver it. The default
    /// always says `true`, which is correct for any driver.
    fn has_inbound_vci(&self, _vci: usize) -> bool {
        true
    }
    /// Earliest pending inbound delivery timestamp on one VCI context
    /// (virtual-clock runs).
    fn next_event_ns_vci(&self, _vci: usize) -> Option<u64> {
        None
    }
    /// The clock this driver's wire runs on. A core reads every deadline
    /// (retransmits, expiring requests) from the clock of the drivers it
    /// was built over; the default is the process-wide real clock.
    fn clock(&self) -> ClockSource {
        ClockSource::real()
    }
}

impl dyn Driver + '_ {
    /// [`Driver::post_frame_vci`] of anything that converts into a
    /// frame, such as the [`Bytes`] of a one-part frame.
    pub fn post_vci(&self, vci: usize, frame: impl Into<WireFrame>) -> Result<(), PostError> {
        self.post_frame_vci(vci, frame.into())
    }
}

/// [`Driver`] backed by a [`SimNic`] endpoint.
pub struct SimNicDriver {
    nic: SimNic,
    caps: DriverCaps,
}

impl SimNicDriver {
    /// Wraps a NIC endpoint. `thread_safe = false` labels it an MX-style
    /// driver that requires external serialization (which `nm-core`
    /// provides for every driver; see [`DriverCaps::thread_safe`]).
    pub fn new(nic: SimNic, thread_safe: bool) -> Self {
        let caps = DriverCaps {
            name: nic.name().to_string(),
            mtu: nic.model().mtu,
            thread_safe,
            may_corrupt: false,
        };
        SimNicDriver { nic, caps }
    }

    /// The underlying NIC (for counters and clock access).
    pub fn nic(&self) -> &SimNic {
        &self.nic
    }

    /// Traffic counters of the underlying NIC.
    pub fn counters(&self) -> &NicCounters {
        self.nic.counters()
    }
}

impl Driver for SimNicDriver {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }

    fn num_vcis(&self) -> usize {
        self.nic.num_vcis()
    }

    fn can_post_vci(&self, vci: usize) -> bool {
        self.nic.can_post_vci(vci)
    }

    fn post_frame_vci(&self, vci: usize, frame: WireFrame) -> Result<(), PostError> {
        self.nic
            .post_send_vci(vci, frame)
            .map_err(|_| PostError::WouldBlock)
    }

    fn poll_vci(&self, vci: usize) -> Option<WireFrame> {
        self.nic.poll_recv_vci(vci)
    }

    fn has_inbound_vci(&self, vci: usize) -> bool {
        self.nic.has_inbound_vci(vci)
    }

    fn next_event_ns_vci(&self, vci: usize) -> Option<u64> {
        self.nic.next_delivery_ns_vci(vci)
    }

    fn clock(&self) -> ClockSource {
        self.nic.clock().clone()
    }
}

/// A zero-latency in-process driver pair for protocol unit tests: packets
/// are visible to the peer immediately.
pub struct LoopbackDriver {
    caps: DriverCaps,
    tx: Arc<MpmcRing<WireFrame>>,
    rx: Arc<MpmcRing<WireFrame>>,
}

impl LoopbackDriver {
    /// Creates a connected pair with the given queue depth.
    pub fn pair(depth: usize) -> (LoopbackDriver, LoopbackDriver) {
        let ab = Arc::new(MpmcRing::new(depth));
        let ba = Arc::new(MpmcRing::new(depth));
        let caps = |side: &str| DriverCaps {
            name: format!("loopback.{side}"),
            mtu: usize::MAX,
            thread_safe: true,
            may_corrupt: false,
        };
        (
            LoopbackDriver {
                caps: caps("0"),
                tx: Arc::clone(&ab),
                rx: Arc::clone(&ba),
            },
            LoopbackDriver {
                caps: caps("1"),
                tx: ba,
                rx: ab,
            },
        )
    }
}

impl Driver for LoopbackDriver {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }

    fn can_post_vci(&self, vci: usize) -> bool {
        debug_assert_eq!(vci, 0);
        !self.tx.is_full()
    }

    fn post_frame_vci(&self, vci: usize, frame: WireFrame) -> Result<(), PostError> {
        debug_assert_eq!(vci, 0);
        self.tx.push(frame).map_err(|_| PostError::WouldBlock)
    }

    fn poll_vci(&self, vci: usize) -> Option<WireFrame> {
        debug_assert_eq!(vci, 0);
        self.rx.pop()
    }

    fn has_inbound_vci(&self, vci: usize) -> bool {
        debug_assert_eq!(vci, 0);
        !self.rx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosDriver, FaultPlan, WireModel};

    /// Injection depth every driver under [`conforms`] is built with.
    const DEPTH: usize = 4;

    /// Packet `n` of context `vci`: a one-part frame for even `n`, a
    /// two-part frame for odd `n`, so every path below carries both.
    fn tagged(vci: usize, n: usize) -> WireFrame {
        let body = (n % 2 == 1).then(|| Bytes::from(vec![n as u8; 3]));
        WireFrame::from_parts(Bytes::from(vec![vci as u8, n as u8]), body)
    }

    /// Polls `d` on context `v`, checking that its doorbell rang for
    /// whatever the poll finds.
    fn poll<D: Driver>(d: &D, v: usize) -> Option<WireFrame> {
        let rang = d.has_inbound_vci(v);
        let got = d.poll_vci(v);
        assert!(
            rang || got.is_none(),
            "{}: vci {v} polled a packet its doorbell denied",
            d.caps().name
        );
        got
    }

    /// Asserts that no context of `d` has its doorbell rung.
    fn silent<D: Driver>(d: &D) {
        for v in 0..d.num_vcis() {
            assert!(!d.has_inbound_vci(v), "{}: vci {v} rings", d.caps().name);
        }
    }

    /// What the transfer layer relies on from any connected driver pair:
    /// a round trip on every context, `WouldBlock` on a full injection
    /// ring with recovery after one peer poll, no leakage between
    /// contexts, a doorbell that is silent on an empty context, rings
    /// after a post and never stays silent while a packet can be polled,
    /// and two-part frames delivered in the parts they were posted in.
    fn conforms<D: Driver>(a: &D, b: &D) {
        assert_eq!(a.num_vcis(), b.num_vcis());
        silent(a);
        silent(b);
        for v in 0..a.num_vcis() {
            a.post_frame_vci(v, tagged(v, 0)).unwrap();
            assert!(b.has_inbound_vci(v), "a post rings the peer's doorbell");
            assert_eq!(poll(b, v), Some(tagged(v, 0)));
            b.post_frame_vci(v, tagged(v, 1)).unwrap();
            assert_eq!(poll(a, v), Some(tagged(v, 1)));
            assert_eq!(poll(a, v), None);

            for n in 0..DEPTH {
                assert!(a.can_post_vci(v), "vci {v} refused packet {n}");
                a.post_frame_vci(v, tagged(v, n)).unwrap();
            }
            assert!(!a.can_post_vci(v));
            assert_eq!(
                a.post_frame_vci(v, tagged(v, DEPTH)),
                Err(PostError::WouldBlock)
            );
            for other in (0..a.num_vcis()).filter(|&o| o != v) {
                assert!(a.can_post_vci(other), "vci {v} full blocks vci {other}");
                assert!(!b.has_inbound_vci(other), "vci {v} rings vci {other}");
                assert_eq!(poll(b, other), None, "vci {v} visible on {other}");
            }
            assert_eq!(poll(b, v), Some(tagged(v, 0)));
            assert!(a.can_post_vci(v), "one poll must free one slot");
            a.post_frame_vci(v, tagged(v, DEPTH)).unwrap();
            for n in 1..=DEPTH {
                assert_eq!(poll(b, v), Some(tagged(v, n)));
            }
            assert_eq!(poll(b, v), None);
            silent(a);
            silent(b);
        }
    }

    fn simnic_pair(n_vcis: usize) -> (SimNicDriver, SimNicDriver) {
        let model = WireModel {
            tx_depth: DEPTH,
            ..WireModel::ideal()
        };
        let (na, nb) = SimNic::pair_vcis("conf", model, ClockSource::manual(), n_vcis);
        (SimNicDriver::new(na, true), SimNicDriver::new(nb, true))
    }

    fn transparent<D: Driver>(d: D) -> ChaosDriver<D> {
        ChaosDriver::new(d, FaultPlan::new(1))
    }

    /// Asserts that no driver of the pair can damage a frame.
    fn clean<D: Driver>(pair: (D, D)) -> (D, D) {
        for d in [&pair.0, &pair.1] {
            assert!(!d.caps().may_corrupt, "{} may corrupt", d.caps().name);
        }
        pair
    }

    #[test]
    fn every_driver_conforms() {
        let (a, b) = clean(LoopbackDriver::pair(DEPTH));
        conforms(&a, &b);
        let (a, b) = LoopbackDriver::pair(DEPTH);
        let (a, b) = clean((transparent(a), transparent(b)));
        conforms(&a, &b);
        for n_vcis in [1, 4] {
            let (a, b) = clean(simnic_pair(n_vcis));
            assert_eq!(a.num_vcis(), n_vcis);
            conforms(&a, &b);
            let (a, b) = simnic_pair(n_vcis);
            let (a, b) = clean((transparent(a), transparent(b)));
            conforms(&a, &b);
        }
        // A packet held back rings the doorbell although the wire under
        // it is empty, until the polls it waits for release it.
        let (a, b) = LoopbackDriver::pair(DEPTH);
        let b = ChaosDriver::new(b, FaultPlan::new(1).delay(1.0, 3));
        a.post_frame_vci(0, tagged(0, 1)).unwrap();
        let mut polls = 0;
        while poll(&b, 0).is_none() {
            assert!(b.inner().rx.is_empty(), "the packet left the wire");
            assert!(b.has_inbound_vci(0), "a held packet rings");
            polls += 1;
            assert!(polls < 8, "a held packet is never released");
        }
        assert_eq!(polls, 2, "held for three polls, released by the third");
        assert_eq!(b.stats().delayed, 1);
        silent(&b);
        // A plan that flips bytes makes the wire one that can damage a
        // frame, whatever the driver underneath.
        let (a, _) = LoopbackDriver::pair(DEPTH);
        let a = ChaosDriver::new(a, FaultPlan::new(1).corrupt(0.01));
        assert!(a.caps().may_corrupt);
        assert!(a.clock().shares(&ClockSource::real()));
        assert!(ChaosDriver::new(a, FaultPlan::new(2)).caps().may_corrupt);
    }

    #[test]
    fn a_one_part_frame_is_the_size_of_its_bytes() {
        assert_eq!(
            std::mem::size_of::<WireFrame>(),
            std::mem::size_of::<Bytes>()
        );
        let frame = WireFrame::from(Bytes::from_static(b"abc"));
        assert_eq!((frame.len(), frame.body()), (3, None));
        let (head, body) = (Bytes::from_static(b"ab"), Bytes::from_static(b"cde"));
        let frame = WireFrame::from_parts(head.clone(), Some(body.clone()));
        assert_eq!(frame.len(), 5);
        assert_eq!((frame.head(), frame.body()), (&head, Some(&body)));
        assert_eq!(frame.into_parts(), (head, Some(body)));
    }

    #[test]
    fn chaos_faults_act_on_whole_two_part_frames() {
        const N: usize = 64;
        let two_part = |i: usize| {
            WireFrame::from_parts(
                Bytes::from(vec![i as u8; 4]),
                Some(Bytes::from(vec![!(i as u8); 4])),
            )
        };
        let run = |plan: FaultPlan| {
            let (a, b) = LoopbackDriver::pair(N);
            let b = ChaosDriver::new(b, plan);
            for i in 0..N {
                a.post_frame_vci(0, two_part(i)).unwrap();
            }
            let got: Vec<WireFrame> = std::iter::from_fn(|| b.poll_vci(0)).collect();
            (got, b.stats())
        };
        // Lost whole: nothing of a dropped frame arrives.
        let (got, stats) = run(FaultPlan::new(3).loss(1.0));
        assert_eq!((got.len(), stats.lost), (0, N as u64));
        // Duplicated whole: both copies keep both parts.
        let (got, _) = run(FaultPlan::new(3).duplicate(1.0));
        let want: Vec<WireFrame> = (0..N).flat_map(|i| [two_part(i), two_part(i)]).collect();
        assert_eq!(got, want);
        // Corrupted whole: one byte of head ++ body, either part.
        let (got, stats) = run(FaultPlan::new(3).corrupt(1.0));
        assert_eq!((got.len(), stats.corrupted), (N, N as u64));
        let mut hit = [0; 2];
        for (i, frame) in got.iter().enumerate() {
            let (head, body) = frame.clone().into_parts();
            let body = body.expect("still two parts");
            let sent = two_part(i);
            assert_eq!((head.len(), body.len()), (4, 4));
            let flips =
                |a: &Bytes, b: &Bytes| a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
            let (h, b) = (
                flips(&head, sent.head()),
                flips(&body, sent.body().unwrap()),
            );
            assert_eq!(h + b, 1, "frame {i}: exactly one byte flipped");
            hit[b] += 1;
        }
        assert!(
            hit[0] > 0 && hit[1] > 0,
            "flips land in heads and bodies: {hit:?}"
        );
    }

    #[test]
    fn chaos_exposes_one_context_on_inner_vci_0() {
        let (a, b) = simnic_pair(4);
        let a = transparent(a);
        assert!(
            a.clock().shares(&b.clock()),
            "chaos forwards the inner clock"
        );
        assert_eq!(a.num_vcis(), 1);
        a.post_frame_vci(0, tagged(0, 1)).unwrap();
        for v in 1..4 {
            assert_eq!(b.poll_vci(v), None);
        }
        assert_eq!(b.poll_vci(0), Some(tagged(0, 1)));
    }

    #[test]
    fn simnic_driver_exposes_caps() {
        let clock = ClockSource::manual();
        let (na, _nb) = SimNic::pair("mx", WireModel::myri_10g(), clock);
        let d = SimNicDriver::new(na, false);
        assert_eq!(d.caps().mtu, 32 * 1024);
        assert!(!d.caps().thread_safe);
        assert!(d.caps().name.starts_with("mx"));
    }

    #[test]
    fn simnic_driver_post_and_poll() {
        let clock = ClockSource::manual();
        let (na, nb) = SimNic::pair("mx", WireModel::myri_10g(), clock.clone());
        let (da, db) = (SimNicDriver::new(na, true), SimNicDriver::new(nb, true));
        assert!(
            da.clock().shares(&clock),
            "a NIC driver runs on its NIC's clock"
        );
        da.post_frame_vci(0, tagged(0, 0)).unwrap();
        assert_eq!(db.poll_vci(0), None);
        clock.advance_to(db.next_event_ns_vci(0).unwrap());
        assert_eq!(db.poll_vci(0), Some(tagged(0, 0)));
        // A two-part frame is one packet: its head and body take the
        // wire together and arrive together.
        da.post_frame_vci(0, tagged(0, 1)).unwrap();
        assert_eq!(da.nic().inflight_bytes_vci(0), 5);
        clock.advance_to(db.next_event_ns_vci(0).unwrap());
        assert_eq!(db.poll_vci(0), Some(tagged(0, 1)));
        assert_eq!((da.nic().tx_bytes(), db.nic().rx_bytes()), (2 + 5, 2 + 5));
    }
}
