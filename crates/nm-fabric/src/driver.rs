//! The driver interface the transfer layer programs against.

use std::sync::Arc;

use bytes::Bytes;

use crate::{ClockSource, MpmcRing, NicCounters, SimNic};

/// Static capabilities of a driver.
#[derive(Debug, Clone)]
pub struct DriverCaps {
    /// Driver name (for diagnostics and bench labels).
    pub name: String,
    /// Largest payload one packet may carry.
    pub mtu: usize,
    /// `false` for drivers that, like Myrinet MX in the paper, must never
    /// be entered by two threads at once. It is a declaration, not a
    /// switch: `nm-core` does not read it. Every `poll_vci`/`post_vci`
    /// of every driver runs inside that lane's `Driver` section — a
    /// per-lane spinlock in fine-grain mode, the library-wide lock in
    /// coarse mode, the single-caller check in single-thread mode — so a
    /// thread-unsafe driver is safe under all three. The section is kept
    /// for thread-safe drivers too: it is the paper's Fig 4 per-driver
    /// lock, and the only section an idle fine-grain pass still takes.
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
    /// Injects one packet (must fit the MTU) on one VCI context.
    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError>;
    /// Polls one VCI context for one inbound packet.
    fn poll_vci(&self, vci: usize) -> Option<Bytes>;
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

    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError> {
        self.nic
            .post_send_vci(vci, data)
            .map_err(|_| PostError::WouldBlock)
    }

    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        self.nic.poll_recv_vci(vci)
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
    tx: Arc<MpmcRing<Bytes>>,
    rx: Arc<MpmcRing<Bytes>>,
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

    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError> {
        debug_assert_eq!(vci, 0);
        self.tx.push(data).map_err(|_| PostError::WouldBlock)
    }

    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        debug_assert_eq!(vci, 0);
        self.rx.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosDriver, FaultPlan, WireModel};

    /// Injection depth every driver under [`conforms`] is built with.
    const DEPTH: usize = 4;

    fn tagged(vci: usize, n: usize) -> Bytes {
        Bytes::from(vec![vci as u8, n as u8])
    }

    /// What the transfer layer relies on from any connected driver pair:
    /// a round trip on every context, `WouldBlock` on a full injection
    /// ring with recovery after one peer poll, and no leakage between
    /// contexts.
    fn conforms<D: Driver>(a: &D, b: &D) {
        assert_eq!(a.num_vcis(), b.num_vcis());
        for v in 0..a.num_vcis() {
            a.post_vci(v, tagged(v, 0)).unwrap();
            assert_eq!(b.poll_vci(v), Some(tagged(v, 0)));
            b.post_vci(v, tagged(v, 1)).unwrap();
            assert_eq!(a.poll_vci(v), Some(tagged(v, 1)));
            assert_eq!(a.poll_vci(v), None);

            for n in 0..DEPTH {
                assert!(a.can_post_vci(v), "vci {v} refused packet {n}");
                a.post_vci(v, tagged(v, n)).unwrap();
            }
            assert!(!a.can_post_vci(v));
            assert_eq!(a.post_vci(v, tagged(v, DEPTH)), Err(PostError::WouldBlock));
            for other in (0..a.num_vcis()).filter(|&o| o != v) {
                assert!(a.can_post_vci(other), "vci {v} full blocks vci {other}");
                assert_eq!(b.poll_vci(other), None, "vci {v} visible on {other}");
            }
            assert_eq!(b.poll_vci(v), Some(tagged(v, 0)));
            assert!(a.can_post_vci(v), "one poll must free one slot");
            a.post_vci(v, tagged(v, DEPTH)).unwrap();
            for n in 1..=DEPTH {
                assert_eq!(b.poll_vci(v), Some(tagged(v, n)));
            }
            assert_eq!(b.poll_vci(v), None);
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
        // A plan that flips bytes makes the wire one that can damage a
        // frame, whatever the driver underneath.
        let (a, _) = LoopbackDriver::pair(DEPTH);
        let a = ChaosDriver::new(a, FaultPlan::new(1).corrupt(0.01));
        assert!(a.caps().may_corrupt);
        assert!(a.clock().shares(&ClockSource::real()));
        assert!(ChaosDriver::new(a, FaultPlan::new(2)).caps().may_corrupt);
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
        a.post_vci(0, Bytes::from_static(b"c")).unwrap();
        for v in 1..4 {
            assert_eq!(b.poll_vci(v), None);
        }
        assert_eq!(b.poll_vci(0), Some(Bytes::from_static(b"c")));
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
        da.post_vci(0, Bytes::from_static(b"data")).unwrap();
        assert_eq!(db.poll_vci(0), None);
        clock.advance_to(db.next_event_ns_vci(0).unwrap());
        assert_eq!(db.poll_vci(0), Some(Bytes::from_static(b"data")));
    }
}
