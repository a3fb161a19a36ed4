//! Simulated NIC endpoints.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use nm_metrics::Counter;
use nm_sync::{CachePadded, SpinLock};

use crate::{ClockSource, MpmcRing, WireModel};

/// A timestamped packet travelling on a wire.
#[derive(Debug)]
struct WirePacket {
    deliver_at_ns: u64,
    payload: Bytes,
}

/// One direction of a link: a bounded ring plus the time at which the wire
/// becomes free again (packets serialize on the wire).
///
/// Its byte counts are split by writer: the sending side adds to `sent`
/// and the receiving side to `delivered`, each on a line of its own, so
/// a post and a poll never write the same line for them. What is in
/// flight is the difference.
struct Wire {
    ring: MpmcRing<WirePacket>,
    next_free_ns: AtomicU64,
    /// Payload bytes injected; written only by posts on this wire.
    sent_bytes: CachePadded<AtomicU64>,
    /// Payload bytes delivered; written only by polls of this wire.
    delivered_bytes: CachePadded<AtomicU64>,
}

impl Wire {
    fn new(depth: usize) -> Self {
        Wire {
            ring: MpmcRing::new(depth.max(1)),
            next_free_ns: AtomicU64::new(0),
            sent_bytes: CachePadded::new(AtomicU64::new(0)),
            delivered_bytes: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Payload bytes injected so far.
    fn sent(&self) -> u64 {
        // relaxed: a statistic; the ring publishes the packets.
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Payload bytes delivered so far.
    fn delivered(&self) -> u64 {
        // relaxed: a statistic; the ring publishes the packets.
        self.delivered_bytes.load(Ordering::Relaxed)
    }

    /// Reserves wire time for a packet of `tx_ns` serialization cost
    /// starting no earlier than `now`; returns the injection timestamp.
    fn reserve(&self, now: u64, tx_ns: u64) -> u64 {
        // relaxed: initial guess for the CAS loop; failure reloads.
        let mut cur = self.next_free_ns.load(Ordering::Relaxed);
        loop {
            let inject = cur.max(now);
            // relaxed: CAS failure just hands back the fresher value.
            match self.next_free_ns.compare_exchange_weak(
                cur,
                inject + tx_ns,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return inject,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Packet counters of one NIC endpoint. Its byte counts are the
/// wires' own: [`SimNic::tx_bytes`] and [`SimNic::rx_bytes`].
#[derive(Debug, Default)]
pub struct NicCounters {
    /// Packets injected into the wire.
    pub tx_packets: Counter,
    /// Packets delivered to this endpoint.
    pub rx_packets: Counter,
}

/// One independent hardware context of a NIC — a virtual communication
/// interface (VCI) in the sense of Zambre et al.: its own tx/rx wire
/// pair, serialization clock and head-of-line stash, sharing nothing
/// with its siblings on the fast path.
struct VciCtx {
    tx: Arc<Wire>,
    rx: Arc<Wire>,
    /// Head-of-line packet popped from `rx` but not yet deliverable.
    /// Keeping it here preserves wire FIFO order across pollers.
    stash: SpinLock<Option<WirePacket>>,
    /// `stash.is_some()`, readable without the stash lock. Written only
    /// under that lock and only when it changes, so at every release of
    /// the lock it says what the stash holds.
    stashed: AtomicBool,
}

impl VciCtx {
    fn new(tx: Arc<Wire>, rx: Arc<Wire>) -> Self {
        VciCtx {
            tx,
            rx,
            stash: SpinLock::new(None),
            stashed: AtomicBool::new(false),
        }
    }

    /// Records what the stash holds. The caller holds the stash lock.
    fn set_stashed(&self, stashed: bool) {
        // relaxed: (load and store) the flag publishes no data — the
        // stash is only read under its lock — and the lock's release
        // orders it for the next holder. The store is skipped when
        // nothing changed so that re-stashing an in-flight packet does
        // not dirty the line idle polls read.
        if self.stashed.load(Ordering::Relaxed) != stashed {
            self.stashed.store(stashed, Ordering::Relaxed);
        }
    }

    /// `true` if a packet may be waiting: one is stashed, or the rx ring
    /// is not empty. Takes no lock and reads no clock. A packet is in
    /// the ring, in the stash, or in the hands of a poller that holds
    /// the stash lock and will deliver or stash it before releasing, so
    /// `false` can only miss a packet whose poll is still in progress.
    fn maybe_inbound(&self) -> bool {
        // relaxed: advisory; the stash itself is only read under its
        // lock, whose acquire orders it.
        self.stashed.load(Ordering::Relaxed) || !self.rx.ring.is_empty()
    }
}

/// One endpoint of a simulated point-to-point link.
///
/// Completion is **polling-based**, like MX or Verbs: nothing happens
/// unless someone calls [`SimNic::poll_recv_vci`]. A packet becomes
/// visible to the receiver only once the clock passes its computed
/// delivery time.
///
/// A wire with zero latency, zero per-packet and zero per-byte cost
/// ([`WireModel::ideal`]) delays nothing, so its NIC reads no clock: a
/// post stamps the packet deliverable at 0 without reserving wire time,
/// and a poll delivers it at once. On any other model every post, and
/// every poll that finds a packet, reads the clock.
///
/// A NIC owns one or more VCI contexts ([`SimNic::pair_vcis`]); every
/// context has its own injection ring, wire serialization and completion
/// stash, so two threads driving different VCIs never touch shared
/// state.
pub struct SimNic {
    name: String,
    model: WireModel,
    /// The model delays nothing: packets are stamped 0, no clock is read.
    zero_cost: bool,
    clock: ClockSource,
    vcis: Vec<VciCtx>,
    counters: NicCounters,
}

/// Error returned when the injection queue is full (NIC busy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxQueueFull;

impl SimNic {
    /// Creates a connected pair of endpoints over two wires of the given
    /// model, sharing `clock`. Equivalent to [`SimNic::pair_vcis`] with
    /// one context.
    pub fn pair(name: &str, model: WireModel, clock: ClockSource) -> (SimNic, SimNic) {
        Self::pair_vcis(name, model, clock, 1)
    }

    /// Creates a connected pair of endpoints with `n_vcis` independent
    /// contexts each. Context `v` of one side is wired to context `v` of
    /// the other; contexts never share a ring or a wire, so they
    /// serialize independently.
    pub fn pair_vcis(
        name: &str,
        model: WireModel,
        clock: ClockSource,
        n_vcis: usize,
    ) -> (SimNic, SimNic) {
        assert!(n_vcis >= 1, "a NIC needs at least one VCI context");
        let mut a_vcis = Vec::with_capacity(n_vcis);
        let mut b_vcis = Vec::with_capacity(n_vcis);
        for _ in 0..n_vcis {
            let a_to_b = Arc::new(Wire::new(model.tx_depth));
            let b_to_a = Arc::new(Wire::new(model.tx_depth));
            a_vcis.push(VciCtx::new(Arc::clone(&a_to_b), Arc::clone(&b_to_a)));
            b_vcis.push(VciCtx::new(b_to_a, a_to_b));
        }
        let zero_cost =
            model.latency_ns == 0 && model.per_packet_ns == 0 && model.ns_per_byte == 0.0;
        let a = SimNic {
            name: format!("{name}.0"),
            model,
            zero_cost,
            clock: clock.clone(),
            vcis: a_vcis,
            counters: NicCounters::default(),
        };
        let b = SimNic {
            name: format!("{name}.1"),
            model,
            zero_cost,
            clock,
            vcis: b_vcis,
            counters: NicCounters::default(),
        };
        (a, b)
    }

    /// Endpoint name (link name + side).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wire model of this link.
    pub fn model(&self) -> &WireModel {
        &self.model
    }

    /// The clock used for timestamps.
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// Traffic counters.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Number of independent VCI contexts of this endpoint.
    pub fn num_vcis(&self) -> usize {
        self.vcis.len()
    }

    /// `true` when the injection queue of one VCI context can accept
    /// another packet — the paper's "the NIC becomes idle" condition that
    /// triggers the optimization layer. Each context has its own
    /// injection ring, so one context's saturation says nothing about
    /// another's.
    pub fn can_post_vci(&self, vci: usize) -> bool {
        self.vcis[vci].tx.ring.len() < self.model.tx_depth
    }

    /// Injects a packet on one VCI context. Contexts serialize their own
    /// wires independently — no shared lock, ring or wire clock is
    /// touched on this path.
    ///
    /// The payload must fit in the wire MTU (enforced; the transfer layer
    /// is responsible for splitting). Returns [`TxQueueFull`] when the
    /// injection queue is saturated.
    pub fn post_send_vci(&self, vci: usize, payload: Bytes) -> Result<(), TxQueueFull> {
        assert!(
            payload.len() <= self.model.mtu,
            "payload {} exceeds wire MTU {}",
            payload.len(),
            self.model.mtu
        );
        let ctx = &self.vcis[vci];
        if ctx.tx.ring.len() >= self.model.tx_depth {
            return Err(TxQueueFull);
        }
        // On a zero-cost wire `inject + 0 + 0` would be the post's own
        // clock reading, which no later poll's reading is below: 0 says
        // the same without the clock read or the reservation's CAS.
        let deliver_at_ns = if self.zero_cost {
            0
        } else {
            let now = self.clock.now_ns();
            let tx_ns = self.model.tx_time_ns(payload.len());
            let inject = ctx.tx.reserve(now, tx_ns);
            inject + tx_ns + self.model.latency_ns
        };
        let len = payload.len();
        let pkt = WirePacket {
            deliver_at_ns,
            payload,
        };
        let was_idle = ctx.tx.ring.is_empty();
        // A racing producer may have filled the ring between the depth
        // check and this push; the reserved wire time then stays booked,
        // which only makes the model slightly conservative.
        ctx.tx.ring.push(pkt).map_err(|_| TxQueueFull)?;
        self.counters.tx_packets.incr();
        // relaxed: a statistic; the ring push above is what publishes
        // the packet.
        ctx.tx.sent_bytes.fetch_add(len as u64, Ordering::Relaxed);
        crate::metrics::tx_packets().incr();
        crate::metrics::tx_bytes().add(len as u64);
        crate::metrics::inflight_bytes().add(len as i64);
        if self.vcis.len() > 1 {
            // Multi-VCI NICs additionally account their traffic under the
            // fabric.vci.* metrics (single-context NICs keep the pre-VCI
            // metric surface untouched).
            crate::metrics::vci_tx_packets().incr();
            crate::metrics::vci_inflight_bytes().add(len as i64);
        }
        nm_trace::trace_event!(PacketTx, len);
        if was_idle {
            nm_trace::trace_event!(NicIdle, 0u64);
        }
        Ok(())
    }

    /// Polls one VCI context for a delivered packet; `None` if nothing
    /// is deliverable yet. Completion state (ring + stash) is
    /// per-context, so concurrent pollers on different VCIs do not
    /// contend.
    ///
    /// With nothing stashed and an empty rx ring this returns before
    /// reading the clock or taking the stash lock: an idle poll writes
    /// nothing. On a zero-cost wire no poll reads the clock: every
    /// packet is stamped 0.
    pub fn poll_recv_vci(&self, vci: usize) -> Option<Bytes> {
        let ctx = &self.vcis[vci];
        if !ctx.maybe_inbound() {
            return None;
        }
        let now = if self.zero_cost {
            0
        } else {
            self.clock.now_ns()
        };
        let mut stash = ctx.stash.lock();
        let pkt = match stash.take() {
            Some(p) => p,
            None => ctx.rx.ring.pop()?,
        };
        if pkt.deliver_at_ns <= now {
            ctx.set_stashed(false);
            self.counters.rx_packets.incr();
            // relaxed: a statistic, the mirror of the tx-side add.
            ctx.rx
                .delivered_bytes
                .fetch_add(pkt.payload.len() as u64, Ordering::Relaxed);
            crate::metrics::rx_packets().incr();
            crate::metrics::rx_bytes().add(pkt.payload.len() as u64);
            crate::metrics::inflight_bytes().sub(pkt.payload.len() as i64);
            if self.vcis.len() > 1 {
                // Paired multi-VCI endpoints are symmetric, so the vci
                // gauge balances: what the peer added on post is
                // subtracted here on delivery.
                crate::metrics::vci_rx_packets().incr();
                crate::metrics::vci_inflight_bytes().sub(pkt.payload.len() as i64);
            }
            nm_trace::trace_event!(PacketRx, pkt.payload.len());
            if ctx.rx.ring.is_empty() {
                // Last in-flight packet delivered: the sending side's
                // injection queue (this wire) is drained — NIC idle.
                nm_trace::trace_event!(NicIdle, 1u64);
            }
            Some(pkt.payload)
        } else {
            *stash = Some(pkt);
            ctx.set_stashed(true);
            None
        }
    }

    /// Earliest pending delivery time on one VCI context, if any packet
    /// is in flight toward it (0 on a zero-cost wire: deliverable now).
    /// A discrete-event simulator uses this to know how far it may
    /// advance the virtual clock.
    pub fn next_delivery_ns_vci(&self, vci: usize) -> Option<u64> {
        let ctx = &self.vcis[vci];
        let mut stash = ctx.stash.lock();
        if stash.is_none() {
            *stash = ctx.rx.ring.pop();
            ctx.set_stashed(stash.is_some());
        }
        stash.as_ref().map(|p| p.deliver_at_ns)
    }

    /// `true` if any packet (deliverable or in flight) is queued toward
    /// one VCI context of this endpoint. Lock-free; while another thread
    /// is inside a poll of this context the answer may lag that poll.
    pub fn has_inbound_vci(&self, vci: usize) -> bool {
        self.vcis[vci].maybe_inbound()
    }

    /// Payload bytes this endpoint has injected on one VCI context that
    /// the peer has not yet delivered — the context's outbound wire
    /// occupancy: sent − delivered. A snapshot; the delivered count is
    /// read first, so a packet caught mid-poll counts at most once.
    pub fn inflight_bytes_vci(&self, vci: usize) -> u64 {
        let wire = &self.vcis[vci].tx;
        let delivered = wire.delivered();
        wire.sent().saturating_sub(delivered)
    }

    /// Payload bytes this endpoint has injected, over all its contexts.
    pub fn tx_bytes(&self) -> u64 {
        self.vcis.iter().map(|ctx| ctx.tx.sent()).sum()
    }

    /// Payload bytes delivered to this endpoint, over all its contexts.
    pub fn rx_bytes(&self) -> u64 {
        self.vcis.iter().map(|ctx| ctx.rx.delivered()).sum()
    }
}

impl std::fmt::Debug for SimNic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNic")
            .field("name", &self.name)
            .field("can_post", &self.can_post_vci(0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_pair(model: WireModel) -> (SimNic, SimNic, ClockSource) {
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair("test", model, clock.clone());
        (a, b, clock)
    }

    #[test]
    fn packet_not_visible_before_delivery_time() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        a.post_send_vci(0, Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.poll_recv_vci(0), None, "visible too early");
        clock.advance(2_000); // still short of latency + tx time
        assert_eq!(b.poll_recv_vci(0), None);
        clock.advance(200); // past 2_000 + 100 + 0.8 ns
        assert_eq!(b.poll_recv_vci(0), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn ideal_wire_delivers_immediately() {
        let (a, b, _clock) = manual_pair(WireModel::ideal());
        a.post_send_vci(0, Bytes::from_static(b"now")).unwrap();
        assert_eq!(b.poll_recv_vci(0), Some(Bytes::from_static(b"now")));
    }

    #[test]
    fn zero_cost_wire_stamps_packets_deliverable_without_the_clock() {
        let (a, b, clock) = manual_pair(WireModel::ideal());
        // Set before the post so that a stamp read off the clock would
        // show as 5 000; nothing advances it afterwards.
        clock.advance(5_000);
        a.post_send_vci(0, Bytes::from_static(b"now")).unwrap();
        assert_eq!(b.next_delivery_ns_vci(0), Some(0));
        assert_eq!(b.poll_recv_vci(0), Some(Bytes::from_static(b"now")));
        assert_eq!(b.next_delivery_ns_vci(0), None);
    }

    #[test]
    fn any_cost_keeps_the_stamp() {
        let costs = [
            WireModel {
                latency_ns: 1,
                ..WireModel::ideal()
            },
            WireModel {
                per_packet_ns: 1,
                ..WireModel::ideal()
            },
            WireModel {
                ns_per_byte: 1.0,
                ..WireModel::ideal()
            },
        ];
        for model in costs {
            let (a, b, clock) = manual_pair(model);
            clock.advance(5_000);
            a.post_send_vci(0, Bytes::from_static(b"x")).unwrap();
            assert_eq!(b.next_delivery_ns_vci(0), Some(5_001), "{model:?}");
            assert_eq!(b.poll_recv_vci(0), None, "{model:?}");
            clock.advance(1);
            assert!(b.poll_recv_vci(0).is_some(), "{model:?}");
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        for i in 0..5u8 {
            a.post_send_vci(0, Bytes::copy_from_slice(&[i])).unwrap();
        }
        clock.advance(1_000_000);
        for i in 0..5u8 {
            assert_eq!(b.poll_recv_vci(0).unwrap()[0], i);
        }
        assert_eq!(b.poll_recv_vci(0), None);
    }

    #[test]
    fn back_to_back_packets_serialize_on_the_wire() {
        let model = WireModel {
            latency_ns: 1_000,
            ns_per_byte: 1.0,
            per_packet_ns: 0,
            mtu: 4096,
            tx_depth: 8,
        };
        let (a, b, clock) = manual_pair(model);
        // Two 1000-byte packets injected at t=0: the second waits for the
        // first to leave the wire, so it lands at 1000(tx)+1000(tx)+1000(lat).
        a.post_send_vci(0, Bytes::from(vec![0u8; 1000])).unwrap();
        a.post_send_vci(0, Bytes::from(vec![1u8; 1000])).unwrap();
        clock.advance(2_000);
        assert!(b.poll_recv_vci(0).is_some(), "first packet at 2 µs");
        assert!(b.poll_recv_vci(0).is_none(), "second not yet");
        clock.advance(999);
        assert!(b.poll_recv_vci(0).is_none());
        clock.advance(1);
        assert!(b.poll_recv_vci(0).is_some(), "second packet at 3 µs");
    }

    #[test]
    fn tx_queue_fills_up() {
        let model = WireModel {
            tx_depth: 2,
            ..WireModel::myri_10g()
        };
        let (a, _b, _clock) = manual_pair(model);
        assert!(a.can_post_vci(0));
        a.post_send_vci(0, Bytes::from_static(b"1")).unwrap();
        a.post_send_vci(0, Bytes::from_static(b"2")).unwrap();
        assert!(!a.can_post_vci(0));
        assert_eq!(
            a.post_send_vci(0, Bytes::from_static(b"3")),
            Err(TxQueueFull)
        );
    }

    #[test]
    fn draining_receiver_frees_tx_queue() {
        let model = WireModel {
            tx_depth: 1,
            ..WireModel::ideal()
        };
        let (a, b, _clock) = manual_pair(model);
        a.post_send_vci(0, Bytes::from_static(b"1")).unwrap();
        assert!(!a.can_post_vci(0));
        assert!(b.poll_recv_vci(0).is_some());
        assert!(a.can_post_vci(0));
        a.post_send_vci(0, Bytes::from_static(b"2")).unwrap();
        assert!(b.poll_recv_vci(0).is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds wire MTU")]
    fn oversized_payload_panics() {
        let model = WireModel {
            mtu: 8,
            ..WireModel::ideal()
        };
        let (a, _b, _c) = manual_pair(model);
        let _ = a.post_send_vci(0, Bytes::from(vec![0u8; 9]));
    }

    #[test]
    fn counters_track_traffic() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        a.post_send_vci(0, Bytes::from(vec![0u8; 100])).unwrap();
        clock.advance(10_000_000);
        b.poll_recv_vci(0).unwrap();
        assert_eq!(a.counters().tx_packets.get(), 1);
        assert_eq!(a.tx_bytes(), 100);
        assert_eq!(b.counters().rx_packets.get(), 1);
        assert_eq!(b.rx_bytes(), 100);
        assert_eq!((a.rx_bytes(), b.tx_bytes()), (0, 0));
    }

    #[test]
    fn inflight_bytes_track_wire_occupancy() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        assert_eq!(a.inflight_bytes_vci(0), 0);
        a.post_send_vci(0, Bytes::from(vec![0u8; 64])).unwrap();
        a.post_send_vci(0, Bytes::from(vec![0u8; 36])).unwrap();
        assert_eq!(a.inflight_bytes_vci(0), 100);
        clock.advance(10_000_000);
        b.poll_recv_vci(0).unwrap();
        assert_eq!(a.inflight_bytes_vci(0), 36);
        b.poll_recv_vci(0).unwrap();
        assert_eq!(a.inflight_bytes_vci(0), 0);
    }

    #[test]
    fn vcis_are_independent_contexts() {
        let model = WireModel {
            tx_depth: 1,
            ..WireModel::ideal()
        };
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("vci", model, clock, 4);
        assert_eq!(a.num_vcis(), 4);
        // Saturating one context leaves the others postable.
        a.post_send_vci(2, Bytes::from_static(b"x")).unwrap();
        assert!(!a.can_post_vci(2));
        for v in [0usize, 1, 3] {
            assert!(a.can_post_vci(v), "vci {v} must be unaffected");
        }
        // Delivery is per-context: the packet arrives on the peer's
        // matching context and nowhere else.
        for v in [0usize, 1, 3] {
            assert_eq!(b.poll_recv_vci(v), None);
        }
        assert_eq!(b.poll_recv_vci(2), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn vci_wires_serialize_independently() {
        let model = WireModel {
            latency_ns: 1_000,
            ns_per_byte: 1.0,
            per_packet_ns: 0,
            mtu: 4096,
            tx_depth: 8,
        };
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("par", model, clock.clone(), 2);
        // One 1000-byte packet per context at t=0: with a shared wire the
        // second would land at 3 µs; on dedicated per-VCI wires both land
        // at 2 µs.
        a.post_send_vci(0, Bytes::from(vec![0u8; 1000])).unwrap();
        a.post_send_vci(1, Bytes::from(vec![1u8; 1000])).unwrap();
        clock.advance(2_000);
        assert!(b.poll_recv_vci(0).is_some(), "vci 0 at 2 µs");
        assert!(b.poll_recv_vci(1).is_some(), "vci 1 at 2 µs too");
    }

    #[test]
    fn occupancy_and_inbound_are_per_vci() {
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("occ", WireModel::ideal(), clock, 3);
        a.post_send_vci(1, Bytes::from(vec![0u8; 10])).unwrap();
        a.post_send_vci(2, Bytes::from(vec![0u8; 30])).unwrap();
        assert_eq!(a.inflight_bytes_vci(0), 0);
        assert_eq!(a.inflight_bytes_vci(1), 10);
        assert_eq!(a.inflight_bytes_vci(2), 30);
        assert!(!b.has_inbound_vci(0));
        assert_eq!(b.next_delivery_ns_vci(0), None);
        for v in [1usize, 2] {
            assert!(b.has_inbound_vci(v));
            assert!(b.next_delivery_ns_vci(v).is_some());
            assert!(b.poll_recv_vci(v).is_some());
            assert!(!b.has_inbound_vci(v));
            assert_eq!(a.inflight_bytes_vci(v), 0);
        }
        // The endpoint's byte counts are the sums of its contexts' wires.
        assert_eq!((a.tx_bytes(), b.rx_bytes()), (40, 40));
    }

    #[test]
    fn next_delivery_reports_earliest_packet() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        assert_eq!(b.next_delivery_ns_vci(0), None);
        a.post_send_vci(0, Bytes::from_static(b"x")).unwrap();
        let t = b.next_delivery_ns_vci(0).expect("in-flight packet visible");
        assert!(t >= 2_000);
        clock.advance_to(t);
        assert!(b.poll_recv_vci(0).is_some());
    }

    #[test]
    fn inbound_queries_follow_the_packet_through_the_stash() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        assert!(!b.has_inbound_vci(0));
        assert_eq!(b.next_delivery_ns_vci(0), None);
        a.post_send_vci(0, Bytes::from_static(b"x")).unwrap();
        // In the ring, nothing stashed yet.
        assert!(b.has_inbound_vci(0));
        // An early poll moves it to the stash: the ring is empty now, so
        // only the flag can answer for it.
        assert_eq!(b.poll_recv_vci(0), None);
        assert!(b.vcis[0].rx.ring.is_empty());
        assert!(b.has_inbound_vci(0));
        let t = b.next_delivery_ns_vci(0).expect("the stashed packet");
        assert_eq!(b.poll_recv_vci(0), None, "still early");
        clock.advance_to(t);
        assert_eq!(b.poll_recv_vci(0), Some(Bytes::from_static(b"x")));
        assert!(!b.has_inbound_vci(0));
        assert_eq!(b.next_delivery_ns_vci(0), None);
        assert_eq!(b.poll_recv_vci(0), None);
        // `next_delivery_ns_vci` stashes too; the next poll must look.
        a.post_send_vci(0, Bytes::from_static(b"y")).unwrap();
        let t = b.next_delivery_ns_vci(0).expect("in flight");
        assert!(b.vcis[0].rx.ring.is_empty() && b.has_inbound_vci(0));
        clock.advance_to(t);
        assert_eq!(b.poll_recv_vci(0), Some(Bytes::from_static(b"y")));
        assert!(!b.has_inbound_vci(0));
    }

    #[test]
    fn stashed_packet_is_delivered_to_one_of_two_pollers() {
        use std::sync::Barrier;
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        a.post_send_vci(0, Bytes::from_static(b"x")).unwrap();
        let (start, polled, advanced) = (Barrier::new(3), Barrier::new(3), Barrier::new(3));
        let delivered = AtomicBool::new(false);
        let results: Vec<(Option<Bytes>, Option<Bytes>)> = std::thread::scope(|s| {
            let pollers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        // Too early: one of the two polls stashes it.
                        let early = b.poll_recv_vci(0);
                        polled.wait();
                        advanced.wait();
                        let mut late = None;
                        while late.is_none() && !delivered.load(Ordering::Acquire) {
                            late = b.poll_recv_vci(0);
                            if late.is_some() {
                                delivered.store(true, Ordering::Release);
                            }
                        }
                        (early, late)
                    })
                })
                .collect();
            start.wait();
            polled.wait();
            // Popped from the ring and not deliverable: it sits in the
            // stash, and the lock-free empty check must not hide it.
            assert!(b.vcis[0].rx.ring.is_empty());
            assert!(b.has_inbound_vci(0));
            clock.advance(1_000_000);
            advanced.wait();
            pollers.into_iter().map(|p| p.join().unwrap()).collect()
        });
        assert!(results.iter().all(|(early, _)| early.is_none()));
        let late: Vec<_> = results.iter().filter_map(|(_, l)| l.as_ref()).collect();
        assert_eq!(late, [&Bytes::from_static(b"x")], "delivered exactly once");
        assert!(!b.has_inbound_vci(0));
        assert_eq!(b.poll_recv_vci(0), None);
    }

    #[test]
    fn real_clock_end_to_end() {
        let clock = ClockSource::real();
        let model = WireModel {
            latency_ns: 200_000, // 200 µs so the test is robust
            ..WireModel::ideal()
        };
        let (a, b) = SimNic::pair("real", model, clock);
        a.post_send_vci(0, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(b.poll_recv_vci(0), None, "should not arrive instantly");
        let t0 = std::time::Instant::now();
        loop {
            if let Some(p) = b.poll_recv_vci(0) {
                assert_eq!(&p[..], b"ping");
                break;
            }
            assert!(t0.elapsed().as_secs() < 5, "packet never arrived");
            std::hint::spin_loop();
        }
        assert!(t0.elapsed() >= std::time::Duration::from_micros(150));
    }
}
