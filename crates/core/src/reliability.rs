//! Reliability layer: a lane's integrity check, window,
//! acknowledgements, gap reports, retransmits and failover.
//!
//! Present only on a reliable core, as the `rel` cell of each [`Lane`].
//! It owns the sealed frame format (`wire.rs`): every frame it sends is
//! summed here and every frame it receives is verified here, before any
//! field is read. An unreliable lane sends bare frames and computes no
//! checksum.
//! Everything a lane's window needs over time runs in that lane's
//! once-per-pass upkeep ([`CommCore::upkeep`]), in the lane's section
//! the pass takes right after polling the lane: the owed ack goes out,
//! and the head of the window is resent if its deadline has passed. No
//! timer is armed; the pass that polls the lane reads the core's clock,
//! which is its drivers' clock, so a wire on virtual time also runs the
//! retransmit deadlines on virtual time.
//! Locking: the window is a cell of the lane's one section
//! (`core.driver.N`), which also covers its NIC context, so a post, a
//! receive, a resend or an ack takes that section once and nests
//! nothing.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use crate::comm::CommCore;
use crate::error::CommError;
use crate::gate::{seq_lt, Gate, RdvSend};
use crate::locking::{Protected, Section, SectionKind};
use crate::strategy::SendItem;
use crate::transfer::{Lane, XferItem};
use crate::wire::{
    decode_frame, encode_frame, encode_packet_frame, Entry, WireError, FRAME_ACK_ONLY,
    FRAME_RELIABLE,
};

/// Fewest frames a gap report must count behind the hole before the
/// sender resends it without waiting for its deadline. Three is TCP's
/// duplicate-ack threshold: a wire that merely displaces a frame by one
/// or two positions provokes no resend.
const FAST_RETX_MIN_OOO: u32 = 3;

/// One frame in a lane's retransmit window: its entries plus its backoff
/// clock. The window pins the caller's buffers rather than a copy of the
/// encoded bytes; a retransmit re-encodes under the same `wseq`, a
/// failover re-sequences the entries on a surviving lane.
pub(crate) struct UnackedFrame {
    pub wseq: u32,
    pub entries: Vec<Entry>,
    /// Observability span of the frame (0 = none); retransmits and
    /// failover re-stripes re-attach it so the retry tail of a message
    /// stays attributable.
    pub span: u64,
    /// Retransmits of this frame so far (resets when an ack advances the
    /// window).
    pub attempts: u32,
    /// Monotonic deadline of the next clock-driven retransmit.
    pub retx_at_ns: u64,
    /// The peer's gap report already provoked a resend of this frame;
    /// a second loss of it waits for the deadline.
    pub fast_retx: bool,
}

/// Per-lane reliability-protocol state, under the lane's section.
#[derive(Default)]
pub(crate) struct RelState {
    /// Next wire sequence number to assign on this lane.
    pub next_tx_wseq: u32,
    /// Sent-but-unacknowledged frames, ascending `wseq`.
    pub unacked: VecDeque<UnackedFrame>,
    /// Next wire sequence number expected from the peer.
    pub rx_expected: u32,
    /// Frames received ahead of `rx_expected`, buffered for in-order
    /// release (bounded by the peer's send window). Each entry keeps the
    /// frame's span so dispatch can attribute the delivery after the
    /// gap fills.
    pub rx_ooo: BTreeMap<u32, (Bytes, u64)>,
    /// Data arrived since the last acknowledgement went out. A frame
    /// that piggybacks the cumulative ack settles it only while
    /// `rx_ooo` is empty: the gap report rides ack-only frames.
    pub ack_pending: bool,
    /// Consecutive frames that exhausted their retries (failover trigger).
    pub exhaustions: u32,
}

impl RelState {
    /// A data frame just left carrying the cumulative ack. That settles
    /// what the lane owes only while nothing is held out of order: a
    /// data frame's `wseq` is its own sequence number, so the count of
    /// frames behind a hole still has to go out in an ack-only frame.
    fn ack_piggybacked(&mut self) {
        if self.rx_ooo.is_empty() {
            self.ack_pending = false;
        }
    }
}

impl CommCore {
    /// Runs one raw frame through the lane's receive window: verifies
    /// its checksum (a mismatch counts `corrupt_dropped` before any
    /// field is read; a sealed frame that is not reliable, or does not
    /// decode, counts `wire_errors`), processes its cumulative ack,
    /// suppresses duplicates, buffers out-of-order arrivals, and returns
    /// the packets released for dispatch (in wire order), each paired
    /// with the span its frame carried (0 = none). The caller holds the
    /// lane's section `s`, in which it polled `raw`.
    ///
    /// Kept out of line so that `poll_lane`'s loop, which every frame of
    /// an unreliable wire runs too, carries neither the checksum nor the
    /// window code.
    #[inline(never)]
    pub(crate) fn rel_receive(
        &self,
        lane: &Lane,
        s: &Section<'_>,
        cell: &Protected<RelState>,
        raw: Bytes,
    ) -> Vec<(Bytes, u64)> {
        let frame = match decode_frame(raw) {
            Ok(frame) if frame.reliable() => frame,
            Err(WireError::BadChecksum { .. }) => {
                self.stats.corrupt_dropped.incr();
                return Vec::new();
            }
            _ => {
                self.stats.wire_errors.incr();
                return Vec::new();
            }
        };
        if frame.span != 0 {
            nm_trace::trace_event!(SpanWireRx, frame.span, frame.wseq);
        }
        let r = &self.config.reliability;
        cell.with(s, |rel| {
            // Cumulative ack: everything below `frame.ack` is delivered.
            let mut advanced = false;
            while rel
                .unacked
                .front()
                .is_some_and(|f| seq_lt(f.wseq, frame.ack))
            {
                rel.unacked.pop_front();
                advanced = true;
            }
            if advanced {
                // The peer is alive and making progress: restart the
                // backoff clock for whatever is still in flight.
                rel.exhaustions = 0;
                if let Some(head) = rel.unacked.front_mut() {
                    head.attempts = 0;
                    head.retx_at_ns = self.clock.now_ns() + r.rto_base_ns;
                }
            }
            if frame.ack_only() {
                // Gap report: the peer holds `frame.wseq` frames behind a
                // hole at `frame.ack`. If that hole is the head of the
                // window, resend it now, once; a lost resend, and
                // `attempts`, backoff and failover, stay with the clock.
                let resend_owed = frame.wseq >= FAST_RETX_MIN_OOO
                    && rel
                        .unacked
                        .front()
                        .is_some_and(|h| h.wseq == frame.ack && !h.fast_retx);
                if resend_owed && self.resend_head(lane, s, rel) {
                    self.stats.fast_retransmits.incr();
                    let head = rel.unacked.front_mut().expect("head just resent");
                    head.fast_retx = true;
                    head.retx_at_ns = self.clock.now_ns() + r.rto_base_ns;
                }
                return Vec::new();
            }
            if seq_lt(frame.wseq, rel.rx_expected) || rel.rx_ooo.contains_key(&frame.wseq) {
                // A retransmit of something already received: drop it,
                // but re-ack so the sender stops resending.
                self.stats.dup_dropped.incr();
                rel.ack_pending = true;
                return Vec::new();
            }
            let mut out = Vec::new();
            if frame.wseq == rel.rx_expected {
                out.push((frame.payload, frame.span));
                rel.rx_expected = rel.rx_expected.wrapping_add(1);
                while let Some(p) = rel.rx_ooo.remove(&rel.rx_expected) {
                    out.push(p);
                    rel.rx_expected = rel.rx_expected.wrapping_add(1);
                }
            } else {
                self.stats.ooo_buffered.incr();
                rel.rx_ooo.insert(frame.wseq, (frame.payload, frame.span));
            }
            rel.ack_pending = true;
            out
        })
    }

    /// Sequences `entries` into one frame on the lane's window, with the
    /// piggybacked cumulative ack, and posts it; the caller holds the
    /// lane's section `s`. A full window reports `Err` like a busy NIC,
    /// before anything is encoded; either way the entries come back for
    /// requeueing.
    pub(crate) fn post_reliable(
        &self,
        lane: &Lane,
        s: &Section<'_>,
        cell: &Protected<RelState>,
        entries: Vec<Entry>,
        span: u64,
    ) -> Result<(), Vec<Entry>> {
        let r = &self.config.reliability;
        cell.with(s, |rel| {
            if rel.unacked.len() >= r.window {
                return Err(entries);
            }
            let wseq = rel.next_tx_wseq;
            let frame = encode_packet_frame(wseq, rel.rx_expected, FRAME_RELIABLE, span, &entries);
            if lane.post_frame(s, frame).is_err() {
                return Err(entries);
            }
            if span != 0 {
                nm_trace::trace_event!(SpanWireTx, span, wseq);
            }
            rel.next_tx_wseq = wseq.wrapping_add(1);
            rel.ack_piggybacked();
            rel.unacked.push_back(UnackedFrame {
                wseq,
                entries,
                span,
                attempts: 0,
                retx_at_ns: self.clock.now_ns() + r.rto_base_ns,
                fast_retx: false,
            });
            Ok(())
        })
    }

    /// A reliable lane's once-per-pass upkeep, run after the pass has
    /// polled the lane (so an ack that arrived in this pass has already
    /// cancelled what it covers): resends the head of the window if its
    /// deadline has passed, then sends the bare ack the lane owes.
    ///
    /// The resend backs off exponentially up to `rto_max_ns`; a frame
    /// past `max_retries` counts an exhaustion, and `rail_dead_threshold`
    /// consecutive exhaustions kill the *lane* — a single VCI context can
    /// die while its rail's other contexts stay live; a physical rail
    /// death simply exhausts every lane it carries. A resend the NIC
    /// refused (`WouldBlock`) never left, so it costs neither a retry nor
    /// a backoff step: the deadline stays due and the next pass retries.
    ///
    /// The bare ack's `wseq` field reports how many frames sit out of
    /// order behind the first hole (0 on an in-order stream), which is
    /// what lets the peer resend the hole at once. Ack-only frames are
    /// not sequenced and never retransmitted — a lost ack is repaired by
    /// the next one, or by the peer's retransmit provoking a new one.
    #[inline(never)]
    pub(crate) fn upkeep(&self, g: &Gate, lane: &Lane, cell: &Protected<RelState>) -> usize {
        if lane.is_dead() {
            return 0;
        }
        let r = &self.config.reliability;
        let mut dead = false;
        let mut events = 0;
        let s = self.policy.enter(SectionKind::Driver(lane.id));
        cell.with(&s, |rel| {
            if let Some(head) = rel.unacked.front_mut() {
                let now = self.clock.now_ns();
                if now >= head.retx_at_ns {
                    if head.attempts >= r.max_retries {
                        rel.exhaustions += 1;
                        if rel.exhaustions >= r.rail_dead_threshold {
                            dead = true;
                            return;
                        }
                        // Keep trying at maximum backoff until the lane
                        // is declared dead.
                        head.attempts = 0;
                    }
                    if self.resend_head(lane, &s, rel) {
                        events += 1;
                        let head = rel.unacked.front_mut().expect("head just resent");
                        head.attempts += 1;
                        let backoff = r
                            .rto_base_ns
                            .saturating_mul(1u64 << head.attempts.min(24))
                            .min(r.rto_max_ns);
                        head.retx_at_ns = now + backoff;
                    }
                }
            }
            if rel.ack_pending {
                let behind_hole = rel.rx_ooo.len() as u32;
                let flags = FRAME_RELIABLE | FRAME_ACK_ONLY;
                let frame = encode_frame(behind_hole, rel.rx_expected, flags, 0, &[]);
                // NIC full: leave ack_pending set; piggybacking or the
                // next pass will carry it.
                if lane.post_frame(&s, frame).is_ok() {
                    rel.ack_pending = false;
                    self.stats.acks_tx.incr();
                    events += 1;
                }
            }
        });
        drop(s);
        if dead {
            events += self.kill_lane(g, lane, cell);
        }
        events
    }

    /// Re-encodes the head of `rel`'s window under its first `wseq` and
    /// posts it: the one retransmit path, taken on a passed deadline and
    /// on a gap report alike. The caller holds the lane's section `s`
    /// (and has checked there is a head). `false` is `WouldBlock`:
    /// nothing left, nothing counted.
    fn resend_head(&self, lane: &Lane, s: &Section<'_>, rel: &mut RelState) -> bool {
        let head = rel.unacked.front().expect("caller checked the head");
        let (wseq, span) = (head.wseq, head.span);
        let frame = encode_packet_frame(wseq, rel.rx_expected, FRAME_RELIABLE, span, &head.entries);
        if lane.post_frame(s, frame).is_err() {
            return false;
        }
        rel.ack_piggybacked();
        self.stats.retransmits.incr();
        nm_trace::trace_event!(Retransmit, lane.id, wseq);
        if span != 0 {
            nm_trace::trace_event!(SpanRetx, span, wseq);
        }
        true
    }

    /// Declares `lane` dead and re-stripes everything it still owed onto
    /// the surviving lanes. With no lane left the gate's in-flight sends
    /// fail with [`CommError::PeerUnreachable`].
    fn kill_lane(&self, g: &Gate, lane: &Lane, cell: &Protected<RelState>) -> usize {
        if !lane.mark_dead() {
            return 0; // another thread ran the failover
        }
        self.stats.rails_failed.incr();
        nm_trace::trace_event!(RailDead, g.id.0, lane.id);
        // Unacknowledged frames are still entries: a surviving lane
        // encodes them under its own sequence space. Spans ride along
        // so the restriped retry tail stays attributable.
        let s = self.policy.enter(SectionKind::Driver(lane.id));
        let unacked = cell.with(&s, |rel| {
            rel.unacked
                .drain(..)
                .map(|f| XferItem {
                    entries: f.entries,
                    complete_on_post: Vec::new(),
                    rdv_done: None,
                    span: f.span,
                })
                .collect()
        });
        drop(s);
        self.restripe(g, lane, unacked);
        if g.unreachable() {
            self.fail_gate(g);
        }
        nm_obs::flight::record_failure("rail-dead", 0, 0);
        1
    }

    /// The one failover loop: moves `items`, then whatever `lane`'s
    /// transfer list still holds, round-robin onto the surviving lanes,
    /// or fails their requests if none survives. Returns 1 if anything
    /// moved.
    ///
    /// The liveness snapshot is taken *after* draining the list: a lane
    /// that dies between the snapshot and the re-push is re-drained by
    /// its own killer (every `kill_lane` transition runs this), and a
    /// pass that finds items on a dead lane runs it again, so a migrated
    /// item can chase failovers but never lands permanently on a dead
    /// lane.
    pub(crate) fn restripe(&self, g: &Gate, lane: &Lane, mut items: Vec<XferItem>) -> usize {
        let s = self.policy.enter(SectionKind::Driver(lane.id));
        lane.with_xfer(&s, |q| items.extend(q.drain(..)));
        drop(s);
        if items.is_empty() {
            return 0;
        }
        let live: Vec<&Lane> = g.lanes.iter().filter(|l| !l.is_dead()).collect();
        if live.is_empty() {
            for item in items {
                for req in item.complete_on_post {
                    req.fail(CommError::PeerUnreachable);
                }
                if let Some(done) = item.rdv_done {
                    done.req.fail(CommError::PeerUnreachable);
                }
            }
            return 1;
        }
        for (i, item) in items.into_iter().enumerate() {
            let to = live[i % live.len()];
            let s = self.policy.enter(SectionKind::Driver(to.id));
            to.with_xfer(&s, |q| q.push_back(item));
            drop(s);
        }
        1
    }

    /// Every lane is dead: fail all of the gate's in-flight send work so
    /// nothing waits forever on an unreachable peer.
    fn fail_gate(&self, g: &Gate) {
        let (items, rdvs) = {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            let out = g.with_tx(&s, |tx| {
                let items: Vec<SendItem> = tx.queue.drain(..).collect();
                let rdvs: Vec<RdvSend> = tx.rdv_out.drain().map(|(_, rdv)| rdv).collect();
                (items, rdvs)
            });
            drop(s);
            out
        };
        for item in items {
            if let Some(req) = item.req {
                req.fail(CommError::PeerUnreachable);
            }
        }
        for rdv in rdvs {
            rdv.req.fail(CommError::PeerUnreachable);
        }
        for lane in &g.lanes {
            self.restripe(g, lane, Vec::new());
        }
    }
}
