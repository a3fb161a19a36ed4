//! Transfer layer (paper Fig 1, bottom): one [`Lane`] per (rail, VCI)
//! pair, the optimization-layer pump that fills idle lanes from a gate's
//! collect queue, the flush and post of a lane's list, and the poll of
//! its completion ring. A lane has one lock, its `Driver` section, and
//! every operation here and in the reliability layer takes it once,
//! with nothing nested.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use nm_fabric::{Driver, PostError, WireFrame};

use crate::comm::CommCore;
use crate::error::CommError;
use crate::gate::{publish_len, Gate, RdvSend, RdvSendDone};
use crate::locking::{Protected, Section, SectionKind};
use crate::reliability::RelState;
use crate::request::Request;
use crate::strategy::SendItem;
use crate::wire::{
    decode_bare_frame, encode_bare_frame, encode_bare_head, Entry, ENTRY_HEADER, FRAME_HEADER,
    FRAME_SPAN_BYTES, PACKET_HEADER,
};

/// A packet queued in a transfer-layer list, still as its entries: the
/// payloads are slices of the caller's buffer, and nothing is encoded
/// until `post_packet` knows the frame can leave.
pub(crate) struct XferItem {
    pub entries: Vec<Entry>,
    /// Eager requests completed when this packet is injected.
    pub complete_on_post: Vec<Request>,
    /// Rendezvous chunk bookkeeping.
    pub rdv_done: Option<Arc<RdvSendDone>>,
    /// Observability span carried in this packet's frame header (0 =
    /// none). Survives failover so a restriped packet stays on its
    /// message timeline.
    pub span: u64,
}

/// One (rail, VCI) endpoint of a gate, owning everything below the
/// collect layer that its traffic touches: the driver context, the
/// transfer list with its length hint, the death flag and, on a
/// reliable core, the reliability window. The lane has one lock, its
/// `Driver` section (the paper's per-driver lock, Fig 4): the list and
/// the window are cells of it, and [`Lane::post_frame`] /
/// [`Lane::poll_frame`], the only two ways a frame crosses the driver
/// boundary, take it held. Flows pinned to different lanes share no
/// transfer-layer lock.
pub(crate) struct Lane {
    pub driver: Arc<dyn Driver>,
    pub vci: usize,
    /// Index of this lane in the lock policy's per-lane locks, in
    /// progression shards and in trace events.
    pub id: usize,
    /// Outgoing packets; reached through [`Lane::with_xfer`], which
    /// keeps `xfer_len` in step.
    xfer: Protected<VecDeque<XferItem>>,
    /// Length hint of `xfer`: written only under the lane's section and
    /// only when the length changes, so at every release of the section
    /// it equals the list's length.
    xfer_len: AtomicUsize,
    /// Declared dead by failover (relaxed: a racy hint is fine, the
    /// failover path re-checks by swapping it).
    dead: AtomicBool,
    /// The lane's reliability state; `None` on an unreliable core, so
    /// nothing below ever asks the configuration again.
    pub rel: Option<Protected<RelState>>,
}

impl Lane {
    pub fn new(driver: Arc<dyn Driver>, vci: usize, id: usize, reliable: bool) -> Self {
        Lane {
            driver,
            vci,
            id,
            xfer: Protected::new(SectionKind::Driver(id), VecDeque::new()),
            xfer_len: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
            rel: reliable.then(|| Protected::new(SectionKind::Driver(id), RelState::default())),
        }
    }

    /// Injects one encoded frame: the one post path, taken by data
    /// frames, acks and retransmits alike. `s` is the lane's section.
    pub fn post_frame(&self, s: &Section<'_>, frame: WireFrame) -> Result<(), PostError> {
        debug_assert!(
            s.covers(SectionKind::Driver(self.id)),
            "post outside lane {}",
            self.id
        );
        self.driver.post_frame_vci(self.vci, frame)
    }

    /// Takes one inbound frame off the lane's completion ring. `s` is
    /// the lane's section.
    pub fn poll_frame(&self, s: &Section<'_>) -> Option<WireFrame> {
        debug_assert!(
            s.covers(SectionKind::Driver(self.id)),
            "poll outside lane {}",
            self.id
        );
        self.driver.poll_vci(self.vci)
    }

    /// The NIC context's doorbell ([`Driver::has_inbound_vci`]): `false`
    /// when a poll would find nothing. Takes no section.
    pub fn has_inbound(&self) -> bool {
        self.driver.has_inbound_vci(self.vci)
    }

    /// Whether a pass over lane shard `shard` of `num_shards` polls this
    /// lane ([`CommCore::progress_shard`]).
    pub(crate) fn in_shard(&self, shard: usize, num_shards: usize) -> bool {
        num_shards == 1 || self.id % num_shards == shard
    }

    /// `true` when a poll of this lane would find nothing to do: no
    /// reliability upkeep to run and a silent doorbell. Takes no section.
    /// `CommCore::poll_lane` returns on it, and the coarse idle check
    /// (`CommCore::quiet`) asks it too.
    pub(crate) fn poll_idle(&self) -> bool {
        self.rel.is_none() && !self.has_inbound()
    }

    /// `true` when the transfer list is empty by its length hint, so a
    /// flush would find nothing. Takes no section.
    pub(crate) fn xfer_idle(&self) -> bool {
        self.xfer_len_hint() == 0
    }

    /// Whether the NIC context reports room for a post. Outside the
    /// lane's section it is a racy hint (the post handles the losing
    /// race).
    pub fn can_post(&self) -> bool {
        self.driver.can_post_vci(self.vci)
    }

    /// Accesses the transfer list under the lane's section and
    /// republishes its length hint before the section is released.
    pub fn with_xfer<R>(&self, s: &Section<'_>, f: impl FnOnce(&mut VecDeque<XferItem>) -> R) -> R {
        self.xfer.with(s, |q| {
            debug_assert_eq!(self.xfer_len_hint(), q.len(), "stale xfer hint");
            let out = f(q);
            publish_len(&self.xfer_len, q.len());
            out
        })
    }

    /// Transfer-list length as last published — no section taken. Same
    /// contract as `Gate::tx_len_hint`.
    pub fn xfer_len_hint(&self) -> usize {
        // relaxed: advisory; the list is only touched under its section.
        self.xfer_len.load(Ordering::Relaxed)
    }

    /// Whether failover has declared the lane dead.
    pub fn is_dead(&self) -> bool {
        // relaxed: a liveness hint, see the field.
        self.dead.load(Ordering::Relaxed)
    }

    /// Declares the lane dead; `true` for the caller that made the
    /// transition (and must run the failover).
    pub fn mark_dead(&self) -> bool {
        // relaxed: the swap itself elects the one failover runner.
        !self.dead.swap(true, Ordering::Relaxed)
    }
}

/// The two-part bare frame of a packet that is one `DATA` entry: its
/// encoded head, then the chunk itself, a slice of the caller's buffer.
/// Kept out of line so that the post of an eager packet carries none of
/// it.
#[inline(never)]
fn data_frame(span: u64, tag: u64, seq: u32, offset: u32, data: &Bytes) -> WireFrame {
    let head = encode_bare_head(span, tag, seq, offset, data.len());
    WireFrame::from_parts(head, Some(data.clone()))
}

impl CommCore {
    /// Polls one lane's completion ring, unwraps each frame and
    /// dispatches everything deliverable, then runs the lane's
    /// reliability upkeep. An unreliable lane strips a bare frame's
    /// header and trusts the rest, passing a two-part frame's body on
    /// as its chunk; a reliable lane hands the raw frame to its window,
    /// which verifies it before anything is decoded.
    ///
    /// Each poll rings the lane's doorbell first and enters the lane's
    /// section only if it rang, so a lane with nothing inbound costs no
    /// lock cycle, and neither does the poll after the last packet.
    pub(crate) fn poll_lane(&self, g: &Gate, lane: &Lane) -> usize {
        /// Packets polled per lane per progression pass.
        const MAX_POLLS_PER_PASS: usize = 16;
        if lane.poll_idle() {
            return 0;
        }
        let mut events = 0;
        for _ in 0..MAX_POLLS_PER_PASS {
            if !lane.has_inbound() {
                break;
            }
            let s = self.policy.enter(SectionKind::Driver(lane.id));
            let Some(raw) = lane.poll_frame(&s) else {
                break;
            };
            events += 1;
            if let Some(rel) = &lane.rel {
                // The window pass shares the poll's section; dispatch
                // runs after its release.
                let released = self.rel_receive(lane, &s, rel, raw);
                drop(s);
                for (packet, span) in released {
                    self.stats.packets_rx.incr();
                    self.dispatch(g, packet, None, span);
                }
                continue;
            }
            drop(s);
            let (head, body) = raw.into_parts();
            let Ok(frame) = decode_bare_frame(head) else {
                self.stats.wire_errors.incr();
                continue;
            };
            if frame.span != 0 {
                nm_metrics::trace_event!(SpanWireRx, frame.span, 0);
            }
            self.stats.packets_rx.incr();
            self.dispatch(g, frame.payload, body, frame.span);
        }
        if let Some(rel) = &lane.rel {
            events += self.upkeep(g, lane, rel);
        }
        events
    }

    /// Chunks an acknowledged rendezvous send and distributes the chunks
    /// round-robin across the live lanes (multirail distribution,
    /// striped over every rail's VCI contexts).
    pub(crate) fn start_rdv_data(&self, g: &Gate, rdv: RdvSend) {
        if rdv.req.is_complete() {
            // Cancelled while waiting for the CTS: send nothing.
            return;
        }
        let live: Vec<&Lane> = g.lanes.iter().filter(|l| !l.is_dead()).collect();
        if live.is_empty() {
            rdv.req.fail(CommError::PeerUnreachable);
            return;
        }
        let chunk = self.rdv_chunk_size(g);
        let total = rdv.data.len();
        let num_chunks = total.div_ceil(chunk);
        let span = rdv.req.span();
        let done = Arc::new(RdvSendDone {
            remaining: AtomicUsize::new(num_chunks),
            req: rdv.req,
        });
        // relaxed: round-robin cursor; any interleaving is a valid lane
        // choice, no data is published through it.
        let start_lane = g.rr_lane.fetch_add(1, Ordering::Relaxed);
        for i in 0..num_chunks {
            let offset = i * chunk;
            let end = (offset + chunk).min(total);
            let entry = Entry::Data {
                tag: rdv.tag,
                seq: rdv.seq,
                offset: offset as u32,
                data: rdv.data.slice(offset..end),
            };
            let lane = live[(start_lane + i) % live.len()];
            let s = self.policy.enter(SectionKind::Driver(lane.id));
            lane.with_xfer(&s, |q| {
                q.push_back(XferItem {
                    entries: vec![entry],
                    complete_on_post: Vec::new(),
                    rdv_done: Some(Arc::clone(&done)),
                    span,
                });
            });
            drop(s);
        }
        self.pump_gate(g);
    }

    /// Encodes `entries` into one frame and injects it on `lane`, whose
    /// section `s` the caller holds. This is the only place a data
    /// frame is first encoded, and it runs only once the frame can
    /// leave: first posts, `WouldBlock` requeues and failed-over packets
    /// all arrive here as entries.
    ///
    /// On an unreliable lane the frame is bare: one flags byte before
    /// the packet, no checksum. A packet that is one `DATA` entry leaves
    /// in two parts, its encoded head and the chunk, a slice of the
    /// caller's buffer, so the sender copies none of its bytes. A
    /// reliable lane seals and sequences every packet through its window
    /// (`CommCore::post_reliable`). `Err` is `WouldBlock` and hands the
    /// entries back for requeueing.
    fn post_packet(
        &self,
        lane: &Lane,
        s: &Section<'_>,
        entries: Vec<Entry>,
        span: u64,
    ) -> Result<(), Vec<Entry>> {
        if let Some(rel) = &lane.rel {
            return self.post_reliable(lane, s, rel, entries, span);
        }
        let frame = match entries.as_slice() {
            [Entry::Data {
                tag,
                seq,
                offset,
                data,
            }] => data_frame(span, *tag, *seq, *offset, data),
            _ => encode_bare_frame(span, &entries).into(),
        };
        let posted = lane.post_frame(s, frame);
        if posted.is_ok() && span != 0 {
            nm_metrics::trace_event!(SpanWireTx, span, 0);
        }
        posted.map_err(|PostError::WouldBlock| entries)
    }

    /// Pushes queued work toward the NICs: flushes transfer lists, then
    /// invokes the optimization layer for every idle lane.
    ///
    /// With nothing queued this takes no section and writes nothing: the
    /// length hints say so. Every push onto a hinted list is followed by
    /// a pump from the pushing thread (which sees its own hint), and a
    /// requeue after `WouldBlock` leaves the hint non-zero for the next
    /// pass, so skipping on a zero hint strands nothing.
    pub(crate) fn pump_gate(&self, g: &Gate) -> usize {
        if g.pump_idle() {
            return 0;
        }
        let mut events = 0;
        for nth in 0..g.lanes.len() {
            events += self.flush_xfer(g, nth);
        }
        // Optimization layer: fill idle lanes from the collect queue.
        // relaxed: round-robin cursor, see above.
        let mut lane_cursor = g.rr_lane.load(Ordering::Relaxed);
        while g.tx_len_hint() != 0 {
            let Some(nth) = self.pick_idle_lane(g, lane_cursor) else {
                break;
            };
            lane_cursor = nth + 1;
            let budget = self.packet_budget(g);
            let items = {
                let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
                let items = g.with_tx(&s, |tx| self.strategy.next_packet(&mut tx.queue, budget));
                drop(s);
                items
            };
            let Some(mut items) = items else {
                break;
            };
            // Reap sends cancelled while queued: their request already
            // finished, nothing should go on the wire for them.
            items.retain(|item| item.req.as_ref().is_none_or(|req| !req.is_complete()));
            if items.is_empty() {
                continue;
            }
            if items.len() > 1 {
                self.stats.aggregated_packets.incr();
            }
            let entries: Vec<Entry> = items.iter().map(SendItem::to_entry).collect();
            // The frame header carries one span: the first spanned item
            // aboard. Aggregated passengers keep their submit/collect/
            // complete events but ride the carrier's wire attribution.
            let span = items.iter().map(|i| i.span).find(|&s| s != 0).unwrap_or(0);
            let lane = &g.lanes[nth];
            nm_metrics::trace_event!(TransmitBegin, g.id.0, nth);
            let s = self.policy.enter(SectionKind::Driver(lane.id));
            let posted = self.post_packet(lane, &s, entries, span);
            drop(s);
            nm_metrics::trace_event!(TransmitEnd, g.id.0, posted.is_ok());
            match posted {
                Ok(()) => {
                    self.stats.packets_tx.incr();
                    events += 1;
                    for item in items {
                        if let Some(req) = item.req {
                            req.complete();
                        }
                    }
                }
                Err(_) => {
                    // NIC (or retransmit window) filled up between the
                    // idle check and the post: restore the items at the
                    // head of the queue.
                    let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
                    g.with_tx(&s, |tx| {
                        for item in items.into_iter().rev() {
                            tx.queue.push_front(item);
                        }
                    });
                    drop(s);
                    break;
                }
            }
        }
        events
    }

    /// Drains lane `nth` of `g`'s transfer list while its NIC context
    /// accepts packets.
    ///
    /// Each packet takes the lane's section once: the can-post check,
    /// the pop, the encode and the post, and on `WouldBlock` the
    /// `push_front` that restores it, so a packet leaves in list order
    /// or stays at the head. Completions run after the release.
    ///
    /// A NIC that refuses the post although it reported room (a driver
    /// whose contexts share a queue, or a stall) ends the flush with the
    /// packet requeued; every progression pass re-runs `flush_xfer` on
    /// every lane, so nothing is stranded.
    ///
    /// An empty list (by its length hint) is left without taking the
    /// lane's section; see [`CommCore::pump_gate`].
    fn flush_xfer(&self, g: &Gate, nth: usize) -> usize {
        let lane = &g.lanes[nth];
        if lane.xfer_idle() {
            return 0;
        }
        if lane.is_dead() {
            return self.restripe(g, lane, Vec::new());
        }
        let mut events = 0;
        loop {
            let s = self.policy.enter(SectionKind::Driver(lane.id));
            let posted = lane.with_xfer(&s, |q| {
                if !lane.can_post() {
                    return None;
                }
                let mut item = q.pop_front()?;
                nm_metrics::trace_event!(TransmitBegin, g.id.0, nth);
                let res = self.post_packet(lane, &s, std::mem::take(&mut item.entries), item.span);
                nm_metrics::trace_event!(TransmitEnd, g.id.0, res.is_ok());
                match res {
                    Ok(()) => Some(item),
                    Err(entries) => {
                        item.entries = entries;
                        q.push_front(item);
                        None
                    }
                }
            });
            drop(s);
            let Some(item) = posted else { break };
            self.stats.packets_tx.incr();
            events += 1;
            for req in item.complete_on_post {
                req.complete();
            }
            if let Some(done) = item.rdv_done {
                done.chunk_posted();
            }
        }
        events
    }

    /// Round-robin scan for a live lane whose NIC context reports itself
    /// idle; returns its index in the gate.
    fn pick_idle_lane(&self, g: &Gate, start: usize) -> Option<usize> {
        let n = g.lanes.len();
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&nth| !g.lanes[nth].is_dead() && g.lanes[nth].can_post())
    }

    /// Payload budget for the next arranged packet. The sealed header
    /// and the span word are reserved on every lane, so reliable and
    /// unreliable lanes, recorded and unrecorded runs arrange identical
    /// packets.
    fn packet_budget(&self, g: &Gate) -> usize {
        let mtu_budget = g.mtu - PACKET_HEADER - FRAME_HEADER - FRAME_SPAN_BYTES;
        // Never smaller than one maximal eager entry, or it could never
        // leave the queue.
        let agg = self
            .config
            .max_aggregation
            .max(self.config.eager_threshold + ENTRY_HEADER);
        mtu_budget.min(agg)
    }

    fn rdv_chunk_size(&self, g: &Gate) -> usize {
        let wire_max = g.mtu - FRAME_HEADER - FRAME_SPAN_BYTES - PACKET_HEADER - ENTRY_HEADER;
        self.config.rdv_chunk.clamp(1, wire_max)
    }
}
