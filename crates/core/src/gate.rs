//! Gates: per-peer connection state across the three layers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use nm_fabric::Driver;

use crate::locking::{Protected, Section, SectionKind};
use crate::request::Request;
use crate::strategy::SendItem;
use crate::transfer::Lane;

/// Identifies a peer connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub usize);

/// What a posted receive is willing to match (`MPI_ANY_TAG` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPattern {
    /// Match exactly this tag.
    Exact(u64),
    /// Match any tag.
    Any,
}

impl TagPattern {
    /// `true` if `tag` satisfies this pattern.
    pub fn matches(&self, tag: u64) -> bool {
        match self {
            TagPattern::Exact(t) => *t == tag,
            TagPattern::Any => true,
        }
    }
}

/// A receive posted by the application, waiting for a matching message.
#[derive(Debug)]
pub(crate) struct PostedRecv {
    pub pattern: TagPattern,
    pub req: Request,
}

/// An eager message that arrived before its receive was posted.
#[derive(Debug)]
pub(crate) struct UnexpectedMsg {
    pub tag: u64,
    pub seq: u32,
    pub data: Bytes,
}

/// An RTS that arrived before its receive was posted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRts {
    pub tag: u64,
    pub seq: u32,
    pub total: u32,
}

/// A message the resequencer is holding back because an earlier one has
/// not arrived yet. Eager and rendezvous share the sequence space, so
/// either protocol can be the one parked behind a gap.
#[derive(Debug)]
pub(crate) enum Parked {
    Eager(UnexpectedMsg),
    Rts(PendingRts),
}

impl Parked {
    pub fn seq(&self) -> u32 {
        match self {
            Parked::Eager(m) => m.seq,
            Parked::Rts(r) => r.seq,
        }
    }
}

/// An in-progress inbound rendezvous reassembly.
pub(crate) struct RdvRecv {
    pub tag: u64,
    pub seq: u32,
    pub total: u32,
    /// Payload bytes landed so far; each byte counts once, since no two
    /// landed chunks overlap.
    pub received: u32,
    /// Allocated for `total` bytes but not zeroed: it holds what has
    /// landed up to the highest chunk end, and zeros only in the gaps
    /// below it that chunks still to come will fill.
    pub buf: BytesMut,
    pub req: Request,
    /// Offset → length of every chunk landed, so a redelivered chunk
    /// or one overlapping a landed range cannot count `received` twice
    /// and complete the reassembly with a hole in it.
    pub chunks: BTreeMap<u32, u32>,
}

/// What [`RdvRecv::land`] did with a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Landing {
    /// Copied into place and counted.
    Landed,
    /// The very chunk already landed: a redelivery, dropped.
    Duplicate,
    /// Empty, past the end of the message, or overlapping a landed
    /// chunk without being it: a chunk no sender cuts, dropped.
    Invalid,
}

impl RdvRecv {
    /// A reassembly of `total` bytes, nothing landed yet.
    pub fn new(tag: u64, seq: u32, total: u32, req: Request) -> Self {
        RdvRecv {
            tag,
            seq,
            total,
            received: 0,
            buf: BytesMut::with_capacity(total as usize),
            req,
            chunks: BTreeMap::new(),
        }
    }

    /// `true` once every byte has landed.
    pub fn is_complete(&self) -> bool {
        self.received == self.total
    }

    /// Copies the chunk `data` at `offset` into the buffer, with the one
    /// copy the payload takes on this side: an in-order chunk extends
    /// the buffer, a chunk past its end zero-fills only the gap before
    /// it, and a chunk below its end overwrites the zeros of a gap.
    pub fn land(&mut self, offset: u32, data: &[u8]) -> Landing {
        let fits = (offset as u64 + data.len() as u64) <= self.total as u64;
        if !fits || data.is_empty() {
            return Landing::Invalid;
        }
        if !self.mark_chunk(offset, data.len() as u32) {
            return if self.chunks.get(&offset) == Some(&(data.len() as u32)) {
                Landing::Duplicate
            } else {
                Landing::Invalid
            };
        }
        let start = offset as usize;
        if start > self.buf.len() {
            self.buf.resize(start, 0);
        }
        let below = (self.buf.len() - start).min(data.len());
        self.buf[start..start + below].copy_from_slice(&data[..below]);
        self.buf.extend_from_slice(&data[below..]);
        self.received += data.len() as u32;
        Landing::Landed
    }

    /// Records the non-empty chunk `[offset, offset + len)`; `false`,
    /// recording nothing, if it intersects a chunk already recorded.
    /// Only the neighbours a new chunk would sit between are looked at:
    /// the recorded chunks never overlap, so no other can reach it.
    fn mark_chunk(&mut self, offset: u32, len: u32) -> bool {
        let end = offset as u64 + len as u64;
        let before = self.chunks.range(..=offset).next_back();
        if before.is_some_and(|(&o, &l)| o as u64 + l as u64 > offset as u64) {
            return false;
        }
        let after = self.chunks.range(offset..).next();
        if after.is_some_and(|(&o, _)| (o as u64) < end) {
            return false;
        }
        self.chunks.insert(offset, len);
        true
    }
}

/// An outbound rendezvous waiting for its CTS.
pub(crate) struct RdvSend {
    pub tag: u64,
    pub seq: u32,
    pub data: Bytes,
    pub req: Request,
}

/// Completion tracker shared by the chunks of one rendezvous send: the
/// send request completes when the last chunk hits the wire.
pub(crate) struct RdvSendDone {
    pub remaining: AtomicUsize,
    pub req: Request,
}

impl RdvSendDone {
    /// Decrements; completes the request on the last chunk.
    pub fn chunk_posted(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.req.complete();
        }
    }
}

/// `a < b` in serial-number (wrapping) arithmetic over `u32` sequence
/// numbers (message seqs and wire seqs alike).
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) > u32::MAX / 2
}

/// Publishes `len` as a list's length hint. Called with the list's
/// section held, so writers are serialized; the store is skipped when
/// nothing changed so that an access which leaves the length alone
/// does not dirty the line idle passes read.
pub(crate) fn publish_len(hint: &AtomicUsize, len: usize) {
    // relaxed: (load and store) the hint publishes no data — readers
    // take the section before touching the list — and the section's
    // release orders it for the next holder.
    if hint.load(Ordering::Relaxed) != len {
        hint.store(len, Ordering::Relaxed);
    }
}

/// Inserts `item` into a per-tag bin kept ascending by `seq`.
///
/// Arrivals are almost always in order (the resequencer releases eager
/// messages gap-free, rendezvous ids are allocated monotonically), so the
/// common case is a cheap `push_back`; multi-rail reordering falls back to
/// a binary-search insert.
fn bin_insert_by_seq<T>(bin: &mut VecDeque<T>, item: T, seq_of: impl Fn(&T) -> u32) {
    let seq = seq_of(&item);
    match bin.back() {
        Some(last) if seq_of(last) > seq => {
            let idx = bin.partition_point(|m| seq_of(m) < seq);
            bin.insert(idx, item);
        }
        _ => bin.push_back(item),
    }
}

/// Receive-side matching state (collect-layer domain, one per gate).
///
/// Matching is O(1) expected: posted receives, unexpected messages and
/// pending RTS live in per-tag hash bins instead of one linear list.
/// MPI ordering semantics are preserved exactly:
///
/// * **Posted receives** carry a global post-order stamp. Exact-tag
///   receives bin by tag (FIFO within the bin); wildcard (`Any`)
///   receives keep their own FIFO. An incoming tag takes whichever of
///   the two candidates was posted first — identical to scanning one
///   combined list in post order (per-tag FIFO non-overtaking, and a
///   wildcard never overtakes an earlier exact post or vice versa).
/// * **Unexpected messages / pending RTS** bin by tag with each bin kept
///   ascending by sequence number; a `BTreeMap` keyed by seq indexes the
///   whole gate so a wildcard receive takes the earliest-seq message
///   across all tags — identical to the old `min_by_key(seq)` scan.
///   Sequence numbers are unique per gate (eager and rendezvous ids
///   come from one monotonic per-gate counter), so the seq indexes are
///   collision-free and a receive can arbitrate between a buffered
///   eager message and a buffered RTS by comparing their seqs.
///
/// The `proptest_matching` integration test drives this structure and
/// the original linear-scan implementation (kept there as an oracle)
/// through random interleavings and asserts identical match order.
#[derive(Default)]
pub(crate) struct RxState {
    /// Global post-order stamp for posted receives.
    post_order: u64,
    /// Exact-tag posted receives, binned by tag, FIFO per bin; entries
    /// carry their post-order stamp.
    posted_exact: HashMap<u64, VecDeque<(u64, PostedRecv)>>,
    /// The last exact-tag bin that emptied, kept (empty, with its
    /// capacity) for the next tag that needs a bin: a receive posted
    /// ahead of each message reuses it instead of allocating one.
    spare_bin: VecDeque<(u64, PostedRecv)>,
    /// Wildcard posted receives, FIFO, with post-order stamps.
    posted_any: VecDeque<(u64, PostedRecv)>,
    /// Total posted receives across both structures.
    posted_len: usize,
    /// Unexpected eager messages, binned by tag, ascending seq.
    unexpected: HashMap<u64, VecDeque<UnexpectedMsg>>,
    /// seq → tag over all unexpected messages (wildcard earliest-seq).
    unexpected_by_seq: BTreeMap<u32, u64>,
    /// RTS that arrived before their receive, binned by tag, ascending seq.
    pending_rts: HashMap<u64, VecDeque<PendingRts>>,
    /// seq → tag over all pending RTS.
    pending_rts_by_seq: BTreeMap<u32, u64>,
    /// In-progress inbound reassemblies, keyed by rendezvous id.
    rdv_in: HashMap<u32, RdvRecv>,
    /// Next message sequence number the resequencer will release
    /// (eager and RTS alike — one shared space).
    pub expected_seq: u32,
    /// Out-of-order messages awaiting their turn, keyed by seq.
    ooo: HashMap<u32, Parked>,
}

impl RxState {
    /// Adds a posted receive (FIFO in global post order).
    pub fn push_posted(&mut self, recv: PostedRecv) {
        let stamp = self.post_order;
        self.post_order += 1;
        match recv.pattern {
            TagPattern::Exact(tag) => {
                self.posted_exact
                    .entry(tag)
                    .or_insert_with(|| std::mem::take(&mut self.spare_bin))
                    .push_back((stamp, recv));
            }
            TagPattern::Any => self.posted_any.push_back((stamp, recv)),
        }
        self.posted_len += 1;
        crate::metrics::posted_depth().add(1);
    }

    /// Takes the first posted receive whose pattern matches `tag`:
    /// the earlier-posted of the tag's exact bin front and the wildcard
    /// queue front. Receives whose request already finished (cancelled
    /// by the application) are reaped here instead of matching.
    pub fn take_posted(&mut self, tag: u64) -> Option<PostedRecv> {
        loop {
            let exact_stamp = self
                .posted_exact
                .get(&tag)
                .and_then(|bin| bin.front())
                .map(|(stamp, _)| *stamp);
            let any_stamp = self.posted_any.front().map(|(stamp, _)| *stamp);
            let recv = match (exact_stamp, any_stamp) {
                (Some(e), Some(a)) if a < e => self.posted_any.pop_front().map(|(_, r)| r),
                (Some(_), _) => {
                    let bin = self.posted_exact.get_mut(&tag).expect("front checked");
                    let recv = bin.pop_front().map(|(_, r)| r);
                    if bin.is_empty() {
                        self.spare_bin = self.posted_exact.remove(&tag).expect("bin just emptied");
                    }
                    recv
                }
                (None, Some(_)) => self.posted_any.pop_front().map(|(_, r)| r),
                (None, None) => None,
            }?;
            debug_assert!(recv.pattern.matches(tag), "bin lookup broke matching");
            self.posted_len -= 1;
            crate::metrics::posted_depth().sub(1);
            if recv.req.is_complete() {
                // Cancelled while posted: drop the entry and keep looking.
                continue;
            }
            return Some(recv);
        }
    }

    /// Reaps posted receives whose request already finished (cancelled).
    /// Returns how many entries were removed.
    pub fn prune_cancelled(&mut self) -> usize {
        let before = self.posted_len;
        self.posted_any.retain(|(_, r)| !r.req.is_complete());
        self.posted_exact.retain(|_, bin| {
            bin.retain(|(_, r)| !r.req.is_complete());
            !bin.is_empty()
        });
        self.posted_len =
            self.posted_any.len() + self.posted_exact.values().map(VecDeque::len).sum::<usize>();
        let reaped = before - self.posted_len;
        if reaped > 0 {
            crate::metrics::posted_depth().sub(reaped as i64);
        }
        reaped
    }

    /// Buffers an unexpected message. Returns `false` (dropping `msg`)
    /// if a message with the same sequence number is already buffered —
    /// a redelivery on a lossy wire, not a new message.
    pub fn push_unexpected(&mut self, msg: UnexpectedMsg) -> bool {
        if self.unexpected_by_seq.contains_key(&msg.seq) {
            return false;
        }
        self.unexpected_by_seq.insert(msg.seq, msg.tag);
        let bin = self.unexpected.entry(msg.tag).or_default();
        bin_insert_by_seq(bin, msg, |m| m.seq);
        crate::metrics::unexpected_depth().add(1);
        true
    }

    /// Takes the earliest buffered message (unexpected) matching `pattern`.
    pub fn take_unexpected_matching(&mut self, pattern: TagPattern) -> Option<UnexpectedMsg> {
        let tag = match pattern {
            TagPattern::Exact(tag) => tag,
            // The global earliest seq; within its tag's ascending bin it
            // is necessarily the front.
            TagPattern::Any => *self.unexpected_by_seq.first_key_value()?.1,
        };
        let bin = self.unexpected.get_mut(&tag)?;
        let msg = bin.pop_front()?;
        if bin.is_empty() {
            self.unexpected.remove(&tag);
        }
        self.unexpected_by_seq.remove(&msg.seq);
        crate::metrics::unexpected_depth().sub(1);
        Some(msg)
    }

    /// Takes the earliest-sequence unexpected message with `tag`.
    #[cfg(test)]
    pub fn take_unexpected(&mut self, tag: u64) -> Option<UnexpectedMsg> {
        self.take_unexpected_matching(TagPattern::Exact(tag))
    }

    /// Sequence number of the earliest buffered unexpected message
    /// matching `pattern`, without removing it.
    pub fn peek_unexpected_seq(&self, pattern: TagPattern) -> Option<u32> {
        match pattern {
            TagPattern::Exact(tag) => self.unexpected.get(&tag)?.front().map(|m| m.seq),
            TagPattern::Any => self.unexpected_by_seq.first_key_value().map(|(s, _)| *s),
        }
    }

    /// Sequence number of the earliest pending RTS matching `pattern`,
    /// without removing it.
    pub fn peek_pending_rts_seq(&self, pattern: TagPattern) -> Option<u32> {
        match pattern {
            TagPattern::Exact(tag) => self.pending_rts.get(&tag)?.front().map(|r| r.seq),
            TagPattern::Any => self.pending_rts_by_seq.first_key_value().map(|(s, _)| *s),
        }
    }

    /// Buffers an RTS that found no posted receive. Duplicates (same
    /// rendezvous id, a redelivery) are dropped and reported `false`.
    pub fn push_pending_rts(&mut self, rts: PendingRts) -> bool {
        if self.pending_rts_by_seq.contains_key(&rts.seq) {
            return false;
        }
        self.pending_rts_by_seq.insert(rts.seq, rts.tag);
        let bin = self.pending_rts.entry(rts.tag).or_default();
        bin_insert_by_seq(bin, rts, |r| r.seq);
        true
    }

    /// Takes the earliest pending RTS matching `pattern`.
    pub fn take_pending_rts(&mut self, pattern: TagPattern) -> Option<PendingRts> {
        let tag = match pattern {
            TagPattern::Exact(tag) => tag,
            TagPattern::Any => *self.pending_rts_by_seq.first_key_value()?.1,
        };
        let bin = self.pending_rts.get_mut(&tag)?;
        let rts = bin.pop_front()?;
        if bin.is_empty() {
            self.pending_rts.remove(&tag);
        }
        self.pending_rts_by_seq.remove(&rts.seq);
        Some(rts)
    }

    /// Starts tracking an inbound rendezvous reassembly.
    pub fn rdv_in_insert(&mut self, rdv: RdvRecv) {
        let prev = self.rdv_in.insert(rdv.seq, rdv);
        debug_assert!(prev.is_none(), "duplicate rendezvous id");
    }

    /// Whether a reassembly for rendezvous id `seq` is active (guards
    /// against redelivered RTS frames).
    pub fn rdv_in_contains(&self, seq: u32) -> bool {
        self.rdv_in.contains_key(&seq)
    }

    /// The active reassembly for rendezvous id `seq`, if any.
    pub fn rdv_in_get_mut(&mut self, seq: u32) -> Option<&mut RdvRecv> {
        self.rdv_in.get_mut(&seq)
    }

    /// Finishes (removes) the reassembly for rendezvous id `seq`.
    pub fn rdv_in_remove(&mut self, seq: u32) -> Option<RdvRecv> {
        self.rdv_in.remove(&seq)
    }

    /// Parks a message that arrived ahead of the resequencer. Returns
    /// `false` (dropping `msg`) if that sequence number is already
    /// parked — a redelivery, not a new message.
    pub fn push_ooo(&mut self, msg: Parked) -> bool {
        match self.ooo.entry(msg.seq()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(msg);
                true
            }
        }
    }

    /// Releases the parked message with sequence `seq`, if present.
    pub fn take_ooo(&mut self, seq: u32) -> Option<Parked> {
        self.ooo.remove(&seq)
    }

    /// Number of posted receives waiting for a match.
    pub fn posted_len(&self) -> usize {
        self.posted_len
    }

    /// Number of buffered unexpected messages.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_by_seq.len()
    }

    /// Number of buffered RTS without a posted receive.
    pub fn pending_rts_len(&self) -> usize {
        self.pending_rts_by_seq.len()
    }

    /// Number of in-progress inbound reassemblies.
    pub fn rdv_in_len(&self) -> usize {
        self.rdv_in.len()
    }

    /// Number of parked out-of-order messages.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }
}

impl Drop for RxState {
    fn drop(&mut self) {
        // Keep the library-wide depth gauges honest when a core is torn
        // down with receives still posted or messages still buffered.
        if self.posted_len > 0 {
            crate::metrics::posted_depth().sub(self.posted_len as i64);
        }
        let unexpected = self.unexpected_by_seq.len();
        if unexpected > 0 {
            crate::metrics::unexpected_depth().sub(unexpected as i64);
        }
    }
}

/// Send-side collect/rendezvous state (collect-layer domain, one per gate).
#[derive(Default)]
pub(crate) struct TxState {
    /// The per-gate submit list the optimization layer schedules from.
    pub queue: VecDeque<SendItem>,
    /// Outbound rendezvous waiting for CTS, keyed by rendezvous id.
    pub rdv_out: HashMap<u32, RdvSend>,
}

impl TxState {
    /// Registers an outbound rendezvous awaiting its CTS.
    pub fn rdv_out_insert(&mut self, rdv: RdvSend) {
        let prev = self.rdv_out.insert(rdv.seq, rdv);
        debug_assert!(prev.is_none(), "duplicate rendezvous id");
    }

    /// Claims the rendezvous `seq` on CTS arrival.
    pub fn rdv_out_remove(&mut self, seq: u32) -> Option<RdvSend> {
        self.rdv_out.remove(&seq)
    }
}

/// One peer connection: its lanes and its collect-layer lists.
///
/// The collect-layer state is sharded: `tx` and `rx` belong to this
/// gate's own `CollectTx`/`CollectRx` lock classes, so flows on distinct
/// gates never contend in fine-grain mode.
///
/// Below the collect layer everything belongs to a [`Lane`] — one
/// (rail, VCI) pair. A rail whose driver exposes `num_vcis() == n`
/// contributes `n` lanes, each with its own transfer queue, reliability
/// window and driver context, so concurrent flows pinned to different
/// lanes share no transfer-layer lock at all. With single-VCI drivers
/// there is one lane per rail.
pub(crate) struct Gate {
    /// Diagnostic identity; used by Debug formatting and trace events.
    pub id: GateId,
    /// One lane per (rail, VCI), rail-major in the order of the rails
    /// and of each driver's `num_vcis()`.
    pub lanes: Vec<Lane>,
    /// Smallest MTU across the rails (bounds eager and aggregation
    /// sizes).
    pub mtu: usize,
    /// Next message sequence number. Eager messages and rendezvous ids
    /// share one space: the receiver's resequencer sees a gap-free
    /// stream over *all* messages, so an eager send can never be
    /// overtaken by a later rendezvous (or vice versa) when the two ride
    /// different lanes.
    pub next_seq: AtomicU32,
    /// Collect-layer send state (gate's own CollectTx section); reached
    /// through [`Gate::with_tx`], which keeps `tx_len` in step.
    tx: Protected<TxState>,
    /// Length hint of `tx.queue`: what a progression pass reads instead
    /// of taking the CollectTx section to find the queue empty. Written
    /// only under that section and only when the length changes, so at
    /// every release of the section it equals `tx.queue.len()`.
    tx_len: AtomicUsize,
    /// Collect-layer receive state (gate's own CollectRx section).
    pub rx: Protected<RxState>,
    /// Round-robin cursor for lane selection.
    pub rr_lane: AtomicUsize,
}

impl Gate {
    /// Builds gate `id` over one driver per rail. Its lanes take the lock
    /// policy's per-lane indices from `first_lane` on; `reliable` gives
    /// each a reliability window.
    pub fn new(
        id: GateId,
        drivers: Vec<Arc<dyn Driver>>,
        first_lane: usize,
        reliable: bool,
    ) -> Self {
        assert!(!drivers.is_empty(), "a gate needs at least one rail");
        let mut lanes = Vec::new();
        for driver in &drivers {
            for vci in 0..driver.num_vcis().max(1) {
                let lane_id = first_lane + lanes.len();
                lanes.push(Lane::new(Arc::clone(driver), vci, lane_id, reliable));
            }
        }
        let mtu = drivers
            .iter()
            .map(|d| d.caps().mtu)
            .min()
            .expect("checked above");
        Gate {
            id,
            lanes,
            mtu,
            next_seq: AtomicU32::new(0),
            tx: Protected::new(SectionKind::CollectTx(id.0), TxState::default()),
            tx_len: AtomicUsize::new(0),
            rx: Protected::new(SectionKind::CollectRx(id.0), RxState::default()),
            rr_lane: AtomicUsize::new(0),
        }
    }

    /// Accesses the collect-layer send state under its section and
    /// republishes the queue-length hint before the section is released.
    pub fn with_tx<R>(&self, s: &Section<'_>, f: impl FnOnce(&mut TxState) -> R) -> R {
        self.tx.with(s, |tx| {
            debug_assert_eq!(self.tx_len_hint(), tx.queue.len(), "stale collect hint");
            let out = f(tx);
            publish_len(&self.tx_len, tx.queue.len());
            out
        })
    }

    /// Collect-queue length as last published — no section taken. Zero
    /// means the queue was empty at some release of the CollectTx
    /// section; whoever pushes afterwards pumps afterwards, so a pass
    /// that skips on zero strands nothing (DESIGN.md, "An idle pass
    /// takes no lock").
    pub fn tx_len_hint(&self) -> usize {
        // relaxed: advisory; the queue is only touched under its section.
        self.tx_len.load(Ordering::Relaxed)
    }

    /// `true` when a pump of this gate would find nothing to push: the
    /// collect queue and every lane's transfer list are empty by their
    /// length hints. Takes no section. `CommCore::pump_gate` returns on
    /// it, and the coarse idle check (`CommCore::quiet`) asks it too.
    pub(crate) fn pump_idle(&self) -> bool {
        self.tx_len_hint() == 0 && self.lanes.iter().all(Lane::xfer_idle)
    }

    /// Whether every lane of this gate is dead (the peer is unreachable).
    /// Lanes die only on a reliable core, so elsewhere the first lane
    /// answers.
    pub fn unreachable(&self) -> bool {
        self.lanes.iter().all(Lane::is_dead)
    }

    /// Allocates the next message sequence number (eager and rendezvous
    /// draw from the same space).
    pub fn alloc_seq(&self) -> u32 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn unexpected(tag: u64, seq: u32) -> UnexpectedMsg {
        UnexpectedMsg {
            tag,
            seq,
            data: Bytes::new(),
        }
    }

    #[test]
    fn take_unexpected_picks_lowest_seq() {
        let mut rx = RxState::default();
        for (seq, tag) in [(5u32, 1u64), (2, 1), (9, 2), (3, 1)] {
            rx.push_unexpected(unexpected(tag, seq));
        }
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 2);
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 3);
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 5);
        assert!(rx.take_unexpected(1).is_none());
        assert_eq!(rx.take_unexpected(2).unwrap().seq, 9);
    }

    #[test]
    fn wildcard_takes_earliest_seq_across_tags() {
        let mut rx = RxState::default();
        for (seq, tag) in [(7u32, 1u64), (2, 3), (4, 1), (9, 2)] {
            rx.push_unexpected(unexpected(tag, seq));
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| rx.take_unexpected_matching(TagPattern::Any).map(|m| m.seq))
                .collect();
        assert_eq!(order, vec![2, 4, 7, 9]);
        assert_eq!(rx.unexpected_len(), 0);
    }

    #[test]
    fn take_posted_is_fifo_per_tag() {
        let mut rx = RxState::default();
        let (r1, r2) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: r1.clone(),
        });
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: r2.clone(),
        });
        let first = rx.take_posted(1).unwrap();
        first.req.complete();
        assert!(r1.is_complete());
        assert!(!r2.is_complete());
        assert!(rx.take_posted(7).is_none());
    }

    #[test]
    fn an_emptied_posted_bin_is_reused_by_the_next_tag() {
        let mut rx = RxState::default();
        let post = |rx: &mut RxState, tag| {
            rx.push_posted(PostedRecv {
                pattern: TagPattern::Exact(tag),
                req: Request::new(RequestKind::Recv),
            })
        };
        post(&mut rx, 1);
        rx.take_posted(1).unwrap();
        let spare = rx.spare_bin.capacity();
        assert!(spare > 0 && rx.posted_exact.is_empty());
        post(&mut rx, 2);
        assert_eq!(rx.posted_exact[&2].capacity(), spare);
        assert_eq!(
            rx.spare_bin.capacity(),
            0,
            "the spare moved into the new bin"
        );
        // Cancelled receives are pruned with their bin, not kept.
        rx.posted_exact[&2][0].1.req.complete();
        assert_eq!(rx.prune_cancelled(), 1);
        assert!(rx.posted_exact.is_empty());
        assert_eq!(rx.spare_bin.capacity(), 0);
    }

    #[test]
    fn posted_wildcard_does_not_overtake_earlier_exact() {
        let mut rx = RxState::default();
        let (exact, any) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Exact(5),
            req: exact.clone(),
        });
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Any,
            req: any.clone(),
        });
        // Tag 5 matches both; the exact receive was posted first.
        rx.take_posted(5).unwrap().req.complete();
        assert!(exact.is_complete());
        assert!(!any.is_complete());
        // The wildcard is next in line for any tag.
        rx.take_posted(5).unwrap().req.complete();
        assert!(any.is_complete());
        assert_eq!(rx.posted_len(), 0);
    }

    #[test]
    fn posted_earlier_wildcard_beats_later_exact() {
        let mut rx = RxState::default();
        let (any, exact) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Any,
            req: any.clone(),
        });
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Exact(5),
            req: exact.clone(),
        });
        rx.take_posted(5).unwrap().req.complete();
        assert!(any.is_complete());
        assert!(!exact.is_complete());
    }

    #[test]
    fn pending_rts_wildcard_earliest_seq() {
        let mut rx = RxState::default();
        for (seq, tag) in [(6u32, 2u64), (1, 9), (3, 2)] {
            rx.push_pending_rts(PendingRts { tag, seq, total: 1 });
        }
        assert_eq!(rx.take_pending_rts(TagPattern::Any).unwrap().seq, 1);
        assert_eq!(rx.take_pending_rts(TagPattern::Exact(2)).unwrap().seq, 3);
        assert_eq!(rx.take_pending_rts(TagPattern::Any).unwrap().seq, 6);
        assert!(rx.take_pending_rts(TagPattern::Any).is_none());
    }

    #[test]
    fn chunks_land_in_any_order_and_each_byte_once() {
        // 40 bytes in 16-byte chunks: [0, 16), [16, 32) and a short last
        // chunk [32, 40).
        let msg: Vec<u8> = (1..=40).collect();
        let mut r = RdvRecv::new(1, 0, 40, Request::new(RequestKind::Recv));
        assert!(r.buf.is_empty(), "nothing is written before a chunk lands");
        // Chunk 2 first: only the gap before it is zeroed.
        assert_eq!(r.land(32, &msg[32..]), Landing::Landed);
        assert_eq!(r.buf.len(), 40);
        assert!(r.buf[..32].iter().all(|&b| b == 0));
        assert_eq!(r.land(0, &msg[..16]), Landing::Landed);
        assert_eq!(r.land(0, &msg[..16]), Landing::Duplicate);
        // Overlapping a landed chunk, or reaching past the message, or
        // empty: a chunk no sender cuts.
        for (offset, range) in [(8, 8..24), (24, 24..40), (0, 0..8)] {
            assert_eq!(
                r.land(offset, &msg[range.clone()]),
                Landing::Invalid,
                "{range:?}"
            );
        }
        assert_eq!(r.land(33, &msg[32..]), Landing::Invalid, "past the end");
        assert_eq!(r.land(20, &[]), Landing::Invalid, "empty");
        assert!(!r.is_complete());
        assert_eq!(r.received, 24);
        assert_eq!(r.land(16, &msg[16..32]), Landing::Landed);
        assert!(r.is_complete());
        assert_eq!(&r.buf[..], &msg[..]);
    }

    #[test]
    fn rdv_in_keyed_by_seq() {
        let mut rx = RxState::default();
        for seq in [4u32, 8] {
            rx.rdv_in_insert(RdvRecv::new(1, seq, 2, Request::new(RequestKind::Recv)));
        }
        assert_eq!(rx.rdv_in_len(), 2);
        rx.rdv_in_get_mut(8).unwrap().received = 1;
        assert!(rx.rdv_in_get_mut(5).is_none());
        let done = rx.rdv_in_remove(8).unwrap();
        assert_eq!(done.received, 1);
        assert_eq!(rx.rdv_in_len(), 1);
    }

    #[test]
    fn rdv_out_keyed_by_seq() {
        let mut tx = TxState::default();
        for seq in [0u32, 1] {
            tx.rdv_out_insert(RdvSend {
                tag: 3,
                seq,
                data: Bytes::new(),
                req: Request::new(RequestKind::Send),
            });
        }
        assert!(tx.rdv_out_remove(2).is_none());
        assert_eq!(tx.rdv_out_remove(1).unwrap().seq, 1);
        assert_eq!(tx.rdv_out.len(), 1);
    }

    #[test]
    fn depth_counters_track_posts_and_takes() {
        let mut rx = RxState::default();
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Any,
            req: Request::new(RequestKind::Recv),
        });
        rx.push_posted(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: Request::new(RequestKind::Recv),
        });
        assert_eq!(rx.posted_len(), 2);
        rx.take_posted(1).unwrap();
        assert_eq!(rx.posted_len(), 1);
        rx.push_unexpected(unexpected(1, 0));
        assert_eq!(rx.unexpected_len(), 1);
        rx.take_unexpected_matching(TagPattern::Any).unwrap();
        assert_eq!(rx.unexpected_len(), 0);
    }

    #[test]
    fn rdv_send_done_completes_on_last_chunk() {
        let req = Request::new(RequestKind::Send);
        let done = RdvSendDone {
            remaining: AtomicUsize::new(3),
            req: req.clone(),
        };
        done.chunk_posted();
        done.chunk_posted();
        assert!(!req.is_complete());
        done.chunk_posted();
        assert!(req.is_complete());
    }

    #[test]
    fn gate_seq_allocation_is_monotonic() {
        let (a, _b) = nm_fabric::LoopbackDriver::pair(4);
        let gate = Gate::new(GateId(0), vec![Arc::new(a)], 0, false);
        assert_eq!(gate.alloc_seq(), 0);
        assert_eq!(gate.alloc_seq(), 1);
        assert_eq!(gate.alloc_seq(), 2);
        assert_eq!(gate.lanes.len(), 1);
        assert_eq!((gate.lanes[0].vci, gate.lanes[0].id), (0, 0));
        assert!(gate.lanes[0].rel.is_none());
    }

    /// A two-context SimNic rail then a loopback rail.
    fn two_rails() -> Vec<Arc<dyn Driver>> {
        let clock = nm_fabric::ClockSource::manual();
        let (na, _nb) = nm_fabric::SimNic::pair_vcis("r0", nm_fabric::WireModel::ideal(), clock, 2);
        let (lb, _peer) = nm_fabric::LoopbackDriver::pair(4);
        vec![
            Arc::new(nm_fabric::SimNicDriver::new(na, true)),
            Arc::new(lb),
        ]
    }

    /// Indices of the lanes `gate` built over `rail`.
    fn lanes_of(gate: &Gate, rail: &Arc<dyn Driver>) -> Vec<usize> {
        (0..gate.lanes.len())
            .filter(|&i| Arc::ptr_eq(&gate.lanes[i].driver, rail))
            .collect()
    }

    #[test]
    fn lane_table_is_rail_major_over_vcis() {
        let rails = two_rails();
        let gate = Gate::new(GateId(0), rails.clone(), 5, true);
        let table: Vec<(usize, usize)> = gate.lanes.iter().map(|l| (l.vci, l.id)).collect();
        assert_eq!(table, [(0, 5), (1, 6), (0, 7)]);
        assert_eq!(lanes_of(&gate, &rails[0]), [0, 1]);
        assert_eq!(lanes_of(&gate, &rails[1]), [2]);
        assert!(gate.lanes.iter().all(|l| l.rel.is_some()));
    }

    #[test]
    fn rail_death_is_the_death_of_all_its_lanes() {
        let rails = two_rails();
        let gate = Gate::new(GateId(0), rails.clone(), 0, true);
        // A physical-NIC death takes all its VCI contexts with it: every
        // lane is marked even after the first win, and the caller that
        // transitioned any lane wins the migration duty.
        let kill_rail = |rail| {
            let mut won = false;
            for i in lanes_of(&gate, rail) {
                won |= gate.lanes[i].mark_dead();
            }
            won
        };
        let rail_is_dead = |rail| {
            lanes_of(&gate, rail)
                .iter()
                .all(|&i| gate.lanes[i].is_dead())
        };
        // One VCI exhausting does not kill the rail.
        assert!(gate.lanes[0].mark_dead());
        assert!(gate.lanes[0].is_dead());
        assert!(!rail_is_dead(&rails[0]));
        // A rail death sweeps the surviving sibling lane too.
        assert!(kill_rail(&rails[0]));
        assert!(rail_is_dead(&rails[0]));
        assert!(!kill_rail(&rails[0]));
        assert!(!gate.unreachable());
        assert!(kill_rail(&rails[1]));
        assert!(gate.unreachable());
    }
}
