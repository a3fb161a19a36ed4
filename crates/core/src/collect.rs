//! Collect layer (paper Fig 1, top): submission into a gate's send
//! list, receive posting and tag matching, dispatch of inbound packets,
//! and the resequencer that releases messages in send order.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};

use nm_progress::OffloadMode;

use crate::comm::CommCore;
use crate::completion::Completion;
use crate::error::CommError;
use crate::gate::{
    seq_lt, Gate, GateId, Parked, PendingRts, PostedRecv, RdvRecv, RdvSend, RxState, TagPattern,
    UnexpectedMsg,
};
use crate::locking::SectionKind;
use crate::request::{Request, RequestKind};
use crate::strategy::{SendItem, SendItemKind};
use crate::wire::{decode_packet, Entry};

/// Effects that must run outside the collect section (completions signal
/// condvars; CTS starts chunk distribution over rails).
enum After {
    CompleteRecv(Request, u64, Bytes),
    StartData(RdvSend),
}

impl CommCore {
    /// Posts a non-blocking send of `data` to `gate` with `tag`.
    ///
    /// Messages up to the eager threshold complete locally once injected;
    /// larger messages complete when the last rendezvous chunk is
    /// injected.
    pub fn isend(&self, gate: GateId, tag: u64, data: Bytes) -> Result<Request, CommError> {
        self.isend_with(gate, tag, data, Completion::Flag)
    }

    /// Like [`CommCore::isend`], delivering completion through
    /// `completion` (queue push, handler call, or async waker wake-up)
    /// instead of only signalling the request's flag.
    pub fn isend_with(
        &self,
        gate: GateId,
        tag: u64,
        data: Bytes,
        completion: Completion,
    ) -> Result<Request, CommError> {
        let _t = crate::metrics::send_hist().sampled_timer();
        let g = self.gate(gate)?;
        if data.len() > u32::MAX as usize {
            return Err(CommError::MessageTooLarge { len: data.len() });
        }
        if g.unreachable() {
            return Err(CommError::PeerUnreachable);
        }
        let req = Request::new_with(RequestKind::Send, completion);
        self.stats.sends_posted.incr();
        nm_trace::trace_event!(SubmitBegin, gate.0, data.len());
        nm_trace::trace_event!(SpanSubmit, req.span(), gate.0);
        {
            let api = self.policy.enter_api();
            let item = if data.len() <= self.config.eager_threshold {
                self.stats.eager_sent.incr();
                SendItem {
                    tag,
                    seq: g.alloc_seq(),
                    kind: SendItemKind::Eager(data),
                    span: req.span(),
                    req: Some(req.clone()),
                }
            } else {
                self.stats.rdv_started.incr();
                let seq = g.alloc_seq();
                let total = data.len() as u32;
                let rdv = RdvSend {
                    tag,
                    seq,
                    data,
                    req: req.clone(),
                };
                let s = self.policy.enter(SectionKind::CollectTx(gate.0));
                g.with_tx(&s, |tx| tx.rdv_out_insert(rdv));
                drop(s);
                SendItem {
                    tag,
                    seq,
                    kind: SendItemKind::Rts { total },
                    span: req.span(),
                    req: None,
                }
            };
            let s = self.policy.enter(SectionKind::CollectTx(gate.0));
            let depth = g.with_tx(&s, |tx| {
                tx.queue.push_back(item);
                tx.queue.len()
            });
            drop(s);
            nm_trace::trace_event!(QueueDepth, gate.0, depth);
            nm_trace::trace_event!(SpanCollect, req.span(), depth);
            // Release between submission and transmission, exactly like
            // the paper's coarse mode ("the spinlock is held and released
            // twice: once for submitting ..., once to transmit").
            drop(api);
        }
        nm_trace::trace_event!(SubmitEnd, gate.0);
        // Submission: inline, or deferred to an idle core / tasklet
        // (§4.2) — the expensive part (strategy, encode, doorbell).
        if self.config.offload == OffloadMode::Inline {
            let api = self.policy.enter_api();
            self.pump_gate(g);
            drop(api);
        } else {
            let weak = self.self_weak.clone();
            self.offloader.submit(move || {
                if let Some(core) = weak.upgrade() {
                    core.pump(gate);
                }
            });
        }
        Ok(req)
    }

    /// Pumps one gate under the API guard: the transmit half of an
    /// offloaded submission.
    fn pump(&self, gate: GateId) {
        if let Ok(g) = self.gate(gate) {
            let api = self.policy.enter_api();
            self.pump_gate(g);
            drop(api);
        }
    }

    /// Posts a non-blocking receive for `tag` on `gate`.
    ///
    /// On completion the request carries the payload
    /// ([`Request::take_data`]) and the matched tag
    /// ([`Request::matched_tag`]). Matching is FIFO per tag.
    pub fn irecv(&self, gate: GateId, tag: u64) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Exact(tag), Completion::Flag)
    }

    /// Like [`CommCore::irecv`], delivering completion through
    /// `completion` instead of only signalling the request's flag.
    pub fn irecv_with(
        &self,
        gate: GateId,
        tag: u64,
        completion: Completion,
    ) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Exact(tag), completion)
    }

    /// Posts a wildcard receive (`MPI_ANY_TAG`): matches the earliest
    /// message of any tag; the matched tag is reported by
    /// [`Request::matched_tag`].
    ///
    /// Note: wildcards match *any* tag, including the reserved internal
    /// tag space used by `nm-mpi`'s collectives — do not mix wildcard
    /// receives with concurrent collectives on the same gate.
    pub fn irecv_any(&self, gate: GateId) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Any, Completion::Flag)
    }

    /// Like [`CommCore::irecv_any`], with a [`Completion`] object.
    pub fn irecv_any_with(
        &self,
        gate: GateId,
        completion: Completion,
    ) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Any, completion)
    }

    fn irecv_matching(
        &self,
        gate: GateId,
        pattern: TagPattern,
        completion: Completion,
    ) -> Result<Request, CommError> {
        let _t = crate::metrics::recv_hist().sampled_timer();
        let g = self.gate(gate)?;
        let req = Request::new_with(RequestKind::Recv, completion);
        self.stats.recvs_posted.incr();
        nm_trace::trace_event!(SpanSubmit, req.span(), gate.0);
        enum Then {
            Nothing,
            Complete(u64, Bytes),
            PumpCts(u64, u32),
        }
        let mut then = Then::Nothing;
        {
            let api = self.policy.enter_api();
            {
                let s = self.policy.enter(SectionKind::CollectRx(gate.0));
                g.rx.with(&s, |rx| {
                    // Eager messages and RTS share one sequence space, so
                    // the earlier *send* is simply the lower seq — a
                    // buffered rendezvous must not lose its place to a
                    // later eager message (or vice versa).
                    let eager_seq = rx.peek_unexpected_seq(pattern);
                    let rts_seq = rx.peek_pending_rts_seq(pattern);
                    let eager_first = match (eager_seq, rts_seq) {
                        (Some(e), Some(r)) => seq_lt(e, r),
                        (Some(_), None) => true,
                        _ => false,
                    };
                    if eager_first {
                        let msg = rx.take_unexpected_matching(pattern).expect("peeked");
                        then = Then::Complete(msg.tag, msg.data);
                    } else if let Some(rts) = rx.take_pending_rts(pattern) {
                        rx.rdv_in_insert(RdvRecv {
                            tag: rts.tag,
                            seq: rts.seq,
                            total: rts.total,
                            received: 0,
                            buf: BytesMut::zeroed(rts.total as usize),
                            req: req.clone(),
                            chunks: BTreeMap::new(),
                        });
                        self.stats.rdv_accepted.incr();
                        then = Then::PumpCts(rts.tag, rts.seq);
                    } else {
                        rx.push_posted(PostedRecv {
                            pattern,
                            req: req.clone(),
                        });
                    }
                });
            }
            // The CTS rides the tx shard; rx and tx sections are never
            // held together (no nesting in the sharded lock order).
            if let &Then::PumpCts(tag, seq) = &then {
                let s = self.policy.enter(SectionKind::CollectTx(gate.0));
                g.with_tx(&s, |tx| {
                    tx.queue.push_back(SendItem {
                        tag,
                        seq,
                        kind: SendItemKind::Cts,
                        span: req.span(),
                        req: None,
                    });
                });
                drop(s);
                self.pump_gate(g);
            }
            drop(api);
        }
        if let Then::Complete(tag, data) = then {
            req.complete_with_tagged_data(tag, data);
        }
        nm_trace::trace_event!(RecvPosted, gate.0);
        Ok(req)
    }

    /// Decodes one inbound packet and applies its entries. `wire_span`
    /// is the span the carrying frame advertised (the sender's message
    /// span, 0 = none); completions emit `SpanDeliver` against it so
    /// the receive side joins the sender's timeline.
    pub(crate) fn dispatch(&self, g: &Gate, raw: Bytes, wire_span: u64) {
        nm_trace::trace_event!(DispatchBegin, g.id.0, raw.len());
        let entries = match decode_packet(raw) {
            Ok(e) => e,
            Err(_) => {
                self.stats.wire_errors.incr();
                nm_trace::trace_event!(DispatchEnd, g.id.0);
                return;
            }
        };
        let mut after = Vec::new();
        // CTS traffic crosses from the rx shard to the tx shard; the two
        // sections are taken one after the other, never nested. Phase 1
        // (rx) records what phase 2 (tx) must do.
        let mut cts_out: Vec<(u64, u32, u64)> = Vec::new();
        let mut cts_in: Vec<u32> = Vec::new();
        {
            let s = self.policy.enter(SectionKind::CollectRx(g.id.0));
            for entry in entries {
                match entry {
                    Entry::Eager { tag, seq, data } => g.rx.with(&s, |rx| {
                        let msg = Parked::Eager(UnexpectedMsg { tag, seq, data });
                        self.resequence(rx, msg, &mut after, &mut cts_out);
                    }),
                    Entry::Rts { tag, seq, total } => g.rx.with(&s, |rx| {
                        if rx.rdv_in_contains(seq) {
                            // Redelivered RTS for a rendezvous already
                            // accepted; the CTS is on its way (or lost —
                            // the sender's retransmit covers that).
                            self.stats.dup_dropped.incr();
                        } else {
                            let msg = Parked::Rts(PendingRts { tag, seq, total });
                            self.resequence(rx, msg, &mut after, &mut cts_out);
                        }
                    }),
                    Entry::Cts { tag: _, seq } => cts_in.push(seq),
                    Entry::Data {
                        tag,
                        seq,
                        offset,
                        data,
                    } => g.rx.with(&s, |rx| {
                        let Some(r) = rx.rdv_in_get_mut(seq) else {
                            self.stats.wire_errors.incr();
                            return;
                        };
                        if r.tag != tag {
                            self.stats.wire_errors.incr();
                            return;
                        }
                        let (start, end) = (offset as usize, offset as usize + data.len());
                        if end > r.buf.len() {
                            self.stats.wire_errors.incr();
                            return;
                        }
                        if !r.mark_chunk(offset, data.len() as u32) {
                            // Redelivered chunk: the bytes are already in
                            // place; counting it again would complete a
                            // short reassembly.
                            self.stats.dup_dropped.incr();
                            return;
                        }
                        r.buf[start..end].copy_from_slice(&data);
                        r.received += data.len() as u32;
                        if r.received == r.total {
                            let done = rx.rdv_in_remove(seq).expect("reassembly just updated");
                            after.push(After::CompleteRecv(done.req, done.tag, done.buf.freeze()));
                        }
                    }),
                }
            }
        }
        let queued_cts = !cts_out.is_empty();
        if queued_cts || !cts_in.is_empty() {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            g.with_tx(&s, |tx| {
                for &(tag, seq, span) in &cts_out {
                    tx.queue.push_back(SendItem {
                        tag,
                        seq,
                        kind: SendItemKind::Cts,
                        span,
                        req: None,
                    });
                }
                for seq in cts_in {
                    match tx.rdv_out_remove(seq) {
                        Some(rdv) => after.push(After::StartData(rdv)),
                        None => self.stats.wire_errors.incr(),
                    }
                }
            });
            drop(s);
        }
        for act in after {
            match act {
                After::CompleteRecv(req, tag, data) => {
                    if wire_span != 0 {
                        nm_trace::trace_event!(SpanDeliver, wire_span, req.span());
                    }
                    req.complete_with_tagged_data(tag, data);
                }
                After::StartData(rdv) => self.start_rdv_data(g, rdv),
            }
        }
        if queued_cts {
            self.pump_gate(g);
        }
        nm_trace::trace_event!(DispatchEnd, g.id.0);
    }

    /// Matches one in-order eager message against the posted receives, or
    /// parks it in the unexpected bins. Runs under the gate's rx section.
    fn deliver_eager(&self, rx: &mut RxState, msg: UnexpectedMsg, after: &mut Vec<After>) {
        if let Some(p) = rx.take_posted(msg.tag) {
            after.push(After::CompleteRecv(p.req, msg.tag, msg.data));
        } else {
            self.stats.unexpected_msgs.incr();
            rx.push_unexpected(msg);
        }
    }

    /// Matches one in-order RTS against the posted receives (queueing
    /// its CTS via `cts_out`), or parks it in the pending-RTS bins.
    /// Runs under the gate's rx section.
    fn accept_rts(&self, rx: &mut RxState, rts: PendingRts, cts_out: &mut Vec<(u64, u32, u64)>) {
        let PendingRts { tag, seq, total } = rts;
        if let Some(p) = rx.take_posted(tag) {
            let recv_span = p.req.span();
            rx.rdv_in_insert(RdvRecv {
                tag,
                seq,
                total,
                received: 0,
                buf: BytesMut::zeroed(total as usize),
                req: p.req,
                chunks: BTreeMap::new(),
            });
            self.stats.rdv_accepted.incr();
            cts_out.push((tag, seq, recv_span));
        } else if !rx.push_pending_rts(rts) {
            self.stats.dup_dropped.incr();
        }
    }

    /// The resequencer: releases messages strictly in send order and
    /// parks later ones. Eager and rendezvous share the per-gate sequence
    /// space, so a large send cannot overtake a smaller same-tag one just
    /// because it rode a different lane. Runs under the gate's rx section.
    fn resequence(
        &self,
        rx: &mut RxState,
        msg: Parked,
        after: &mut Vec<After>,
        cts_out: &mut Vec<(u64, u32, u64)>,
    ) {
        let seq = msg.seq();
        if seq != rx.expected_seq {
            // Already released (a redelivery), or a duplicate of an
            // already-parked message: drop either way.
            if seq_lt(seq, rx.expected_seq) || !rx.push_ooo(msg) {
                self.stats.dup_dropped.incr();
            }
            return;
        }
        let mut next = Some(msg);
        while let Some(parked) = next {
            match parked {
                Parked::Eager(m) => self.deliver_eager(rx, m, after),
                Parked::Rts(r) => self.accept_rts(rx, r, cts_out),
            }
            rx.expected_seq = rx.expected_seq.wrapping_add(1);
            next = rx.take_ooo(rx.expected_seq);
        }
    }
}
