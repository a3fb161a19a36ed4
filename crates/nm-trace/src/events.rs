//! The event schema: every traceable mechanism in the stack has a
//! registered [`EventId`] here, with its layer and argument meaning
//! documented in [`EventId::ALL`].
//!
//! The table is the single source of truth: `cargo xtask lint-trace`
//! scans the workspace for `trace_event!(Name, ...)` sites and fails if
//! a name is not a registered variant, so the schema cannot silently
//! drift from the instrumentation.

/// Identifier of a trace event kind.
///
/// Discriminants are grouped by layer (`nm-sync` 1.., `nm-core` 16..,
/// `nm-progress` 32.., `nm-sched` 48.., `nm-fabric` 64..) and are part
/// of the on-ring encoding; never reuse a retired value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
#[non_exhaustive]
pub enum EventId {
    // ---- nm-sync -------------------------------------------------------
    /// A lock was acquired. `a` = lock id (address), `b` = 1 if the
    /// acquisition was contended (slow path), 0 if the fast path won.
    LockAcquire = 1,
    /// A lock was released. `a` = lock id (address).
    LockRelease = 2,
    /// A spin-phase wait completed without blocking. `a` = strategy tag.
    WaitSpun = 3,
    /// A wait exhausted its spin budget and is about to block.
    WaitBlocked = 4,
    /// A thread is about to block on a condition variable.
    ThreadBlock = 5,
    /// A thread resumed after blocking. Paired with [`EventId::ThreadBlock`];
    /// the span is the blocking context-switch cost.
    ThreadWake = 6,
    /// A completion flag was signalled.
    FlagSignal = 7,

    // ---- nm-core -------------------------------------------------------
    /// Entry into `isend`'s collect-layer enqueue. `a` = gate, `b` = bytes.
    SubmitBegin = 16,
    /// End of `isend`'s collect-layer enqueue. `a` = gate.
    SubmitEnd = 17,
    /// A receive was posted. `a` = gate.
    RecvPosted = 18,
    /// Transfer layer starts pushing a packet to a driver. `a` = gate,
    /// `b` = rail.
    TransmitBegin = 19,
    /// Transfer layer finished a post attempt. `a` = gate, `b` = 1 if the
    /// packet was accepted, 0 on `WouldBlock`.
    TransmitEnd = 20,
    /// An inbound packet enters protocol dispatch. `a` = gate, `b` = bytes.
    DispatchBegin = 21,
    /// Protocol dispatch for one packet finished. `a` = gate.
    DispatchEnd = 22,
    /// One `CommCore::progress` pass completed. `a` = events handled.
    ProgressPass = 23,
    /// Collect-layer queue depth after an enqueue. `a` = gate, `b` = depth.
    QueueDepth = 24,
    /// A request's completion was delivered. `a` = request id, `b` = path
    /// (0 flag, 1 queue, 2 handler, 3 waker).
    CompletionDeliver = 25,
    /// A completion event was pushed onto a completion queue.
    /// `a` = request id, `b` = queue depth after the push.
    CqPush = 26,
    /// A completion event was popped from a completion queue.
    /// `a` = request id, `b` = queue depth after the pop.
    CqPop = 27,
    /// A completion handler ran (fire-and-forget path). `a` = request id.
    HandlerRun = 28,
    /// A reliability frame was retransmitted after an ack timeout.
    /// `a` = rail (global driver index), `b` = wire sequence number.
    Retransmit = 29,
    /// A rail was declared dead after consecutive retransmit
    /// exhaustions. `a` = gate, `b` = rail (gate-local index).
    RailDead = 30,
    /// A request was cancelled. `a` = request id.
    RequestCancel = 31,

    // ---- nm-progress ---------------------------------------------------
    /// A PIOMan-style poll pass over all registered sources begins.
    PollPassBegin = 32,
    /// The poll pass ended. `a` = number of sources that progressed.
    /// The [`EventId::PollPassBegin`]→end span is the paper's ~200 ns
    /// "PIOMan pass" cost.
    PollPassEnd = 33,
    /// A tasklet moved IDLE→SCHEDULED. `a` = tasklet address.
    TaskletSched = 34,
    /// A tasklet moved SCHEDULED→RUNNING. `a` = tasklet address. The
    /// [`EventId::TaskletSched`]→run gap is the tasklet hand-off cost.
    TaskletRun = 35,
    /// A job was submitted to an offload queue. `a` = offload mode.
    OffloadSubmit = 36,
    /// An offloaded job started running on the progression side. Paired
    /// FIFO with [`EventId::OffloadSubmit`]; the gap is the offload hop.
    OffloadRun = 37,
    /// A progression thread resumed from its idle park.
    ProgressionWake = 38,
    /// An async waiter registered a waker with the progress engine's
    /// waker table. `a` = request id.
    WakerRegister = 39,
    /// Completion delivery woke (or tried to wake) a registered waker.
    /// `a` = request id, `b` = 1 if a waker was found and woken, 0 if
    /// none was registered yet (the future's re-check covers this race).
    WakerWake = 40,
    /// A timer-wheel deadline fired. `a` = entries due, `b` = entries
    /// still pending after the pop.
    TimerFire = 41,

    // ---- nm-sched ------------------------------------------------------
    /// A worker passed a task boundary (cooperative context switch).
    /// `a` = worker index.
    CtxSwitch = 48,
    /// A worker entered its idle hook (no runnable task). `a` = worker.
    IdleHook = 49,

    // ---- nm-fabric -----------------------------------------------------
    /// A packet was posted to a NIC. `a` = payload bytes.
    PacketTx = 64,
    /// A packet was received from a NIC. `a` = payload bytes.
    PacketRx = 65,
    /// The NIC tx queue changed idle state. `a` = 1 entering idle
    /// (queue drained), 0 leaving idle (first packet queued).
    NicIdle = 66,
    /// Chaos injection dropped a packet. `a` = payload bytes.
    FaultLoss = 67,
    /// Chaos injection duplicated a packet. `a` = payload bytes.
    FaultDup = 68,
    /// Chaos injection flipped a payload byte. `a` = byte index.
    FaultCorrupt = 69,
    /// Chaos injection held a packet back. `a` = hold duration in polls.
    FaultDelay = 70,
    /// Chaos injection opened a transient NIC stall window.
    /// `a` = refused-attempt window length.
    FaultStall = 71,
    /// Chaos injection released a packet out of arrival order.
    /// `a` = shuffle-buffer depth at release.
    FaultReorder = 72,

    // ---- span (per-message lifecycle, stitched by nm-obs) --------------
    /// A send/recv was submitted and its span id allocated. `a` = span,
    /// `b` = gate. First event of every message timeline.
    SpanSubmit = 80,
    /// The message entered a collect-layer queue. `a` = span,
    /// `b` = queue depth after the enqueue.
    SpanCollect = 81,
    /// A frame carrying this span was accepted by a driver. `a` = span,
    /// `b` = wire sequence number (0 on unreliable gates).
    SpanWireTx = 82,
    /// A frame carrying this span arrived from the wire. `a` = span
    /// (the *sender's* span id, read from the frame header), `b` = wire
    /// sequence number. This is the cross-rank join point.
    SpanWireRx = 83,
    /// A frame carrying this span was retransmitted. `a` = span,
    /// `b` = wire sequence number.
    SpanRetx = 84,
    /// An inbound frame completed a posted receive: the sender-side and
    /// receiver-side spans join. `a` = wire (sender) span, `b` = local
    /// receive-request span.
    SpanDeliver = 85,
    /// The message's completion was delivered. `a` = span, `b` = path
    /// (0 flag, 1 queue, 2 handler, 3 waker).
    SpanComplete = 86,
    /// Completion delivery woke an async waker registered for this
    /// span's request. `a` = span.
    SpanWake = 87,
}

/// Schema row: one registered event kind.
#[derive(Debug, Clone, Copy)]
pub struct EventInfo {
    /// The event id.
    pub id: EventId,
    /// Variant name, as written at `trace_event!` sites.
    pub name: &'static str,
    /// Crate/layer that emits it.
    pub layer: &'static str,
    /// Meaning of the `a` and `b` arguments.
    pub args: &'static str,
}

macro_rules! schema {
    ($($id:ident, $layer:literal, $args:literal;)*) => {
        /// The full registered schema, one row per [`EventId`] variant.
        pub const ALL: &'static [EventInfo] = &[
            $(EventInfo {
                id: EventId::$id,
                name: stringify!($id),
                layer: $layer,
                args: $args,
            },)*
        ];
    };
}

impl EventId {
    schema! {
        LockAcquire, "nm-sync", "a=lock id, b=contended";
        LockRelease, "nm-sync", "a=lock id";
        WaitSpun, "nm-sync", "a=strategy tag";
        WaitBlocked, "nm-sync", "a=strategy tag";
        ThreadBlock, "nm-sync", "-";
        ThreadWake, "nm-sync", "-";
        FlagSignal, "nm-sync", "-";
        SubmitBegin, "nm-core", "a=gate, b=bytes";
        SubmitEnd, "nm-core", "a=gate";
        RecvPosted, "nm-core", "a=gate";
        TransmitBegin, "nm-core", "a=gate, b=rail";
        TransmitEnd, "nm-core", "a=gate, b=posted";
        DispatchBegin, "nm-core", "a=gate, b=bytes";
        DispatchEnd, "nm-core", "a=gate";
        ProgressPass, "nm-core", "a=events handled";
        QueueDepth, "nm-core", "a=gate, b=depth";
        CompletionDeliver, "nm-core", "a=request id, b=path";
        CqPush, "nm-core", "a=request id, b=depth";
        CqPop, "nm-core", "a=request id, b=depth";
        HandlerRun, "nm-core", "a=request id";
        Retransmit, "nm-core", "a=rail, b=wire seq";
        RailDead, "nm-core", "a=gate, b=rail";
        RequestCancel, "nm-core", "a=request id";
        PollPassBegin, "nm-progress", "-";
        PollPassEnd, "nm-progress", "a=sources progressed";
        TaskletSched, "nm-progress", "a=tasklet id";
        TaskletRun, "nm-progress", "a=tasklet id";
        OffloadSubmit, "nm-progress", "a=offload mode";
        OffloadRun, "nm-progress", "a=offload mode";
        ProgressionWake, "nm-progress", "-";
        WakerRegister, "nm-progress", "a=request id";
        WakerWake, "nm-progress", "a=request id, b=found";
        TimerFire, "nm-progress", "a=due, b=pending";
        CtxSwitch, "nm-sched", "a=worker";
        IdleHook, "nm-sched", "a=worker";
        PacketTx, "nm-fabric", "a=bytes";
        PacketRx, "nm-fabric", "a=bytes";
        NicIdle, "nm-fabric", "a=entering idle";
        FaultLoss, "nm-fabric", "a=bytes";
        FaultDup, "nm-fabric", "a=bytes";
        FaultCorrupt, "nm-fabric", "a=byte index";
        FaultDelay, "nm-fabric", "a=hold polls";
        FaultStall, "nm-fabric", "a=window length";
        FaultReorder, "nm-fabric", "a=buffer depth";
        SpanSubmit, "span", "a=span, b=gate";
        SpanCollect, "span", "a=span, b=depth";
        SpanWireTx, "span", "a=span, b=wire seq";
        SpanWireRx, "span", "a=sender span, b=wire seq";
        SpanRetx, "span", "a=span, b=wire seq";
        SpanDeliver, "span", "a=sender span, b=recv span";
        SpanComplete, "span", "a=span, b=path";
        SpanWake, "span", "a=span";
    }

    /// Decodes a raw on-ring discriminant back into an id.
    pub fn from_raw(raw: u64) -> Option<EventId> {
        EventId::ALL
            .iter()
            .find(|info| info.id as u64 == raw)
            .map(|info| info.id)
    }

    /// The variant name (matches what `trace_event!` sites write).
    pub fn name(self) -> &'static str {
        EventId::ALL
            .iter()
            .find(|info| info.id == self)
            .map(|info| info.name)
            .unwrap_or("?")
    }
}

/// Records one event in the current thread's ring while a recording is
/// live.
///
/// Takes a bare [`EventId`] variant name (so `cargo xtask lint-trace`
/// can check sites against the schema by plain text scanning) plus up
/// to two integer arguments. It expands to `if enabled() { emit(..) }`,
/// so with no recording live the arguments are never evaluated.
#[macro_export]
macro_rules! trace_event {
    ($name:ident) => {
        if $crate::enabled() {
            $crate::emit($crate::EventId::$name, 0, 0)
        }
    };
    ($name:ident, $a:expr) => {
        if $crate::enabled() {
            $crate::emit($crate::EventId::$name, ($a) as u64, 0)
        }
    };
    ($name:ident, $a:expr, $b:expr) => {
        if $crate::enabled() {
            $crate::emit($crate::EventId::$name, ($a) as u64, ($b) as u64)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_ids_unique_and_round_trip() {
        for (i, info) in EventId::ALL.iter().enumerate() {
            assert_eq!(EventId::from_raw(info.id as u64), Some(info.id));
            assert_eq!(info.id.name(), info.name);
            for other in &EventId::ALL[i + 1..] {
                assert_ne!(info.id as u64, other.id as u64, "duplicate id");
                assert_ne!(info.name, other.name, "duplicate name");
            }
        }
    }

    #[test]
    fn unknown_raw_is_none() {
        assert_eq!(EventId::from_raw(0), None);
        assert_eq!(EventId::from_raw(u64::MAX), None);
    }
}
