//! The event list: every traceable mechanism in the stack is named once
//! in the [`events!`] invocation below, with its on-ring discriminant,
//! its layer, the meaning of its `a`/`b` arguments and its doc.
//!
//! The macro generates the [`EventId`] enum, [`EventId::ALL`] and the
//! `from_raw`/`name`/`layer`/`args` lookups from that one list, so a
//! variant cannot exist without its row. `trace_event!` names a variant
//! by path, so the compiler rejects an unregistered name; `cargo xtask
//! lint-trace` reads the same list to find events nothing emits.

macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $name:ident = $raw:literal, $layer:literal, $args:literal;
    )*) => {
        /// Identifier of a trace event kind.
        ///
        /// Discriminants are grouped by layer (`nm-sync` 1.., `nm-core`
        /// 16.., `nm-progress` 32.., `nm-sched` 48.., `nm-fabric` 64..,
        /// spans 80..) and are the on-ring encoding; never reuse a
        /// retired value.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        #[non_exhaustive]
        pub enum EventId {
            $($(#[$doc])* $name = $raw,)*
        }

        impl EventId {
            /// Every registered event, in discriminant order.
            pub const ALL: &'static [EventId] = &[$(EventId::$name),*];

            /// Decodes a raw on-ring discriminant back into an id.
            pub fn from_raw(raw: u64) -> Option<EventId> {
                match raw {
                    $($raw => Some(EventId::$name),)*
                    _ => None,
                }
            }

            /// The variant name (what `trace_event!` sites write).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventId::$name => stringify!($name),)*
                }
            }

            /// The crate or layer that emits the event.
            pub fn layer(self) -> &'static str {
                match self {
                    $(EventId::$name => $layer,)*
                }
            }

            /// What the `a` and `b` arguments carry.
            pub fn args(self) -> &'static str {
                match self {
                    $(EventId::$name => $args,)*
                }
            }
        }
    };
}

events! {
    // ---- nm-sync -------------------------------------------------------
    /// A lock was acquired. `a` = lock id (address), `b` = 1 if the
    /// acquisition was contended (slow path), 0 if the fast path won.
    LockAcquire = 1, "nm-sync", "a=lock id, b=contended";
    /// A lock was released. `a` = lock id (address).
    LockRelease = 2, "nm-sync", "a=lock id";
    /// A spin-phase wait completed without blocking. `a` = strategy tag.
    WaitSpun = 3, "nm-sync", "a=strategy tag";
    /// A wait exhausted its spin budget and is about to block.
    WaitBlocked = 4, "nm-sync", "a=strategy tag";
    /// A thread is about to block on a condition variable.
    ThreadBlock = 5, "nm-sync", "-";
    /// A thread resumed after blocking. Paired with [`EventId::ThreadBlock`];
    /// the span is the blocking context-switch cost.
    ThreadWake = 6, "nm-sync", "-";
    /// A completion flag was signalled.
    FlagSignal = 7, "nm-sync", "-";

    // ---- nm-core -------------------------------------------------------
    /// Entry into `isend`'s collect-layer enqueue. `a` = gate, `b` = bytes.
    SubmitBegin = 16, "nm-core", "a=gate, b=bytes";
    /// End of `isend`'s collect-layer enqueue. `a` = gate.
    SubmitEnd = 17, "nm-core", "a=gate";
    /// A receive was posted. `a` = gate.
    RecvPosted = 18, "nm-core", "a=gate";
    /// Transfer layer starts pushing a packet to a driver. `a` = gate,
    /// `b` = rail.
    TransmitBegin = 19, "nm-core", "a=gate, b=rail";
    /// Transfer layer finished a post attempt. `a` = gate, `b` = 1 if the
    /// packet was accepted, 0 on `WouldBlock`.
    TransmitEnd = 20, "nm-core", "a=gate, b=posted";
    /// An inbound packet enters protocol dispatch. `a` = gate, `b` = bytes.
    DispatchBegin = 21, "nm-core", "a=gate, b=bytes";
    /// Protocol dispatch for one packet finished. `a` = gate.
    DispatchEnd = 22, "nm-core", "a=gate";
    /// One `CommCore::progress` pass completed. `a` = events handled.
    ProgressPass = 23, "nm-core", "a=events handled";
    /// Collect-layer queue depth after an enqueue. `a` = gate, `b` = depth.
    QueueDepth = 24, "nm-core", "a=gate, b=depth";
    /// A request's completion was delivered. `a` = request id, `b` = path
    /// (0 flag, 1 queue, 2 handler, 3 waker).
    CompletionDeliver = 25, "nm-core", "a=request id, b=path";
    /// A completion event was pushed onto a completion queue.
    /// `a` = request id, `b` = queue depth after the push.
    CqPush = 26, "nm-core", "a=request id, b=depth";
    /// A completion event was popped from a completion queue.
    /// `a` = request id, `b` = queue depth after the pop.
    CqPop = 27, "nm-core", "a=request id, b=depth";
    /// A completion handler ran (fire-and-forget path). `a` = request id.
    HandlerRun = 28, "nm-core", "a=request id";
    /// A reliability frame was retransmitted after an ack timeout.
    /// `a` = rail (global driver index), `b` = wire sequence number.
    Retransmit = 29, "nm-core", "a=rail, b=wire seq";
    /// A rail was declared dead after consecutive retransmit
    /// exhaustions. `a` = gate, `b` = rail (gate-local index).
    RailDead = 30, "nm-core", "a=gate, b=rail";
    /// A request was cancelled. `a` = request id.
    RequestCancel = 31, "nm-core", "a=request id";

    // ---- nm-progress ---------------------------------------------------
    /// A PIOMan-style poll pass over all registered sources begins.
    PollPassBegin = 32, "nm-progress", "-";
    /// The poll pass ended. `a` = number of sources that progressed.
    /// The [`EventId::PollPassBegin`]→end span is the paper's ~200 ns
    /// "PIOMan pass" cost.
    PollPassEnd = 33, "nm-progress", "a=sources progressed";
    /// A tasklet moved IDLE→SCHEDULED. `a` = tasklet address.
    TaskletSched = 34, "nm-progress", "a=tasklet id";
    /// A tasklet moved SCHEDULED→RUNNING. `a` = tasklet address. The
    /// [`EventId::TaskletSched`]→run gap is the tasklet hand-off cost.
    TaskletRun = 35, "nm-progress", "a=tasklet id";
    /// A job was submitted to an offload queue. `a` = offload mode.
    OffloadSubmit = 36, "nm-progress", "a=offload mode";
    /// An offloaded job started running on the progression side. Paired
    /// FIFO with [`EventId::OffloadSubmit`]; the gap is the offload hop.
    OffloadRun = 37, "nm-progress", "a=offload mode";
    /// A progression thread resumed from its idle park.
    ProgressionWake = 38, "nm-progress", "-";
    /// An async waiter registered a waker with the progress engine's
    /// waker table. `a` = request id.
    WakerRegister = 39, "nm-progress", "a=request id";
    /// Completion delivery woke (or tried to wake) a registered waker.
    /// `a` = request id, `b` = 1 if a waker was found and woken, 0 if
    /// none was registered yet (the future's re-check covers this race).
    WakerWake = 40, "nm-progress", "a=request id, b=found";
    /// A timer-wheel deadline fired. `a` = entries due, `b` = entries
    /// still pending after the pop.
    TimerFire = 41, "nm-progress", "a=due, b=pending";

    // ---- nm-sched ------------------------------------------------------
    /// A worker passed a task boundary (cooperative context switch).
    /// `a` = worker index.
    CtxSwitch = 48, "nm-sched", "a=worker";
    /// A worker entered its idle hook (no runnable task). `a` = worker.
    IdleHook = 49, "nm-sched", "a=worker";

    // ---- nm-fabric -----------------------------------------------------
    /// A packet was posted to a NIC. `a` = payload bytes.
    PacketTx = 64, "nm-fabric", "a=bytes";
    /// A packet was received from a NIC. `a` = payload bytes.
    PacketRx = 65, "nm-fabric", "a=bytes";
    /// The NIC tx queue changed idle state. `a` = 1 entering idle
    /// (queue drained), 0 leaving idle (first packet queued).
    NicIdle = 66, "nm-fabric", "a=entering idle";
    /// Chaos injection dropped a packet. `a` = payload bytes.
    FaultLoss = 67, "nm-fabric", "a=bytes";
    /// Chaos injection duplicated a packet. `a` = payload bytes.
    FaultDup = 68, "nm-fabric", "a=bytes";
    /// Chaos injection flipped a payload byte. `a` = byte index.
    FaultCorrupt = 69, "nm-fabric", "a=byte index";
    /// Chaos injection held a packet back. `a` = hold duration in polls.
    FaultDelay = 70, "nm-fabric", "a=hold polls";
    /// Chaos injection opened a transient NIC stall window.
    /// `a` = refused-attempt window length.
    FaultStall = 71, "nm-fabric", "a=window length";
    /// Chaos injection released a packet out of arrival order.
    /// `a` = shuffle-buffer depth at release.
    FaultReorder = 72, "nm-fabric", "a=buffer depth";

    // ---- span (per-message lifecycle, stitched by `crate::spans`) ------
    /// A send/recv was submitted and its span id allocated. `a` = span,
    /// `b` = gate. First event of every message timeline.
    SpanSubmit = 80, "span", "a=span, b=gate";
    /// The message entered a collect-layer queue. `a` = span,
    /// `b` = queue depth after the enqueue.
    SpanCollect = 81, "span", "a=span, b=depth";
    /// A frame carrying this span was accepted by a driver. `a` = span,
    /// `b` = wire sequence number (0 on unreliable gates).
    SpanWireTx = 82, "span", "a=span, b=wire seq";
    /// A frame carrying this span arrived from the wire. `a` = span
    /// (the *sender's* span id, read from the frame header), `b` = wire
    /// sequence number. This is the cross-rank join point.
    SpanWireRx = 83, "span", "a=sender span, b=wire seq";
    /// A frame carrying this span was retransmitted. `a` = span,
    /// `b` = wire sequence number.
    SpanRetx = 84, "span", "a=span, b=wire seq";
    /// An inbound frame completed a posted receive: the sender-side and
    /// receiver-side spans join. `a` = wire (sender) span, `b` = local
    /// receive-request span.
    SpanDeliver = 85, "span", "a=sender span, b=recv span";
    /// The message's completion was delivered. `a` = span, `b` = path
    /// (0 flag, 1 queue, 2 handler, 3 waker).
    SpanComplete = 86, "span", "a=span, b=path";
    /// Completion delivery woke an async waker registered for this
    /// span's request. `a` = span.
    SpanWake = 87, "span", "a=span";
}

/// Records one event in the current thread's ring while a recording is
/// live.
///
/// Takes a bare [`EventId`] variant name plus up to two integer
/// arguments. It expands to `if enabled() { emit(..) }`, so with no
/// recording live the arguments are never evaluated.
///
/// ```
/// let rec = nm_metrics::trace::record();
/// nm_metrics::trace_event!(PacketTx, 64);
/// assert_eq!(rec.finish().count(nm_metrics::trace::EventId::PacketTx), 1);
/// ```
///
/// The name is a path into [`EventId`], so an unregistered event does
/// not compile:
///
/// ```compile_fail
/// nm_metrics::trace_event!(NotAnEvent, 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($name:ident) => {
        if $crate::trace::enabled() {
            $crate::trace::emit($crate::trace::EventId::$name, 0, 0)
        }
    };
    ($name:ident, $a:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::emit($crate::trace::EventId::$name, ($a) as u64, 0)
        }
    };
    ($name:ident, $a:expr, $b:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::emit($crate::trace::EventId::$name, ($a) as u64, ($b) as u64)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The on-ring encoding, pinned: every event's name, discriminant
    /// and layer. A retired or renumbered event must show up here.
    const GOLDEN: &[(&str, u16, &str)] = &[
        ("LockAcquire", 1, "nm-sync"),
        ("LockRelease", 2, "nm-sync"),
        ("WaitSpun", 3, "nm-sync"),
        ("WaitBlocked", 4, "nm-sync"),
        ("ThreadBlock", 5, "nm-sync"),
        ("ThreadWake", 6, "nm-sync"),
        ("FlagSignal", 7, "nm-sync"),
        ("SubmitBegin", 16, "nm-core"),
        ("SubmitEnd", 17, "nm-core"),
        ("RecvPosted", 18, "nm-core"),
        ("TransmitBegin", 19, "nm-core"),
        ("TransmitEnd", 20, "nm-core"),
        ("DispatchBegin", 21, "nm-core"),
        ("DispatchEnd", 22, "nm-core"),
        ("ProgressPass", 23, "nm-core"),
        ("QueueDepth", 24, "nm-core"),
        ("CompletionDeliver", 25, "nm-core"),
        ("CqPush", 26, "nm-core"),
        ("CqPop", 27, "nm-core"),
        ("HandlerRun", 28, "nm-core"),
        ("Retransmit", 29, "nm-core"),
        ("RailDead", 30, "nm-core"),
        ("RequestCancel", 31, "nm-core"),
        ("PollPassBegin", 32, "nm-progress"),
        ("PollPassEnd", 33, "nm-progress"),
        ("TaskletSched", 34, "nm-progress"),
        ("TaskletRun", 35, "nm-progress"),
        ("OffloadSubmit", 36, "nm-progress"),
        ("OffloadRun", 37, "nm-progress"),
        ("ProgressionWake", 38, "nm-progress"),
        ("WakerRegister", 39, "nm-progress"),
        ("WakerWake", 40, "nm-progress"),
        ("TimerFire", 41, "nm-progress"),
        ("CtxSwitch", 48, "nm-sched"),
        ("IdleHook", 49, "nm-sched"),
        ("PacketTx", 64, "nm-fabric"),
        ("PacketRx", 65, "nm-fabric"),
        ("NicIdle", 66, "nm-fabric"),
        ("FaultLoss", 67, "nm-fabric"),
        ("FaultDup", 68, "nm-fabric"),
        ("FaultCorrupt", 69, "nm-fabric"),
        ("FaultDelay", 70, "nm-fabric"),
        ("FaultStall", 71, "nm-fabric"),
        ("FaultReorder", 72, "nm-fabric"),
        ("SpanSubmit", 80, "span"),
        ("SpanCollect", 81, "span"),
        ("SpanWireTx", 82, "span"),
        ("SpanWireRx", 83, "span"),
        ("SpanRetx", 84, "span"),
        ("SpanDeliver", 85, "span"),
        ("SpanComplete", 86, "span"),
        ("SpanWake", 87, "span"),
    ];

    #[test]
    fn schema_ids_unique_and_round_trip() {
        let rows: Vec<(&str, u16, &str)> = EventId::ALL
            .iter()
            .map(|&id| (id.name(), id as u16, id.layer()))
            .collect();
        assert_eq!(rows, GOLDEN);
        for (i, &id) in EventId::ALL.iter().enumerate() {
            assert_eq!(EventId::from_raw(id as u64), Some(id));
            assert!(!id.args().is_empty());
            for &other in &EventId::ALL[i + 1..] {
                assert_ne!(id as u64, other as u64, "duplicate id");
                assert_ne!(id.name(), other.name(), "duplicate name");
            }
        }
    }

    #[test]
    fn unknown_raw_is_none() {
        assert_eq!(EventId::from_raw(0), None);
        assert_eq!(EventId::from_raw(u64::MAX), None);
    }
}
