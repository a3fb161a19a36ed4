//! "Table 1" constants derived purely from trace events.
//!
//! [`calibrate`](crate::calibrate) times each mechanism with a stopwatch
//! around it; this module instead *replays the evidence*: it runs the
//! instrumented stack (or a deterministic virtual-clock script), drains
//! the [`nm_metrics::trace`] rings, and derives the same constants from
//! event timestamps alone:
//!
//! | constant | derivation |
//! |---|---|
//! | lock cycle | median gap between `LockAcquire`s of the hot lock |
//! | PIOMan pass | median `PollPassBegin`→`PollPassEnd` span |
//! | context switch | median `ThreadBlock`→`ThreadWake` span |
//! | offload hop | median `OffloadSubmit`→`OffloadRun` cross-thread gap |
//!
//! Both scripts start and finish their own recording
//! ([`nm_metrics::trace::record`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nm_metrics::trace::{EventId, SpanStats, Trace, TraceReport};
use nm_progress::{Offloader, PollOutcome, ProgressEngine};
use nm_sim::SimCosts;
use nm_sync::{Semaphore, SpinLock};

/// Paper constants re-derived from trace timestamps (ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConstants {
    /// Spinlock acquire/release cycle (paper: 70 ns).
    pub lock_cycle_ns: u64,
    /// One progression-engine pass (paper: ~200 ns).
    pub pioman_pass_ns: u64,
    /// Blocking context switch (paper: ~750 ns).
    pub ctx_switch_ns: u64,
    /// Deferred-submission hop to the executing thread (paper: ~400 ns on
    /// an idle core).
    pub offload_hop_ns: u64,
}

fn median(samples: Vec<u64>) -> u64 {
    SpanStats::from_samples(samples).p50_ns
}

/// Derives the constants from a drained trace.
pub fn derive(trace: &Trace) -> TraceConstants {
    TraceConstants {
        lock_cycle_ns: median(TraceReport::gap_durations(trace, EventId::LockAcquire)),
        pioman_pass_ns: median(TraceReport::span_durations(
            trace,
            EventId::PollPassBegin,
            EventId::PollPassEnd,
        )),
        ctx_switch_ns: median(TraceReport::span_durations(
            trace,
            EventId::ThreadBlock,
            EventId::ThreadWake,
        )),
        offload_hop_ns: median(TraceReport::cross_durations(
            trace,
            EventId::OffloadSubmit,
            EventId::OffloadRun,
        )),
    }
}

/// Iterations per real-mode workload; kept under the default ring
/// capacity so nothing is dropped mid-workload.
const REAL_ITERS: usize = 20_000;

/// Runs the four real workloads under the real clock and returns the
/// combined trace. Each workload is drained separately so one cannot
/// evict another's events from the shared per-thread ring.
pub fn real_trace() -> Trace {
    let rec = nm_metrics::trace::record();
    let mut threads = Vec::new();

    // 1. Hot-lock loop: successive LockAcquire gaps = one full cycle.
    {
        let lock = SpinLock::new(0u64);
        for _ in 0..REAL_ITERS {
            *lock.lock() += 1;
        }
    }
    threads.extend(nm_metrics::trace::take_trace().threads);

    // 2. Progression passes over one idle source.
    {
        let engine = ProgressEngine::new();
        engine.register(Arc::new(|| PollOutcome::Idle) as _);
        for _ in 0..REAL_ITERS / 2 {
            engine.poll_all();
        }
    }
    threads.extend(nm_metrics::trace::take_trace().threads);

    // 3. Semaphore pingpong: every hop blocks, so each ThreadBlock→
    //    ThreadWake span is one real sleep + wake.
    {
        const HOPS: usize = 2_000;
        let ping = Arc::new(Semaphore::new(0));
        let pong = Arc::new(Semaphore::new(0));
        let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
        let peer = std::thread::spawn(move || {
            for _ in 0..HOPS {
                p2.acquire();
                q2.release();
            }
        });
        for _ in 0..HOPS {
            ping.release();
            pong.acquire();
        }
        peer.join().expect("pingpong peer");
    }
    threads.extend(nm_metrics::trace::take_trace().threads);

    // 4. Idle-core offload: submissions queued here, drained by a
    //    dedicated poller thread (the Fig 9 placement).
    {
        let off = Arc::new(Offloader::idle_core());
        let stop = Arc::new(AtomicBool::new(false));
        let (o2, s2) = (Arc::clone(&off), Arc::clone(&stop));
        let poller = std::thread::spawn(move || {
            while !s2.load(Ordering::Acquire) {
                if o2.drain() == 0 {
                    // Yield, not spin: on a single-CPU host spinning would
                    // hold the core a whole scheduler quantum and the hop
                    // would measure preemption, not the queue crossing.
                    std::thread::yield_now();
                }
            }
            o2.drain();
        });
        for _ in 0..2_000 {
            off.submit(|| {});
            // Let the poller catch up so hops measure the queue crossing,
            // not a growing backlog.
            while off.pending() > 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        poller.join().expect("offload poller");
    }
    threads.extend(rec.finish().threads);

    Trace { threads }
}

/// Samples per mechanism in the simulated script.
const SIM_SAMPLES: u64 = 64;

/// Replays a deterministic virtual-clock script of the four mechanisms,
/// each priced by `costs`; the derived constants equal the corresponding
/// [`SimCosts`] fields exactly, and the trace is bit-identical across
/// runs (offload hop = `enqueue_ns + idle_poll_gap_ns`).
pub fn sim_trace(costs: &SimCosts) -> Trace {
    let clock = Arc::new(AtomicU64::new(0));
    let rec = nm_metrics::trace::record_virtual(Arc::clone(&clock));
    let tick = |ns: u64| {
        // relaxed: single-threaded script; the clock is only read back
        // on this same thread via trace timestamps.
        clock.fetch_add(ns, Ordering::Relaxed);
    };

    // A lock id only this script uses; the dominant-`a` filter will pick
    // it even if stray lock events share the trace.
    const LOCK: u64 = 0x51D0DE;
    for _ in 0..=SIM_SAMPLES {
        nm_metrics::trace::emit(EventId::LockAcquire, LOCK, 0);
        nm_metrics::trace::emit(EventId::LockRelease, LOCK, 0);
        tick(costs.lock_cycle_ns);
    }
    for _ in 0..SIM_SAMPLES {
        nm_metrics::trace::emit(EventId::PollPassBegin, 0, 0);
        tick(costs.pioman_pass_ns);
        nm_metrics::trace::emit(EventId::PollPassEnd, 0, 0);
        tick(costs.poll_pass_ns);
    }
    for _ in 0..SIM_SAMPLES {
        nm_metrics::trace::emit(EventId::ThreadBlock, 0, 0);
        tick(costs.ctx_switch_ns);
        nm_metrics::trace::emit(EventId::ThreadWake, 0, 0);
    }
    for _ in 0..SIM_SAMPLES {
        nm_metrics::trace::emit(EventId::OffloadSubmit, 1, 0);
        tick(costs.enqueue_ns + costs.idle_poll_gap_ns);
        nm_metrics::trace::emit(EventId::OffloadRun, 1, 0);
    }

    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_on_empty_trace_is_zero() {
        let c = derive(&Trace::default());
        assert_eq!(c.lock_cycle_ns, 0);
        assert_eq!(c.offload_hop_ns, 0);
    }
}
