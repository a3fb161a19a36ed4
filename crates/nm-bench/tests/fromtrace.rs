//! Table 1 from trace events: the virtual-clock replay derives exactly
//! the costs it was priced with, and replays bit for bit.
//!
//! A binary of its own: a live recording turns span ids on for every
//! core in the process, which would put span words in the frames of the
//! library's chaos runs and break their run-to-run determinism.

use nm_bench::fromtrace::{derive, sim_trace};
use nm_metrics::trace::Trace;
use nm_sim::SimCosts;

/// One test, not two: `sim_trace` records on its own virtual clock, and
/// live recordings share one clock, so two replays on parallel test
/// threads would collide.
#[test]
fn sim_trace_equals_costs_exactly_and_is_bit_deterministic() {
    let costs = SimCosts::paper();
    let a = sim_trace(&costs);
    let c = derive(&a);
    assert_eq!(c.lock_cycle_ns, costs.lock_cycle_ns);
    assert_eq!(c.pioman_pass_ns, costs.pioman_pass_ns);
    assert_eq!(c.ctx_switch_ns, costs.ctx_switch_ns);
    assert_eq!(c.offload_hop_ns, costs.enqueue_ns + costs.idle_poll_gap_ns);

    let b = sim_trace(&costs);
    let flat = |t: &Trace| {
        t.threads
            .iter()
            .flat_map(|th| th.events.iter().map(|e| (e.ts, e.id, e.a, e.b)))
            .collect::<Vec<_>>()
    };
    assert!(!flat(&a).is_empty(), "sim trace recorded nothing");
    assert_eq!(flat(&a), flat(&b));
    assert!(
        !nm_metrics::trace::enabled(),
        "the replay stops its recording"
    );
}
