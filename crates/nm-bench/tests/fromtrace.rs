//! Table 1 from trace events: the virtual-clock replay derives exactly
//! the costs it was priced with, and replays bit for bit.
//!
//! A binary of its own: a live recording turns span ids on for every
//! core in the process, which would put span words in the frames of the
//! library's chaos runs and break their run-to-run determinism.

use nm_bench::fromtrace::{derive, sim_trace};
use nm_sim::SimCosts;
use nm_trace::Trace;

/// One test, not two: `sim_trace` installs the process-global trace
/// clock, so two tests replaying it on parallel test threads would
/// clobber each other's timestamps.
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
    assert!(!nm_trace::enabled(), "the replay stops its recording");
}
