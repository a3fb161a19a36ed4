//! Always-on health metrics for the progression engine.
//!
//! Cached handles into the global [`nm_metrics::metrics`] registry.
//! Counters yield rates on snapshot (`progress.polls` →
//! `progress.polls.per_sec`, the engine's polling frequency); gauges
//! expose instantaneous queue state (offload backlog, tasklet queue
//! depth) and the consecutive-empty-poll streak that signals an idle or
//! starved engine.

nm_metrics::metric_handles! {
    /// Polling passes across all engines (rate = polls/sec).
    pub fn polls_counter() -> Counter = counter("progress.polls");
    /// Source passes that reported progress, across all engines.
    pub fn progressions_counter() -> Counter = counter("progress.progressions");
    /// Current run of consecutive poll passes with zero progress.
    pub fn empty_poll_streak() -> Gauge = gauge("progress.empty_poll_streak");
    /// High watermark of the consecutive-empty-poll streak.
    pub fn empty_poll_streak_max() -> Gauge = gauge("progress.empty_poll_streak_max");
    /// Deferred submissions queued but not yet executed.
    pub fn offload_backlog() -> Gauge = gauge("progress.offload_backlog");
    /// Tasklets queued on runner threads, awaiting execution.
    pub fn tasklet_depth() -> Gauge = gauge("progress.tasklet_depth");
}
