//! Time sources: real monotonic time and manual (virtual) time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A nanosecond clock the fabric timestamps packets with.
///
/// Cloning is cheap; all clones of a manual clock share the same time.
#[derive(Clone, Debug)]
pub enum ClockSource {
    /// Wall-clock (monotonic) time, relative to the process anchor.
    Real(Instant),
    /// Virtual time advanced explicitly — the discrete-event simulator's
    /// clock. Never advances on its own.
    Manual(Arc<AtomicU64>),
}

impl ClockSource {
    /// The process-wide real monotonic clock: every call shares the
    /// process's one anchor ([`nm_metrics::clock::anchor`]), so readings
    /// compare across callers and with trace timestamps.
    pub fn real() -> Self {
        ClockSource::Real(nm_metrics::clock::anchor())
    }

    /// A virtual clock starting at 0.
    pub fn manual() -> Self {
        ClockSource::Manual(Arc::new(AtomicU64::new(0)))
    }

    /// Current time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self {
            ClockSource::Real(base) => base.elapsed().as_nanos() as u64,
            ClockSource::Manual(t) => t.load(Ordering::Acquire),
        }
    }

    /// Advances a manual clock by `ns`, returning the new time.
    ///
    /// # Panics
    /// Panics on a real clock — real time cannot be advanced.
    pub fn advance(&self, ns: u64) -> u64 {
        match self {
            ClockSource::Manual(t) => t.fetch_add(ns, Ordering::AcqRel) + ns,
            ClockSource::Real(_) => panic!("cannot advance a real clock"),
        }
    }

    /// Sets a manual clock to `ns` if that moves it forward.
    ///
    /// # Panics
    /// Panics on a real clock.
    pub fn advance_to(&self, ns: u64) {
        match self {
            ClockSource::Manual(t) => {
                t.fetch_max(ns, Ordering::AcqRel);
            }
            ClockSource::Real(_) => panic!("cannot advance a real clock"),
        }
    }

    /// `true` for a virtual clock.
    pub fn is_manual(&self) -> bool {
        matches!(self, ClockSource::Manual(_))
    }

    /// `true` when deadlines taken from one clock mean the same instant
    /// on the other: two real clocks both follow wall-clock time, two
    /// manual clocks must share their counter.
    pub fn shares(&self, other: &ClockSource) -> bool {
        match (self, other) {
            (ClockSource::Real(_), ClockSource::Real(_)) => true,
            (ClockSource::Manual(a), ClockSource::Manual(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_moves_forward() {
        let c = ClockSource::real();
        let a = c.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_ns() > a);
    }

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ClockSource::manual();
        assert_eq!(c.now_ns(), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.now_ns(), 10);
        c.advance_to(5); // backwards: no-op
        assert_eq!(c.now_ns(), 10);
        c.advance_to(99);
        assert_eq!(c.now_ns(), 99);
    }

    #[test]
    fn manual_clones_share_time() {
        let c = ClockSource::manual();
        let c2 = c.clone();
        c.advance(42);
        assert_eq!(c2.now_ns(), 42);
    }

    #[test]
    fn shared_clocks() {
        let m = ClockSource::manual();
        assert!(m.shares(&m.clone()));
        assert!(!m.shares(&ClockSource::manual()));
        assert!(!m.shares(&ClockSource::real()));
        assert!(ClockSource::real().shares(&ClockSource::real()));
        assert!(ClockSource::real().now_ns() <= ClockSource::real().now_ns());
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn advancing_real_clock_panics() {
        ClockSource::real().advance(1);
    }
}
