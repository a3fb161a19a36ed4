//! §3.3's claim: "on a 4-core machine, dedicating one core to
//! communication leads to up to 25 % decrease of the computation power."
//!
//! Measured for real when the host has ≥ 2 cores (N compute threads with
//! and without a dedicated busy-polling thread), and modelled analytically
//! otherwise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of the dedicated-core experiment.
#[derive(Debug, Clone, Copy)]
pub struct ComputeLoss {
    /// Compute iterations/s without the polling thread.
    pub baseline_rate: f64,
    /// Compute iterations/s with one dedicated busy-polling thread.
    pub with_poller_rate: f64,
    /// Cores used for the measurement.
    pub cores: usize,
}

impl ComputeLoss {
    /// Fractional throughput loss in `[0, 1]`.
    pub fn loss(&self) -> f64 {
        if self.baseline_rate <= 0.0 {
            return 0.0;
        }
        (1.0 - self.with_poller_rate / self.baseline_rate).max(0.0)
    }

    /// The analytic model: one of `cores` cores stops computing.
    pub fn analytic(cores: usize) -> f64 {
        assert!(cores > 0);
        1.0 / cores as f64
    }
}

fn compute_kernel(stop: &AtomicBool) -> u64 {
    // A cache-resident integer kernel: iterations are the throughput unit.
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut iters = 0u64;
    // relaxed: stop flag carries no data; a late observation only extends
    // the measurement window by one batch.
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..1024 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        iters += 1;
    }
    std::hint::black_box(acc);
    iters
}

/// Runs `threads` compute threads for `window`, optionally beside one
/// busy-polling thread; returns (iterations, seconds).
fn run_compute(threads: usize, with_poller: bool, window: Duration) -> (u64, f64) {
    let stop = Arc::new(AtomicBool::new(false));
    let poller = with_poller.then(|| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // The dedicated communication core: pure busy polling.
            // relaxed: stop flag carries no data (see compute_kernel).
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
    });
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || compute_kernel(&stop))
        })
        .collect();
    let t0 = Instant::now();
    std::thread::sleep(window);
    // relaxed: stop flag carries no data; join() below synchronizes.
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|h| h.join().expect("worker")).sum();
    if let Some(p) = poller {
        p.join().expect("poller");
    }
    (total, t0.elapsed().as_secs_f64())
}

/// Baseline and with-poller windows alternate this many times, so a
/// burst of load from elsewhere on the host lands on both sides.
const ROUNDS: u32 = 4;

/// Measures the compute-throughput loss of dedicating one core to
/// busy polling: `cores` compute threads run for `window` with and
/// `window` without an extra spinning thread competing for the cores,
/// each split into `ROUNDS` alternating slices.
pub fn measure(cores: usize, window: Duration) -> ComputeLoss {
    let slice = window / ROUNDS;
    let (mut base, mut polled) = ((0, 0.0), (0, 0.0));
    for _ in 0..ROUNDS {
        for (with_poller, sum) in [(false, &mut base), (true, &mut polled)] {
            let (iters, secs) = run_compute(cores, with_poller, slice);
            sum.0 += iters;
            sum.1 += secs;
        }
    }
    ComputeLoss {
        baseline_rate: base.0 as f64 / base.1,
        with_poller_rate: polled.0 as f64 / polled.1,
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_quad_core_is_25_percent() {
        assert!((ComputeLoss::analytic(4) - 0.25).abs() < 1e-12);
        assert!((ComputeLoss::analytic(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measurement_shows_a_loss() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let r = measure(cores, Duration::from_millis(150));
        assert!(r.baseline_rate > 0.0);
        assert!(r.with_poller_rate > 0.0);
        // An extra spinning thread on a saturated machine must cost
        // something; exact magnitude depends on the scheduler.
        assert!(
            r.loss() > 0.01,
            "poller cost invisible: baseline {} vs {}",
            r.baseline_rate,
            r.with_poller_rate
        );
        assert!(r.loss() < 0.95);
    }

    #[test]
    fn loss_is_zero_when_rates_equal() {
        let r = ComputeLoss {
            baseline_rate: 100.0,
            with_poller_rate: 100.0,
            cores: 4,
        };
        assert_eq!(r.loss(), 0.0);
    }
}
