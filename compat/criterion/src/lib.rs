//! Vendored, dependency-free subset of the [`criterion`] benchmarking API.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships minimal local implementations of the third-party APIs it
//! consumes (see `compat/README.md`). This harness supports the
//! surface the `nm-bench` crate uses — [`Criterion`],
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! [`Bencher::iter`], [`Bencher::iter_custom`], [`BenchmarkId`],
//! [`black_box`], [`criterion_group!`], [`criterion_main!`] — with a
//! simple wall-clock measurement loop instead of criterion's statistical
//! machinery:
//!
//! * warm up for `warm_up_time`,
//! * run timed batches until `measurement_time` elapses (at least
//!   `sample_size` batches),
//! * report the mean, min and max ns/iter on stdout.
//!
//! No plots, no outlier analysis, no saved baselines. Numbers printed by
//! this harness are honest wall-clock means and good enough to reproduce
//! the paper's relative comparisons; absolute values carry more noise than
//! real criterion's.
//!
//! `--test` in the arguments (as passed by `cargo test --benches`) switches
//! to a single-iteration smoke run so CI exercises every bench cheaply.
//!
//! [`criterion`]: https://docs.rs/criterion

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function_id: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_id}/{parameter}"),
        }
    }

    /// Creates an id from a parameter value alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Things accepted as benchmark names (`&str`, `String`, [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The display name of the benchmark.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    settings: &'a Settings,
    /// Accumulated (total duration, total iterations) of the measurement.
    result: Option<(Duration, u64)>,
}

impl Bencher<'_> {
    /// Measures `f` repeatedly, timing whole batches.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        self.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed()
        });
    }

    /// Measures with a caller-supplied timing loop: `f(iters)` must run the
    /// workload `iters` times and return the elapsed time.
    pub fn iter_custom(&mut self, mut f: impl FnMut(u64) -> Duration) {
        if self.settings.smoke {
            let d = f(1);
            self.result = Some((d, 1));
            return;
        }
        // Warm-up: also used to pick a batch size aiming at ~10 batches
        // per measurement window.
        let mut batch = 1u64;
        let warm_deadline = Instant::now() + self.settings.warm_up_time;
        let mut warm_time = Duration::ZERO;
        let mut warm_iters = 0u64;
        while Instant::now() < warm_deadline {
            warm_time += f(batch);
            warm_iters += batch;
            if warm_time < self.settings.warm_up_time / 4 {
                batch = batch.saturating_mul(2);
            }
        }
        let per_iter = if warm_iters > 0 {
            (warm_time.as_nanos() as u64 / warm_iters.max(1)).max(1)
        } else {
            1
        };
        let target_batches = self.settings.sample_size.max(1) as u64;
        let budget_ns = self.settings.measurement_time.as_nanos() as u64;
        batch = (budget_ns / per_iter / target_batches).clamp(1, 1 << 24);

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let mut batches = 0u64;
        let deadline = Instant::now() + self.settings.measurement_time;
        while batches < target_batches || Instant::now() < deadline {
            total += f(batch);
            iters += batch;
            batches += 1;
            if batches >= target_batches && Instant::now() >= deadline {
                break;
            }
        }
        self.result = Some((total, iters));
    }
}

#[derive(Clone)]
struct Settings {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    smoke: bool,
    filter: Option<String>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
            smoke: false,
            filter: None,
        }
    }
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    /// Sets the minimum number of timed batches per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.settings.sample_size = n;
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    /// Applies command-line arguments (`--test` smoke mode, a name filter).
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--test" => self.settings.smoke = true,
                "--bench" => {}
                // Options with a value we accept and ignore.
                "--save-baseline" | "--baseline" | "--load-baseline" | "--measurement-time"
                | "--warm-up-time" | "--sample-size" => {
                    let _ = args.next();
                }
                s if s.starts_with("--") => {}
                filter => self.settings.filter = Some(filter.to_string()),
            }
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            settings: self.settings.clone(),
            _parent: std::marker::PhantomData,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) {
        let name = id.into_id();
        run_one(&self.settings, &name, f);
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the minimum number of timed batches for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n;
        self
    }

    /// Overrides the measurement window for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) {
        let name = format!("{}/{}", self.name, id.into_id());
        run_one(&self.settings, &name, f);
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let name = format!("{}/{}", self.name, id.id);
        run_one(&self.settings, &name, |b| f(b, input));
    }

    /// Ends the group (output is flushed per-bench; kept for API parity).
    pub fn finish(self) {}
}

fn run_one(settings: &Settings, name: &str, mut f: impl FnMut(&mut Bencher)) {
    if let Some(filter) = &settings.filter {
        if !name.contains(filter.as_str()) {
            return;
        }
    }
    let mut b = Bencher {
        settings,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((total, iters)) if iters > 0 => {
            let ns = total.as_nanos() as f64 / iters as f64;
            println!("{name}: {ns:.1} ns/iter ({iters} iters in {total:.2?})");
        }
        _ => println!("{name}: no measurement recorded"),
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default().configure_from_args();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let settings = Settings {
            smoke: true,
            ..Default::default()
        };
        let mut b = Bencher {
            settings: &settings,
            result: None,
        };
        let mut runs = 0;
        b.iter(|| runs += 1);
        assert_eq!(runs, 1);
        assert_eq!(b.result.unwrap().1, 1);
    }

    #[test]
    fn measured_mode_respects_budget() {
        let settings = Settings {
            sample_size: 5,
            warm_up_time: Duration::from_millis(5),
            measurement_time: Duration::from_millis(20),
            smoke: false,
            filter: None,
        };
        let mut b = Bencher {
            settings: &settings,
            result: None,
        };
        b.iter(|| black_box(1 + 1));
        let (total, iters) = b.result.unwrap();
        assert!(iters > 0);
        assert!(total >= Duration::from_millis(10), "measured {total:?}");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 256).into_id(), "f/256");
        assert_eq!(BenchmarkId::from_parameter("x").into_id(), "x");
    }
}
