//! Command line of the benchmark. See README.md for the commands.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use nomad_benchmark::probes::Effort;
use nomad_benchmark::report::{self, PREAMBLE};
use nomad_benchmark::suite::{self, EndToEndRun, REPS};
use nomad_benchmark::workloads::{pin, Mode, Workload};

const USAGE: &str = "\
usage: nomad-benchmark [run|trace|check] [--seed N] [--seconds S] [--quick] [--record]
       nomad-benchmark --workload NAME --seed N --seconds S --trace 0|1

  run      every workload untraced: the end-to-end metrics (default)
  trace    every workload with spans on: the per-layer metrics, the budget
           table of pingpong_eager, span files under out/
  check    the untraced suite twice, side by side, against the bounds;
           --record writes the two sets to baseline.json
  --seconds S   measuring time per workload (default 18)
  --quick       about 50 ms per repetition, for smoke tests
  --workload    one workload, for the benchmark driver: prints the metrics
                and, as the last line, one JSON object";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: 18.0,
        trace: false,
        quick: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "run" | "trace" | "check" => parsed.command = arg.clone(),
            "--quick" => parsed.quick = true,
            "--record" => parsed.record = true,
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    format!(
                        "no workload {name:?}; there are {}",
                        report::workload_names()
                    )
                })?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

impl Args {
    /// Length of one untraced repetition: the measuring time is split
    /// evenly over `REPS` repetitions of each of the three modes.
    fn untraced_rep(&self) -> Duration {
        if self.quick {
            return Duration::from_millis(50);
        }
        Duration::from_secs_f64(self.seconds / (REPS * Mode::ALL.len()) as f64)
    }

    /// Length of one traced repetition. A traced run makes four (three
    /// modes and an untraced reference); the micro-probes take the rest.
    fn traced_rep(&self) -> Duration {
        if self.quick {
            return Duration::from_millis(50);
        }
        Duration::from_secs_f64(self.seconds / 12.0)
    }

    fn effort(&self) -> Effort {
        if self.quick {
            Effort::Quick
        } else {
            Effort::Full
        }
    }
}

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn write_spans(run: &suite::TracedRun) -> std::io::Result<PathBuf> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", run.workload.name()));
    std::fs::write(&path, run.spans_file())?;
    Ok(path)
}

fn traced(args: &Args, workload: Workload) -> suite::TracedRun {
    let run = suite::run_traced(workload, args.seed, args.traced_rep(), args.effort());
    print!("{}", report::per_layer_table(&run));
    if workload == Workload::PingpongEager {
        print!("{}", report::budget_table(&run));
    }
    match write_spans(&run) {
        Ok(path) => println!("   spans written to {}", path.display()),
        Err(e) => eprintln!("   could not write the span file: {e}"),
    }
    run
}

fn untraced_suite(args: &Args, seed: u64) -> Vec<EndToEndRun> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            let run = suite::run_end_to_end(w, seed, args.untraced_rep(), REPS);
            print!("{}", report::end_to_end_table(&run));
            run
        })
        .collect()
}

/// One workload for the benchmark driver; the result is the last line.
fn driver(args: &Args, workload: Workload) -> bool {
    println!("{PREAMBLE}");
    if args.trace {
        let run = traced(args, workload);
        let correct = run.ops_failed == 0 && run.self_check.is_empty();
        println!(
            "{}",
            report::result_line(
                correct,
                run.ops_attempted,
                run.ops_failed,
                &run.per_layer(Mode::Fine)
            )
        );
        correct
    } else {
        let run = suite::run_end_to_end(workload, args.seed, args.untraced_rep(), REPS);
        print!("{}", report::end_to_end_table(&run));
        let correct = run.ops_failed == 0;
        println!(
            "{}",
            report::result_line(correct, run.ops_attempted, run.ops_failed, &run.metrics)
        );
        correct
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A hung library call must not hang the caller: give up loudly. The
    // driver allows one workload 180 s; the whole suite twice takes ~150 s.
    let limit = Duration::from_secs(if args.workload.is_some() { 170 } else { 900 });
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("nomad-benchmark: still running after {limit:?}, giving up");
        std::process::exit(3);
    });
    // The main thread drives every single-thread workload: CPU 0. Count
    // the CPUs first; once pinned, this thread's mask holds just one.
    let _ = report::nproc();
    pin(0);

    let ok = if let Some(workload) = args.workload {
        driver(&args, workload)
    } else {
        println!("{PREAMBLE}");
        match args.command.as_str() {
            "trace" => Workload::ALL
                .into_iter()
                .map(|w| {
                    let run = traced(&args, w);
                    run.ops_failed == 0 && run.self_check.is_empty()
                })
                .fold(true, |all, ok| all & ok),
            "check" => {
                let first = untraced_suite(&args, args.seed);
                let second = untraced_suite(&args, args.seed);
                let (table, record, ok) = report::check_report(&first, &second);
                print!("{table}");
                if args.record {
                    let path = benchmark_dir().join("baseline.json");
                    match std::fs::write(&path, record) {
                        Ok(()) => println!("\nrecorded in {}", path.display()),
                        Err(e) => eprintln!("could not write {}: {e}", path.display()),
                    }
                }
                println!(
                    "\ncheck: {}",
                    if ok {
                        "every end-to-end metric agrees within its bound"
                    } else {
                        "FAILED"
                    }
                );
                ok
            }
            _ => untraced_suite(&args, args.seed)
                .iter()
                .all(|run| run.ops_failed == 0),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
