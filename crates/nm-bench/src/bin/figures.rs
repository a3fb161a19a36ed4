//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [all|fig3|fig5|fig6|fig7|fig8|fig9|msgrate|cq|chaos|table1|sec33|bench] [options]
//!
//!   --real        measure the real stack (meaningful on multicore hosts)
//!   --calibrated  feed host-calibrated primitive costs to the simulator
//!   --from-trace  table1: derive constants from trace events instead of
//!                 stopwatch timing (starts its own recording; with
//!                 --real it traces the real stack, otherwise it
//!                 replays a bit-deterministic virtual-clock script)
//!   --folded      table1 --from-trace: also print flamegraph-folded lines
//!   --dual        fig8: use the dual-socket topology
//!   --csv         CSV output instead of Markdown
//!   --quick       fewer sizes and iterations
//!   --json        bench: write BENCH_FIGURES.json
//!   --out DIR     bench --json: output directory (default: cwd)
//! ```
//!
//! The `bench` subcommand produces the machine-readable regression
//! baseline of the deterministic virtual-clock figures consumed by
//! `cargo xtask bench-check` (docs/REPRODUCING.md). Wall-clock numbers of the real stack
//! are gated by the stand-alone `benchmark/` package instead.
//!
//! Default mode is the deterministic simulator with the paper's cost
//! constants, so output is reproducible anywhere; `--real` drives the
//! actual library instead.

use std::sync::Arc;
use std::time::Duration;

use nm_bench::calibrate::{self, Calibration};
use nm_bench::concurrent::concurrent_series;
use nm_bench::overlap::{overlap_series, OverlapOpts};
use nm_bench::pingpong::{pingpong_series, PingpongOpts};
use nm_bench::table::{constants_table, series_csv, series_table, ConstantRow};
use nm_bench::Series;
use nm_core::LockingMode;
use nm_progress::{IdlePolicy, OffloadMode, ProgressEngine, ProgressionThread};
use nm_sim::experiments as sim;
use nm_sim::SimCosts;
use nm_sync::WaitStrategy;
use nm_topo::Topology;

#[derive(Clone)]
struct Options {
    real: bool,
    calibrated: bool,
    from_trace: bool,
    folded: bool,
    dual: bool,
    csv: bool,
    quick: bool,
    json: bool,
    out: Option<String>,
}

/// Every experiment name the CLI accepts, in `all` run order
/// (printed by `--list` and by the unknown-name error path).
const EXPERIMENTS: [&str; 17] = [
    "all",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig7sweep",
    "fig8",
    "fig9",
    "bw",
    "rdvoverlap",
    "msgrate",
    "cq",
    "chaos",
    "breakdown",
    "table1",
    "sec33",
    "bench",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = Vec::new();
    let mut opts = Options {
        real: false,
        calibrated: false,
        from_trace: false,
        folded: false,
        dual: false,
        csv: false,
        quick: false,
        json: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "--real" => opts.real = true,
            "--calibrated" => opts.calibrated = true,
            "--from-trace" => opts.from_trace = true,
            "--folded" => opts.folded = true,
            "--dual" => opts.dual = true,
            "--csv" => opts.csv = true,
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.out = Some(dir.clone()),
                    None => {
                        eprintln!("--out needs a directory argument");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if EXPERIMENTS.contains(&other) => what.push(a.clone()),
            other => {
                eprintln!("unknown experiment: {other}");
                eprintln!("known experiments (also `figures --list`):");
                for name in EXPERIMENTS {
                    eprintln!("  {name}");
                }
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if what.is_empty() || what.iter().any(|w| w == "all") {
        what = [
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig7sweep",
            "fig8",
            "fig9",
            "bw",
            "rdvoverlap",
            "msgrate",
            "cq",
            "chaos",
            "breakdown",
            "table1",
            "sec33",
        ]
        .map(String::from)
        .to_vec();
    }

    let costs = if opts.calibrated {
        let cal = calibrate::calibrate();
        eprintln!("# calibrated costs: {cal:?}");
        cal.to_sim_costs()
    } else {
        SimCosts::paper()
    };

    for w in &what {
        match w.as_str() {
            "fig3" => fig3(&opts, costs),
            "fig5" => fig5(&opts, costs),
            "fig6" => fig6(&opts, costs),
            "fig7" => fig7(&opts, costs),
            "fig7sweep" => fig7sweep(&opts, costs),
            "bw" => bandwidth(&opts, costs),
            "rdvoverlap" => rdv_overlap(&opts, costs),
            "fig8" => fig8(&opts, costs),
            "fig9" => fig9(&opts, costs),
            "msgrate" => msgrate(&opts, costs),
            "cq" => cq(&opts, costs),
            "chaos" => chaos(&opts, costs),
            "breakdown" => breakdown_report(&opts, costs),
            "table1" => table1(&opts, costs),
            "sec33" => sec33(),
            "bench" => bench(&opts, costs),
            _ => unreachable!(),
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: figures [all|fig3|fig5|fig6|fig7|fig8|fig9|msgrate|cq|chaos|breakdown|table1|sec33|bench] \
         [--list] [--real] [--calibrated] [--from-trace] [--folded] [--dual] [--csv] [--quick] \
         [--json] [--out DIR]"
    );
}

fn sizes(opts: &Options) -> Vec<usize> {
    if opts.quick {
        vec![4, 64, 1024]
    } else {
        sim::small_sizes()
    }
}

fn emit(opts: &Options, title: &str, series: &[Series]) {
    if opts.csv {
        println!("# {title}");
        print!("{}", series_csv(series));
    } else {
        println!("{}", series_table(title, series));
    }
}

fn mode_note(opts: &Options) -> &'static str {
    if opts.real {
        "real stack"
    } else {
        "deterministic simulator"
    }
}

fn real_pingpong_opts(locking: LockingMode, via_engine: bool, quick: bool) -> PingpongOpts {
    PingpongOpts {
        locking,
        via_engine,
        iters: if quick { 30 } else { 200 },
        warmup: if quick { 5 } else { 20 },
        ..PingpongOpts::default()
    }
}

fn fig3(opts: &Options, costs: SimCosts) {
    let sz = sizes(opts);
    let series = if opts.real {
        [
            LockingMode::Coarse,
            LockingMode::Fine,
            LockingMode::SingleThread,
        ]
        .iter()
        .map(|&m| {
            pingpong_series(
                &real_pingpong_opts(m, false, opts.quick),
                &format!("{} locking", m.label()),
                &sz,
            )
        })
        .collect::<Vec<_>>()
    } else {
        sim::fig3_locking_latency(costs, &sz)
    };
    emit(
        opts,
        &format!(
            "Figure 3 — impact of locking on latency ({})",
            mode_note(opts)
        ),
        &series,
    );
}

fn fig5(opts: &Options, costs: SimCosts) {
    let sz = sizes(opts);
    let series = if opts.real {
        let mut out = vec![pingpong_series(
            &real_pingpong_opts(LockingMode::Fine, false, opts.quick),
            "1 thread",
            &sz,
        )];
        for m in [LockingMode::Fine, LockingMode::Coarse] {
            out.extend(concurrent_series(
                &real_pingpong_opts(m, false, opts.quick),
                &format!("{} locking", m.label()),
                &sz,
            ));
        }
        out
    } else {
        sim::fig5_concurrent_pingpong(costs, &sz)
    };
    emit(
        opts,
        &format!(
            "Figure 5 — two threads perform concurrently pingpong programs ({})",
            mode_note(opts)
        ),
        &series,
    );
}

fn fig6(opts: &Options, costs: SimCosts) {
    let sz = sizes(opts);
    let series = if opts.real {
        let mut out = Vec::new();
        for (via, tag) in [(true, "PIOMan "), (false, "")] {
            for m in [LockingMode::Coarse, LockingMode::Fine] {
                out.push(pingpong_series(
                    &real_pingpong_opts(m, via, opts.quick),
                    &format!("{tag}{} locking", m.label()),
                    &sz,
                ));
            }
        }
        out
    } else {
        sim::fig6_pioman_overhead(costs, &sz)
    };
    emit(
        opts,
        &format!(
            "Figure 6 — impact of PIOMan on latency ({})",
            mode_note(opts)
        ),
        &series,
    );
}

fn fig7(opts: &Options, costs: SimCosts) {
    let sz = sizes(opts);
    let series = if opts.real {
        fig7_real(opts, &sz)
    } else {
        sim::fig7_waiting_strategies(costs, &sz)
    };
    emit(
        opts,
        &format!(
            "Figure 7 — impact of semaphores on latency ({})",
            mode_note(opts)
        ),
        &series,
    );
}

/// Real-mode Fig 7: a progression thread per side keeps polling so that
/// passive waiters are woken.
fn fig7_real(opts: &Options, sz: &[usize]) -> Vec<Series> {
    let mut out = Vec::new();
    for (wait, wname) in [
        (WaitStrategy::Passive, "passive waiting"),
        (WaitStrategy::Busy, "active waiting"),
    ] {
        for m in [LockingMode::Coarse, LockingMode::Fine] {
            let label = format!("{wname} ({} locking)", m.label());
            let points = sz
                .iter()
                .map(|&s| {
                    let mut po = real_pingpong_opts(m, false, opts.quick);
                    po.wait = wait;
                    // Progression threads drive both cores for passive
                    // waiters.
                    let (a, b) = nm_bench::pingpong::build_pair(&po);
                    let engine = Arc::new(ProgressEngine::new());
                    engine.register(Arc::clone(&a) as _);
                    engine.register(Arc::clone(&b) as _);
                    let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);
                    let stats = pingpong_with_cores(&a, &b, &po, s);
                    pt.stop();
                    (s, stats)
                })
                .collect();
            out.push(Series { label, points });
        }
    }
    out
}

/// Pingpong over pre-built cores (so callers can attach machinery).
fn pingpong_with_cores(
    a: &Arc<nm_core::CommCore>,
    b: &Arc<nm_core::CommCore>,
    opts: &PingpongOpts,
    size: usize,
) -> f64 {
    use bytes::Bytes;
    use nm_core::GateId;
    let total = opts.warmup + opts.iters;
    let wait = opts.wait;
    let b2 = Arc::clone(b);
    let echo = std::thread::spawn(move || {
        for _ in 0..total {
            let r = b2.irecv(GateId(0), 0).expect("irecv");
            b2.wait(&r, wait).unwrap();
            let data = r.take_data().expect("payload");
            let s = b2.isend(GateId(0), 0, data).expect("isend");
            b2.wait(&s, wait).unwrap();
        }
    });
    let payload = Bytes::from(vec![1u8; size]);
    let mut samples = Vec::new();
    for i in 0..total {
        let t0 = std::time::Instant::now();
        let s = a.isend(GateId(0), 0, payload.clone()).expect("isend");
        a.wait(&s, wait).unwrap();
        let r = a.irecv(GateId(0), 0).expect("irecv");
        a.wait(&r, wait).unwrap();
        if i >= opts.warmup {
            samples.push(t0.elapsed().as_nanos() as u64 / 2);
        }
    }
    echo.join().expect("echo");
    nm_bench::stats::LatencyStats::from_ns(samples).median_us()
}

/// Ablation: sweep the fixed-spin window around the paper's 5 µs
/// suggestion (x-axis is the window in ns, not a message size).
fn fig7sweep(opts: &Options, costs: SimCosts) {
    let windows: Vec<u64> = [0u64, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000].to_vec();
    let series = vec![sim::fig7_fixed_spin_sweep(costs, 64, &windows)];
    emit(
        opts,
        "Figure 7 extension — fixed-spin window sweep (x = window ns, deterministic simulator)",
        &series,
    );
}

/// The §3.1 bandwidth claim: locking overheads vanish at large sizes.
fn bandwidth(opts: &Options, costs: SimCosts) {
    let sizes: Vec<usize> = if opts.quick {
        vec![64, 4096, 32 * 1024]
    } else {
        (6..=15).map(|p| 1usize << p).collect()
    };
    let series = sim::bandwidth_by_mode(costs, &sizes);
    emit(
        opts,
        "Bandwidth vs locking mode (MB/s; §3.1's \"no impact on bandwidth\", deterministic simulator)",
        &series,
    );
}

/// §4.1: rendezvous handshakes managed by idle cores overlap the
/// transfer of large messages with computation.
fn rdv_overlap(opts: &Options, costs: SimCosts) {
    let sizes: Vec<usize> = if opts.quick {
        vec![64 * 1024, 256 * 1024]
    } else {
        (14..=19).map(|p| 1usize << p).collect()
    };
    let series = sim::rdv_overlap(costs, &sizes);
    emit(
        opts,
        "§4.1 — rendezvous overlap: RTS + 30 µs compute + wait, total µs (deterministic simulator)",
        &series,
    );
}

fn fig8(opts: &Options, costs: SimCosts) {
    let topo = if opts.dual {
        Topology::dual_xeon_x5460()
    } else {
        Topology::xeon_x5460()
    };
    let sz = sizes(opts);
    if opts.real {
        let host = Topology::discover();
        if host.num_cores() < 4 || !nm_topo::affinity::is_supported() {
            eprintln!(
                "# fig8 --real needs >= 4 bindable cores (host has {}); using the simulator",
                host.num_cores()
            );
        } else {
            eprintln!("# fig8 --real not yet distinct from sim placements; see benches/fig8");
        }
    }
    let series = sim::fig8_cache_affinity(costs, &topo, &sz);
    emit(
        opts,
        &format!(
            "Figure 8 — impact of cache affinity ({}, {})",
            topo.name(),
            mode_note(opts)
        ),
        &series,
    );
}

fn fig9(opts: &Options, costs: SimCosts) {
    let sz = if opts.quick {
        vec![2048, 8192, 32768]
    } else {
        sim::fig9_sizes()
    };
    let series = if opts.real {
        OffloadMode::ALL
            .iter()
            .map(|&mode| {
                overlap_series(
                    &OverlapOpts {
                        offload: mode,
                        iters: if opts.quick { 20 } else { 100 },
                        warmup: 5,
                        ..OverlapOpts::default()
                    },
                    &sz,
                )
            })
            .collect::<Vec<_>>()
    } else {
        sim::fig9_offload_tasklets(costs, &sz)
    };
    emit(
        opts,
        &format!(
            "Figure 9 — impact of tasklets on deferred message submission ({})",
            mode_note(opts)
        ),
        &series,
    );
}

/// Flow counts of the message-rate scaling experiment.
fn msgrate_flows(opts: &Options) -> Vec<usize> {
    if opts.quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Message-rate scaling: aggregate small-message rate vs concurrent
/// single-gate flows (the endpoints argument applied to the collect
/// layer). Sim mode compares per-gate collect locks against the
/// pre-sharding node-wide lock; real mode measures the actual stack,
/// where fine-grain *is* the sharded layout and coarse stands in for a
/// single library-wide lock.
fn msgrate(opts: &Options, costs: SimCosts) {
    use nm_bench::table::series_table_with;

    let flows = msgrate_flows(opts);
    let series = if opts.real {
        use nm_bench::msgrate::{msgrate_threaded, MsgrateOpts};
        [LockingMode::Fine, LockingMode::Coarse]
            .iter()
            .map(|&m| Series {
                label: format!("{} locking", m.label()),
                points: flows
                    .iter()
                    .map(|&n| {
                        let mo = MsgrateOpts {
                            locking: m,
                            flows: n,
                            rounds: if opts.quick { 10 } else { 50 },
                            ..MsgrateOpts::default()
                        };
                        (n, msgrate_threaded(&mo))
                    })
                    .collect(),
            })
            .collect::<Vec<_>>()
    } else {
        sim::msgrate_scaling(costs, &flows)
    };
    let title = format!(
        "Message-rate scaling — concurrent single-gate flows ({})",
        mode_note(opts)
    );
    if opts.csv {
        println!("# {title}");
        print!("{}", series_csv(&series));
    } else {
        println!("{}", series_table_with(&title, "flows", "Mmsg/s", &series));
    }

    // Flows × VCIs: the multi-VCI transfer layer's scaling axis. One
    // context is the classic shared-ring NIC (every flow funnels through
    // one tx/completion ring); with contexts ≥ flows each flow owns its
    // rings outright. Sim mode models the shared-completion-queue scan;
    // real mode drives the actual striped per-(rail, VCI) lanes.
    let vci_flows: Vec<usize> = if opts.quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let vci_counts: Vec<usize> = if opts.quick {
        vec![1, 16]
    } else {
        vec![1, 4, 16]
    };
    let vci_series = if opts.real {
        use nm_bench::msgrate::{msgrate_threaded, MsgrateOpts};
        vci_counts
            .iter()
            .map(|&v| Series {
                label: format!("{v} VCI{}", if v == 1 { "" } else { "s" }),
                points: vci_flows
                    .iter()
                    .map(|&n| {
                        let mo = MsgrateOpts {
                            locking: LockingMode::Fine,
                            flows: n,
                            vcis: v,
                            rounds: if opts.quick { 10 } else { 50 },
                            ..MsgrateOpts::default()
                        };
                        (n, msgrate_threaded(&mo))
                    })
                    .collect(),
            })
            .collect::<Vec<_>>()
    } else {
        sim::msgrate_vci_scaling(costs, &vci_flows, &vci_counts)
    };
    let title = format!(
        "Message-rate scaling — flows × VCI contexts, fine-grain locking ({})",
        mode_note(opts)
    );
    if opts.csv {
        println!("# {title}");
        print!("{}", series_csv(&vci_series));
    } else {
        println!(
            "{}",
            series_table_with(&title, "flows", "Mmsg/s", &vci_series)
        );
    }

    // CI runs this sweep under `--features lockcheck` and archives the
    // lock graph the striped lanes actually exercised; without the
    // feature the document just says `enabled: false`.
    if let Some(path) = std::env::var_os("NOMAD_LOCKGRAPH_OUT") {
        std::fs::write(&path, nm_sync::lockcheck::dump_graph_json())
            .expect("write NOMAD_LOCKGRAPH_OUT");
        eprintln!("lock graph written to {}", path.to_string_lossy());
    }
}

/// Outstanding-request counts of the completion-queue experiment.
fn cq_outstanding(opts: &Options) -> Vec<usize> {
    if opts.quick {
        vec![512, 2048]
    } else {
        vec![2560, 10240, 20480]
    }
}

/// Completion-queue drain scaling: aggregate completion rate vs
/// outstanding requests — two cores draining one shared
/// `CompletionQueue` against dedicated per-request busy-wait threads.
/// Simulator-only: the model isolates delivery cost (see
/// `nm_sim::experiments::cq_completion_scaling`).
fn cq(opts: &Options, costs: SimCosts) {
    use nm_bench::table::series_table_with;

    if opts.real {
        eprintln!("# cq: simulator-only experiment; ignoring --real");
    }
    let series = sim::cq_completion_scaling(costs, &cq_outstanding(opts));
    let title = "Completion-queue drain — 2 cores vs dedicated wait threads \
                 (deterministic simulator)";
    if opts.csv {
        println!("# {title}");
        print!("{}", series_csv(&series));
    } else {
        println!(
            "{}",
            series_table_with(title, "outstanding", "Mmsg/s", &series)
        );
    }
}

/// Chaos sweep — the real reliability layer under deterministic frame
/// loss: goodput and p99 in-order delivery latency vs loss rate, coarse
/// vs fine locking. Two real `nm-core` cores run on the fabric's virtual
/// clock, so the output is reproducible anywhere (see
/// `nm_bench::chaos`).
fn chaos(opts: &Options, costs: SimCosts) {
    use nm_bench::table::series_table_with;

    let (goodput, p99) = nm_bench::chaos::loss_sweep(costs, &nm_bench::chaos::loss_points());
    let g_title = "Chaos sweep — goodput vs frame-loss rate (nm-core, virtual clock)";
    let p_title = "Chaos sweep — p99 in-order delivery latency vs frame-loss rate \
                   (nm-core, virtual clock)";
    if opts.csv {
        println!("# {g_title}");
        print!("{}", series_csv(&goodput));
        println!("# {p_title}");
        print!("{}", series_csv(&p99));
    } else {
        println!(
            "{}",
            series_table_with(g_title, "loss (\u{2030})", "MB/s", &goodput)
        );
        println!(
            "{}",
            series_table_with(p_title, "loss (\u{2030})", "µs", &p99)
        );
    }
}

fn table1(opts: &Options, costs: SimCosts) {
    if opts.from_trace {
        table1_from_trace(opts, costs);
        return;
    }
    let cal = calibrate::calibrate();
    let rows = vec![
        ConstantRow {
            name: "spinlock acquire/release cycle".into(),
            paper_ns: 70,
            ours_ns: cal.lock_cycle_ns,
        },
        ConstantRow {
            name: "ticket lock cycle (ablation)".into(),
            paper_ns: 70,
            ours_ns: cal.ticket_cycle_ns,
        },
        ConstantRow {
            name: "parking_lot mutex cycle (ablation)".into(),
            paper_ns: 70,
            ours_ns: cal.mutex_cycle_ns,
        },
        ConstantRow {
            name: "PIOMan pass (lists + locking)".into(),
            paper_ns: 200,
            ours_ns: cal.pioman_pass_ns,
        },
        ConstantRow {
            name: "blocking context switch".into(),
            paper_ns: 750,
            ours_ns: cal.ctx_switch_ns,
        },
        ConstantRow {
            name: "completion flag signal+wait".into(),
            paper_ns: 0,
            ours_ns: cal.flag_cycle_ns,
        },
        // The sharding payoff in one pair of rows: the same 4-thread
        // collect-section hammering, on per-gate shards vs the seed's
        // single lock (paper prices one uncontended cycle at 70 ns).
        ConstantRow {
            name: "collect-section cycle (4 threads, per-gate shards)".into(),
            paper_ns: 70,
            ours_ns: calibrate::collect_cycle_ns(4, true),
        },
        ConstantRow {
            name: "collect-section cycle (4 threads, single lock)".into(),
            paper_ns: 70,
            ours_ns: calibrate::collect_cycle_ns(4, false),
        },
    ];
    println!(
        "{}",
        constants_table("Table 1 — in-text constants, paper vs this host", &rows)
    );
    let _ = Calibration::paper_reference();
}

/// Table 1 derived from trace timestamps instead of stopwatch timing:
/// the constants come out of `LockAcquire` gaps, `PollPass` spans,
/// `ThreadBlock`→`ThreadWake` spans and `OffloadSubmit`→`OffloadRun`
/// hops alone.
fn table1_from_trace(opts: &Options, costs: SimCosts) {
    use nm_bench::fromtrace;
    use nm_metrics::trace::TraceReport;

    let (trace, mode) = if opts.real {
        (fromtrace::real_trace(), "traced real stack")
    } else {
        (
            fromtrace::sim_trace(&costs),
            "deterministic virtual-clock replay",
        )
    };
    let c = fromtrace::derive(&trace);
    let rows = vec![
        ConstantRow {
            name: "spinlock acquire/release cycle".into(),
            paper_ns: 70,
            ours_ns: c.lock_cycle_ns,
        },
        ConstantRow {
            name: "PIOMan pass (lists + locking)".into(),
            paper_ns: 200,
            ours_ns: c.pioman_pass_ns,
        },
        ConstantRow {
            name: "blocking context switch".into(),
            paper_ns: 750,
            ours_ns: c.ctx_switch_ns,
        },
        ConstantRow {
            name: "offload hop (idle core)".into(),
            paper_ns: 400,
            ours_ns: c.offload_hop_ns,
        },
    ];
    println!(
        "{}",
        constants_table(
            &format!("Table 1 — in-text constants from trace events ({mode})"),
            &rows
        )
    );
    let report = TraceReport::from_trace(&trace);
    println!("{report}");
    if opts.folded {
        println!("```folded\n{}```", report.folded());
    }
}

/// Sizes used for the committed benchmark baselines. Deliberately fixed
/// (not `--quick`-dependent): the baselines in git must always cover
/// the same points, or bench-check would report spurious missing
/// records.
const BENCH_SIZES: &[usize] = &[4, 64, 1024, 16384];

/// Critical-path latency breakdown per locking mode: the deterministic
/// virtual-clock model in `nm_bench::breakdown`, decomposed by the
/// production span assembler (`nm_metrics::spans`). Components always
/// sum exactly to the end-to-end total.
fn breakdown_report(opts: &Options, costs: SimCosts) {
    let rows = nm_bench::breakdown::all_breakdowns(costs);
    if opts.csv {
        println!("# critical-path breakdown (ns)");
        println!("mode,submit,collect,retransmit,wire,delivery,total");
        for (mode, b) in &rows {
            println!(
                "{mode},{},{},{},{},{},{}",
                b.submit_ns, b.collect_ns, b.retransmit_ns, b.wire_ns, b.delivery_ns, b.total_ns
            );
        }
    } else {
        println!("critical-path breakdown: one eager message, ns per stage");
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>8} {:>9} {:>8}",
            "mode", "submit", "collect", "retransmit", "wire", "delivery", "total"
        );
        for (mode, b) in &rows {
            println!(
                "{:<14} {:>8} {:>8} {:>10} {:>8} {:>9} {:>8}",
                mode,
                b.submit_ns,
                b.collect_ns,
                b.retransmit_ns,
                b.wire_ns,
                b.delivery_ns,
                b.total_ns
            );
        }
        println!();
    }
}

/// The `bench` subcommand: the machine-readable regression baseline.
/// `BENCH_FIGURES.json` holds deterministic virtual-clock results (the
/// `nm-sim` models, and the real library for `chaos/*`), compared
/// exactly by `cargo xtask bench-check`.
fn bench(opts: &Options, costs: SimCosts) {
    use nm_bench::report::{write_json, BenchRecord};

    if !opts.json {
        eprintln!("bench: only --json output is supported; pass --json");
        std::process::exit(2);
    }
    let out_dir = std::path::PathBuf::from(opts.out.as_deref().unwrap_or("."));

    let mut records = Vec::new();
    let flatten = |records: &mut Vec<BenchRecord>, fig: &str, series: Vec<Series>| {
        for s in series {
            for (size, v) in s.points {
                records.push(BenchRecord::sim(
                    format!("{fig}/{}/size={size}", s.label),
                    "us",
                    v,
                ));
            }
        }
    };
    flatten(
        &mut records,
        "fig3",
        sim::fig3_locking_latency(costs, BENCH_SIZES),
    );
    flatten(
        &mut records,
        "fig5",
        sim::fig5_concurrent_pingpong(costs, BENCH_SIZES),
    );
    flatten(
        &mut records,
        "fig6",
        sim::fig6_pioman_overhead(costs, BENCH_SIZES),
    );
    flatten(
        &mut records,
        "fig7",
        sim::fig7_waiting_strategies(costs, BENCH_SIZES),
    );
    flatten(
        &mut records,
        "fig9",
        sim::fig9_offload_tasklets(costs, &[2048, 8192, 32768]),
    );
    // Message-rate scaling: x is the flow count, unit is Mmsg/s (the
    // `flatten` helper assumes size/µs, so these records are explicit).
    for s in sim::msgrate_scaling(costs, &[1, 2, 4, 8]) {
        for (flows, v) in s.points {
            records.push(BenchRecord::sim(
                format!("msgrate/{}/flows={flows}", s.label),
                "Mmsg/s",
                v,
            ));
        }
    }
    // Completion-queue drain: x is the outstanding-request count.
    for s in sim::cq_completion_scaling(costs, &[2560, 10240, 20480]) {
        for (n, v) in s.points {
            records.push(BenchRecord::sim(
                format!("cq/{}/outstanding={n}", s.label),
                "Mmsg/s",
                v,
            ));
        }
    }
    // Chaos sweep: x is the frame-loss rate in per-mille.
    let (chaos_goodput, chaos_p99) =
        nm_bench::chaos::loss_sweep(costs, &nm_bench::chaos::loss_points());
    for (fig, unit, series) in [
        ("chaos/goodput", "MB/s", chaos_goodput),
        ("chaos/p99", "us", chaos_p99),
    ] {
        for s in series {
            for (pm, v) in s.points {
                records.push(BenchRecord::sim(
                    format!("{fig}/{}/loss_pm={pm}", s.label),
                    unit,
                    v,
                ));
            }
        }
    }
    // Critical-path breakdown: per-mode latency decomposition through
    // the span assembler (appended last so the records above keep their
    // historical positions in the file).
    for (mode, b) in nm_bench::breakdown::all_breakdowns(costs) {
        for (component, v) in b.components() {
            records.push(BenchRecord::sim(
                format!("breakdown/{mode}/{component}"),
                "ns",
                v as f64,
            ));
        }
        records.push(BenchRecord::sim(
            format!("breakdown/{mode}/total"),
            "ns",
            b.total_ns as f64,
        ));
    }
    // Multi-VCI message rate: x is the flow count, one record family per
    // context count (appended after everything above so the pre-existing
    // records keep their historical positions in the file).
    for s in sim::msgrate_vci_scaling(costs, &[1, 4, 16], &[1, 4, 16]) {
        for (flows, v) in s.points {
            records.push(BenchRecord::sim(
                format!("msgrate-vci/{}/flows={flows}", s.label),
                "Mmsg/s",
                v,
            ));
        }
    }
    let figures_path = out_dir.join("BENCH_FIGURES.json");
    write_json(&figures_path, &records).expect("write BENCH_FIGURES.json");
    eprintln!(
        "# wrote {} ({} records)",
        figures_path.display(),
        records.len()
    );
}

fn sec33() {
    let cores = Topology::discover().num_cores();
    println!("## §3.3 — cost of dedicating one core to communication\n");
    println!(
        "analytic model: 1/{cores} of compute throughput = {:.1} % \
         (paper: up to 25 % on a quad-core)\n",
        100.0 * nm_bench::compute_loss::ComputeLoss::analytic(cores)
    );
    let r = nm_bench::compute_loss::measure(cores, Duration::from_millis(500));
    println!(
        "measured on this host ({} cores): baseline {:.0} iters/s, \
         with dedicated poller {:.0} iters/s -> {:.1} % loss\n",
        r.cores,
        r.baseline_rate,
        r.with_poller_rate,
        100.0 * r.loss()
    );
}
