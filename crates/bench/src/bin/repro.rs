//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--seed N] [--threads N] [--overlap] [--shards N]
//!       [--env flat|hierarchical] [--nodes N]
//!       [--selector round-robin|least-loaded|policy|fcfs|easy|conservative]
//!       [--trace uniform|bursty|skewed|heavy-tail|colocate|staggered]
//!       [--walltime-err F] [--reps N] [--quantize]
//!       [--source trace|poisson|bursty] [--rate F] [--duration F]
//!       [--users N] [--user-skew F] [--quota N] [--slo F]
//!       [--checkpoint PATH] [--restore PATH]
//!       [--out DIR] <command>
//!
//! commands:
//!   table4    benchmark classification (Table IV)
//!   table5    evaluation queues (Table V)
//!   table7    partition spaces per concurrency (Table VII) + MIG combos
//!   fig3      throughput vs MPS compute split, three mixes
//!   fig4      bandwidth partitioning benefit (shared vs private)
//!   fig5      partition variant comparison, four-program mix
//!   fig8      throughput: five policies x Q1..Q12 + AM
//!   fig9      average throughput vs window size W
//!   fig10     average throughput vs Cmax
//!   fig11     per-application slowdown
//!   fig12     fairness
//!   overhead  online decision latency + offline training cost
//!   oracle    oracle-greedy reference throughput
//!   cluster   multi-node placement comparison (§VI) vs the
//!             single-node baseline
//!   bench-cluster  timing statistics: the barrier engine on large
//!             seeded traces; writes BENCH_6.json
//!   serve     online scheduler service (hrp-serve): streams arrivals
//!             through incremental decision cycles; the default bench
//!             mode writes BENCH_8.json, while --source/--checkpoint/
//!             --restore run one live service with kill/resume
//!   bench-infer  deployed-inference latency: the hrp-nn fast path
//!             (scalar and SIMD kernels) vs the allocating predict
//!             reference, equivalence-checked; writes BENCH_10.json
//!             (--quantize adds the opt-in int8 row, gated on greedy
//!             agreement)
//!   ablate-reward | ablate-agent | ablate-interference
//!   all       everything above except bench-cluster, serve, and
//!             bench-infer (fig8/11/12 share one training run)
//! ```
//!
//! `--quick` shrinks the network and episode count for smoke runs; the
//! defaults reproduce the paper-scale configuration. `--threads N` caps
//! the training-rollout, evaluation, and placement-training worker
//! threads (default: available parallelism); results are identical for
//! any thread count.
//! `--overlap` double-buffers training rounds (one round of policy
//! staleness, learner latency hidden behind rollouts) and `--shards N`
//! shards the replay path; both change training semantics
//! deterministically — see `ARCHITECTURE.md`. `--env hierarchical`
//! trains the paper's two-level MIG → MPS formulation instead of the
//! flat 29-action catalog; evaluation tables then carry a flat-trained
//! reference row alongside the hierarchical agent and the heuristics.
//! `--nodes N` sizes the `cluster` command's simulated cluster,
//! `--trace` picks the evaluation trace kind (see
//! `hrp_cluster::trace`), and `--selector` its placement policy —
//! `--selector policy` first trains an RL placement agent on
//! same-kind traces (reward = the realized simulation, see
//! `hrp_cluster::place`) and reports it beside the round-robin and
//! least-loaded rows, while `--selector easy` (or `conservative`)
//! runs the slot-tree backfilling planner (see
//! `hrp_cluster::backfill`) and reports it beside the strict-FCFS
//! row and the other backfill policy. `--walltime-err F` (default 0,
//! valid range `[0, 1)`) perturbs the walltime *estimates* the
//! planner schedules against by up to ±F of the true duration — the
//! simulated runtimes themselves never change. With `--nodes 1` the
//! multi-node path reproduces the single-node simulator bit-for-bit,
//! and the trained policy — and with it the merged timeline — is
//! identical for any `--threads` value. `--reps N` overrides the
//! `bench-cluster` repetition count (default: 3 with `--quick`, 5
//! otherwise); the harness writes its statistics to `BENCH_6.json` in
//! the working directory.
//!
//! The `serve` command runs the online scheduler service
//! (`hrp-serve`). With the default `--source trace` and no checkpoint
//! flags it benches the service — every trace kind × {incremental,
//! full} cycle mode, digest-checked against the batch oracle — and
//! writes `BENCH_8.json` (`--reps` overrides the repetition count as
//! for `bench-cluster`). Any of `--source poisson|bursty` (an
//! open-loop load generator offering `--rate` jobs per simulated
//! second until `--duration` seconds), `--checkpoint PATH` (write a
//! live `HRPS` snapshot mid-run, then keep going), or
//! `--restore PATH` (rebuild a killed service from its snapshot and
//! drain it) switches to a single service run reporting one
//! `serve_run` table and a `# digest` line — a restored run's digest
//! is bit-identical to the uninterrupted one's.
//!
//! `--users N` tags arrivals with `N` Zipf-skewed tenants
//! (`--user-skew` overrides the exponent) and puts the admission
//! tier in front of the selector. With the default `--source trace`
//! and no checkpoint flags, `serve --users` runs the *fairness*
//! bench instead of the throughput bench: admission-controlled
//! fair-share versus the plain FCFS front door on the skewed and
//! bursty traces, per-tenant slowdown spread and Jain's index
//! reported per row and persisted as `BENCH_9.json` (the harness
//! pins its own quota/half-life, so `--quota`/`--slo`/`--user-skew`
//! are rejected there; at the pinned seed/tenant defaults it also
//! asserts the acceptance gate — Jain strictly improves at ≤ 2 %
//! makespan cost). On a single service run (a load generator,
//! `--checkpoint`) the knobs apply directly: `--quota N` caps each
//! tenant's in-flight jobs and `--slo F` rejects arrivals whose
//! projected slowdown exceeds `F`; the report gains the
//! deferred/rejected counters and a `# admission digest` line.
//! `repro cluster --users N` tags the evaluation trace the same way
//! and appends a `cluster_fairness` table (per-tenant Jain/spread
//! per selector row). `--restore` rebuilds the tagged source and
//! admission tier from the snapshot, so the fairness flags are
//! rejected there.
//!
//! The `bench-infer` command times one greedy placement decision
//! through the `hrp-nn` deployed-inference fast path — the `predict`
//! reference, the scalar kernel, and the auto-detected SIMD kernel —
//! asserting all variants pick identical actions and that the fast
//! path beats the reference before writing `BENCH_10.json`.
//! `--quantize` adds the opt-in int8 row, gated on greedy agreement
//! with the exact path; quantization is never on by default.
//!
//! Malformed invocations (unknown flags or commands, missing or
//! unparsable values, `--shards 0`, `--nodes 0`, `--walltime-err`
//! outside `[0, 1)` (or NaN), `--reps 0`, `--rate`/`--duration`
//! zero, negative, or non-finite, `--users 0`, `--user-skew` zero, negative, or NaN,
//! `--quota 0`, `--slo` zero, negative, or NaN,
//! `--user-skew`/`--quota`/`--slo` without `--users`,
//! `--env`/`--selector`/`--trace`/`--source` typos,
//! `--checkpoint` colliding with `--restore`, `serve --selector
//! policy`, fairness flags combined with `--restore`, `--quantize`
//! outside `bench-infer`) exit with status 2 and a usage message
//! rather than panicking or silently defaulting.

use hrp_bench::eval::{
    ablate_agent, ablate_interference, ablate_reward, evaluation_queues, run_full, FullEvaluation,
};
use hrp_bench::obs::{fig3_mps_sweep, fig4_bandwidth, fig5_variants, FIG5_MIX};
use hrp_bench::report::{f3, Table};
use hrp_cluster::multinode::MAX_NODES;
use hrp_cluster::trace::TraceKind;
use hrp_cluster::SelectorKind;
use hrp_core::actions::{mig_mps_space, mps_only_space, training_search_space};
use hrp_core::metrics::arithmetic_mean;
use hrp_core::rl::EnvKind;
use hrp_core::train::TrainConfig;
use hrp_gpusim::mig::valid_gi_combinations;
use hrp_gpusim::GpuArch;
use hrp_serve::LoadShape;
use hrp_workloads::class::{classify, one_gpc_degradation};
use hrp_workloads::queue::table_v_category;
use hrp_workloads::Suite;
use std::path::PathBuf;

struct Options {
    quick: bool,
    seed: u64,
    out: Option<PathBuf>,
    /// Training-rollout, evaluation, and placement-training worker
    /// threads (0 = available parallelism).
    threads: usize,
    /// Double-buffered (overlapped) training rounds.
    overlap: bool,
    /// Replay shards (1 = classic single ring).
    shards: usize,
    /// Environment formulation the RL agent trains on.
    env: EnvKind,
    /// Simulated nodes for the `cluster` command.
    nodes: usize,
    /// Placement policy for the `cluster` command.
    selector: SelectorKind,
    /// Trace kind for the `cluster` command.
    trace: TraceKind,
    /// Walltime-estimate error fraction for the backfill selectors.
    walltime_err: f64,
    /// `bench-cluster`/`serve`/`bench-infer` repetitions (`0` = the
    /// mode default).
    reps: usize,
    /// `bench-infer`: also time the opt-in int8 variant.
    quantize: bool,
    /// Arrival source of the `serve` command.
    source: ServeSource,
    /// `serve` load-generator offered rate (jobs per simulated second).
    rate: f64,
    /// `serve` load-generator horizon (simulated seconds).
    duration: f64,
    /// `serve`: write a live `HRPS` snapshot here mid-run.
    checkpoint: Option<PathBuf>,
    /// `serve`: rebuild a killed service from this snapshot.
    restore: Option<PathBuf>,
    /// Tenants to tag arrivals with (0 = untagged, admission off).
    users: u32,
    /// Zipf exponent of the tenant popularity (`None` = the default).
    user_skew: Option<f64>,
    /// Per-tenant in-flight quota of the admission tier.
    quota: Option<usize>,
    /// Reject SLO (projected-slowdown bound) of the admission tier.
    slo: Option<f64>,
}

/// Where the `serve` command's arrivals come from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeSource {
    /// Replay a finite generated trace (the default; bench mode when
    /// no checkpoint flags are given).
    Trace,
    /// Open-loop load generator with this arrival shape.
    Load(LoadShape),
}

impl Options {
    fn train_cfg(&self) -> TrainConfig {
        let mut cfg = TrainConfig::paper();
        cfg.seed = self.seed;
        cfg.n_workers = self.threads;
        cfg.overlap = self.overlap;
        cfg.shards = self.shards;
        cfg.env = self.env;
        if self.quick {
            cfg.hidden = vec![128, 64];
            cfg.episodes = 400;
        }
        cfg
    }

    /// A cheaper configuration for the many-training commands
    /// (fig9/fig10/ablations train several agents).
    fn sweep_cfg(&self) -> TrainConfig {
        let mut cfg = self.train_cfg();
        if !self.quick {
            cfg.hidden = vec![256, 128, 64];
            cfg.episodes = 400;
        }
        cfg
    }
}

const USAGE: &str = "usage: repro [--quick] [--seed N] [--threads N] [--overlap] [--shards N] \
[--env flat|hierarchical] [--nodes N] \
[--selector round-robin|least-loaded|policy|fcfs|easy|conservative] \
[--trace uniform|bursty|skewed|heavy-tail|colocate|staggered] \
[--walltime-err F] [--reps N] [--quantize] \
[--source trace|poisson|bursty] [--rate F] [--duration F] \
[--users N] [--user-skew F] [--quota N] [--slo F] \
[--checkpoint PATH] [--restore PATH] \
[--out DIR|--no-out] <command>
commands: table4 table5 table7 fig3 fig4 fig5 fig8 fig9 fig10 fig11 fig12
          overhead oracle cluster bench-cluster serve bench-infer
          ablate-reward ablate-agent ablate-interference all";

/// Reject a malformed invocation: message + usage, exit status 2 (never
/// a panic, never a silent default).
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value of a flag that requires one, or a usage error.
fn flag_value<'a, I: Iterator<Item = &'a String>>(args: &mut I, flag: &str) -> &'a str {
    match args.next() {
        Some(v) => v,
        None => fail(&format!("{flag} requires a value")),
    }
}

/// Parse a flag value, or a usage error naming the bad input.
fn parse_flag<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects a number, got '{raw}'")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        quick: false,
        seed: 42,
        out: Some(PathBuf::from("results")),
        threads: 0,
        overlap: false,
        shards: 1,
        env: EnvKind::Flat,
        nodes: 1,
        selector: SelectorKind::RoundRobin,
        trace: TraceKind::Staggered,
        walltime_err: 0.0,
        reps: 0,
        quantize: false,
        source: ServeSource::Trace,
        rate: 8.0,
        duration: 60.0,
        checkpoint: None,
        restore: None,
        users: 0,
        user_skew: None,
        quota: None,
        slo: None,
    };
    let mut cmd: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => opts.seed = parse_flag("--seed", flag_value(&mut it, "--seed")),
            "--out" => opts.out = Some(PathBuf::from(flag_value(&mut it, "--out"))),
            "--no-out" => opts.out = None,
            "--threads" => {
                opts.threads = parse_flag("--threads", flag_value(&mut it, "--threads"));
            }
            "--overlap" => opts.overlap = true,
            "--shards" => {
                let raw = flag_value(&mut it, "--shards");
                let n: usize = parse_flag("--shards", raw);
                if n == 0 {
                    fail("--shards must be at least 1 (got '0')");
                }
                opts.shards = n;
            }
            "--env" => {
                let raw = flag_value(&mut it, "--env");
                opts.env = EnvKind::parse(raw).unwrap_or_else(|bad| {
                    fail(&format!(
                        "unknown --env value '{bad}' (expected 'flat' or 'hierarchical')"
                    ))
                });
            }
            "--nodes" => {
                let raw = flag_value(&mut it, "--nodes");
                let n: usize = parse_flag("--nodes", raw);
                if !(1..=MAX_NODES).contains(&n) {
                    fail(&format!("--nodes must be in 1..={MAX_NODES} (got '{raw}')"));
                }
                opts.nodes = n;
            }
            "--selector" => {
                let raw = flag_value(&mut it, "--selector");
                opts.selector = SelectorKind::parse(raw).unwrap_or_else(|bad| {
                    fail(&format!(
                        "unknown --selector value '{bad}' \
                         (expected 'round-robin', 'least-loaded', 'policy', \
                         'fcfs', 'easy', or 'conservative')"
                    ))
                });
            }
            "--walltime-err" => {
                let raw = flag_value(&mut it, "--walltime-err");
                let f: f64 = parse_flag("--walltime-err", raw);
                // NaN fails the containment check too; reject it
                // alongside the out-of-range values rather than
                // silently defaulting.
                if !(0.0..1.0).contains(&f) {
                    fail(&format!("--walltime-err must be in [0, 1) (got '{raw}')"));
                }
                opts.walltime_err = f;
            }
            "--reps" => {
                let raw = flag_value(&mut it, "--reps");
                let n: usize = parse_flag("--reps", raw);
                if n == 0 {
                    fail("--reps must be at least 1 (got '0')");
                }
                opts.reps = n;
            }
            "--quantize" => opts.quantize = true,
            "--source" => {
                let raw = flag_value(&mut it, "--source");
                opts.source = match raw {
                    "trace" => ServeSource::Trace,
                    "poisson" => ServeSource::Load(LoadShape::Poisson),
                    "bursty" => ServeSource::Load(LoadShape::Bursty),
                    bad => fail(&format!(
                        "unknown --source value '{bad}' \
                         (expected 'trace', 'poisson', or 'bursty')"
                    )),
                };
            }
            "--rate" => {
                let raw = flag_value(&mut it, "--rate");
                let r: f64 = parse_flag("--rate", raw);
                // NaN fails the comparison too; reject it alongside
                // zero and the negatives.
                if !(r.is_finite() && r > 0.0) {
                    fail(&format!("--rate must be positive and finite (got '{raw}')"));
                }
                opts.rate = r;
            }
            "--duration" => {
                let raw = flag_value(&mut it, "--duration");
                let d: f64 = parse_flag("--duration", raw);
                if !(d.is_finite() && d > 0.0) {
                    fail(&format!(
                        "--duration must be positive and finite (got '{raw}')"
                    ));
                }
                opts.duration = d;
            }
            "--users" => {
                let raw = flag_value(&mut it, "--users");
                let n: u32 = parse_flag("--users", raw);
                if n == 0 {
                    fail("--users must be at least 1 (omit the flag for an untagged trace)");
                }
                opts.users = n;
            }
            "--user-skew" => {
                let raw = flag_value(&mut it, "--user-skew");
                let s: f64 = parse_flag("--user-skew", raw);
                // NaN fails the comparison too; reject it alongside
                // zero and the negatives.
                if !(s.is_finite() && s > 0.0) {
                    fail(&format!(
                        "--user-skew must be positive and finite (got '{raw}')"
                    ));
                }
                opts.user_skew = Some(s);
            }
            "--quota" => {
                let raw = flag_value(&mut it, "--quota");
                let n: usize = parse_flag("--quota", raw);
                if n == 0 {
                    fail("--quota must be at least 1 (nothing could ever be admitted)");
                }
                opts.quota = Some(n);
            }
            "--slo" => {
                let raw = flag_value(&mut it, "--slo");
                let s: f64 = parse_flag("--slo", raw);
                // Infinity is allowed (never reject); NaN, zero, and
                // the negatives are not.
                if s.is_nan() || s <= 0.0 {
                    fail(&format!("--slo must be positive (got '{raw}')"));
                }
                opts.slo = Some(s);
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(flag_value(&mut it, "--checkpoint")));
            }
            "--restore" => {
                opts.restore = Some(PathBuf::from(flag_value(&mut it, "--restore")));
            }
            "--trace" => {
                let raw = flag_value(&mut it, "--trace");
                opts.trace = TraceKind::parse(raw).unwrap_or_else(|bad| {
                    fail(&format!(
                        "unknown --trace value '{bad}' (expected 'uniform', 'bursty', \
                         'skewed', 'heavy-tail', 'colocate', or 'staggered')"
                    ))
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag '{flag}'")),
            other => {
                if let Some(first) = cmd {
                    fail(&format!("unexpected argument '{other}' after '{first}'"));
                }
                cmd = Some(other);
            }
        }
    }
    let Some(cmd) = cmd else {
        fail("missing command");
    };
    if opts.users == 0 && (opts.user_skew.is_some() || opts.quota.is_some() || opts.slo.is_some()) {
        fail("--user-skew/--quota/--slo require --users (tenant-tagged arrivals)");
    }
    if opts.quantize && cmd != "bench-infer" {
        fail("--quantize only applies to bench-infer (quantization is opt-in, never a default)");
    }

    let suite = Suite::paper_suite(&GpuArch::a100());
    match cmd {
        "table4" => table4(&suite, &opts),
        "table5" => table5(&suite, &opts),
        "table7" => table7(&opts),
        "fig3" => fig3(&suite, &opts),
        "fig4" => fig4(&suite, &opts),
        "fig5" => fig5(&suite, &opts),
        "fig8" => {
            let full = run_full(&suite, opts.train_cfg());
            emit_fig8(&full, &opts);
        }
        "fig9" => fig9(&suite, &opts),
        "fig10" => fig10(&suite, &opts),
        "fig11" => {
            let full = run_full(&suite, opts.train_cfg());
            emit_fig11(&full, &opts);
        }
        "fig12" => {
            let full = run_full(&suite, opts.train_cfg());
            emit_fig12(&full, &opts);
        }
        "overhead" => {
            let full = run_full(&suite, opts.train_cfg());
            emit_overhead(&full, &opts);
        }
        "ablate-reward" => {
            emit_pairs(
                "ablate_reward",
                "reward shaping",
                &ablate_reward(&suite, opts.sweep_cfg()),
                &opts,
            );
        }
        "ablate-agent" => {
            emit_pairs(
                "ablate_agent",
                "agent architecture",
                &ablate_agent(&suite, opts.sweep_cfg()),
                &opts,
            );
        }
        "ablate-interference" => ablate_interference_cmd(&suite, &opts),
        "oracle" => oracle_cmd(&suite, &opts),
        "cluster" => cluster_cmd(&suite, &opts),
        "bench-cluster" => bench_cluster_cmd(&suite, &opts),
        "bench-infer" => bench_infer_cmd(&opts),
        "serve" => serve_cmd(&suite, &opts),
        "all" => {
            table4(&suite, &opts);
            table5(&suite, &opts);
            table7(&opts);
            fig3(&suite, &opts);
            fig4(&suite, &opts);
            fig5(&suite, &opts);
            let full = run_full(&suite, opts.train_cfg());
            emit_fig8(&full, &opts);
            emit_fig11(&full, &opts);
            emit_fig12(&full, &opts);
            emit_overhead(&full, &opts);
            fig9(&suite, &opts);
            fig10(&suite, &opts);
            emit_pairs(
                "ablate_reward",
                "reward shaping",
                &ablate_reward(&suite, opts.sweep_cfg()),
                &opts,
            );
            emit_pairs(
                "ablate_agent",
                "agent architecture",
                &ablate_agent(&suite, opts.sweep_cfg()),
                &opts,
            );
            ablate_interference_cmd(&suite, &opts);
            cluster_cmd(&suite, &opts);
        }
        other => fail(&format!("unknown command '{other}'")),
    }
}

fn table4(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&[
        "benchmark",
        "table_iv_class",
        "unseen",
        "1gpc_degradation",
        "sm_over_mem",
        "classified",
    ]);
    for b in suite.benchmarks() {
        t.row(vec![
            b.app.name.clone(),
            b.class.to_string(),
            if b.unseen { "*" } else { "" }.into(),
            f3(one_gpc_degradation(&b.app, suite.arch())),
            f3(b.app.compute_memory_ratio()),
            classify(&b.app, suite.arch()).to_string(),
        ]);
    }
    t.emit("table4_classification", opts.out.as_deref());
}

fn table5(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["queue", "category", "ci", "mi", "us", "jobs"]);
    for (i, q) in evaluation_queues(suite, 12, opts.seed).iter().enumerate() {
        let (ci, mi, us) = q.class_counts(suite);
        let names: Vec<&str> = q.jobs.iter().map(|j| j.name.as_str()).collect();
        t.row(vec![
            q.label.clone(),
            format!("{:?}", table_v_category(i)),
            ci.to_string(),
            mi.to_string(),
            us.to_string(),
            names.join(","),
        ]);
    }
    t.emit("table5_queues", opts.out.as_deref());
}

fn table7(opts: &Options) {
    let mut t = Table::new(&["concurrency", "family", "count", "setups"]);
    for c in 2..=4usize {
        let mps: Vec<String> = mps_only_space(c).iter().map(ToString::to_string).collect();
        t.row(vec![
            c.to_string(),
            "MPS only".into(),
            mps.len().to_string(),
            mps.join("; "),
        ]);
        let hier: Vec<String> = mig_mps_space(c)
            .iter()
            .filter(|s| s.uses_mig())
            .map(ToString::to_string)
            .collect();
        t.row(vec![
            c.to_string(),
            "MIG+MPS".into(),
            hier.len().to_string(),
            // The full C=4 list is long; elide the middle like the paper.
            if hier.len() > 6 {
                format!("{}; ...; {}", hier[..3].join("; "), hier[hier.len() - 1])
            } else {
                hier.join("; ")
            },
        ]);
    }
    let combos = valid_gi_combinations(true);
    let rendered: Vec<String> = combos
        .iter()
        .map(|c| {
            c.iter()
                .map(|p| format!("{}g", p.compute_slices()))
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    t.row(vec![
        "-".into(),
        "maximal MIG GI combinations".into(),
        combos.len().to_string(),
        rendered.join("; "),
    ]);
    t.emit("table7_partitions", opts.out.as_deref());
}

fn fig3(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["mix", "share_app1", "rel_throughput", "best_share"]);
    for sweep in fig3_mps_sweep(suite) {
        for (share, tp) in &sweep.points {
            t.row(vec![
                sweep.mix.clone(),
                f3(*share),
                f3(*tp),
                f3(sweep.best_share),
            ]);
        }
    }
    t.emit("fig3_mps_sweep", opts.out.as_deref());
}

fn fig4(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["mix", "orientation", "shared", "private", "gain"]);
    for c in fig4_bandwidth(suite) {
        t.row(vec![
            c.mix.clone(),
            c.orientation.clone(),
            f3(c.shared),
            f3(c.private),
            f3(c.private / c.shared),
        ]);
    }
    t.emit("fig4_bandwidth", opts.out.as_deref());
}

fn fig5(suite: &Suite, opts: &Options) {
    println!("# fig5 mix: {}", FIG5_MIX.join(", "));
    let mut t = Table::new(&["option", "rel_throughput", "best_setup"]);
    for v in fig5_variants(suite) {
        t.row(vec![v.option.clone(), f3(v.throughput), v.detail.clone()]);
    }
    t.emit("fig5_variants", opts.out.as_deref());
}

fn emit_fig8(full: &FullEvaluation, opts: &Options) {
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(full.queues.iter().map(|q| q.label.clone()));
    header.push("AM".into());
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    for run in &full.runs {
        let mut row = vec![run.policy.clone()];
        row.extend(run.metrics.iter().map(|m| f3(m.throughput)));
        row.push(f3(run.mean_throughput()));
        t.row(row);
    }
    t.emit("fig8_throughput", opts.out.as_deref());
}

fn emit_fig11(full: &FullEvaluation, opts: &Options) {
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(full.queues.iter().map(|q| q.label.clone()));
    header.push("AM".into());
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    for run in &full.runs {
        let mut row = vec![run.policy.clone()];
        row.extend(run.metrics.iter().map(|m| f3(m.avg_slowdown)));
        row.push(f3(run.mean_slowdown()));
        t.row(row);
    }
    t.emit("fig11_slowdown", opts.out.as_deref());
}

fn emit_fig12(full: &FullEvaluation, opts: &Options) {
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(full.queues.iter().map(|q| q.label.clone()));
    header.push("AM".into());
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    for run in &full.runs {
        let mut row = vec![run.policy.clone()];
        row.extend(run.metrics.iter().map(|m| f3(m.fairness)));
        row.push(f3(run.mean_fairness()));
        t.row(row);
    }
    t.emit("fig12_fairness", opts.out.as_deref());
}

fn emit_overhead(full: &FullEvaluation, opts: &Options) {
    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        "online decision latency per window [ms]".into(),
        f3(full.online_decision_ms),
    ]);
    // The RL row is last (a hierarchical run adds a flat reference row
    // before it, so the index is not fixed).
    let rl_run = full.runs.last().expect("runs never empty");
    let mean_window_secs = arithmetic_mean(&rl_run.metrics, |m| m.total_time);
    t.row(vec![
        "mean window runtime (RL) [s]".into(),
        f3(mean_window_secs),
    ]);
    t.row(vec![
        "online overhead [% of window runtime]".into(),
        f3(full.online_decision_ms / 10.0 / mean_window_secs),
    ]);
    t.row(vec![
        "offline training wall time [s]".into(),
        f3(full.train_secs),
    ]);
    t.row(vec![
        "training search-space bound (W=12, Cmax=4)".into(),
        format!("{:.3e}", training_search_space(12, 4)),
    ]);
    t.emit("overhead", opts.out.as_deref());
}

fn fig9(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["policy", "W", "mean_throughput"]);
    for w in [4usize, 8, 12, 16] {
        let mut cfg = opts.sweep_cfg();
        cfg.w = w;
        let full = run_full(suite, cfg);
        for run in &full.runs {
            t.row(vec![
                run.policy.clone(),
                w.to_string(),
                f3(run.mean_throughput()),
            ]);
        }
    }
    t.emit("fig9_window_scaling", opts.out.as_deref());
}

fn fig10(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["policy", "Cmax", "mean_throughput"]);
    for cmax in [2usize, 3, 4] {
        let mut cfg = opts.sweep_cfg();
        cfg.cmax = cmax;
        let full = run_full(suite, cfg);
        for run in &full.runs {
            t.row(vec![
                run.policy.clone(),
                cmax.to_string(),
                f3(run.mean_throughput()),
            ]);
        }
    }
    t.emit("fig10_cmax_scaling", opts.out.as_deref());
}

fn emit_pairs(name: &str, what: &str, rows: &[(String, f64)], opts: &Options) {
    let mut t = Table::new(&[what, "mean_throughput"]);
    for (label, tp) in rows {
        t.row(vec![label.clone(), f3(*tp)]);
    }
    t.emit(name, opts.out.as_deref());
}

fn oracle_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::eval::eval_policy;
    use hrp_core::policies::OracleGreedy;
    let queues = evaluation_queues(suite, 12, opts.seed);
    let oracle = OracleGreedy::new(suite);
    let run = eval_policy(suite, &queues, 4, &oracle, opts.threads);
    let mut t = Table::new(&["queue", "throughput"]);
    for m in &run.metrics {
        t.row(vec![m.label.clone(), f3(m.throughput)]);
    }
    t.row(vec!["AM".into(), f3(run.mean_throughput())]);
    t.emit("oracle_reference", opts.out.as_deref());
}

fn cluster_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::cluster::{evaluation_trace_cfg, placement_comparison, ComparisonOptions};
    use hrp_cluster::trace::generate;
    // 96 jobs even under --quick: shorter traces leave the backfill
    // selectors too few blocked gangs to be distinguishable from FCFS.
    let n_jobs = if opts.quick { 96 } else { 144 };
    let mut trace_cfg = evaluation_trace_cfg(opts.trace, n_jobs, opts.seed);
    if opts.users > 0 {
        trace_cfg = trace_cfg.users(opts.users);
        if let Some(skew) = opts.user_skew {
            trace_cfg = trace_cfg.user_skew(skew);
        }
    }
    let jobs = generate(suite, &trace_cfg);
    // A policy run always shows the heuristics it is measured against,
    // and a backfilling run the other backfill policies; the requested
    // selector is always the last (focus) row. A plain heuristic run
    // shows just the requested row.
    let kinds: Vec<SelectorKind> = match opts.selector {
        SelectorKind::Policy => vec![
            SelectorKind::RoundRobin,
            SelectorKind::LeastLoaded,
            SelectorKind::Policy,
        ],
        SelectorKind::Easy => vec![
            SelectorKind::Fcfs,
            SelectorKind::Conservative,
            SelectorKind::Easy,
        ],
        SelectorKind::Conservative => vec![
            SelectorKind::Fcfs,
            SelectorKind::Easy,
            SelectorKind::Conservative,
        ],
        other => vec![other],
    };
    let cmp = placement_comparison(
        suite,
        &kinds,
        opts.trace,
        &jobs,
        ComparisonOptions {
            nodes: opts.nodes,
            seed: opts.seed,
            quick: opts.quick,
            threads: opts.threads,
            walltime_err: opts.walltime_err,
        },
    );
    println!(
        "# cluster: {} node(s) x {} GPUs, selector {}, trace {}, {} jobs, \
         walltime-err {}",
        opts.nodes,
        hrp_bench::cluster::GPUS_PER_NODE,
        opts.selector.name(),
        opts.trace.name(),
        n_jobs,
        opts.walltime_err
    );
    if let Some((agent, report)) = &cmp.training {
        println!(
            "# policy training: {} episodes over {} {} traces, late return {:.3}",
            agent.config().episodes,
            agent.config().n_traces,
            agent.config().trace.kind.name(),
            report.late_return
        );
    }
    let mut t = Table::new(&[
        "row",
        "jobs",
        "placements",
        "makespan",
        "utilization",
        "avg_wait",
        "throughput",
        "speedup_vs_1node",
        "digest",
    ]);
    // Per-node rows for the *requested* selector's run (the last row).
    let focus = cmp.rows.last().expect("at least one selector");
    for n in &focus.report.per_node {
        t.row(vec![
            format!("node{}", n.node),
            n.jobs.to_string(),
            n.placements.to_string(),
            f3(n.makespan),
            f3(n.utilization),
            f3(n.avg_wait),
            f3(n.throughput()),
            "-".into(),
            "-".into(),
        ]);
    }
    for row in &cmp.rows {
        let agg = &row.report.aggregate;
        t.row(vec![
            row.selector.clone(),
            row.report.completed_jobs().to_string(),
            agg.placements.to_string(),
            f3(agg.makespan),
            f3(agg.utilization),
            f3(agg.avg_wait),
            f3(row.report.throughput()),
            f3(row.speedup()),
            format!("{:016x}", row.report.timeline.digest()),
        ]);
    }
    let baseline = &focus.baseline;
    t.row(vec![
        "single-node baseline".into(),
        n_jobs.to_string(),
        baseline.placements.to_string(),
        f3(baseline.makespan),
        f3(baseline.utilization),
        f3(baseline.avg_wait),
        f3(n_jobs as f64 / baseline.makespan),
        f3(1.0),
        "-".into(),
    ]);
    t.emit("cluster_scaling", opts.out.as_deref());

    // `--users N` tags the trace with Zipf-skewed tenants; report the
    // per-tenant slowdown balance every selector row achieved.
    if opts.users > 0 {
        use hrp_cluster::fair::user_fairness;
        let mut ft = Table::new(&["row", "tenants", "jain", "spread"]);
        for row in &cmp.rows {
            let fairness = user_fairness(suite, &jobs, &row.report.timeline.events);
            ft.row(vec![
                row.selector.clone(),
                fairness.per_user.len().to_string(),
                f3(fairness.jain),
                f3(fairness.spread),
            ]);
        }
        ft.emit("cluster_fairness", opts.out.as_deref());
    }
}

fn bench_cluster_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::bench_cluster::{render_json, run_bench, BenchConfig, BENCH_NODES};
    let cfg = BenchConfig {
        quick: opts.quick,
        seed: opts.seed,
        reps: opts.reps,
    };
    println!(
        "# bench-cluster: {} nodes, {} jobs/trace, {} reps",
        BENCH_NODES,
        cfg.jobs(),
        cfg.effective_reps()
    );
    let report = run_bench(suite, &cfg);
    let mut t = Table::new(&[
        "trace",
        "mean_ms",
        "std_err_ms",
        "ci95_lo_ms",
        "ci95_hi_ms",
        "sync_rounds",
        "digest",
    ]);
    for tr in &report.traces {
        t.row(vec![
            tr.kind.name().to_owned(),
            f3(tr.time_ms.mean),
            f3(tr.time_ms.std_err),
            f3(tr.time_ms.ci95_lo),
            f3(tr.time_ms.ci95_hi),
            tr.sync.sync_rounds.to_string(),
            format!("{:016x}", tr.digest),
        ]);
    }
    t.emit("bench_cluster", opts.out.as_deref());
    let json = render_json(&report);
    std::fs::write("BENCH_6.json", &json).expect("write BENCH_6.json");
    println!("# wrote BENCH_6.json");
}

fn bench_infer_cmd(opts: &Options) {
    use hrp_bench::infer::{
        render_infer_json, run_infer_bench, InferBenchConfig, INFER_BENCH_GPUS_PER_NODE,
        INFER_BENCH_NODES,
    };
    let cfg = InferBenchConfig {
        quick: opts.quick,
        seed: opts.seed,
        reps: opts.reps,
        quantize: opts.quantize,
    };
    println!(
        "# bench-infer: {} nodes x {} GPUs, hidden {:?}, {} states, \
         {} decisions/rep, {} reps{}",
        INFER_BENCH_NODES,
        INFER_BENCH_GPUS_PER_NODE,
        cfg.hidden(),
        cfg.states(),
        cfg.decisions(),
        cfg.effective_reps(),
        if cfg.quantize { ", +int8" } else { "" }
    );
    let report = run_infer_bench(&cfg);
    if let Some(a) = report.int8_agreement {
        println!("# int8 greedy agreement {a:.4}");
    }
    let mut t = Table::new(&[
        "variant",
        "kernel",
        "ns_per_decision",
        "std_err",
        "ci95_lo",
        "ci95_hi",
        "p50_ns",
        "p99_ns",
        "digest",
    ]);
    for v in &report.variants {
        t.row(vec![
            v.variant.to_owned(),
            v.kernel.to_owned(),
            f3(v.ns_per_decision.mean),
            f3(v.ns_per_decision.std_err),
            f3(v.ns_per_decision.ci95_lo),
            f3(v.ns_per_decision.ci95_hi),
            f3(v.p50_ns),
            f3(v.p99_ns),
            format!("{:016x}", v.actions_digest),
        ]);
    }
    t.emit("bench_infer", opts.out.as_deref());
    let json = render_infer_json(&report);
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    println!("# wrote BENCH_10.json");
}

fn serve_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::serve::{serve_bench_trace_cfg, ServeBenchConfig, SERVE_BENCH_GPUS_PER_NODE};
    use hrp_serve::{
        restore_file, AdmissionConfig, LoadGen, SchedulerService, ServeConfig, TraceSource,
    };

    if opts.selector == SelectorKind::Policy {
        fail(
            "serve does not train placement agents; \
             pick a heuristic --selector (or restore a checkpointed policy service)",
        );
    }
    if let (Some(c), Some(r)) = (&opts.checkpoint, &opts.restore) {
        if c == r {
            fail(&format!(
                "--checkpoint and --restore name the same path {c:?}; \
                 refusing to overwrite the snapshot being restored"
            ));
        }
        fail(
            "--checkpoint cannot be combined with --restore (restore, then checkpoint a later run)",
        );
    }
    if opts.restore.is_some() && opts.users > 0 {
        fail(
            "--restore rebuilds the tagged source and admission tier from the snapshot; \
             --users/--user-skew/--quota/--slo have no effect there",
        );
    }

    // Restore mode: rebuild the killed service and drain it.
    if let Some(path) = &opts.restore {
        let mut service = restore_file(suite, path)
            .unwrap_or_else(|e| fail(&format!("--restore {}: {e:?}", path.display())));
        println!(
            "# serve: restored {} — {} node(s) x {} GPUs, selector {}, \
             {} jobs already consumed",
            path.display(),
            service.config().nodes,
            service.config().gpus_per_node,
            service.selector_kind().name(),
            service.consumed()
        );
        service.run_to_close();
        emit_serve_run(opts, service.finish());
        return;
    }

    let bench_cfg = ServeBenchConfig {
        quick: opts.quick,
        seed: opts.seed,
        reps: opts.reps,
    };
    if opts.source == ServeSource::Trace && opts.checkpoint.is_none() {
        if opts.users > 0 {
            // The fairness harness pins its own admission knobs so the
            // asserted acceptance gate measures one fixed policy.
            if opts.quota.is_some() || opts.slo.is_some() || opts.user_skew.is_some() {
                fail(
                    "the serve fairness bench pins its admission knobs; \
                     --quota/--slo/--user-skew apply to single service runs \
                     (--source poisson|bursty, or --checkpoint)",
                );
            }
            fair_bench(suite, opts);
        } else {
            serve_bench(suite, opts, &bench_cfg);
        }
        return;
    }

    // Single service run (load generator and/or live checkpointing).
    let mut cfg =
        ServeConfig::new(opts.nodes, SERVE_BENCH_GPUS_PER_NODE).walltime_err(opts.walltime_err);
    let user_skew = opts
        .user_skew
        .unwrap_or(hrp_cluster::trace::DEFAULT_USER_SKEW);
    if opts.users > 0 {
        let mut acfg = AdmissionConfig::new();
        if let Some(q) = opts.quota {
            acfg = acfg.quota(q);
        }
        if let Some(s) = opts.slo {
            acfg = acfg.slo(s);
        }
        cfg = cfg.admission(acfg);
        println!(
            "# serve: admission on — {} tenants (skew {}), quota {}, slo {}",
            opts.users,
            user_skew,
            opts.quota
                .map_or_else(|| "unlimited".into(), |q| q.to_string()),
            opts.slo.map_or_else(|| "never".into(), |s| s.to_string()),
        );
    }
    match opts.source {
        ServeSource::Trace => {
            let mut trace_cfg = serve_bench_trace_cfg(opts.trace, &bench_cfg);
            if opts.users > 0 {
                trace_cfg = trace_cfg.users(opts.users).user_skew(user_skew);
            }
            println!(
                "# serve: {} node(s) x {} GPUs, selector {}, trace {} ({} jobs)",
                opts.nodes,
                SERVE_BENCH_GPUS_PER_NODE,
                opts.selector.name(),
                opts.trace.name(),
                trace_cfg.jobs
            );
            // Checkpoint halfway through the trace.
            let checkpoint_after = trace_cfg.jobs / 2;
            let service = SchedulerService::new(
                suite,
                cfg,
                opts.selector,
                TraceSource::new(suite, trace_cfg),
            );
            drive_serve_run(service, checkpoint_after, opts);
        }
        ServeSource::Load(shape) => {
            println!(
                "# serve: {} node(s) x {} GPUs, selector {}, {} load at \
                 {} jobs/s for {} s",
                opts.nodes,
                SERVE_BENCH_GPUS_PER_NODE,
                opts.selector.name(),
                shape.name(),
                opts.rate,
                opts.duration
            );
            let mut source = LoadGen::new(suite, shape, opts.rate, opts.duration, opts.seed);
            if opts.users > 0 {
                source = source.with_users(opts.users, user_skew);
            }
            // The horizon is open-ended in job count; checkpoint once
            // a small prefix is in flight.
            drive_serve_run(
                SchedulerService::new(suite, cfg, opts.selector, source),
                10,
                opts,
            );
        }
    }
}

/// Bench mode of `repro serve`: both cycle modes on every trace kind,
/// digest-checked against the batch oracle, persisted as
/// `BENCH_8.json`.
fn serve_bench(suite: &Suite, opts: &Options, cfg: &hrp_bench::serve::ServeBenchConfig) {
    use hrp_bench::serve::{
        render_serve_json, run_serve_bench, SERVE_BENCH_GPUS_PER_NODE, SERVE_BENCH_MEAN_GAP,
        SERVE_BENCH_NODES,
    };
    println!(
        "# serve: {} nodes x {} GPUs, {} jobs/trace, {} reps, mean gap {} s",
        SERVE_BENCH_NODES,
        SERVE_BENCH_GPUS_PER_NODE,
        cfg.jobs(),
        cfg.effective_reps(),
        SERVE_BENCH_MEAN_GAP
    );
    let report = run_serve_bench(suite, cfg);
    let mut t = Table::new(&[
        "trace",
        "mode",
        "decisions_per_sec",
        "std_err",
        "p50_us",
        "p99_us",
        "replanned",
        "skipped",
        "digest",
    ]);
    for tr in &report.traces {
        for m in &tr.modes {
            t.row(vec![
                tr.kind.name().to_owned(),
                m.mode.name().to_owned(),
                f3(m.decisions_per_sec.mean),
                f3(m.decisions_per_sec.std_err),
                f3(m.latency.p50_us),
                f3(m.latency.p99_us),
                m.stats.nodes_replanned.to_string(),
                m.stats.nodes_skipped.to_string(),
                format!("{:016x}", m.digest),
            ]);
        }
    }
    t.emit("serve_bench", opts.out.as_deref());
    let json = render_serve_json(&report);
    std::fs::write("BENCH_8.json", &json).expect("write BENCH_8.json");
    println!("# wrote BENCH_8.json");
}

/// Fairness-bench mode of `repro serve --users`: admission-controlled
/// fair share vs the plain FCFS front door on the skewed and bursty
/// traces, per-tenant Jain/spread per row, persisted as
/// `BENCH_9.json`. At the pinned configuration the harness asserts
/// the acceptance gate (Jain strictly improves at ≤ 2 % makespan
/// cost) before anything is written.
fn fair_bench(suite: &Suite, opts: &Options) {
    use hrp_bench::fair::{
        render_fair_json, run_fair_bench, FairBenchConfig, FAIR_BENCH_GPUS_PER_NODE,
        FAIR_BENCH_HALF_LIFE, FAIR_BENCH_NODES, FAIR_BENCH_QUOTA, FAIR_BENCH_USERS,
    };
    let cfg = FairBenchConfig {
        quick: opts.quick,
        seed: opts.seed,
        users: opts.users,
    };
    println!(
        "# serve-fair: {} nodes x {} GPUs, {} jobs/trace, {} tenants, \
         quota {}, half-life {} s",
        FAIR_BENCH_NODES,
        FAIR_BENCH_GPUS_PER_NODE,
        cfg.jobs(),
        cfg.users,
        FAIR_BENCH_QUOTA,
        FAIR_BENCH_HALF_LIFE
    );
    if !cfg.is_pinned() {
        println!(
            "# note: acceptance gate asserted only at the pinned \
             configuration (seed 42, {FAIR_BENCH_USERS} tenants)"
        );
    }
    let report = run_fair_bench(suite, &cfg);
    let mut t = Table::new(&[
        "trace", "policy", "makespan", "avg_wait", "jain", "spread", "deferred", "rejected",
        "digest",
    ]);
    for tr in &report.traces {
        for p in &tr.policies {
            t.row(vec![
                tr.kind.name().to_owned(),
                p.policy.to_owned(),
                f3(p.makespan),
                f3(p.avg_wait),
                f3(p.fairness.jain),
                f3(p.fairness.spread),
                p.deferred.to_string(),
                p.rejected.to_string(),
                format!("{:016x}", p.digest),
            ]);
        }
    }
    t.emit("serve_fair", opts.out.as_deref());
    let json = render_fair_json(&report);
    std::fs::write("BENCH_9.json", &json).expect("write BENCH_9.json");
    println!("# wrote BENCH_9.json");
}

/// Drive one live service run: optionally checkpoint once the source
/// has handed out `checkpoint_after` jobs, then drain to close and
/// report.
fn drive_serve_run<S: hrp_serve::ArrivalSource>(
    mut service: hrp_serve::SchedulerService<'_, S>,
    checkpoint_after: usize,
    opts: &Options,
) {
    use hrp_serve::ServiceStep;
    if let Some(path) = &opts.checkpoint {
        while service.consumed() < checkpoint_after {
            match service.step() {
                ServiceStep::Cycle { .. } => {}
                ServiceStep::Pending => {
                    if service.wake_cycle().is_none() {
                        std::thread::yield_now();
                    }
                }
                ServiceStep::Closed => break,
            }
        }
        service
            .checkpoint_to(path)
            .unwrap_or_else(|e| fail(&format!("--checkpoint {}: {e:?}", path.display())));
        println!(
            "# serve: checkpointed at {} consumed jobs -> {}",
            service.consumed(),
            path.display()
        );
    }
    service.run_to_close();
    emit_serve_run(opts, service.finish());
}

/// One live service run's report: aggregate schedule quality, the
/// logical cycle counters, the decision-latency percentiles, and the
/// grep-friendly `# digest` line the CI kill/resume check compares.
fn emit_serve_run(opts: &Options, served: hrp_serve::ServeReport) {
    let agg = &served.report.aggregate;
    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        "jobs completed".into(),
        served.report.completed_jobs().to_string(),
    ]);
    t.row(vec!["makespan [s]".into(), f3(agg.makespan)]);
    t.row(vec!["utilization".into(), f3(agg.utilization)]);
    t.row(vec!["avg wait [s]".into(), f3(agg.avg_wait)]);
    t.row(vec!["cycles".into(), served.stats.cycles.to_string()]);
    t.row(vec![
        "wake cycles".into(),
        served.stats.wake_cycles.to_string(),
    ]);
    t.row(vec!["decisions".into(), served.stats.decisions.to_string()]);
    t.row(vec![
        "nodes re-planned".into(),
        served.stats.nodes_replanned.to_string(),
    ]);
    t.row(vec![
        "nodes skipped".into(),
        served.stats.nodes_skipped.to_string(),
    ]);
    t.row(vec!["decision p50 [us]".into(), f3(served.latency.p50_us)]);
    t.row(vec!["decision p99 [us]".into(), f3(served.latency.p99_us)]);
    if let Some(adm) = &served.admission {
        t.row(vec!["deferred".into(), served.stats.deferred.to_string()]);
        t.row(vec!["rejected".into(), served.stats.rejected.to_string()]);
        t.emit("serve_run", opts.out.as_deref());
        println!("# admission digest {:016x}", adm.digest);
    } else {
        t.emit("serve_run", opts.out.as_deref());
    }
    println!("# digest {:016x}", served.report.timeline.digest());
}

fn ablate_interference_cmd(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&[
        "interference_factor",
        "mps_only_mean",
        "mig_only_mean",
        "mig_over_mps",
    ]);
    for (factor, mps, mig) in ablate_interference(suite, 12, 4, opts.seed, opts.threads) {
        t.row(vec![f3(factor), f3(mps), f3(mig), f3(mig / mps)]);
    }
    t.emit("ablate_interference", opts.out.as_deref());
}
