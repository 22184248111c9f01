//! `servebench`: end-to-end and per-layer benchmark of the `hrp-serve`
//! scheduler service.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, closed loop with a single client: the
//! service pulls the next arrival burst only after the previous cycle
//! returns, and arrivals carry simulated timestamps, so `jobs_per_s` is
//! the highest rate the service sustains. Every run is checked against
//! an oracle (see `workload::oracle`) before any number is reported.
//!
//! - `--trace 0` times whole service runs back to back for `--seconds`
//!   and reports the end-to-end metrics. Each run yields its own rate and
//!   cycle percentiles; the invocation reports the level that three in
//!   four runs reach (see `SLOW_QUARTILE`).
//! - `--trace 1` alternates untraced service runs with traced replays
//!   (see `replay`) and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod replay;
mod workload;

use replay::{traced_run, Layer, Spans, TracedRun};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{serve_run, Oracle, ServeRun, Workload, WORKLOADS};

/// Fewest timed runs per invocation, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// Host throughput and latency are reported at the slower quartile of
/// the timed runs: the lower quartile of the per-run rates and the upper
/// quartile of the per-run cycle percentiles, i.e. what the service
/// delivered in at least three of four runs. On a machine shared with
/// other guests, runs are usually contended and now and then much faster
/// while neighbours idle; the median flips with those bursts, the slower
/// quartile does not.
const SLOW_QUARTILE: f64 = 0.25;

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run the workload once and print this process's peak
    /// resident memory (see `peak_rss_mb`).
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rss_probe,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Context printed beside the value (sample counts).
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// A finished, checked invocation.
struct Report {
    /// Arrivals handed to the service over every run of the invocation.
    attempted: usize,
    runs: usize,
    metrics: Vec<Metric>,
}

/// The `q`-quantile, interpolating linearly between order statistics
/// (0 for no values).
fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the layer did no work on this workload.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's resident-memory high-water mark (`VmHWM`), in KiB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// `peak_rss_mb` is process-wide, so it is measured in a child process
/// that runs the workload exactly once and nothing else. The child's
/// schedule is checked against the oracle too.
fn peak_rss_mb(args: &Args, oracle: &Oracle) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--rss-probe",
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "memory probe failed ({}): {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut fields = stdout.split_whitespace();
    let (Some(kb), Some(digest)) = (fields.next(), fields.next()) else {
        return Err(format!("memory probe printed '{stdout}'"));
    };
    if u64::from_str_radix(digest, 16).ok() != Some(oracle.timeline_digest) {
        return Err(format!(
            "memory probe schedule {digest} differs from the oracle"
        ));
    }
    kb.parse::<f64>()
        .map(|kb| kb / 1024.0)
        .map_err(|_| format!("memory probe printed '{stdout}'"))
}

/// Run timed service runs until `seconds` have passed (at least
/// `MIN_RUNS`), checking each against the oracle and the first run.
fn timed_loop(
    args: &Args,
    oracle: &Oracle,
    mut also: impl FnMut() -> Result<(), String>,
) -> Result<Vec<ServeRun>, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut runs: Vec<ServeRun> = Vec::new();
    while runs.len() < MIN_RUNS || started.elapsed() < budget {
        let run = serve_run(&args.workload, args.seed)?;
        oracle.check(&run.outcome)?;
        if let Some(first) = runs.first() {
            if first.outcome != run.outcome {
                return Err(format!(
                    "service runs disagree: {:?} vs {:?}",
                    first.outcome, run.outcome
                ));
            }
        }
        runs.push(run);
        also()?;
    }
    Ok(runs)
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let oracle = workload::oracle(w, args.seed)?;
    let rss_mb = peak_rss_mb(args, &oracle)?;
    let runs = timed_loop(args, &oracle, || Ok(()))?;

    let outcome = runs[0].outcome;
    let latency: Vec<_> = runs
        .iter()
        .map(|r| hrp_serve::LatencySummary::from_seconds(&r.cycle_s))
        .collect();
    let slow_latency = |f: fn(&hrp_serve::LatencySummary) -> f64| {
        quantile(latency.iter().map(f), 1.0 - SLOW_QUARTILE)
    };
    let n = runs.len();
    let per_run = format!("slower quartile of {n} runs");
    let metrics = vec![
        metric(
            "jobs_per_s",
            quantile(
                runs.iter().map(|r| r.outcome.consumed as f64 / r.wall_s),
                SLOW_QUARTILE,
            ),
            "1/s",
        )
        .note(per_run.clone()),
        metric("cycle_p50_us", slow_latency(|l| l.p50_us), "us")
            .note(format!("{per_run} of {} cycles", latency[0].samples)),
        metric("cycle_p99_us", slow_latency(|l| l.p99_us), "us")
            .note(format!("{per_run} of {} cycles", latency[0].samples)),
        metric("setup_s", median(runs.iter().map(|r| r.setup_s)), "s")
            .note(format!("median of {n} runs")),
        metric("peak_rss_mb", rss_mb, "MB").note("one run, own process".into()),
        metric(
            "admit_frac",
            outcome.decisions as f64 / outcome.consumed as f64,
            "share",
        )
        .note(format!(
            "{} rejected of {} arrivals",
            outcome.rejected, outcome.consumed
        )),
        metric("sim_makespan_s", oracle.makespan_s, "s"),
        metric("sim_mean_turnaround_s", oracle.mean_turnaround_s, "s")
            .note(format!("mean wait {} s", oracle.mean_wait_s)),
        metric("sim_corun_gain", oracle.corun_gain, "x"),
    ];
    Ok(Report {
        attempted: n * outcome.consumed,
        runs: n,
        metrics,
    })
}

fn per_layer(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let oracle = workload::oracle(w, args.seed)?;
    let mut traced: Vec<TracedRun> = Vec::new();
    let mut spans: Option<Spans> = None;
    let runs = timed_loop(args, &oracle, || {
        let (run, run_spans) = traced_run(w, args.seed);
        oracle.check(&run.outcome)?;
        traced.push(run);
        spans = Some(run_spans);
        Ok(())
    })?;
    for t in &traced {
        if t.outcome != runs[0].outcome {
            return Err(format!(
                "traced replay diverged from the service: {:?} vs {:?}",
                t.outcome, runs[0].outcome
            ));
        }
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            let tsv = spans.as_ref().map(Spans::to_tsv).unwrap_or_default();
            std::fs::write(out_dir.join(format!("spans-{}.tsv", w.name)), tsv)
        })
        .map_err(|e| format!("writing spans: {e}"))?;

    let first = &traced[0];
    let o = first.outcome;
    let jobs = o.consumed as f64;
    let decisions = o.decisions as f64;
    let windows = first.windows as f64;
    // Host times: median over traced runs of each run's value.
    let med = |f: &dyn Fn(&TracedRun) -> f64| median(traced.iter().map(f));
    let ns = 1e9;
    let ckpt = |f: &dyn Fn(&workload::CheckpointCost) -> f64| {
        median(runs.iter().filter_map(|r| r.checkpoint.as_ref()).map(f))
    };
    let untraced_wall = median(runs.iter().map(|r| {
        r.wall_s
            - r.checkpoint
                .as_ref()
                .map_or(0.0, |c| c.checkpoint_s + c.restore_s)
    }));
    let metrics = vec![
        metric(
            "ingest.ns_per_job",
            med(&|t| t.self_s(Layer::Ingest) * ns / jobs),
            "ns",
        ),
        metric(
            "ingest.jobs_per_cycle",
            jobs / first.cycles as f64,
            "jobs/cycle",
        ),
        metric(
            "admission.ns_per_job",
            med(&|t| t.self_s(Layer::Admission) * ns / jobs),
            "ns",
        ),
        metric("admission.deferred", o.deferred as f64, "count"),
        metric("admission.rejected", o.rejected as f64, "count"),
        metric(
            "advance.ns_per_job",
            med(&|t| t.self_s(Layer::Advance) * ns / jobs),
            "ns",
        ),
        metric("advance.nodes_replanned", o.nodes_replanned as f64, "count"),
        metric("advance.nodes_skipped", o.nodes_skipped as f64, "count"),
        metric("plan.windows", windows, "count"),
        metric(
            "plan.ns_per_window",
            med(&|t| ratio(t.self_s(Layer::Plan) * ns, windows)),
            "ns",
        ),
        metric(
            "plan.jobs_per_window",
            ratio(first.window_jobs as f64, windows),
            "jobs/window",
        ),
        metric(
            "plan.singleton_share",
            ratio(first.singleton_windows as f64, windows),
            "share",
        ),
        metric(
            "plan.distinct_share",
            ratio(first.distinct_windows as f64, windows),
            "share",
        ),
        metric(
            "plan.share",
            med(&|t| t.self_s(Layer::Plan) / t.wall_s),
            "share",
        ),
        metric(
            "cosched.ns_per_call",
            med(&|t| {
                ratio(
                    t.self_s(Layer::Cosched) * ns,
                    t.calls(Layer::Cosched) as f64,
                )
            }),
            "ns",
        ),
        metric(
            "backfill.calls",
            first.calls(Layer::Backfill) as f64,
            "count",
        ),
        metric(
            "backfill.ns_per_call",
            med(&|t| {
                ratio(
                    t.self_s(Layer::Backfill) * ns,
                    t.calls(Layer::Backfill) as f64,
                )
            }),
            "ns",
        ),
        metric(
            "backfill.share",
            med(&|t| t.self_s(Layer::Backfill) / t.wall_s),
            "share",
        ),
        metric(
            "select.ns_per_job",
            med(&|t| ratio(t.self_s(Layer::Select) * ns, decisions)),
            "ns",
        ),
        metric(
            "place.ns_per_job",
            med(&|t| ratio(t.self_s(Layer::Place) * ns, decisions)),
            "ns",
        ),
        metric("drain.s", med(&|t| t.incl_s(Layer::Drain)), "s"),
        metric(
            "drain.share",
            med(&|t| t.incl_s(Layer::Drain) / t.wall_s),
            "share",
        ),
        metric("checkpoint.bytes", ckpt(&|c| c.bytes as f64), "bytes"),
        metric("checkpoint.ms", ckpt(&|c| c.checkpoint_s * 1e3), "ms"),
        metric("restore.ms", ckpt(&|c| c.restore_s * 1e3), "ms"),
        metric(
            "trace.coverage",
            med(&|t| t.layer_self_s() / t.wall_s),
            "share",
        ),
        metric("trace.overhead", med(&|t| t.wall_s) / untraced_wall, "x"),
    ];
    Ok(Report {
        attempted: (runs.len() + traced.len()) * o.consumed,
        runs: runs.len() + traced.len(),
        metrics,
    })
}

fn rss_probe(args: &Args) -> Result<(), String> {
    let run = serve_run(&args.workload, args.seed)?;
    println!("{} {:016x}", vm_hwm_kb()?, run.outcome.timeline_digest);
    Ok(())
}

fn render_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return match rss_probe(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let report = match result {
        Ok(report) if report.metrics.iter().all(|m| m.value.is_finite()) => report,
        Ok(_) => {
            eprintln!("servebench: FAILED: a metric is not finite");
            println!("{}", render_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("servebench: FAILED: {e}");
            println!("{}", render_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let w = &args.workload;
    println!(
        "servebench workload={} seed={} trace={} runs={} arrivals/run={} nodes={}x{}",
        w.name,
        args.seed,
        u8::from(args.trace),
        report.runs,
        w.jobs,
        workload::NODES,
        workload::GPUS_PER_NODE
    );
    for m in &report.metrics {
        println!(
            "  {:<26} {:>16.6} {:<11} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "{}",
        render_json(true, report.attempted, 0, &report.metrics)
    );
    ExitCode::SUCCESS
}
