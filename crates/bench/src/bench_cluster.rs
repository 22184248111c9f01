//! The `repro bench-cluster` statistics harness: serial vs pooled
//! fan-out of the barrier engine on the same large seeded traces.
//!
//! Each configuration (trace kind × execution mode) is run `reps`
//! times on identical inputs; wall-clock times are summarised with
//! [`RunStats`] (mean, standard error, Student-t 95 % CI) and the
//! pooled run's merged-timeline digest is checked against the serial
//! run before any number is reported — a speedup over a *different*
//! schedule would be meaningless. Alongside the timings the report
//! carries the logical [`SyncStats`] counters (identical across modes).
//!
//! The harness is deliberately dependency-free: JSON is assembled by
//! hand (`render_json`) and written to `BENCH_6.json` by the caller.

use crate::stats::RunStats;
use hrp_cluster::multinode::{MultiNodeSim, SyncStats};
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::{ClusterJob, FcfsBackfill, SelectorKind};
use hrp_core::par::WorkerPool;
use hrp_workloads::Suite;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Nodes in every bench configuration.
pub const BENCH_NODES: usize = 8;
/// GPUs per node (matches the `repro cluster` evaluation default).
pub const BENCH_GPUS_PER_NODE: usize = 2;
/// Trace kinds the harness covers (≥ 3, as the report schema promises).
pub const BENCH_TRACE_KINDS: [TraceKind; 3] =
    [TraceKind::Bursty, TraceKind::Skewed, TraceKind::HeavyTail];

/// Sizing knobs of one `bench-cluster` invocation.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Shrink jobs/reps for smoke runs.
    pub quick: bool,
    /// Trace-generation seed.
    pub seed: u64,
    /// Repetitions per configuration (`0` = the mode default).
    pub reps: usize,
    /// Worker threads for the pooled mode (`0` = available
    /// parallelism).
    pub threads: usize,
}

impl BenchConfig {
    /// Jobs per trace: 20 000 for `--quick`, 120 000 otherwise.
    #[must_use]
    pub fn jobs(&self) -> usize {
        if self.quick {
            20_000
        } else {
            120_000
        }
    }

    /// Repetitions per configuration (explicit `reps`, else 3 quick /
    /// 5 full).
    #[must_use]
    pub fn effective_reps(&self) -> usize {
        if self.reps > 0 {
            self.reps
        } else if self.quick {
            3
        } else {
            5
        }
    }
}

/// One execution mode's summary on one trace.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Mode label: `serial` or `pooled`.
    pub mode: &'static str,
    /// Wall-clock per run, in milliseconds.
    pub time_ms: RunStats,
    /// Logical synchronization counters (identical across reps — they
    /// are a function of the schedule, not the clock).
    pub sync: SyncStats,
    /// Merged-timeline FNV digest (identical across modes by
    /// construction; asserted).
    pub digest: u64,
}

/// All modes on one trace kind.
#[derive(Debug, Clone)]
pub struct TraceBench {
    /// The trace kind.
    pub kind: TraceKind,
    /// `serial`, `pooled` — in that order.
    pub modes: Vec<ModeResult>,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The configuration that produced it.
    pub cfg: BenchConfig,
    /// Resolved worker-thread count of the pooled mode.
    pub pool_threads: usize,
    /// One entry per kind in [`BENCH_TRACE_KINDS`].
    pub traces: Vec<TraceBench>,
}

/// One bench trace of `jobs` jobs. Every run schedules it on FCFS +
/// conservative backfilling nodes — O(queue) per decision, so a
/// 100k-job trace times the *engine*, not the dispatcher.
fn bench_trace(suite: &Suite, kind: TraceKind, jobs: usize, seed: u64) -> Vec<ClusterJob> {
    generate(
        suite,
        &TraceConfig::new(kind, jobs, seed).max_gpus(BENCH_GPUS_PER_NODE),
    )
}

/// Time one mode: `reps` identical runs, returning the timing summary
/// plus the (rep-invariant) counters and digest of the last run.
fn time_mode(
    suite: &Suite,
    jobs: &[ClusterJob],
    mode: &'static str,
    reps: usize,
    make_sim: &dyn Fn() -> MultiNodeSim,
) -> ModeResult {
    let mut samples = Vec::with_capacity(reps);
    let mut sync = SyncStats::default();
    let mut digest = 0u64;
    for _ in 0..reps {
        let mut selector = SelectorKind::LeastLoaded.build();
        let start = Instant::now();
        let report = make_sim().run(suite, jobs.to_vec(), selector.as_mut(), |_| {
            FcfsBackfill::new()
        });
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        sync = report.sync;
        digest = report.timeline.digest();
    }
    ModeResult {
        mode,
        time_ms: RunStats::from_samples(&samples),
        sync,
        digest,
    }
}

/// Run the full harness: every trace kind × {serial, pooled}, digests
/// cross-checked.
///
/// # Panics
/// Panics if the pooled run's merged timeline diverges from the
/// serial run (that would be an engine bug, not a measurement).
#[must_use]
pub fn run_bench(suite: &Suite, cfg: &BenchConfig) -> BenchReport {
    bench_traces(suite, cfg, cfg.jobs(), cfg.effective_reps())
}

/// [`run_bench`] at an explicit trace size and repetition count.
fn bench_traces(suite: &Suite, cfg: &BenchConfig, jobs: usize, reps: usize) -> BenchReport {
    let pool = Arc::new(WorkerPool::new(cfg.threads));
    let pool_threads = pool.threads();
    let traces = BENCH_TRACE_KINDS
        .iter()
        .map(|&kind| {
            let jobs = bench_trace(suite, kind, jobs, cfg.seed);
            let serial = time_mode(suite, &jobs, "serial", reps, &|| {
                MultiNodeSim::new(BENCH_NODES, BENCH_GPUS_PER_NODE).with_threads(1)
            });
            let pooled = time_mode(suite, &jobs, "pooled", reps, &|| {
                MultiNodeSim::new(BENCH_NODES, BENCH_GPUS_PER_NODE).with_pool(Arc::clone(&pool))
            });
            assert_eq!(
                serial.digest,
                pooled.digest,
                "{}: pooled-mode digest diverged",
                kind.name()
            );
            TraceBench {
                kind,
                modes: vec![serial, pooled],
            }
        })
        .collect();
    BenchReport {
        cfg: *cfg,
        pool_threads,
        traces,
    }
}

/// A finite f64 as a JSON number (Rust's shortest-roundtrip rendering
/// is valid JSON for every finite value).
fn jnum(x: f64) -> String {
    debug_assert!(x.is_finite());
    format!("{x:?}")
}

/// Render the report as the `bench-cluster/v2` JSON document.
#[must_use]
pub fn render_json(report: &BenchReport) -> String {
    let cfg = &report.cfg;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-cluster/v2\",");
    let _ = writeln!(out, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"nodes\": {BENCH_NODES},");
    let _ = writeln!(out, "  \"gpus_per_node\": {BENCH_GPUS_PER_NODE},");
    let _ = writeln!(out, "  \"jobs\": {},", cfg.jobs());
    let _ = writeln!(out, "  \"reps\": {},", cfg.effective_reps());
    let _ = writeln!(out, "  \"threads\": {},", report.pool_threads);
    let _ = writeln!(out, "  \"rows\": [");
    let mut first = true;
    for t in &report.traces {
        for m in &t.modes {
            if !first {
                let _ = writeln!(out, ",");
            }
            first = false;
            let s = &m.time_ms;
            let _ = write!(
                out,
                "    {{\"trace\": \"{}\", \"mode\": \"{}\", \
                 \"mean_ms\": {}, \"std_err_ms\": {}, \
                 \"ci95_lo_ms\": {}, \"ci95_hi_ms\": {}, \
                 \"sync_rounds\": {}, \"node_advances\": {}, \
                 \"digest\": \"{:016x}\"}}",
                t.kind.name(),
                m.mode,
                jnum(s.mean),
                jnum(s.std_err),
                jnum(s.ci95_lo),
                jnum(s.ci95_hi),
                m.sync.sync_rounds,
                m.sync.node_advances,
                m.digest,
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;

    /// The full harness path (all kinds, both modes, digest
    /// cross-check) on 400-job traces and one rep, so the test stays
    /// fast.
    fn tiny_bench(suite: &Suite) -> BenchReport {
        let cfg = BenchConfig {
            quick: true,
            seed: 42,
            reps: 1,
            threads: 2,
        };
        bench_traces(suite, &cfg, 400, 1)
    }

    #[test]
    fn harness_modes_agree() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let report = tiny_bench(&suite);
        assert_eq!(report.traces.len(), 3);
        for t in &report.traces {
            assert_eq!(t.modes[0].digest, t.modes[1].digest);
            assert_eq!(t.modes[0].sync, t.modes[1].sync);
        }
    }

    #[test]
    fn json_document_has_the_promised_fields() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let json = render_json(&tiny_bench(&suite));
        for field in [
            "\"schema\": \"bench-cluster/v2\"",
            "\"mean_ms\"",
            "\"std_err_ms\"",
            "\"ci95_lo_ms\"",
            "\"ci95_hi_ms\"",
            "\"sync_rounds\"",
            "\"digest\"",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        // Every trace kind appears.
        for kind in BENCH_TRACE_KINDS {
            assert!(json.contains(&format!("\"trace\": \"{}\"", kind.name())));
        }
        // Balanced braces/brackets — the document must parse.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn config_sizing() {
        let mut cfg = BenchConfig {
            quick: true,
            seed: 1,
            reps: 0,
            threads: 0,
        };
        assert_eq!(cfg.jobs(), 20_000);
        assert_eq!(cfg.effective_reps(), 3);
        cfg.quick = false;
        assert_eq!(cfg.jobs(), 120_000);
        assert_eq!(cfg.effective_reps(), 5);
        cfg.reps = 7;
        assert_eq!(cfg.effective_reps(), 7);
    }
}
