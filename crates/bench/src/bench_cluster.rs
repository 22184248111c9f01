//! The `repro bench-cluster` statistics harness: the barrier engine
//! timed on large seeded traces.
//!
//! Each trace kind is run `reps` times on identical inputs; wall-clock
//! times are summarised with [`RunStats`] (mean, standard error,
//! Student-t 95 % CI). Alongside the timings the report carries the
//! logical [`SyncStats`] counters and the merged-timeline digest, so a
//! timing is always tied to the schedule it measured.
//!
//! The harness is deliberately dependency-free: JSON is assembled by
//! hand (`render_json`) and written to `BENCH_6.json` by the caller.

use crate::stats::RunStats;
use hrp_cluster::multinode::{MultiNodeSim, SyncStats};
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::{ClusterJob, FcfsBackfill, SelectorKind};
use hrp_workloads::Suite;
use std::fmt::Write as _;
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
    /// Repetitions per trace kind (`0` = the quick/full default).
    pub reps: usize,
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

    /// Repetitions per trace kind (explicit `reps`, else 3 quick /
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

/// The timing summary of one trace kind.
#[derive(Debug, Clone)]
pub struct TraceBench {
    /// The trace kind.
    pub kind: TraceKind,
    /// Wall-clock per run, in milliseconds.
    pub time_ms: RunStats,
    /// Logical synchronization counters (identical across reps — they
    /// are a function of the schedule, not the clock).
    pub sync: SyncStats,
    /// Merged-timeline FNV digest (identical across reps).
    pub digest: u64,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The configuration that produced it.
    pub cfg: BenchConfig,
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

/// Time one trace: `reps` identical runs, returning the timing summary
/// plus the (rep-invariant) counters and digest of the last run.
fn time_trace(suite: &Suite, kind: TraceKind, jobs: &[ClusterJob], reps: usize) -> TraceBench {
    let mut samples = Vec::with_capacity(reps);
    let mut sync = SyncStats::default();
    let mut digest = 0u64;
    for _ in 0..reps {
        let mut selector = SelectorKind::LeastLoaded.build();
        let start = Instant::now();
        let report = MultiNodeSim::new(BENCH_NODES, BENCH_GPUS_PER_NODE).run(
            suite,
            jobs.to_vec(),
            selector.as_mut(),
            |_| FcfsBackfill::new(),
        );
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        sync = report.sync;
        digest = report.timeline.digest();
    }
    TraceBench {
        kind,
        time_ms: RunStats::from_samples(&samples),
        sync,
        digest,
    }
}

/// Run the full harness: every trace kind, timed.
#[must_use]
pub fn run_bench(suite: &Suite, cfg: &BenchConfig) -> BenchReport {
    bench_traces(suite, cfg, cfg.jobs(), cfg.effective_reps())
}

/// [`run_bench`] at an explicit trace size and repetition count.
fn bench_traces(suite: &Suite, cfg: &BenchConfig, jobs: usize, reps: usize) -> BenchReport {
    let traces = BENCH_TRACE_KINDS
        .iter()
        .map(|&kind| time_trace(suite, kind, &bench_trace(suite, kind, jobs, cfg.seed), reps))
        .collect();
    BenchReport { cfg: *cfg, traces }
}

/// A finite f64 as a JSON number (Rust's shortest-roundtrip rendering
/// is valid JSON for every finite value).
fn jnum(x: f64) -> String {
    debug_assert!(x.is_finite());
    format!("{x:?}")
}

/// Render the report as the `bench-cluster/v3` JSON document.
#[must_use]
pub fn render_json(report: &BenchReport) -> String {
    let cfg = &report.cfg;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-cluster/v3\",");
    let _ = writeln!(out, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"nodes\": {BENCH_NODES},");
    let _ = writeln!(out, "  \"gpus_per_node\": {BENCH_GPUS_PER_NODE},");
    let _ = writeln!(out, "  \"jobs\": {},", cfg.jobs());
    let _ = writeln!(out, "  \"reps\": {},", cfg.effective_reps());
    let _ = writeln!(out, "  \"rows\": [");
    for (i, t) in report.traces.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out, ",");
        }
        let s = &t.time_ms;
        let _ = write!(
            out,
            "    {{\"trace\": \"{}\", \
             \"mean_ms\": {}, \"std_err_ms\": {}, \
             \"ci95_lo_ms\": {}, \"ci95_hi_ms\": {}, \
             \"sync_rounds\": {}, \"node_advances\": {}, \
             \"digest\": \"{:016x}\"}}",
            t.kind.name(),
            jnum(s.mean),
            jnum(s.std_err),
            jnum(s.ci95_lo),
            jnum(s.ci95_hi),
            t.sync.sync_rounds,
            t.sync.node_advances,
            t.digest,
        );
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

    /// The full harness path (all kinds) on 400-job traces and one
    /// rep, so the test stays fast.
    fn tiny_bench(suite: &Suite) -> BenchReport {
        let cfg = BenchConfig {
            quick: true,
            seed: 42,
            reps: 1,
        };
        bench_traces(suite, &cfg, 400, 1)
    }

    #[test]
    fn harness_reports_the_schedule_it_timed() {
        // One row per trace kind, carrying the digest and counters of
        // the very schedule an untimed run of the same trace produces.
        let suite = Suite::paper_suite(&GpuArch::a100());
        let report = tiny_bench(&suite);
        assert_eq!(report.traces.len(), 3);
        for (t, kind) in report.traces.iter().zip(BENCH_TRACE_KINDS) {
            assert_eq!(t.kind, kind);
            let mut sel = SelectorKind::LeastLoaded.build();
            let plain = MultiNodeSim::new(BENCH_NODES, BENCH_GPUS_PER_NODE).run(
                &suite,
                bench_trace(&suite, kind, 400, 42),
                sel.as_mut(),
                |_| FcfsBackfill::new(),
            );
            assert_eq!(t.digest, plain.timeline.digest(), "{}", kind.name());
            assert_eq!(t.sync, plain.sync, "{}", kind.name());
        }
    }

    #[test]
    fn json_document_has_the_promised_fields() {
        let suite = Suite::paper_suite(&GpuArch::a100());
        let json = render_json(&tiny_bench(&suite));
        for field in [
            "\"schema\": \"bench-cluster/v3\"",
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
        // One mode, so no per-row mode column and no pool width.
        assert!(!json.contains("\"mode\"") && !json.contains("\"threads\""));
    }

    #[test]
    fn config_sizing() {
        let mut cfg = BenchConfig {
            quick: true,
            seed: 1,
            reps: 0,
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
