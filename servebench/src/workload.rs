//! The three benchmark workloads, one timed service run, and the
//! correctness oracle every run is checked against.

use hrp_cluster::multinode::{MultiNodeReport, MultiNodeSim};
use hrp_cluster::select::SelectorKind;
use hrp_cluster::sim::EventKind;
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_gpusim::GpuArch;
use hrp_serve::{
    dispatcher_for, restore, AdmissionConfig, ArrivalSource, SchedulerService, ServeConfig,
    ServeReport, ServiceStep, TraceSource,
};
use hrp_workloads::Suite;
use std::time::Instant;

/// Cluster geometry shared by every workload.
pub const NODES: usize = 8;
/// GPUs per node (also every trace's `max_gpus`).
pub const GPUS_PER_NODE: usize = 2;

/// Admission-tier knobs of a workload (`AdmissionConfig` is built at
/// run time because its builders are not `const`).
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub quota: usize,
    pub half_life: f64,
    pub slo: f64,
}

/// One named input set: the trace, the selector, the admission tier,
/// and whether the run takes a checkpoint/restore leg halfway.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: TraceKind,
    pub mean_gap: f64,
    /// Arrivals in one service run (fixed, so every `sim_*` metric is
    /// a function of the seed alone).
    pub jobs: usize,
    pub users: u32,
    pub selector: SelectorKind,
    pub admission: Option<Admission>,
    pub checkpoint: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sparse-singletons",
        kind: TraceKind::Bursty,
        mean_gap: 12.0,
        jobs: 20_000,
        users: 0,
        selector: SelectorKind::LeastLoaded,
        admission: None,
        checkpoint: false,
    },
    Workload {
        name: "saturated-windows",
        kind: TraceKind::Uniform,
        mean_gap: 0.7,
        jobs: 6_000,
        users: 0,
        selector: SelectorKind::LeastLoaded,
        admission: None,
        checkpoint: false,
    },
    Workload {
        name: "tenant-admission",
        kind: TraceKind::Skewed,
        mean_gap: 4.0,
        jobs: 80_000,
        users: 6,
        selector: SelectorKind::Easy,
        admission: Some(Admission {
            quota: 16,
            half_life: 120.0,
            slo: 10.0,
        }),
        checkpoint: true,
    },
];

impl Workload {
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    #[must_use]
    pub fn trace_cfg(&self, seed: u64) -> TraceConfig {
        TraceConfig::new(self.kind, self.jobs, seed)
            .max_gpus(GPUS_PER_NODE)
            .mean_gap(self.mean_gap)
            .users(self.users)
    }

    #[must_use]
    pub fn admission_cfg(&self) -> Option<AdmissionConfig> {
        self.admission.map(|a| {
            AdmissionConfig::new()
                .quota(a.quota)
                .half_life(a.half_life)
                .slo(a.slo)
        })
    }

    #[must_use]
    pub fn serve_cfg(&self) -> ServeConfig {
        let cfg = ServeConfig::new(NODES, GPUS_PER_NODE);
        match self.admission_cfg() {
            Some(a) => cfg.admission(a),
            None => cfg,
        }
    }
}

/// The paper's suite on the simulated A100.
#[must_use]
pub fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

/// Everything about a finished run that correctness is judged on.
/// Two runs of one workload and seed must agree on all of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    pub timeline_digest: u64,
    pub admission_digest: Option<u64>,
    pub consumed: usize,
    pub decisions: u64,
    pub rejected: u64,
    pub deferred: u64,
    pub completed: usize,
    pub nodes_replanned: u64,
    pub nodes_skipped: u64,
    pub makespan_bits: u64,
    pub mean_wait_bits: u64,
}

impl Outcome {
    #[must_use]
    pub fn from_serve(consumed: usize, served: &ServeReport) -> Self {
        let mut out = Self::from_report(consumed, &served.report);
        out.admission_digest = served.admission.as_ref().map(|a| a.digest);
        out.decisions = served.stats.decisions;
        out.rejected = served.stats.rejected;
        out.deferred = served.stats.deferred;
        out.nodes_replanned = served.stats.nodes_replanned;
        out.nodes_skipped = served.stats.nodes_skipped;
        out
    }

    /// The report-derived fields; the service counters start at zero.
    #[must_use]
    pub fn from_report(consumed: usize, report: &MultiNodeReport) -> Self {
        Self {
            timeline_digest: report.timeline.digest(),
            admission_digest: None,
            consumed,
            decisions: 0,
            rejected: 0,
            deferred: 0,
            completed: report.completed_jobs(),
            nodes_replanned: 0,
            nodes_skipped: 0,
            makespan_bits: report.aggregate.makespan.to_bits(),
            mean_wait_bits: report.aggregate.avg_wait.to_bits(),
        }
    }

    /// Conservation: every arrival was consumed and either placed or
    /// rejected, and every placed job completed.
    pub fn check_conservation(&self, w: &Workload) -> Result<(), String> {
        if self.consumed != w.jobs {
            return Err(format!("consumed {} of {} arrivals", self.consumed, w.jobs));
        }
        if self.consumed as u64 != self.decisions + self.rejected {
            return Err(format!(
                "consumed {} != decisions {} + rejected {}",
                self.consumed, self.decisions, self.rejected
            ));
        }
        if self.completed as u64 != self.decisions {
            return Err(format!(
                "completed {} != decisions {}",
                self.completed, self.decisions
            ));
        }
        Ok(())
    }
}

/// The reference a run is compared with, and the simulated-time
/// metrics (which are functions of the schedule alone).
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    pub timeline_digest: u64,
    pub admission_digest: Option<u64>,
    pub makespan_s: f64,
    pub mean_wait_s: f64,
    pub mean_turnaround_s: f64,
    pub corun_gain: f64,
}

impl Oracle {
    /// Compare a run's outcome with the oracle.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        if got.timeline_digest != self.timeline_digest {
            return Err(format!(
                "timeline digest {:016x} != oracle {:016x}",
                got.timeline_digest, self.timeline_digest
            ));
        }
        if got.admission_digest != self.admission_digest {
            return Err(format!(
                "admission digest {:x?} != oracle {:x?}",
                got.admission_digest, self.admission_digest
            ));
        }
        if got.makespan_bits != self.makespan_s.to_bits()
            || got.mean_wait_bits != self.mean_wait_s.to_bits()
        {
            return Err("aggregate makespan/wait differ from the oracle".into());
        }
        Ok(())
    }
}

/// Build the oracle for one workload and seed:
/// - without admission, a batch `MultiNodeSim` replay of the same trace;
/// - with admission, an uninterrupted service run, itself checked
///   against a batch replay of its effective (admitted) trace.
pub fn oracle(w: &Workload, seed: u64) -> Result<Oracle, String> {
    let suite = suite();
    let trace = generate(&suite, &w.trace_cfg(seed));
    let batch = |jobs| {
        let mut selector = w.selector.build();
        MultiNodeSim::new(NODES, GPUS_PER_NODE).run(&suite, jobs, selector.as_mut(), |_| {
            dispatcher_for(w.selector, GPUS_PER_NODE, 0.0)
        })
    };
    let (report, admission_digest) = if w.admission.is_some() {
        let mut svc = SchedulerService::new(
            &suite,
            w.serve_cfg(),
            w.selector,
            TraceSource::new(&suite, w.trace_cfg(seed)),
        );
        svc.run_to_close();
        let consumed = svc.consumed();
        let served = svc.finish();
        let outcome = Outcome::from_serve(consumed, &served);
        outcome.check_conservation(w)?;
        let adm = served.admission.expect("admission tier is on");
        let replayed = batch(adm.effective).timeline.digest();
        if replayed != outcome.timeline_digest {
            return Err(format!(
                "uninterrupted service {:016x} != batch replay of its admitted trace {replayed:016x}",
                outcome.timeline_digest
            ));
        }
        (served.report, Some(adm.digest))
    } else {
        let report = batch(trace.clone());
        if report.completed_jobs() != w.jobs {
            return Err(format!(
                "batch replay completed {} of {} jobs",
                report.completed_jobs(),
                w.jobs
            ));
        }
        (report, None)
    };
    Ok(Oracle {
        timeline_digest: report.timeline.digest(),
        admission_digest,
        makespan_s: report.aggregate.makespan,
        mean_wait_s: report.aggregate.avg_wait,
        mean_turnaround_s: report.aggregate.avg_wait + mean_run_s(&report),
        corun_gain: corun_gain(&suite, &trace, &report),
    })
}

/// Mean time from start to finish per job: every job of a placement
/// finishes when the placement does.
fn mean_run_s(report: &MultiNodeReport) -> f64 {
    let run: f64 = starts(report)
        .map(|(job_ids, _, duration)| duration * job_ids.len() as f64)
        .sum();
    run / report.completed_jobs() as f64
}

/// The paper's figure of merit, throughput relative to time-sharing:
/// over every timeline `Start`, Σ solo GPU-seconds of the placed jobs
/// ÷ Σ `duration × gpus`. Exactly 1.0 when every job runs alone.
fn corun_gain(suite: &Suite, trace: &[hrp_cluster::ClusterJob], report: &MultiNodeReport) -> f64 {
    let (mut solo, mut occupied) = (0.0, 0.0);
    for (job_ids, gpus, duration) in starts(report) {
        for &id in job_ids {
            let job = &trace[id];
            debug_assert_eq!(job.id, id, "trace ids are positions");
            solo += job.solo_time(suite) * job.gpus as f64;
        }
        occupied += duration * gpus as f64;
    }
    solo / occupied
}

/// Every `Start` of the timeline as `(job ids, gpus, duration)`.
fn starts(report: &MultiNodeReport) -> impl Iterator<Item = (&[usize], usize, f64)> {
    report.timeline.events.iter().filter_map(|e| match &e.kind {
        EventKind::Start {
            job_ids,
            gpus,
            duration,
        } => Some((job_ids.as_slice(), *gpus, *duration)),
        _ => None,
    })
}

/// Host cost of the checkpoint/restore leg of one run.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCost {
    pub bytes: usize,
    pub checkpoint_s: f64,
    pub restore_s: f64,
}

/// One timed service run.
#[derive(Debug)]
pub struct ServeRun {
    /// Building the suite, the source and the service.
    pub setup_s: f64,
    /// First `step()` through the end of `finish()`.
    pub wall_s: f64,
    /// Host latency of every `step()` that ran a cycle.
    pub cycle_s: Vec<f64>,
    pub checkpoint: Option<CheckpointCost>,
    pub outcome: Outcome,
}

/// Step `svc` until `stop_at` arrivals have been consumed or the source
/// closes (then wake through any quota-deferred jobs, as
/// `run_to_close` does), timing every cycle.
fn drive<S: ArrivalSource>(
    svc: &mut SchedulerService<'_, S>,
    stop_at: usize,
    cycle_s: &mut Vec<f64>,
) {
    while svc.consumed() < stop_at {
        let started = Instant::now();
        match svc.step() {
            ServiceStep::Cycle { .. } => cycle_s.push(started.elapsed().as_secs_f64()),
            ServiceStep::Pending => unreachable!("trace sources never pend"),
            ServiceStep::Closed => {
                while svc.deferred_jobs() > 0 {
                    svc.wake_cycle()
                        .expect("deferred jobs imply a pending release wake-up");
                }
                return;
            }
        }
    }
}

/// Run the public service once over the workload's trace: set up, step
/// to close (with one `checkpoint()` → `restore()` halfway when the
/// workload asks for it), and finish.
pub fn serve_run(w: &Workload, seed: u64) -> Result<ServeRun, String> {
    let t0 = Instant::now();
    let suite = suite();
    let source = TraceSource::new(&suite, w.trace_cfg(seed));
    let mut svc = SchedulerService::new(&suite, w.serve_cfg(), w.selector, source);
    let setup_s = t0.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut cycle_s = Vec::with_capacity(w.jobs);
    let (consumed, served, checkpoint) = if w.checkpoint {
        drive(&mut svc, w.jobs / 2, &mut cycle_s);
        let c0 = Instant::now();
        let blob = svc.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_s = c0.elapsed().as_secs_f64();
        let bytes = blob.len();
        drop(svc);
        let r0 = Instant::now();
        let mut svc = restore(&suite, blob).map_err(|e| format!("restore: {e}"))?;
        let restore_s = r0.elapsed().as_secs_f64();
        drive(&mut svc, usize::MAX, &mut cycle_s);
        let cost = CheckpointCost {
            bytes,
            checkpoint_s,
            restore_s,
        };
        (svc.consumed(), svc.finish(), Some(cost))
    } else {
        drive(&mut svc, usize::MAX, &mut cycle_s);
        (svc.consumed(), svc.finish(), None)
    };
    let wall_s = start.elapsed().as_secs_f64();

    let outcome = Outcome::from_serve(consumed, &served);
    outcome.check_conservation(w)?;
    Ok(ServeRun {
        setup_s,
        wall_s,
        cycle_s,
        checkpoint,
        outcome,
    })
}
