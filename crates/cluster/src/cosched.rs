//! The co-scheduling dispatcher: single-GPU jobs are batched into
//! windows of `W` and scheduled on one GPU by a node-local
//! [`hrp_core::policies::Policy`]; multi-GPU jobs gang-schedule
//! exclusively (the paper defers their co-location to future work
//! because of the load-imbalance problem it describes in §VI).

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement};
use hrp_core::policies::{Policy, ScheduleContext};
use hrp_gpusim::engine::EngineConfig;
use hrp_workloads::{Job, JobQueue, Suite};

/// Dispatcher wrapping a node-local co-scheduling policy.
#[derive(Clone)]
pub struct CoSchedulingDispatcher<P: Policy> {
    policy: P,
    w: usize,
    cmax: usize,
    engine: EngineConfig,
    windows: usize,
    /// Flush windows even when under-full once the backlog is this old
    /// (prevents starvation at trace end).
    flush_partial: bool,
}

impl<P: Policy> CoSchedulingDispatcher<P> {
    /// New dispatcher with window size `w` and concurrency cap `cmax`.
    #[must_use]
    pub fn new(policy: P, w: usize, cmax: usize) -> Self {
        Self {
            policy,
            w,
            cmax,
            engine: EngineConfig::default(),
            windows: 0,
            flush_partial: true,
        }
    }

    /// Whether under-full windows launch (default `true`). With
    /// `false`, a backlog smaller than `w` waits for more arrivals —
    /// the trace must guarantee they come, or the trailing partial
    /// window never forms and the simulator's deadlock check fires.
    #[must_use]
    pub fn with_flush_partial(mut self, flush: bool) -> Self {
        self.flush_partial = flush;
        self
    }

    /// Number of windows scheduled so far.
    #[must_use]
    pub fn windows_scheduled(&self) -> usize {
        self.windows
    }

    /// Restore the window counter on a freshly built dispatcher when
    /// resuming from a live checkpoint. The counter feeds the
    /// `win{n}` queue labels, so it must survive a kill/restore for
    /// the resumed schedule to be bit-identical.
    pub fn restore_windows_scheduled(&mut self, windows: usize) {
        self.windows = windows;
    }

    /// Ask the policy for one window decision.
    fn decide(&self, suite: &Suite, label: String, batch: &[&ClusterJob]) -> f64 {
        let queue = JobQueue {
            label,
            jobs: batch
                .iter()
                .enumerate()
                .map(|(id, j)| Job {
                    id,
                    name: j.name.clone(),
                    bench: j.bench,
                })
                .collect(),
        };
        let ctx = ScheduleContext {
            suite,
            queue: &queue,
            cmax: self.cmax,
            engine: self.engine.clone(),
        };
        self.policy.schedule(&ctx).total_time()
    }
}

impl<P: Policy> Dispatcher for CoSchedulingDispatcher<P> {
    fn name(&self) -> &'static str {
        "co-scheduling"
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        _now: f64,
    ) -> Option<Placement> {
        if free_gpus == 0 {
            return None;
        }
        // Multi-GPU head jobs run exclusively as soon as they fit.
        if let Some(job) = waiting.iter().find(|j| j.gpus > 1 && j.gpus <= free_gpus) {
            return Some(Placement {
                job_ids: vec![job.id],
                gpus: job.gpus,
                duration: job.solo_time(suite),
            });
        }
        // Batch single-GPU jobs into a window.
        let singles: Vec<&ClusterJob> = waiting.iter().filter(|j| j.gpus == 1).collect();
        if singles.is_empty() {
            return None;
        }
        let take = singles.len().min(self.w);
        if take < self.w && !self.flush_partial {
            return None;
        }
        let batch = &singles[..take];
        let duration = self.decide(suite, format!("win{}", self.windows), batch);
        self.windows += 1;
        Some(Placement {
            job_ids: batch.iter().map(|j| j.id).collect(),
            gpus: 1,
            duration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcfs::FcfsBackfill;
    use crate::sim::ClusterSim;
    use hrp_core::policies::MpsOnly;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// An over-crowded queue: everything arrives at t = 0.
    fn crowded_trace(s: &Suite) -> Vec<ClusterJob> {
        let names = [
            "lavaMD",
            "stream",
            "kmeans",
            "pathfinder",
            "bt_solver_A",
            "lud_A",
            "sp_solver_B",
            "qs_Coral_P1",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, n)| ClusterJob::new(i, n, 0.0, 1, s))
            .collect()
    }

    #[test]
    fn cosched_beats_fcfs_on_crowded_queue() {
        let s = suite();
        let sim = ClusterSim::new(2);
        let fcfs = sim.run(&s, crowded_trace(&s), &mut FcfsBackfill::new());
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let cos = sim.run(&s, crowded_trace(&s), &mut co);
        assert!(
            cos.makespan < fcfs.makespan,
            "co-scheduling {} should beat FCFS {}",
            cos.makespan,
            fcfs.makespan
        );
        assert_eq!(co.windows_scheduled(), 2);
    }

    #[test]
    fn multi_gpu_jobs_run_exclusively() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "lavaMD", 0.0, 2, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let report = ClusterSim::new(2).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 2);
    }

    #[test]
    fn partial_windows_flush() {
        let s = suite();
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 12, 4);
        let report = ClusterSim::new(1).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 1, "two jobs in one partial window");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn window_that_never_forms_is_a_deadlock() {
        let s = suite();
        // Two singles can never fill a window of four, and no more
        // arrivals are coming: with partial flushing off, the drain
        // must flag the stranded backlog.
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_flush_partial(false);
        let _ = ClusterSim::new(1).run(&s, jobs, &mut co);
    }

    #[test]
    fn late_arrivals_complete_the_window_when_partial_flush_is_off() {
        let s = suite();
        // The same two singles, plus two more arriving later: the
        // window forms only once all four are waiting.
        let jobs = vec![
            ClusterJob::new(0, "stream", 0.0, 1, &s),
            ClusterJob::new(1, "kmeans", 0.0, 1, &s),
            ClusterJob::new(2, "pathfinder", 7.0, 1, &s),
            ClusterJob::new(3, "lud_A", 7.0, 1, &s),
        ];
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4).with_flush_partial(false);
        let report = ClusterSim::new(1).run(&s, jobs, &mut co);
        assert_eq!(report.placements, 1, "one full window");
        assert_eq!(co.windows_scheduled(), 1);
        // Nothing could start before the window completed at t = 7.
        assert!(report.avg_wait >= 3.5 - 1e-9, "{}", report.avg_wait);
    }

    #[test]
    fn empty_queue_drains_without_windows() {
        let s = suite();
        let mut co = CoSchedulingDispatcher::new(MpsOnly, 4, 4);
        let report = ClusterSim::new(2).run(&s, Vec::new(), &mut co);
        assert_eq!(report.placements, 0);
        assert_eq!(co.windows_scheduled(), 0);
        assert_eq!(report.makespan, 0.0);
    }
}
