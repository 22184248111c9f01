//! Property tests (proptest) for the multi-node cluster simulator's
//! determinism contract:
//!
//! * the merged cluster timeline is the same whether it is computed on
//!   the calling thread or inside concurrent workers (placement
//!   training runs one simulation per rollout worker), at 1,
//!   `HRP_TEST_THREADS`, or auto width;
//! * a one-node cluster is event-for-event identical to the
//!   single-node simulator on the same trace;
//! * completed jobs are conserved across any selector: every job
//!   arrives once, starts once, and finishes once.
//!
//! (`tests/trace_contract.rs` extends the same guarantees to generated
//! traces and the RL `PolicySelector`.)
//!
//! Set `HRP_TEST_THREADS` to pick the worker count the invariance case
//! exercises (CI runs the suite under 1 and 4).

mod common;
use common::test_threads;

use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::select::{LeastLoaded, RoundRobin};
use hrp::cluster::sim::{ClusterSim, EventKind};
use hrp::cluster::{ClusterJob, CoSchedulingDispatcher, SelectorKind};
use hrp::core::par::parallel_map;
use hrp::prelude::*;
use proptest::prelude::*;

fn suite() -> Suite {
    Suite::paper_suite(&GpuArch::a100())
}

/// Build a trace from a generated shape: benchmark pick, arrival slot
/// (duplicates produce simultaneous-arrival bursts), and width.
fn trace(s: &Suite, shape: &[(usize, u32, bool)]) -> Vec<ClusterJob> {
    shape
        .iter()
        .enumerate()
        .map(|(i, (pick, slot, wide))| {
            let name = s.by_index(pick % s.len()).app.name.clone();
            let gpus = if *wide { 2 } else { 1 };
            ClusterJob::new(i, &name, f64::from(*slot) * 3.0, gpus, s)
        })
        .collect()
}

fn dispatcher() -> CoSchedulingDispatcher<MpsOnly> {
    CoSchedulingDispatcher::new(MpsOnly, 4, 4)
}

fn shape_strategy() -> impl Strategy<Value = Vec<(usize, u32, bool)>> {
    proptest::collection::vec((0usize..1000, 0u32..5, any::<bool>()), 1..=9)
}

proptest! {
    #[test]
    fn merged_timeline_is_invariant_to_thread_count(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let kind = if least_loaded { SelectorKind::LeastLoaded } else { SelectorKind::RoundRobin };
        let run = || {
            let mut sel = kind.build();
            MultiNodeSim::new(nodes, 2)
                .run(&s, trace(&s, &shape), sel.as_mut(), |_| dispatcher())
        };
        let serial = run();
        for threads in [test_threads(), 0] {
            for got in parallel_map(4, threads, |_| run()) {
                prop_assert_eq!(&got.timeline.events, &serial.timeline.events,
                    "timeline drifted at {} threads", threads);
                prop_assert_eq!(&got.per_node, &serial.per_node);
                prop_assert_eq!(&got.aggregate, &serial.aggregate);
                prop_assert_eq!(got.timeline.digest(), serial.timeline.digest());
            }
        }
    }

    #[test]
    fn one_node_cluster_is_event_for_event_the_single_node_simulator(
        shape in shape_strategy(),
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let multi = if least_loaded {
            let mut sel = LeastLoaded;
            MultiNodeSim::new(1, 2).run(&s, trace(&s, &shape), &mut sel, |_| dispatcher())
        } else {
            let mut sel = RoundRobin::default();
            MultiNodeSim::new(1, 2).run(&s, trace(&s, &shape), &mut sel, |_| dispatcher())
        };
        let mut single = dispatcher();
        let (report, events) = ClusterSim::new(2).run_traced(&s, trace(&s, &shape), &mut single);
        prop_assert_eq!(&multi.timeline.events, &events, "event streams diverged");
        prop_assert_eq!(&multi.aggregate, &report, "reports diverged");
        // Bitwise, not approximately: the N = 1 path must *be* the
        // single-node simulator.
        prop_assert_eq!(multi.aggregate.makespan.to_bits(), report.makespan.to_bits());
        prop_assert_eq!(multi.aggregate.avg_wait.to_bits(), report.avg_wait.to_bits());
        prop_assert_eq!(multi.aggregate.utilization.to_bits(), report.utilization.to_bits());
    }

    #[test]
    fn completed_jobs_are_conserved_for_any_selector(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        least_loaded in any::<bool>(),
    ) {
        let s = suite();
        let kind = if least_loaded { SelectorKind::LeastLoaded } else { SelectorKind::RoundRobin };
        let mut sel = kind.build();
        let report =
            MultiNodeSim::new(nodes, 2).run(&s, trace(&s, &shape), sel.as_mut(), |_| dispatcher());
        let n = shape.len();
        let mut arrived = vec![0usize; n];
        let mut started = vec![0usize; n];
        let mut finished = vec![0usize; n];
        for e in &report.timeline.events {
            match &e.kind {
                EventKind::Arrival { job } => arrived[*job] += 1,
                EventKind::Start { job_ids, .. } => {
                    for id in job_ids {
                        started[*id] += 1;
                    }
                }
                EventKind::Finish { job_ids, .. } => {
                    for id in job_ids {
                        finished[*id] += 1;
                    }
                }
            }
        }
        prop_assert!(arrived.iter().all(|&c| c == 1), "every job arrives exactly once");
        prop_assert!(started.iter().all(|&c| c == 1), "every job starts exactly once");
        prop_assert!(finished.iter().all(|&c| c == 1), "every job finishes exactly once");
        prop_assert_eq!(report.completed_jobs(), n);
        let routed: usize = report.per_node.iter().map(|p| p.jobs).sum();
        prop_assert_eq!(routed, n, "selector routed every job somewhere");
        prop_assert_eq!(
            report.aggregate.placements,
            report.per_node.iter().map(|p| p.placements).sum::<usize>()
        );
    }
}
