//! Property tests (proptest) for the slot-tree backfilling planner's
//! scheduling contract (`hrp_cluster::backfill`):
//!
//! * no job ever starts before it arrives, under any policy or
//!   walltime-estimate error;
//! * GPUs are never double-booked: an independent occupancy sweep over
//!   the merged event stream never exceeds a node's GPU count;
//! * every job arrives, starts, and finishes exactly once (no job is
//!   lost or wedged, even when estimates are badly wrong);
//! * the strict FCFS policy dispatches in exact arrival order per node;
//! * on the paper's 2-GPU nodes, EASY never delays *any* job past its
//!   plain-FCFS start (which subsumes "never delay the queue head"),
//!   and conservative never delays a previously-reserved job;
//! * advance reservations carve out exactly the promised capacity:
//!   occupancy inside the reserved window never exceeds
//!   `total - reserved`.

use hrp::cluster::backfill::{BackfillPlanner, BackfillPolicy};
use hrp::cluster::multinode::MultiNodeSim;
use hrp::cluster::select::SelectorKind;
use hrp::cluster::sim::{ClusterSim, EventKind, NodeEvent};
use hrp::cluster::ClusterJob;
use hrp::prelude::*;
use proptest::prelude::*;

const GPUS: usize = 2;

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

fn shape_strategy() -> impl Strategy<Value = Vec<(usize, u32, bool)>> {
    proptest::collection::vec((0usize..1000, 0u32..5, any::<bool>()), 1..=9)
}

/// The three planner policies, indexable from a proptest integer.
const POLICIES: [BackfillPolicy; 3] = [
    BackfillPolicy::Fcfs,
    BackfillPolicy::Easy,
    BackfillPolicy::Conservative,
];

fn selector_for(policy: BackfillPolicy) -> SelectorKind {
    match policy {
        BackfillPolicy::Fcfs => SelectorKind::Fcfs,
        BackfillPolicy::Easy => SelectorKind::Easy,
        BackfillPolicy::Conservative => SelectorKind::Conservative,
    }
}

/// Walk one node's events in merge order and check the occupancy
/// invariant: claimed GPUs never exceed the node's total, never go
/// negative, and drain back to zero. Returns the peak.
fn check_occupancy(events: &[&NodeEvent], total: usize) -> Result<usize, String> {
    let mut occ = 0usize;
    let mut peak = 0usize;
    for e in events {
        match &e.kind {
            EventKind::Start { gpus, .. } => {
                occ += gpus;
                if occ > total {
                    return Err(format!("double-booked: {occ} GPUs claimed at t={}", e.time));
                }
                peak = peak.max(occ);
            }
            EventKind::Finish { gpus, .. } => {
                if *gpus > occ {
                    return Err(format!("negative occupancy at t={}", e.time));
                }
                occ -= gpus;
            }
            EventKind::Arrival { .. } => {}
        }
    }
    if occ != 0 {
        return Err(format!("{occ} GPUs never released"));
    }
    Ok(peak)
}

proptest! {
    #[test]
    fn starts_respect_arrivals_and_gpus_are_never_double_booked(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        policy_idx in 0usize..3,
        err_idx in 0usize..3,
    ) {
        let s = suite();
        let policy = POLICIES[policy_idx];
        let err = [0.0, 0.3, 0.7][err_idx];
        let mut sel = selector_for(policy).build();
        let report = MultiNodeSim::new(nodes, GPUS).run(&s, trace(&s, &shape), sel.as_mut(), |_| {
            BackfillPlanner::new(policy, GPUS).with_walltime_err(err)
        });
        // No start before arrival — walltime-estimate error perturbs
        // *planning*, never the arrival process.
        let arrival: Vec<f64> = shape.iter().map(|(_, slot, _)| f64::from(*slot) * 3.0).collect();
        for e in &report.timeline.events {
            if let EventKind::Start { job_ids, .. } = &e.kind {
                for id in job_ids {
                    prop_assert!(
                        e.time >= arrival[*id] - 1e-9,
                        "job {} started at {} before its arrival {}",
                        id, e.time, arrival[*id]
                    );
                }
            }
        }
        // No double-booked GPU on any node, and conservation: every
        // job arrives, starts, and finishes exactly once.
        for node in 0..nodes {
            let evs: Vec<&NodeEvent> =
                report.timeline.events.iter().filter(|e| e.node == node).collect();
            if let Err(msg) = check_occupancy(&evs, GPUS) {
                prop_assert!(false, "node {}: {} ({:?}, err {})", node, msg, policy, err);
            }
        }
        let n = shape.len();
        let mut seen = [vec![0usize; n], vec![0usize; n], vec![0usize; n]];
        for e in &report.timeline.events {
            match &e.kind {
                EventKind::Arrival { job } => seen[0][*job] += 1,
                EventKind::Start { job_ids, .. } => job_ids.iter().for_each(|id| seen[1][*id] += 1),
                EventKind::Finish { job_ids, .. } => job_ids.iter().for_each(|id| seen[2][*id] += 1),
            }
        }
        for (what, counts) in ["arrives", "starts", "finishes"].iter().zip(&seen) {
            prop_assert!(counts.iter().all(|&c| c == 1), "every job {} exactly once", what);
        }
        prop_assert_eq!(report.completed_jobs(), n);
    }

    #[test]
    fn strict_fcfs_dispatches_in_arrival_order_per_node(
        shape in shape_strategy(),
        nodes in 1usize..=4,
        err_idx in 0usize..3,
    ) {
        let s = suite();
        let err = [0.0, 0.3, 0.7][err_idx];
        let mut sel = SelectorKind::Fcfs.build();
        let report = MultiNodeSim::new(nodes, GPUS).run(&s, trace(&s, &shape), sel.as_mut(), |_| {
            BackfillPlanner::new(BackfillPolicy::Fcfs, GPUS).with_walltime_err(err)
        });
        for node in 0..nodes {
            let mut arrived: Vec<usize> = Vec::new();
            let mut started: Vec<usize> = Vec::new();
            for e in report.timeline.events.iter().filter(|e| e.node == node) {
                match &e.kind {
                    EventKind::Arrival { job } => arrived.push(*job),
                    EventKind::Start { job_ids, .. } => started.extend(job_ids.iter().copied()),
                    EventKind::Finish { .. } => {}
                }
            }
            prop_assert_eq!(
                &started, &arrived,
                "node {}: strict FCFS must start jobs in exact arrival order", node
            );
        }
    }

    #[test]
    fn backfilling_never_delays_any_job_on_two_gpu_nodes(
        shape in shape_strategy(),
        policy_idx in 1usize..3,
    ) {
        // With node widths of at most 2 GPUs and exact estimates, a
        // backfilled job always completes before the release that
        // gates the blocked head (otherwise it would not fit the
        // backfill window), so the machine state at every release
        // instant matches plain FCFS. EASY and conservative therefore
        // start *every* job no later than FCFS does — which subsumes
        // both "EASY never delays the queue head beyond its FCFS
        // start" and "conservative never delays a reserved job".
        let s = suite();
        let policy = POLICIES[policy_idx];
        let starts = |policy: BackfillPolicy| -> Vec<f64> {
            let mut d = BackfillPlanner::new(policy, GPUS);
            let (_, events) = ClusterSim::new(GPUS).run_traced(&s, trace(&s, &shape), &mut d);
            let mut starts = vec![f64::NAN; shape.len()];
            for e in &events {
                if let EventKind::Start { job_ids, .. } = &e.kind {
                    for id in job_ids {
                        starts[*id] = e.time;
                    }
                }
            }
            starts
        };
        let fcfs = starts(BackfillPolicy::Fcfs);
        for (id, (got, bound)) in starts(policy).iter().zip(&fcfs).enumerate() {
            prop_assert!(
                got <= &(bound + 1e-9),
                "{:?} delayed job {} to {} (FCFS starts it at {})",
                policy, id, got, bound
            );
        }
    }

    #[test]
    fn reservations_carve_out_exactly_the_promised_capacity(
        shape in shape_strategy(),
        policy_idx in 1usize..3,
        res_slot in 0u32..30,
        res_dur in 1u32..20,
        res_gpus in 1usize..=GPUS,
    ) {
        let s = suite();
        let policy = POLICIES[policy_idx];
        let (res_start, res_end) = (
            f64::from(res_slot),
            f64::from(res_slot) + f64::from(res_dur),
        );
        let mut d = BackfillPlanner::new(policy, GPUS)
            .with_reservation(res_start, res_end - res_start, res_gpus);
        let (report, events) = ClusterSim::new(GPUS).run_traced(&s, trace(&s, &shape), &mut d);
        // With exact estimates, no placement may overlap the reserved
        // window with more than the leftover capacity.
        let mut occ = 0usize;
        let mut prev = f64::NEG_INFINITY;
        for e in &events {
            let overlap = res_end.min(e.time) - res_start.max(prev);
            if overlap > 1e-6 {
                prop_assert!(
                    occ + res_gpus <= GPUS,
                    "{:?}: occupancy {} inside reserved window [{}, {}) of {} GPUs",
                    policy, occ, res_start, res_end, res_gpus
                );
            }
            match &e.kind {
                EventKind::Start { gpus, .. } => occ += gpus,
                EventKind::Finish { gpus, .. } => occ -= gpus,
                EventKind::Arrival { .. } => {}
            }
            prev = e.time;
        }
        // The tail interval after the last event is idle by
        // construction, and nothing may be left running.
        prop_assert_eq!(occ, 0, "all claims released");
        // Liveness: the reservation blocks the window, never the node.
        prop_assert_eq!(report.placements, shape.len(), "every job still dispatched");
    }
}
