//! Multi-node cluster simulation with deterministic event-stream
//! merging (the paper's §VI "many nodes" future work).
//!
//! A [`MultiNodeSim`] is `N` simulated nodes, each running its own
//! dispatcher over its own [`crate::sim::NodeRun`] event loop, fed from
//! one global arrival queue by a pluggable [`NodeSelector`]
//! (round-robin, least-loaded, or an RL policy — see [`crate::select`]).
//!
//! # Epochs and the merge barrier
//!
//! The global trace is processed arrival-instant by arrival-instant by
//! the stepped [`ClusterDrive`] core (also driven action-by-action by
//! the RL placement environment in [`crate::place`]):
//!
//! 1. **Advance** — every node simulates up to the next arrival time
//!    `t`, one after another on the calling thread. Nodes are
//!    independent between arrivals, so the order they advance in never
//!    moves an event. The work per node between two arrival instants is
//!    a sliver, far less than a thread handoff costs, so node advance
//!    is deliberately serial;
//! 2. **Barrier + select** — with all nodes parked at `t`, their load
//!    snapshots are taken and the selector assigns the instant's jobs
//!    one by one, each assignment updating the snapshot it hands the
//!    next (a burst spreads out instead of dog-piling one node);
//! 3. after the last arrival, a final round drains every node.
//!
//! # Determinism contract
//!
//! Selector decisions depend only on the (deterministic) barrier
//! snapshots, and every node's event stream carries a per-node sequence
//! number, so merging the streams under the stable `(time, node, seq)`
//! key yields **one bit-identical cluster timeline** whatever order the
//! nodes advance in. A one-node cluster executes the exact event cycle of
//! [`ClusterSim::run`](crate::sim::ClusterSim::run) and is
//! event-for-event identical to it (property-tested in
//! `tests/multinode_contract.rs`, pinned in `tests/golden_cluster.rs`).
//!
//! ```
//! use hrp_cluster::multinode::{staggered_trace, MultiNodeSim};
//! use hrp_cluster::select::SelectorKind;
//! use hrp_cluster::CoSchedulingDispatcher;
//! use hrp_core::policies::MpsOnly;
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! let jobs = staggered_trace(&suite, 12);
//! let mut selector = SelectorKind::LeastLoaded.build();
//! let report = MultiNodeSim::new(2, 2).run(&suite, jobs, selector.as_mut(), |_| {
//!     CoSchedulingDispatcher::new(MpsOnly, 4, 4)
//! });
//! assert_eq!(report.completed_jobs(), 12);
//! assert_eq!(report.per_node.len(), 2);
//! assert!(report.aggregate.makespan > 0.0);
//! ```

use crate::job::ClusterJob;
use crate::sim::{ClusterReport, Dispatcher, EventKind, NodeEvent, NodeRun, NodeStats};
use hrp_core::cluster_env::{NodeLoad, NodeSelector};
use hrp_workloads::Suite;

/// Largest supported cluster: selector masks are `u64`, one bit per
/// node.
pub const MAX_NODES: usize = 64;

/// The merged, `(time, node, seq)`-ordered cluster event stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterTimeline {
    /// Merged events in deterministic order.
    pub events: Vec<NodeEvent>,
}

impl ClusterTimeline {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a hash over the canonical encoding of every event — the
    /// "schedule fingerprint" golden tests pin. Two runs share a digest
    /// iff they produced the identical event sequence (times compared
    /// bit-for-bit).
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for b in bytes {
                *h ^= u64::from(*b);
                *h = h.wrapping_mul(PRIME);
            }
        }
        fn mix_u64(h: &mut u64, v: u64) {
            mix(h, &v.to_le_bytes());
        }
        let mut h = OFFSET;
        for e in &self.events {
            mix_u64(&mut h, e.time.to_bits());
            mix_u64(&mut h, e.node as u64);
            mix_u64(&mut h, e.seq);
            match &e.kind {
                EventKind::Arrival { job } => {
                    mix(&mut h, &[0]);
                    mix_u64(&mut h, *job as u64);
                }
                EventKind::Start {
                    job_ids,
                    gpus,
                    duration,
                } => {
                    mix(&mut h, &[1]);
                    mix_u64(&mut h, job_ids.len() as u64);
                    for id in job_ids {
                        mix_u64(&mut h, *id as u64);
                    }
                    mix_u64(&mut h, *gpus as u64);
                    mix_u64(&mut h, duration.to_bits());
                }
                EventKind::Finish { job_ids, gpus } => {
                    mix(&mut h, &[2]);
                    mix_u64(&mut h, job_ids.len() as u64);
                    for id in job_ids {
                        mix_u64(&mut h, *id as u64);
                    }
                    mix_u64(&mut h, *gpus as u64);
                }
            }
        }
        h
    }
}

/// One node's digest of a multi-node run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node id.
    pub node: usize,
    /// Jobs the selector routed here.
    pub jobs: usize,
    /// Placements the node's dispatcher executed.
    pub placements: usize,
    /// Time the node's last placement finished (0 for an idle node).
    pub makespan: f64,
    /// Mean GPU busy fraction over the node's makespan.
    pub utilization: f64,
    /// Mean wait of the node's jobs.
    pub avg_wait: f64,
}

impl NodeSummary {
    /// Completed jobs per second of node makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.jobs as f64 / self.makespan
        } else {
            0.0
        }
    }
}

/// How much synchronization work a multi-node run performed.
///
/// The counters are *logical*: they count synchronization rounds and
/// the node advances issued within them, so the barrier driver and an
/// incremental driver of the same schedule report comparable numbers.
/// The barrier pays one round per arrival instant plus the final
/// drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Synchronization rounds.
    pub sync_rounds: u64,
    /// Node-advance work items issued across those rounds.
    pub node_advances: u64,
}

/// Results of a multi-node run: per-node digests, cluster-level
/// aggregates, and the merged deterministic timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiNodeReport {
    /// One summary per node, indexed by node id.
    pub per_node: Vec<NodeSummary>,
    /// Cluster-level aggregate (for one node, bit-identical to the
    /// single-node [`ClusterSim::run`](crate::sim::ClusterSim::run)
    /// report on the same trace).
    pub aggregate: ClusterReport,
    /// The merged `(time, node, seq)`-ordered event stream.
    pub timeline: ClusterTimeline,
    /// Synchronization-work counters (a function of the schedule).
    pub sync: SyncStats,
}

impl MultiNodeReport {
    /// Jobs whose placements finished, summed over the timeline's
    /// finish events — the conservation check the property suite pins.
    #[must_use]
    pub fn completed_jobs(&self) -> usize {
        self.timeline
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Finish { job_ids, .. } => job_ids.len(),
                _ => 0,
            })
            .sum()
    }

    /// Completed jobs per second of cluster makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.aggregate.makespan > 0.0 {
            self.completed_jobs() as f64 / self.aggregate.makespan
        } else {
            0.0
        }
    }
}

/// A resumable multi-node simulation, stepped placement by placement —
/// the shared core under [`MultiNodeSim::run`] (which drives it from a
/// [`NodeSelector`]) and the RL placement environment in
/// [`crate::place`] (which drives it action by action, so training
/// rewards come from exactly the simulation the evaluation runs).
///
/// The cycle per arrival instant `t`:
///
/// 1. [`ClusterDrive::advance_to`]`(t)` — every node simulates up to
///    `t`, then the per-node [`NodeLoad`] snapshots are refreshed;
/// 2. one [`ClusterDrive::place`] per job of the instant — each
///    placement updates the snapshot the next decision sees, so a
///    burst spreads out instead of dog-piling one node;
/// 3. after the last instant, [`ClusterDrive::finish`] drains every
///    node and merges the event streams into the deterministic
///    `(time, node, seq)`-ordered [`ClusterTimeline`].
pub struct ClusterDrive<'a, D: Dispatcher> {
    suite: &'a Suite,
    gpus_per_node: usize,
    runs: Vec<NodeRun<D>>,
    loads: Vec<NodeLoad>,
    placed: usize,
    sync: SyncStats,
}

impl<'a, D: Dispatcher> ClusterDrive<'a, D> {
    /// A fresh cluster of `nodes` nodes at time 0, with load snapshots
    /// taken (all idle). `nodes` is capped at [`MAX_NODES`].
    pub fn new<F: FnMut(usize) -> D>(
        suite: &'a Suite,
        nodes: usize,
        gpus_per_node: usize,
        mut make_dispatcher: F,
    ) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "1..={MAX_NODES} nodes, got {nodes}"
        );
        assert!(gpus_per_node >= 1);
        let runs: Vec<NodeRun<D>> = (0..nodes)
            .map(|i| NodeRun::new(i, gpus_per_node, make_dispatcher(i)))
            .collect();
        let loads = runs.iter().map(|r| r.load(suite, 0.0)).collect();
        Self {
            suite,
            gpus_per_node,
            runs,
            loads,
            placed: 0,
            sync: SyncStats::default(),
        }
    }

    /// Pre-size every node's event buffer for roughly
    /// `expected_total_events` merged events (spread evenly; skewed
    /// routing just grows the hot node's buffer as usual).
    pub fn reserve_events(&mut self, expected_total_events: usize) {
        let per_node = expected_total_events / self.runs.len().max(1);
        for run in &mut self.runs {
            run.reserve_events(per_node);
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.runs.len()
    }

    /// GPUs per node.
    #[must_use]
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// The current per-node load snapshots (refreshed by
    /// [`ClusterDrive::advance_to`], updated incrementally by
    /// [`ClusterDrive::place`]) — exactly what a [`NodeSelector`] is
    /// consulted with.
    #[must_use]
    pub fn loads(&self) -> &[NodeLoad] {
        &self.loads
    }

    fn advance_nodes(&mut self, horizon: f64) {
        self.sync.sync_rounds += 1;
        self.sync.node_advances += self.runs.len() as u64;
        for run in &mut self.runs {
            run.advance_until(self.suite, horizon);
        }
    }

    /// Advance every node to the arrival instant `t` and refresh the
    /// load snapshots — the epoch barrier.
    pub fn advance_to(&mut self, t: f64) {
        self.advance_nodes(t);
        for (load, run) in self.loads.iter_mut().zip(&self.runs) {
            *load = run.load(self.suite, t);
        }
    }

    /// Route `job` to `node`: the snapshot is updated incrementally (so
    /// the next decision of the same burst sees this assignment) and
    /// the job joins the node's arrival queue.
    ///
    /// # Panics
    /// Panics if `node` is out of range or the job cannot fit on a
    /// node.
    pub fn place(&mut self, node: usize, job: ClusterJob) {
        assert!(node < self.nodes(), "node {node} of {}", self.nodes());
        assert!(
            job.gpus <= self.gpus_per_node,
            "job {} needs {} GPUs but nodes have {}",
            job.id,
            job.gpus,
            self.gpus_per_node
        );
        self.loads[node].outstanding += job.solo_time(self.suite);
        self.loads[node].queued_jobs += 1;
        self.placed += 1;
        self.runs[node].push_arrival(job);
    }

    /// Drain every node to the end of time, merge the per-node event
    /// streams under the `(time, node, seq)` key, and assemble the
    /// report. The drive is spent afterwards.
    ///
    /// # Panics
    /// Panics if called twice, or if a node's dispatcher strands jobs
    /// (the per-node deadlock check).
    pub fn finish(&mut self) -> MultiNodeReport {
        assert!(!self.runs.is_empty(), "drive already finished");
        self.advance_nodes(f64::INFINITY);
        let total_jobs = self.placed;
        let nodes = self.runs.len();
        let mut stats: Vec<NodeStats> = Vec::with_capacity(nodes);
        let mut streams: Vec<Vec<NodeEvent>> = Vec::with_capacity(nodes);
        for run in std::mem::take(&mut self.runs) {
            let (s, e, _) = run.finish();
            stats.push(s);
            streams.push(e);
        }
        let mut events = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        for stream in streams {
            events.extend(stream);
        }
        assemble_report(stats, events, self.gpus_per_node, total_jobs, self.sync)
    }

    /// Jobs routed through [`ClusterDrive::place`] so far.
    #[must_use]
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// The logical synchronization counters accumulated so far.
    #[must_use]
    pub fn sync_stats(&self) -> SyncStats {
        self.sync
    }

    /// `true` when `node` is *quiescent*: nothing running, waiting, or
    /// queued, no pending dispatch, and no dispatcher wakeup hint.
    /// Advancing a quiescent node to any horizon is a no-op and its
    /// [`NodeLoad`] is time-invariant (outstanding exactly `0.0`), so
    /// an incremental driver may skip it without perturbing the
    /// timeline or the selector inputs — the dirty-set contract the
    /// online service (`hrp-serve`) builds on.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_is_quiescent(&self, node: usize) -> bool {
        let run = &self.runs[node];
        run.is_idle() && !run.is_dirty() && run.wakeup_hint().is_none()
    }

    /// Advance a *single* node to `t` and refresh its load snapshot —
    /// the incremental counterpart of [`ClusterDrive::advance_to`],
    /// used by dirty-set drivers that re-plan only non-quiescent
    /// nodes. Counts one node-advance; the per-cycle round counter is
    /// bumped separately via [`ClusterDrive::note_round`].
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn advance_node_to(&mut self, node: usize, t: f64) {
        self.sync.node_advances += 1;
        let run = &mut self.runs[node];
        run.advance_until(self.suite, t);
        self.loads[node] = run.load(self.suite, t);
    }

    /// Count one incremental scheduling cycle as a synchronization
    /// round, so [`SyncStats::sync_rounds`] stays comparable between
    /// the batch barrier driver (one round per epoch) and an
    /// incremental driver (one round per cycle).
    pub fn note_round(&mut self) {
        self.sync.sync_rounds += 1;
    }

    /// The earliest strictly-future dispatcher wakeup hint across all
    /// nodes — when an otherwise idle cluster next wants a cycle (e.g.
    /// a backfill reservation expiring).
    #[must_use]
    pub fn next_wakeup(&self) -> Option<f64> {
        self.runs
            .iter()
            .filter_map(NodeRun::wakeup_hint)
            .min_by(f64::total_cmp)
    }

    /// One node's [`NodeRun`] (checkpointing reads node state through
    /// this).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node(&self, node: usize) -> &NodeRun<D> {
        &self.runs[node]
    }

    /// Rebuild a drive mid-run from exported node states (paired with
    /// dispatchers restored to the matching point), the load snapshots
    /// taken at capture time, and the routing/sync counters. Resumes
    /// bit-identically to the drive the states were captured from.
    ///
    /// # Panics
    /// Panics on inconsistent geometry (no nodes, more than
    /// [`MAX_NODES`], or a state whose GPU pool disagrees with
    /// `gpus_per_node`).
    #[must_use]
    pub fn from_states(
        suite: &'a Suite,
        gpus_per_node: usize,
        parts: Vec<(crate::sim::NodeRunState, D)>,
        loads: Vec<NodeLoad>,
        placed: usize,
        sync: SyncStats,
    ) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&parts.len()),
            "1..={MAX_NODES} nodes, got {}",
            parts.len()
        );
        assert_eq!(parts.len(), loads.len(), "one load snapshot per node");
        let runs: Vec<NodeRun<D>> = parts
            .into_iter()
            .map(|(state, dispatcher)| {
                assert_eq!(state.n_gpus, gpus_per_node, "node geometry mismatch");
                NodeRun::from_state(state, dispatcher)
            })
            .collect();
        Self {
            suite,
            gpus_per_node,
            runs,
            loads,
            placed,
            sync,
        }
    }
}

/// Merge per-node streams under the `(time, node, seq)` key and
/// assemble the report.
fn assemble_report(
    stats: Vec<NodeStats>,
    mut events: Vec<NodeEvent>,
    gpus_per_node: usize,
    total_jobs: usize,
    sync: SyncStats,
) -> MultiNodeReport {
    events.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then(a.node.cmp(&b.node))
            .then(a.seq.cmp(&b.seq))
    });
    debug_assert_eq!(
        stats.iter().map(|s| s.completed).sum::<usize>(),
        total_jobs,
        "every job must complete"
    );

    let makespan = stats.iter().map(|s| s.makespan).fold(0.0, f64::max);
    let wait_sum: f64 = stats.iter().map(|s| s.wait_sum).sum();
    let busy: f64 = stats.iter().map(|s| s.busy_gpu_seconds).sum();
    let total_gpus = stats.len() * gpus_per_node;
    let aggregate = ClusterReport {
        makespan,
        avg_wait: if total_jobs > 0 {
            wait_sum / total_jobs as f64
        } else {
            0.0
        },
        utilization: if makespan > 0.0 {
            busy / (makespan * total_gpus as f64)
        } else {
            0.0
        },
        placements: stats.iter().map(|s| s.placements).sum(),
    };
    let per_node = stats
        .into_iter()
        .map(|s| NodeSummary {
            node: s.node,
            jobs: s.jobs,
            placements: s.placements,
            makespan: s.makespan,
            utilization: if s.makespan > 0.0 {
                s.busy_gpu_seconds / (s.makespan * gpus_per_node as f64)
            } else {
                0.0
            },
            avg_wait: if s.jobs > 0 {
                s.wait_sum / s.jobs as f64
            } else {
                0.0
            },
        })
        .collect();
    MultiNodeReport {
        per_node,
        aggregate,
        timeline: ClusterTimeline { events },
        sync,
    }
}

/// Group a sorted trace into `(instant, burst)` pairs of co-timed
/// arrivals (the epoch structure both the simulator and the placement
/// environment walk).
pub(crate) fn burst_bounds(jobs: &[ClusterJob]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < jobs.len() {
        let t = jobs[start].arrival;
        let mut end = start + 1;
        while end < jobs.len() && jobs[end].arrival.total_cmp(&t).is_eq() {
            end += 1;
        }
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// A cluster of `nodes` identical nodes with `gpus_per_node` GPUs each.
#[derive(Debug)]
pub struct MultiNodeSim {
    nodes: usize,
    gpus_per_node: usize,
    queue_order: crate::backfill::QueueOrder,
    fair_order: Option<crate::fair::FairConfig>,
}

impl MultiNodeSim {
    /// New cluster. `nodes` is capped at [`MAX_NODES`].
    #[must_use]
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "1..={MAX_NODES} nodes, got {nodes}"
        );
        assert!(gpus_per_node >= 1);
        Self {
            nodes,
            gpus_per_node,
            queue_order: crate::backfill::QueueOrder::Arrival,
            fair_order: None,
        }
    }

    /// The queue-reordering hook: reorder simultaneous arrivals with
    /// `order` before the barrier loop sees them, so a backfilling
    /// planner (or the RL layer) owns dispatch order within a burst.
    /// The reorder happens once on the sorted trace, before any node
    /// advances.
    #[must_use]
    pub fn with_queue_order(mut self, order: crate::backfill::QueueOrder) -> Self {
        self.queue_order = order;
        self
    }

    /// Layer per-user fair-share ordering on top of the queue order:
    /// each same-instant burst is reordered by tenant karma
    /// ([`crate::fair::apply_fair_order`]) after
    /// [`MultiNodeSim::with_queue_order`] runs. Like that hook, the
    /// reorder happens once on the sorted trace. A no-op on untagged
    /// (`user: 0`) traces.
    #[must_use]
    pub fn with_fair_order(mut self, cfg: crate::fair::FairConfig) -> Self {
        self.fair_order = Some(cfg);
        self
    }

    /// Run a global job trace through the cluster: `selector` routes
    /// each arrival to a node, `make_dispatcher(node)` builds the
    /// node-local dispatcher.
    ///
    /// # Panics
    /// Panics if a job requests more GPUs than a node has, if the
    /// selector returns an out-of-range node, or if a node's dispatcher
    /// strands jobs (the per-node deadlock check).
    pub fn run<D, F>(
        &self,
        suite: &Suite,
        mut jobs: Vec<ClusterJob>,
        selector: &mut dyn NodeSelector,
        make_dispatcher: F,
    ) -> MultiNodeReport
    where
        D: Dispatcher,
        F: FnMut(usize) -> D,
    {
        for j in &jobs {
            assert!(
                j.gpus <= self.gpus_per_node,
                "job {} needs {} GPUs but nodes have {}",
                j.id,
                j.gpus,
                self.gpus_per_node
            );
        }
        // Stable by arrival: simultaneous submissions keep their order,
        // exactly like the single-node simulator. The queue-order hook
        // then reorders *within* each same-instant burst only.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        self.queue_order.apply(suite, &mut jobs);
        if let Some(fair) = &self.fair_order {
            crate::fair::apply_fair_order(suite, fair, &mut jobs);
        }

        let mut drive = ClusterDrive::new(suite, self.nodes, self.gpus_per_node, make_dispatcher);
        drive.reserve_events(2 * jobs.len());

        for (start, end) in burst_bounds(&jobs) {
            // Epoch: advance every node to this arrival instant, then
            // place the instant's jobs against the barrier snapshots.
            drive.advance_to(jobs[start].arrival);
            for job in &jobs[start..end] {
                let work = job.solo_time(suite);
                let node = selector.select(job.gpus, work, drive.loads());
                assert!(
                    node < self.nodes,
                    "selector picked node {node} of {}",
                    self.nodes
                );
                drive.place(node, job.clone());
            }
        }
        drive.finish()
    }
}

/// A deterministic demo/benchmark trace: `n` jobs drawn from the suite
/// with a class-interleaving stride, arriving in bursts of four every
/// 5 s; every ninth job asks for two GPUs (gang-scheduled exclusively
/// by the co-scheduling dispatcher).
#[must_use]
pub fn staggered_trace(suite: &Suite, n: usize) -> Vec<ClusterJob> {
    (0..n)
        .map(|i| {
            let name = suite.by_index((i * 7) % suite.len()).app.name.clone();
            let gpus = if i % 9 == 8 { 2 } else { 1 };
            ClusterJob::new(i, &name, (i / 4) as f64 * 5.0, gpus, suite)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosched::CoSchedulingDispatcher;
    use crate::select::{LeastLoaded, RoundRobin, SelectorKind};
    use crate::sim::ClusterSim;
    use hrp_core::policies::MpsOnly;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn dispatcher() -> CoSchedulingDispatcher<MpsOnly> {
        CoSchedulingDispatcher::new(MpsOnly, 4, 4)
    }

    #[test]
    fn one_node_matches_the_single_node_simulator_bit_for_bit() {
        let s = suite();
        let jobs = staggered_trace(&s, 20);
        let mut rr = RoundRobin::default();
        let multi = MultiNodeSim::new(1, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        let mut single = dispatcher();
        let (base, base_events) = ClusterSim::new(2).run_traced(&s, jobs, &mut single);
        assert_eq!(multi.aggregate, base);
        assert_eq!(multi.timeline.events, base_events);
        assert_eq!(multi.per_node.len(), 1);
        assert_eq!(multi.per_node[0].jobs, 20);
    }

    #[test]
    fn round_robin_cycles_and_least_loaded_balances() {
        let s = suite();
        let jobs = staggered_trace(&s, 16);
        let mut rr = RoundRobin::default();
        let a = MultiNodeSim::new(4, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        assert!(
            a.per_node.iter().all(|n| n.jobs == 4),
            "round-robin spreads 16 jobs evenly: {:?}",
            a.per_node.iter().map(|n| n.jobs).collect::<Vec<_>>()
        );
        let mut ll = LeastLoaded;
        let b = MultiNodeSim::new(4, 2).run(&s, jobs, &mut ll, |_| dispatcher());
        assert_eq!(b.completed_jobs(), 16);
        assert!(b.per_node.iter().all(|n| n.jobs > 0), "no node starves");
    }

    #[test]
    fn more_nodes_shorten_the_makespan() {
        let s = suite();
        let jobs = staggered_trace(&s, 24);
        let mut one = SelectorKind::LeastLoaded.build();
        let single = MultiNodeSim::new(1, 2).run(&s, jobs.clone(), one.as_mut(), |_| dispatcher());
        let mut four = SelectorKind::LeastLoaded.build();
        let quad = MultiNodeSim::new(4, 2).run(&s, jobs, four.as_mut(), |_| dispatcher());
        assert!(
            quad.aggregate.makespan < single.aggregate.makespan,
            "4 nodes {} should beat 1 node {}",
            quad.aggregate.makespan,
            single.aggregate.makespan
        );
    }

    #[test]
    fn digest_tracks_the_event_sequence() {
        let s = suite();
        let jobs = staggered_trace(&s, 12);
        let mut rr = RoundRobin::default();
        let a = MultiNodeSim::new(2, 2).run(&s, jobs.clone(), &mut rr, |_| dispatcher());
        let mut ll = LeastLoaded;
        let b = MultiNodeSim::new(2, 2).run(&s, jobs, &mut ll, |_| dispatcher());
        assert_eq!(a.timeline.digest(), a.timeline.digest(), "digest is pure");
        // The two selectors place differently on this trace, and the
        // digest must see it.
        assert_ne!(a.timeline.events, b.timeline.events);
        assert_ne!(a.timeline.digest(), b.timeline.digest());
    }

    #[test]
    #[should_panic(expected = "needs 4 GPUs")]
    fn oversized_jobs_are_rejected_up_front() {
        let s = suite();
        let jobs = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let mut rr = RoundRobin::default();
        let _ = MultiNodeSim::new(2, 2).run(&s, jobs, &mut rr, |_| dispatcher());
    }

    #[test]
    fn barrier_pays_one_round_per_instant_plus_the_drain() {
        // staggered_trace(24) has 6 arrival instants; every round
        // advances all 4 nodes.
        let s = suite();
        let jobs = staggered_trace(&s, 24);
        let mut sel = SelectorKind::LeastLoaded.build();
        let report = MultiNodeSim::new(4, 2).run(&s, jobs, sel.as_mut(), |_| dispatcher());
        assert_eq!(report.sync.sync_rounds, 7, "6 instants + final drain");
        assert_eq!(report.sync.node_advances, 28);
    }

    #[test]
    fn counters_are_fanout_invariant() {
        // SyncStats counts logical rounds, not how a round is issued:
        // one barrier `advance_to` per instant and a hand-driven round
        // of per-node advances (in reverse node order) report the same
        // counters and merge to the same timeline.
        let s = suite();
        let mut jobs = staggered_trace(&s, 16);
        let mut sel = SelectorKind::LeastLoaded.build();
        let barrier = MultiNodeSim::new(4, 2).run(&s, jobs.clone(), sel.as_mut(), |_| dispatcher());

        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let mut sel = SelectorKind::LeastLoaded.build();
        let mut drive = ClusterDrive::new(&s, 4, 2, |_| dispatcher());
        for (start, end) in burst_bounds(&jobs) {
            drive.note_round();
            for node in (0..drive.nodes()).rev() {
                drive.advance_node_to(node, jobs[start].arrival);
            }
            for job in &jobs[start..end] {
                let node = sel.select(job.gpus, job.solo_time(&s), drive.loads());
                drive.place(node, job.clone());
            }
        }
        assert_eq!(drive.finish(), barrier);
    }

    #[test]
    fn digest_mixes_full_u64_sequence_numbers() {
        // The 1M-job audit pin: per-node seqs are u64 end to end, and
        // the digest must see bits past the u32 boundary (a silent
        // truncation would alias these two timelines).
        let ev = |seq: u64| NodeEvent {
            time: 1.0,
            node: 0,
            seq,
            kind: EventKind::Arrival { job: 0 },
        };
        let a = ClusterTimeline {
            events: vec![ev(1)],
        };
        let b = ClusterTimeline {
            events: vec![ev(1 + (u64::from(u32::MAX) + 1))],
        };
        assert_ne!(a.digest(), b.digest());
    }
}
