//! RL-trained node placement: an [`Env`]-implementing [`ClusterEnv`]
//! whose rewards come from the **real multi-node simulation**, plus the
//! training, deployment, and checkpoint wiring around it.
//!
//! The PR-4 placement environment was a stub: its "load" was synthetic
//! accumulation (assigned work never drained) and its reward a
//! load-balance shaping term. This module closes the loop the paper's
//! §VI sketches: every episode replays a job trace through the exact
//! [`ClusterDrive`] cycle the evaluation simulator
//! ([`crate::multinode::MultiNodeSim`]) runs, so the states the agent
//! learns from are realized [`NodeLoad`] snapshots (running placements
//! drain, co-scheduling speedups show up, queues clear) and the
//! terminal signal is the realized cluster makespan.
//!
//! # Reward definition
//!
//! A step places the episode's next job on node `a` at its arrival
//! instant, against the barrier load snapshot `L` (updated
//! incrementally within a burst, exactly as a [`NodeSelector`](crate::NodeSelector) would
//! see it):
//!
//! * **Per-decision queue-delay delta** `r_i = (best − chosen) / norm`
//!   where `chosen = L[a].outstanding / L[a].total_gpus` is the
//!   realized queue-delay estimate the job faces on the chosen node,
//!   `best` is the minimum of that quantity over the nodes that can
//!   host the job, and `norm` is `1 +` the trace's mean solo time.
//!   `r_i ≤ 0`, and `0` exactly when the choice is (one of) the
//!   realized-least-loaded nodes — the greedy heuristic is the
//!   zero-regret point of the shaping term, but the loads it is
//!   measured against come from the live simulation, not synthetic
//!   accumulation.
//! * **Terminal makespan bonus** `r_f = rf_weight × bound / makespan`,
//!   paid on the last placement after the cluster drains: `makespan`
//!   is the realized [`MultiNodeReport`] makespan and `bound` the
//!   perfect-balance lower bound (total GPU-seconds over cluster
//!   GPUs). This is the signal that can push the policy *past*
//!   least-loaded: a placement that looks locally worse but shortens
//!   the realized schedule pays off here.
//!
//! Because the environment consults [`ClusterDrive::loads`] — the same
//! snapshots [`MultiNodeSim::run`](crate::multinode::MultiNodeSim::run)
//! hands a [`NodeSelector`](crate::NodeSelector) — a greedy rollout of a trained agent
//! through [`ClusterEnv`] produces **identical placements** to
//! deploying that agent as a [`PolicySelector`] inside the simulator
//! (asserted in this module's tests and pinned by
//! `tests/golden_placement.rs`).
//!
//! # Training and deployment
//!
//! [`train_placement`] runs the generic rollout/learner pipeline
//! ([`train_env`]) over seed-derived traces from the
//! [`crate::trace`] generator suite — all pipeline guarantees
//! (worker-count invariance, overlap staleness, sharded replay) carry
//! over unchanged. The result is a [`PlacementAgent`]:
//! [`PlacementAgent::selector`] turns it into a drop-in
//! [`NodeSelector`](crate::NodeSelector), and [`PlacementAgent::save_bytes`] /
//! [`PlacementExperiment::load_bytes`] checkpoint spec + weights in the
//! same container style as `hrp-core`'s `Experiment` (`HRPP` magic),
//! reloading to bit-identical placements.

use crate::backfill::{BackfillPlanner, BackfillPolicy, QueueOrder};
use crate::cosched::CoSchedulingDispatcher;
use crate::job::ClusterJob;
use crate::multinode::{ClusterDrive, MultiNodeReport};
use crate::sim::Dispatcher;
use crate::trace::{self, TraceConfig, TraceKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hrp_core::cluster_env::{encode_placement_state, placement_fit_mask, NodeLoad, PolicySelector};
use hrp_core::env::StepResult;
use hrp_core::experiment::CheckpointError;
use hrp_core::policies::MpsOnly;
use hrp_core::rl::{greedy_rollout, DqnSnapshot, Env, EnvFactory, Learner};
use hrp_core::train::{train_env, PipelineConfig, TrainReport};
use hrp_nn::net::Head;
use hrp_nn::serialize::{decode_params, save_weights};
use hrp_nn::{DqnAgent, DqnConfig};
use hrp_workloads::Suite;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Magic prefix for placement checkpoints (the cluster-tier sibling of
/// `hrp-core`'s `HRPE`).
const MAGIC: &[u8; 4] = b"HRPP";
/// Checkpoint format version.
const VERSION: u32 = 1;

/// What a drained placement episode yields: the assignment vector plus
/// the realized simulation report (the makespan the terminal reward was
/// computed from).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOutcome {
    /// One node id per trace job, in arrival order.
    pub assignment: Vec<usize>,
    /// The drained cluster report (`None` only if the episode was
    /// consumed before completion).
    pub report: Option<MultiNodeReport>,
}

/// One placement episode as an [`Env`]: route each job of a (sorted)
/// trace to one of `N` identical nodes, with rewards from the realized
/// simulation — see the [module docs](self) for the exact definition.
///
/// * **State** — [`encode_placement_state`] over the live
///   [`ClusterDrive::loads`] snapshots and the arriving job
///   (`2·N + 2` floats; all-zero job features once drained).
/// * **Action** — the node id (`N` actions; the mask drops nodes too
///   small for the job, so placement never dead-ends).
/// * **Decision** — a [`PlacementOutcome`].
pub struct ClusterEnv<'a, D: Dispatcher> {
    suite: &'a Suite,
    trace: &'a [ClusterJob],
    make: &'a (dyn Fn(usize) -> D + Sync),
    nodes: usize,
    gpus_per_node: usize,
    rf_weight: f64,
    /// Reward normaliser: `1 +` mean job solo time.
    norm: f64,
    /// Perfect-balance makespan lower bound (total GPU-seconds over
    /// cluster GPUs).
    bound: f64,
    drive: ClusterDrive<'a, D>,
    pos: usize,
    assignment: Vec<usize>,
    report: Option<MultiNodeReport>,
}

impl<'a, D: Dispatcher> ClusterEnv<'a, D> {
    /// A placement episode over `nodes` identical nodes of
    /// `gpus_per_node` GPUs, each running `make_dispatcher(node)`.
    /// `trace` must be non-empty, sorted by arrival, and fit the nodes.
    ///
    /// # Panics
    /// Panics if `trace` is empty or unsorted, if `nodes` is outside
    /// `1..=`[`MAX_NODES`](crate::multinode::MAX_NODES), or if any job
    /// cannot fit on a node.
    pub fn new(
        suite: &'a Suite,
        nodes: usize,
        gpus_per_node: usize,
        trace: &'a [ClusterJob],
        make_dispatcher: &'a (dyn Fn(usize) -> D + Sync),
        rf_weight: f64,
    ) -> Self {
        assert!(!trace.is_empty(), "a placement episode needs jobs");
        assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be sorted by arrival"
        );
        for j in trace {
            assert!(
                j.gpus >= 1 && j.gpus <= gpus_per_node,
                "job {} needs {} GPUs but nodes have {gpus_per_node}",
                j.id,
                j.gpus
            );
        }
        let total_work: f64 = trace.iter().map(|j| j.solo_time(suite)).sum();
        let gpu_seconds: f64 = trace
            .iter()
            .map(|j| j.solo_time(suite) * j.gpus as f64)
            .sum();
        let mut env = Self {
            suite,
            trace,
            make: make_dispatcher,
            nodes,
            gpus_per_node,
            rf_weight,
            norm: 1.0 + total_work / trace.len() as f64,
            bound: gpu_seconds / (nodes * gpus_per_node) as f64,
            drive: ClusterDrive::new(suite, nodes, gpus_per_node, make_dispatcher),
            pos: 0,
            assignment: Vec::with_capacity(trace.len()),
            report: None,
        };
        env.drive.reserve_events(2 * trace.len());
        env.drive.advance_to(env.trace[0].arrival);
        env
    }

    /// Number of nodes (= action-space size).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The live load snapshots the next decision is made against.
    #[must_use]
    pub fn loads(&self) -> &[NodeLoad] {
        self.drive.loads()
    }
}

impl<D: Dispatcher> Env for ClusterEnv<'_, D> {
    type Decision = PlacementOutcome;

    fn state_dim(&self) -> usize {
        2 * self.nodes + 2
    }

    fn n_actions(&self) -> usize {
        self.nodes
    }

    fn done(&self) -> bool {
        self.pos == self.trace.len()
    }

    fn state_into(&self, out: &mut Vec<f32>) {
        let (gpus, work) = self
            .trace
            .get(self.pos)
            .map_or((0, 0.0), |j| (j.gpus, j.solo_time(self.suite)));
        encode_placement_state(self.drive.loads(), gpus, work, out);
    }

    fn valid_mask(&self) -> u64 {
        if self.done() {
            return 0;
        }
        placement_fit_mask(self.drive.loads(), self.trace[self.pos].gpus)
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(!self.done(), "step on a drained placement episode");
        let mask = self.valid_mask();
        assert!(
            action < self.nodes && (mask >> action) & 1 == 1,
            "node {action} is not a valid placement"
        );
        let job = self.trace[self.pos].clone();
        let loads = self.drive.loads();
        let best = loads
            .iter()
            .filter(|l| l.total_gpus >= job.gpus)
            .map(NodeLoad::per_gpu_outstanding)
            .fold(f64::INFINITY, f64::min);
        let ri = (best - loads[action].per_gpu_outstanding()) / self.norm;
        self.drive.place(action, job);
        self.assignment.push(action);
        self.pos += 1;
        if self.pos < self.trace.len() {
            let next = self.trace[self.pos].arrival;
            if next.total_cmp(&self.trace[self.pos - 1].arrival).is_ne() {
                self.drive.advance_to(next);
            }
            StepResult {
                reward: ri,
                done: false,
                rf: 0.0,
                ri_mean: ri,
            }
        } else {
            let report = self.drive.finish();
            let makespan = report.aggregate.makespan;
            let rf = self.rf_weight * self.bound / makespan.max(f64::MIN_POSITIVE);
            self.report = Some(report);
            StepResult {
                reward: ri + rf,
                done: true,
                rf,
                ri_mean: ri,
            }
        }
    }

    fn reset(&mut self) {
        self.drive = ClusterDrive::new(self.suite, self.nodes, self.gpus_per_node, self.make);
        self.drive.reserve_events(2 * self.trace.len());
        self.drive.advance_to(self.trace[0].arrival);
        self.pos = 0;
        self.assignment.clear();
        self.report = None;
    }

    fn into_decision(self) -> PlacementOutcome {
        PlacementOutcome {
            assignment: self.assignment,
            report: self.report,
        }
    }
}

/// The legacy node-local dispatcher: window co-scheduling with the
/// MPS-only node policy (cheap — no node-level training required).
/// [`PlacementConfig::node_dispatcher`] now returns the
/// [`PlacementDispatcher`] wrapper so the RL layer can also act
/// *through* a backfilling planner.
pub type NodeDispatcher = CoSchedulingDispatcher<MpsOnly>;

/// The node-local dispatcher a [`PlacementConfig`] selects: the
/// co-scheduling window dispatcher, or a slot-tree backfilling
/// planner — the knob that lets the RL agent parameterize the
/// classical scheduler it places jobs *through*
/// ([`PlacementConfig::backfill`] / [`PlacementConfig::walltime_err`]
/// / [`PlacementConfig::queue_order`]).
#[derive(Clone)]
pub enum PlacementDispatcher {
    /// Window co-scheduling with the MPS-only node policy.
    CoSched(NodeDispatcher),
    /// Slot-tree backfilling ([`crate::backfill`]).
    Backfill(BackfillPlanner),
}

impl Dispatcher for PlacementDispatcher {
    fn name(&self) -> &'static str {
        match self {
            Self::CoSched(d) => d.name(),
            Self::Backfill(d) => d.name(),
        }
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<crate::sim::Placement> {
        match self {
            Self::CoSched(d) => d.next_placement(suite, waiting, free_gpus, now),
            Self::Backfill(d) => d.next_placement(suite, waiting, free_gpus, now),
        }
    }

    fn next_wakeup(&self, now: f64) -> Option<f64> {
        match self {
            Self::CoSched(d) => d.next_wakeup(now),
            Self::Backfill(d) => d.next_wakeup(now),
        }
    }
}

/// Stamps out [`ClusterEnv`] episodes over job traces: the
/// episode-invariant pieces (suite, cluster geometry, dispatcher
/// constructor, reward weight) behind the [`EnvFactory`] interface, so
/// [`train_env`] runs placement training with zero pipeline changes.
pub struct PlacementEnvFactory<'a, D, M>
where
    D: Dispatcher,
    M: Fn(usize) -> D + Sync,
{
    suite: &'a Suite,
    nodes: usize,
    gpus_per_node: usize,
    make: M,
    rf_weight: f64,
    steps_hint: usize,
}

impl<'a, D, M> PlacementEnvFactory<'a, D, M>
where
    D: Dispatcher,
    M: Fn(usize) -> D + Sync,
{
    /// Bundle the episode-invariant state. `steps_hint` is the expected
    /// jobs per trace (scales the ε-decay schedule).
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        nodes: usize,
        gpus_per_node: usize,
        make_dispatcher: M,
        rf_weight: f64,
        steps_hint: usize,
    ) -> Self {
        Self {
            suite,
            nodes,
            gpus_per_node,
            make: make_dispatcher,
            rf_weight,
            steps_hint,
        }
    }
}

impl<D, M> EnvFactory for PlacementEnvFactory<'_, D, M>
where
    D: Dispatcher,
    M: Fn(usize) -> D + Sync,
{
    type Ctx = Vec<ClusterJob>;

    type Env<'e>
        = ClusterEnv<'e, D>
    where
        Self: 'e;

    fn make<'e>(&'e self, trace: &'e Vec<ClusterJob>) -> ClusterEnv<'e, D> {
        ClusterEnv::new(
            self.suite,
            self.nodes,
            self.gpus_per_node,
            trace,
            &self.make,
            self.rf_weight,
        )
    }

    fn state_dim(&self) -> usize {
        2 * self.nodes + 2
    }

    fn n_actions(&self) -> usize {
        self.nodes
    }

    fn episode_steps_hint(&self) -> usize {
        self.steps_hint
    }
}

/// Placement-training configuration: cluster geometry, the training
/// trace family, and the DQN/pipeline knobs (mirroring
/// `hrp-core::train::TrainConfig` where they overlap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Simulated nodes (= action-space size).
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Window size of each node's co-scheduling dispatcher.
    pub node_w: usize,
    /// Concurrency cap of each node's co-scheduling dispatcher.
    pub node_cmax: usize,
    /// The training-trace family; episode `e` replays trace
    /// `e % n_traces`, generated with a seed derived from
    /// `trace.seed` (see [`training_traces`]).
    pub trace: TraceConfig,
    /// Number of distinct training traces.
    pub n_traces: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Target-network sync period (learning steps).
    pub target_sync_every: u64,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Double-DQN targets.
    pub double: bool,
    /// Dueling head.
    pub dueling: bool,
    /// Final ε of the exploration schedule.
    pub eps_end: f64,
    /// Terminal makespan-bonus weight (see the [module docs](self)).
    pub rf_weight: f64,
    /// Master seed (weights, ε draws, per-episode RNG streams).
    pub seed: u64,
    /// Rollout worker threads (execution detail; results identical for
    /// any value).
    pub n_workers: usize,
    /// Episodes rolled out per weight snapshot.
    pub rollout_round: usize,
    /// Double-buffered training rounds.
    pub overlap: bool,
    /// Replay shards.
    pub shards: usize,
    /// Node-local backfilling policy, or `None` for the legacy
    /// co-scheduling dispatcher. This is the planner-parameterization
    /// action of the ISSUE's RL split: the policy fixes the
    /// reservation depth ([`BackfillPolicy::depth_and_backfill`]).
    pub backfill: Option<BackfillPolicy>,
    /// Walltime-estimate error fraction for backfilling nodes
    /// (`[0, 1)`; ignored without [`PlacementConfig::backfill`]).
    pub walltime_err: f64,
    /// How simultaneous arrivals are ordered before episodes and
    /// deployments see them (the queue-order pick).
    pub queue_order: QueueOrder,
    /// Layer per-user fair-share ordering ([`crate::fair`]) on top of
    /// [`PlacementConfig::queue_order`] for training traces and
    /// deployments. Only meaningful with [`TraceConfig::users`] ≥ 2;
    /// a no-op on untagged traces.
    pub fair_order: bool,
    /// Per-user in-flight quota for the fairness knobs handed to the
    /// serving tier ([`usize::MAX`] = unlimited).
    pub fair_quota: usize,
    /// Karma half-life (seconds) of the fair-share accounting.
    pub fair_half_life: f64,
}

impl PlacementConfig {
    /// The evaluation-scale default: a 4-node × 2-GPU cluster trained
    /// on 32-job skewed traces.
    #[must_use]
    pub fn default_cfg() -> Self {
        Self {
            nodes: 4,
            gpus_per_node: 2,
            node_w: 4,
            node_cmax: 4,
            trace: TraceConfig::new(TraceKind::Skewed, 32, 42),
            n_traces: 12,
            episodes: 600,
            hidden: vec![64, 32],
            gamma: 0.98,
            lr: 1e-3,
            batch_size: 32,
            target_sync_every: 200,
            buffer_capacity: 20_000,
            double: true,
            dueling: true,
            eps_end: 0.02,
            rf_weight: 0.5,
            seed: 42,
            n_workers: 0,
            rollout_round: 8,
            overlap: false,
            shards: 1,
            backfill: None,
            walltime_err: 0.0,
            queue_order: QueueOrder::Arrival,
            fair_order: false,
            fair_quota: usize::MAX,
            fair_half_life: 300.0,
        }
    }

    /// A small configuration for tests and `--quick` smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            episodes: 240,
            n_traces: 6,
            hidden: vec![32, 16],
            ..Self::default_cfg()
        }
    }

    /// The [`DqnConfig`] this placement geometry induces (shared by
    /// training and checkpoint loading, so a reloaded agent always has
    /// the trained shape).
    #[must_use]
    pub fn dqn_config(&self) -> DqnConfig {
        DqnConfig {
            state_dim: 2 * self.nodes + 2,
            n_actions: self.nodes,
            hidden: self.hidden.clone(),
            gamma: self.gamma,
            lr: self.lr,
            batch_size: self.batch_size,
            target_sync_every: self.target_sync_every,
            buffer_capacity: self.buffer_capacity,
            shards: self.shards.max(1),
            huber_delta: 1.0,
            double: self.double,
            head: if self.dueling {
                Head::Dueling
            } else {
                Head::Plain
            },
            seed: self.seed,
        }
    }

    /// The fairness knobs as a [`crate::fair::FairConfig`] (quota +
    /// karma half-life), shared with the serving admission tier.
    #[must_use]
    pub fn fair_config(&self) -> crate::fair::FairConfig {
        let cfg = crate::fair::FairConfig::new().half_life(self.fair_half_life);
        if self.fair_quota == usize::MAX {
            cfg
        } else {
            cfg.quota(self.fair_quota)
        }
    }

    /// A fresh node-local dispatcher for this config: a backfilling
    /// planner when [`PlacementConfig::backfill`] is set, the window
    /// co-scheduling dispatcher otherwise.
    #[must_use]
    pub fn node_dispatcher(&self) -> PlacementDispatcher {
        match self.backfill {
            None => PlacementDispatcher::CoSched(CoSchedulingDispatcher::new(
                MpsOnly,
                self.node_w,
                self.node_cmax,
            )),
            Some(policy) => PlacementDispatcher::Backfill(
                BackfillPlanner::new(policy, self.gpus_per_node)
                    .with_walltime_err(self.walltime_err),
            ),
        }
    }
}

/// The seed of training trace `i`: the same stream-splitting mix the
/// pipeline uses for per-episode RNGs, so traces are independent and
/// reproducible from the base seed alone.
#[must_use]
pub fn trace_seed(base: u64, i: usize) -> u64 {
    base ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)
}

/// Generate the config's training-trace family: `n_traces` traces of
/// the configured kind/size, seeds derived via [`trace_seed`].
#[must_use]
pub fn training_traces(suite: &Suite, cfg: &PlacementConfig) -> Vec<Vec<ClusterJob>> {
    (0..cfg.n_traces.max(1))
        .map(|i| {
            let tc = cfg
                .trace
                .clone()
                .seed(trace_seed(cfg.trace.seed, i))
                .max_gpus(cfg.gpus_per_node);
            let mut jobs = trace::generate(suite, &tc);
            cfg.queue_order.apply(suite, &mut jobs);
            if cfg.fair_order {
                crate::fair::apply_fair_order(suite, &cfg.fair_config(), &mut jobs);
            }
            jobs
        })
        .collect()
}

/// Train a placement agent end-to-end through the generic
/// rollout/learner pipeline: episodes replay seed-derived traces
/// through the simulation-backed [`ClusterEnv`], the learner is a
/// plain [`DqnAgent`] over the `2·N + 2` placement state. Bit-identical
/// for any [`PlacementConfig::n_workers`] value.
#[must_use]
pub fn train_placement(suite: &Suite, cfg: PlacementConfig) -> (PlacementAgent, TrainReport) {
    let traces = training_traces(suite, &cfg);
    let template = cfg.clone();
    let factory = PlacementEnvFactory::new(
        suite,
        cfg.nodes,
        cfg.gpus_per_node,
        move |_| template.node_dispatcher(),
        cfg.rf_weight,
        cfg.trace.jobs,
    );
    let agent = DqnAgent::new(cfg.dqn_config());
    let pipeline = PipelineConfig {
        episodes: cfg.episodes,
        seed: cfg.seed,
        eps_end: cfg.eps_end,
        n_workers: cfg.n_workers,
        rollout_round: cfg.rollout_round,
        overlap: cfg.overlap,
        shards: cfg.shards.max(1),
    };
    let (agent, report) = train_env(&factory, agent, &traces, &pipeline);
    (PlacementAgent { agent, cfg }, report)
}

/// A trained (or freshly initialised) placement agent: the DQN plus
/// the config that shaped it.
pub struct PlacementAgent {
    agent: DqnAgent,
    cfg: PlacementConfig,
}

impl PlacementAgent {
    /// An *untrained* agent of this geometry (deterministic initial
    /// weights from the config seed) — useful as a property-test
    /// selector and as the pre-training baseline.
    #[must_use]
    pub fn untrained(cfg: PlacementConfig) -> Self {
        Self {
            agent: DqnAgent::new(cfg.dqn_config()),
            cfg,
        }
    }

    /// The configuration used.
    #[must_use]
    pub fn config(&self) -> &PlacementConfig {
        &self.cfg
    }

    /// The underlying DQN (weight export, inspection).
    #[must_use]
    pub fn dqn(&self) -> &DqnAgent {
        &self.agent
    }

    /// Freeze the policy into a drop-in [`NodeSelector`](crate::NodeSelector) for
    /// [`crate::multinode::MultiNodeSim`] — greedy, deterministic, and
    /// placement-identical to a greedy [`ClusterEnv`] rollout.
    #[must_use]
    pub fn selector(&self) -> PolicySelector<DqnSnapshot> {
        PolicySelector::new(Learner::snapshot(&self.agent))
    }

    /// Greedy (ε = 0) rollout of one placement episode over `trace` —
    /// the assignment vector plus the realized simulation report.
    ///
    /// # Panics
    /// Panics if the trace is empty, unsorted, or does not fit the
    /// configured nodes.
    #[must_use]
    pub fn greedy_placements(&self, suite: &Suite, trace: &[ClusterJob]) -> PlacementOutcome {
        // The config's queue-order pick applies to episodes exactly as
        // MultiNodeSim::with_queue_order applies it to deployments.
        let mut trace = trace.to_vec();
        self.cfg.queue_order.apply(suite, &mut trace);
        let make = |_: usize| self.cfg.node_dispatcher();
        let env = ClusterEnv::new(
            suite,
            self.cfg.nodes,
            self.cfg.gpus_per_node,
            &trace,
            &make,
            self.cfg.rf_weight,
        );
        greedy_rollout(env, &self.agent)
    }

    /// Serialise the full checkpoint: spec + online-network weights
    /// (`HRPP` container, mirroring `hrp-core`'s `HRPE`).
    #[must_use]
    pub fn save_bytes(&self) -> Bytes {
        let spec = encode_spec(&self.cfg);
        let weights = save_weights(self.agent.online_net());
        let mut buf = BytesMut::with_capacity(12 + spec.len() + weights.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(spec.len() as u32);
        buf.put_slice(spec.as_bytes());
        buf.put_slice(&weights);
        buf.freeze()
    }

    /// Write the checkpoint to a file.
    ///
    /// # Errors
    /// Surfaces I/O failures.
    pub fn save_file(&self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.save_bytes()).map_err(|e| CheckpointError::Io(e.to_string()))
    }
}

/// The fluent placement-experiment spec: configure, [`run`][Self::run_on],
/// checkpoint — the cluster-tier mirror of `hrp-core`'s `Experiment`.
///
/// ```no_run
/// use hrp_cluster::place::PlacementExperiment;
/// use hrp_cluster::trace::TraceKind;
///
/// let suite = hrp_workloads::Suite::paper_suite(&hrp_gpusim::GpuArch::a100());
/// let run = PlacementExperiment::quick()
///     .trace_kind(TraceKind::Skewed)
///     .episodes(240)
///     .run_on(&suite);
/// println!("late return: {:.3}", run.report.late_return);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementExperiment {
    cfg: PlacementConfig,
}

impl PlacementExperiment {
    /// The evaluation-scale configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cfg: PlacementConfig::default_cfg(),
        }
    }

    /// The small test/smoke configuration.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            cfg: PlacementConfig::quick(),
        }
    }

    /// Wrap an explicit config.
    #[must_use]
    pub fn from_config(cfg: PlacementConfig) -> Self {
        Self { cfg }
    }

    /// Select the training-trace kind.
    #[must_use]
    pub fn trace_kind(mut self, kind: TraceKind) -> Self {
        self.cfg.trace.kind = kind;
        self
    }

    /// Simulated node count.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Training episodes.
    #[must_use]
    pub fn episodes(mut self, n: usize) -> Self {
        self.cfg.episodes = n;
        self
    }

    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Rollout worker threads (execution detail; 0 = auto).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.n_workers = n;
        self
    }

    /// Double-buffered (overlapped) training rounds.
    #[must_use]
    pub fn overlap(mut self, on: bool) -> Self {
        self.cfg.overlap = on;
        self
    }

    /// Replay shards (1 = classic single ring).
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shards = n.max(1);
        self
    }

    /// The underlying config.
    #[must_use]
    pub fn config(&self) -> &PlacementConfig {
        &self.cfg
    }

    /// Train on an explicit suite.
    #[must_use]
    pub fn run_on(self, suite: &Suite) -> TrainedPlacement {
        let (agent, report) = train_placement(suite, self.cfg);
        TrainedPlacement { agent, report }
    }

    /// Rebuild a trained placement agent from a checkpoint blob:
    /// decode the spec, rebuild the deterministic geometry, load the
    /// weights.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] when the blob is not an `HRPP`
    /// checkpoint, has an unsupported version, a malformed spec, or
    /// weights of the wrong shape.
    pub fn load_bytes(mut blob: Bytes) -> Result<PlacementAgent, CheckpointError> {
        if blob.len() < 12 || &blob[..4] != MAGIC {
            return Err(CheckpointError::NotACheckpoint);
        }
        blob.advance(4);
        let version = blob.get_u32_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let spec_len = blob.get_u32_le() as usize;
        if blob.len() < spec_len {
            return Err(CheckpointError::NotACheckpoint);
        }
        let spec_bytes = blob.split_to(spec_len);
        let spec = std::str::from_utf8(&spec_bytes)
            .map_err(|_| CheckpointError::Spec("spec is not UTF-8".into()))?;
        let cfg = decode_spec(spec)?;
        let mut agent = DqnAgent::new(cfg.dqn_config());
        let params = decode_params(blob, agent.online_net().num_params())
            .map_err(CheckpointError::Weights)?;
        agent.load_weights(&params);
        Ok(PlacementAgent { agent, cfg })
    }

    /// [`PlacementExperiment::load_bytes`] from a file.
    ///
    /// # Errors
    /// I/O failures surface as [`CheckpointError::Io`]; decode failures
    /// as in [`PlacementExperiment::load_bytes`].
    pub fn load_file(path: &Path) -> Result<PlacementAgent, CheckpointError> {
        let raw = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::load_bytes(Bytes::from(raw))
    }
}

impl Default for PlacementExperiment {
    fn default() -> Self {
        Self::new()
    }
}

/// A completed placement run: the deployable agent plus its learning
/// statistics.
pub struct TrainedPlacement {
    /// The trained, deployable agent.
    pub agent: PlacementAgent,
    /// Learning statistics of the run.
    pub report: TrainReport,
}

impl TrainedPlacement {
    /// Checkpoint the run (delegates to [`PlacementAgent::save_bytes`]).
    #[must_use]
    pub fn save_bytes(&self) -> Bytes {
        self.agent.save_bytes()
    }
}

/// Encode a config as `key=value` lines (floats shortest-round-trip).
fn encode_spec(cfg: &PlacementConfig) -> String {
    let hidden: Vec<String> = cfg.hidden.iter().map(ToString::to_string).collect();
    let mut s = String::new();
    let mut kv = |k: &str, v: String| {
        s.push_str(k);
        s.push('=');
        s.push_str(&v);
        s.push('\n');
    };
    kv("nodes", cfg.nodes.to_string());
    kv("gpus_per_node", cfg.gpus_per_node.to_string());
    kv("node_w", cfg.node_w.to_string());
    kv("node_cmax", cfg.node_cmax.to_string());
    kv("trace.kind", cfg.trace.kind.name().to_string());
    kv("trace.jobs", cfg.trace.jobs.to_string());
    kv("trace.seed", cfg.trace.seed.to_string());
    kv("trace.max_gpus", cfg.trace.max_gpus.to_string());
    kv("trace.mean_gap", format!("{:?}", cfg.trace.mean_gap));
    kv("trace.gang_share", format!("{:?}", cfg.trace.gang_share));
    kv("trace.users", cfg.trace.users.to_string());
    kv("trace.user_skew", format!("{:?}", cfg.trace.user_skew));
    kv("n_traces", cfg.n_traces.to_string());
    kv("episodes", cfg.episodes.to_string());
    kv("hidden", hidden.join(","));
    kv("gamma", format!("{:?}", cfg.gamma));
    kv("lr", format!("{:?}", cfg.lr));
    kv("batch_size", cfg.batch_size.to_string());
    kv("target_sync_every", cfg.target_sync_every.to_string());
    kv("buffer_capacity", cfg.buffer_capacity.to_string());
    kv("double", cfg.double.to_string());
    kv("dueling", cfg.dueling.to_string());
    kv("eps_end", format!("{:?}", cfg.eps_end));
    kv("rf_weight", format!("{:?}", cfg.rf_weight));
    kv("seed", cfg.seed.to_string());
    kv("n_workers", cfg.n_workers.to_string());
    kv("rollout_round", cfg.rollout_round.to_string());
    kv("overlap", cfg.overlap.to_string());
    kv("shards", cfg.shards.to_string());
    kv(
        "backfill",
        cfg.backfill
            .map_or_else(|| "none".to_string(), |p| p.name().to_string()),
    );
    kv("walltime_err", format!("{:?}", cfg.walltime_err));
    kv("queue_order", cfg.queue_order.name().to_string());
    kv("fair_order", cfg.fair_order.to_string());
    kv("fair_quota", cfg.fair_quota.to_string());
    kv("fair_half_life", format!("{:?}", cfg.fair_half_life));
    s
}

/// Decode a `key=value` spec, requiring every field exactly once —
/// except the tenant/fairness keys added after the format shipped,
/// which default to their off values so legacy `HRPP` blobs still load.
fn decode_spec(spec: &str) -> Result<PlacementConfig, CheckpointError> {
    fn get<'a>(
        map: &std::collections::BTreeMap<&'a str, &'a str>,
        key: &str,
    ) -> Result<&'a str, CheckpointError> {
        map.get(key)
            .copied()
            .ok_or_else(|| CheckpointError::Spec(format!("missing key '{key}'")))
    }
    fn parse<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, CheckpointError> {
        raw.parse()
            .map_err(|_| CheckpointError::Spec(format!("bad value for '{key}': '{raw}'")))
    }
    fn parse_or<T: std::str::FromStr>(
        map: &std::collections::BTreeMap<&str, &str>,
        key: &str,
        default: T,
    ) -> Result<T, CheckpointError> {
        map.get(key).map_or(Ok(default), |raw| parse(key, raw))
    }

    let mut map = std::collections::BTreeMap::new();
    for line in spec.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| CheckpointError::Spec(format!("not a key=value line: '{line}'")))?;
        if map.insert(k, v).is_some() {
            return Err(CheckpointError::Spec(format!("duplicate key '{k}'")));
        }
    }

    let hidden_raw = get(&map, "hidden")?;
    let hidden = if hidden_raw.is_empty() {
        Vec::new()
    } else {
        hidden_raw
            .split(',')
            .map(|p| parse::<usize>("hidden", p))
            .collect::<Result<Vec<usize>, _>>()?
    };
    let kind = TraceKind::parse(get(&map, "trace.kind")?)
        .map_err(|bad| CheckpointError::Spec(format!("unknown trace kind '{bad}'")))?;
    let backfill = match get(&map, "backfill")? {
        "none" => None,
        raw => Some(
            BackfillPolicy::parse(raw)
                .map_err(|bad| CheckpointError::Spec(format!("unknown backfill policy '{bad}'")))?,
        ),
    };
    let queue_order = QueueOrder::parse(get(&map, "queue_order")?)
        .map_err(|bad| CheckpointError::Spec(format!("unknown queue order '{bad}'")))?;

    Ok(PlacementConfig {
        nodes: parse("nodes", get(&map, "nodes")?)?,
        gpus_per_node: parse("gpus_per_node", get(&map, "gpus_per_node")?)?,
        node_w: parse("node_w", get(&map, "node_w")?)?,
        node_cmax: parse("node_cmax", get(&map, "node_cmax")?)?,
        trace: TraceConfig {
            kind,
            jobs: parse("trace.jobs", get(&map, "trace.jobs")?)?,
            seed: parse("trace.seed", get(&map, "trace.seed")?)?,
            max_gpus: parse("trace.max_gpus", get(&map, "trace.max_gpus")?)?,
            mean_gap: parse("trace.mean_gap", get(&map, "trace.mean_gap")?)?,
            gang_share: parse("trace.gang_share", get(&map, "trace.gang_share")?)?,
            users: parse_or(&map, "trace.users", 0)?,
            user_skew: parse_or(&map, "trace.user_skew", trace::DEFAULT_USER_SKEW)?,
        },
        n_traces: parse("n_traces", get(&map, "n_traces")?)?,
        episodes: parse("episodes", get(&map, "episodes")?)?,
        hidden,
        gamma: parse("gamma", get(&map, "gamma")?)?,
        lr: parse("lr", get(&map, "lr")?)?,
        batch_size: parse("batch_size", get(&map, "batch_size")?)?,
        target_sync_every: parse("target_sync_every", get(&map, "target_sync_every")?)?,
        buffer_capacity: parse("buffer_capacity", get(&map, "buffer_capacity")?)?,
        double: parse("double", get(&map, "double")?)?,
        dueling: parse("dueling", get(&map, "dueling")?)?,
        eps_end: parse("eps_end", get(&map, "eps_end")?)?,
        rf_weight: parse("rf_weight", get(&map, "rf_weight")?)?,
        seed: parse("seed", get(&map, "seed")?)?,
        n_workers: parse("n_workers", get(&map, "n_workers")?)?,
        rollout_round: parse("rollout_round", get(&map, "rollout_round")?)?,
        overlap: parse("overlap", get(&map, "overlap")?)?,
        shards: parse("shards", get(&map, "shards")?)?,
        backfill,
        walltime_err: parse("walltime_err", get(&map, "walltime_err")?)?,
        queue_order,
        fair_order: parse_or(&map, "fair_order", false)?,
        fair_quota: parse_or(&map, "fair_quota", usize::MAX)?,
        fair_half_life: parse_or(&map, "fair_half_life", 300.0)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multinode::MultiNodeSim;
    use crate::select::LeastLoaded;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn skewed_trace(suite: &Suite, jobs: usize, seed: u64) -> Vec<ClusterJob> {
        trace::generate(suite, &TraceConfig::new(TraceKind::Skewed, jobs, seed))
    }

    fn make_env<'a>(
        s: &'a Suite,
        nodes: usize,
        trace: &'a [ClusterJob],
        make: &'a (dyn Fn(usize) -> NodeDispatcher + Sync),
    ) -> ClusterEnv<'a, NodeDispatcher> {
        ClusterEnv::new(s, nodes, 2, trace, make, 0.5)
    }

    fn dispatcher_maker() -> impl Fn(usize) -> NodeDispatcher + Sync {
        |_| CoSchedulingDispatcher::new(MpsOnly, 4, 4)
    }

    #[test]
    fn env_contract_holds_over_an_episode() {
        let s = suite();
        let t = skewed_trace(&s, 12, 3);
        let make = dispatcher_maker();
        let mut env = make_env(&s, 3, &t, &make);
        assert_eq!(env.state_dim(), 8);
        assert_eq!(env.n_actions(), 3);
        let mut state = Vec::new();
        let mut steps = 0;
        while !env.done() {
            assert_eq!(env.valid_mask(), 0b111, "all 2-GPU nodes fit 1-GPU jobs");
            env.state_into(&mut state);
            assert_eq!(state.len(), 8);
            let out = env.step(steps % 3);
            assert!(out.ri_mean <= 0.0, "queue-delay delta is a penalty");
            steps += 1;
        }
        env.state_into(&mut state);
        assert_eq!(state.len(), 8, "terminal state keeps the dim");
        assert_eq!(env.valid_mask(), 0);
        assert_eq!(steps, 12);
        let outcome = env.into_decision();
        assert_eq!(outcome.assignment.len(), 12);
        let report = outcome.report.expect("drained episode has a report");
        assert_eq!(report.completed_jobs(), 12);
        assert!(report.aggregate.makespan > 0.0);
    }

    #[test]
    fn least_loaded_choices_pay_zero_delay_penalty() {
        let s = suite();
        let t = skewed_trace(&s, 8, 1);
        let make = dispatcher_maker();
        let mut env = make_env(&s, 2, &t, &make);
        while !env.done() {
            // Mirror least-loaded per-GPU with low-id ties.
            let best = env
                .loads()
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.per_gpu_outstanding()
                        .total_cmp(&b.1.per_gpu_outstanding())
                        .then(a.0.cmp(&b.0))
                })
                .map(|(i, _)| i)
                .unwrap();
            let out = env.step(best);
            assert_eq!(out.ri_mean, 0.0, "least-loaded is the zero-regret point");
        }
    }

    #[test]
    fn terminal_bonus_rewards_shorter_makespans() {
        let s = suite();
        let t = skewed_trace(&s, 16, 7);
        let make = dispatcher_maker();
        let run_all_on = |node: usize| {
            let mut env = make_env(&s, 2, &t, &make);
            let mut last = 0.0;
            while !env.done() {
                last = env.step(node).rf;
            }
            last
        };
        let run_spread = || {
            let mut env = make_env(&s, 2, &t, &make);
            let mut i = 0;
            let mut last = 0.0;
            while !env.done() {
                last = env.step(i % 2).rf;
                i += 1;
            }
            last
        };
        let piled = run_all_on(0);
        let spread = run_spread();
        assert!(
            spread > piled,
            "spreading must earn a larger terminal bonus: {spread} vs {piled}"
        );
    }

    #[test]
    fn reset_restores_the_initial_state_exactly() {
        let s = suite();
        let t = skewed_trace(&s, 10, 5);
        let make = dispatcher_maker();
        let mut env = make_env(&s, 3, &t, &make);
        let mut before = Vec::new();
        env.state_into(&mut before);
        while !env.done() {
            env.step(1);
        }
        env.reset();
        assert!(!env.done());
        let mut after = Vec::new();
        env.state_into(&mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn single_node_cluster_has_an_action_space_of_one() {
        let s = suite();
        let t = skewed_trace(&s, 6, 2);
        let make = dispatcher_maker();
        let mut env = make_env(&s, 1, &t, &make);
        assert_eq!(env.n_actions(), 1);
        assert_eq!(env.state_dim(), 4);
        while !env.done() {
            assert_eq!(env.valid_mask(), 0b1);
            let out = env.step(0);
            assert_eq!(out.ri_mean, 0.0, "the only node is always the best node");
        }
        let outcome = env.into_decision();
        assert!(outcome.assignment.iter().all(|&n| n == 0));
        // And it reproduces the least-loaded single-node schedule.
        let mut ll = LeastLoaded;
        let direct = MultiNodeSim::new(1, 2).run(&s, t.clone(), &mut ll, |_| {
            CoSchedulingDispatcher::new(MpsOnly, 4, 4)
        });
        assert_eq!(outcome.report.unwrap(), direct);
    }

    #[test]
    fn saturated_nodes_stay_placeable() {
        // All nodes busy (zero free GPUs) must NOT mask anything:
        // placement queues, it never dead-ends.
        let s = suite();
        // A burst far larger than cluster capacity at t = 0.
        let t: Vec<ClusterJob> = (0..12)
            .map(|i| ClusterJob::new(i, "lavaMD", 0.0, 1, &s))
            .collect();
        let make = dispatcher_maker();
        let mut env = make_env(&s, 2, &t, &make);
        let mut saw_saturated = false;
        while !env.done() {
            if env.loads().iter().all(|l| l.free_gpus == 0) {
                saw_saturated = true;
            }
            assert_eq!(env.valid_mask(), 0b11, "saturation must not mask");
            env.step(0);
        }
        // The 2-GPU cluster saturates only once the first window
        // dispatches — at the t = 0 barrier all GPUs are still free, so
        // drive the episode to completion and check the queues cleared.
        let outcome = env.into_decision();
        assert_eq!(outcome.report.unwrap().completed_jobs(), 12);
        let _ = saw_saturated; // informational; saturation timing is dispatcher-dependent
    }

    #[test]
    fn wide_jobs_mask_too_small_nodes() {
        let s = suite();
        let t = vec![ClusterJob::new(0, "lavaMD", 0.0, 2, &s)];
        let make = dispatcher_maker();
        let env = make_env(&s, 2, &t, &make);
        // Both nodes have 2 GPUs, so both fit.
        assert_eq!(env.valid_mask(), 0b11);
    }

    #[test]
    fn greedy_env_rollout_matches_policy_selector_deployment() {
        // The core equivalence: rolling the env greedily with a frozen
        // agent must produce the same placements — and therefore the
        // bit-identical timeline — as deploying that agent's
        // PolicySelector inside MultiNodeSim.
        let s = suite();
        let cfg = PlacementConfig::quick();
        let agent = PlacementAgent::untrained(cfg.clone());
        let t = skewed_trace(&s, 20, 9);
        let outcome = agent.greedy_placements(&s, &t);
        let mut sel = agent.selector();
        let direct =
            MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node)
                .run(&s, t.clone(), &mut sel, |_| cfg.node_dispatcher());
        assert_eq!(outcome.report.unwrap(), direct);
    }

    #[test]
    fn policy_selector_digest_invariant_to_rng_removal() {
        // PolicySelector used to seed and thread a SmallRng through its
        // ε = 0 selections even though it was never consulted; this
        // pins that the RNG-free fast path makes every decision — and
        // therefore the merged cluster timeline — identical to the
        // reference `QNet::predict` + lowest-index argmax.
        use hrp_core::rl::GreedyPolicy;
        struct Reference {
            net: hrp_nn::QNet,
        }
        impl GreedyPolicy for Reference {
            fn greedy(&mut self, state: &[f32], mask: u64) -> usize {
                let q = self.net.predict(state);
                hrp_nn::masked_argmax(&q, |a| mask & (1 << a) != 0).expect("non-empty mask")
            }
        }
        let s = suite();
        let cfg = PlacementConfig::quick();
        let agent = PlacementAgent::untrained(cfg.clone());
        let t = skewed_trace(&s, 24, 11);
        let mut fast_sel = agent.selector();
        let fast = MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node).run(
            &s,
            t.clone(),
            &mut fast_sel,
            |_| cfg.node_dispatcher(),
        );
        let mut ref_sel = PolicySelector::new(Reference {
            net: agent.dqn().online_net().clone(),
        });
        let reference =
            MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node)
                .run(&s, t, &mut ref_sel, |_| cfg.node_dispatcher());
        assert_eq!(fast, reference);
    }

    #[test]
    fn backfill_parameterized_env_matches_deployment() {
        // Same equivalence with the planner parameterized: EASY
        // backfilling nodes, noisy walltime estimates, and a
        // non-default queue order must all flow through both paths
        // identically.
        let s = suite();
        let mut cfg = PlacementConfig::quick();
        cfg.backfill = Some(BackfillPolicy::Easy);
        cfg.walltime_err = 0.25;
        cfg.queue_order = QueueOrder::ShortestFirst;
        let agent = PlacementAgent::untrained(cfg.clone());
        let t = skewed_trace(&s, 20, 9);
        let outcome = agent.greedy_placements(&s, &t);
        let mut sel = agent.selector();
        let direct = MultiNodeSim::new(cfg.nodes, cfg.gpus_per_node)
            .with_queue_order(cfg.queue_order)
            .run(&s, t.clone(), &mut sel, |_| cfg.node_dispatcher());
        assert_eq!(outcome.report.unwrap(), direct);
    }

    #[test]
    fn spec_round_trips_every_field() {
        let mut cfg = PlacementConfig::default_cfg();
        cfg.trace = TraceConfig::new(TraceKind::HeavyTail, 48, 7)
            .max_gpus(4)
            .mean_gap(2.25)
            .gang_share(0.5);
        cfg.overlap = true;
        cfg.shards = 4;
        cfg.lr = 3.3e-4;
        cfg.rf_weight = 0.125;
        cfg.hidden = vec![48, 24];
        cfg.backfill = Some(BackfillPolicy::Conservative);
        cfg.walltime_err = 0.375;
        cfg.queue_order = QueueOrder::WidestFirst;
        let decoded = decode_spec(&encode_spec(&cfg)).unwrap();
        assert_eq!(decoded, cfg);
        // The default (no backfill, arrival order) round-trips too.
        let plain = PlacementConfig::default_cfg();
        assert_eq!(decode_spec(&encode_spec(&plain)).unwrap(), plain);
    }

    #[test]
    fn checkpoint_reload_reproduces_placements_bit_for_bit() {
        let s = suite();
        let mut cfg = PlacementConfig::quick();
        cfg.episodes = 24; // enough to move the weights off init
        let (agent, _) = train_placement(&s, cfg);
        let blob = agent.save_bytes();
        let reloaded = PlacementExperiment::load_bytes(blob).unwrap();
        assert_eq!(reloaded.config(), agent.config());
        for seed in [1u64, 2, 3] {
            let t = skewed_trace(&s, 16, seed);
            let a = agent.greedy_placements(&s, &t);
            let b = reloaded.greedy_placements(&s, &t);
            assert_eq!(a.assignment, b.assignment, "trace seed {seed}");
            assert_eq!(
                a.report.unwrap().timeline.digest(),
                b.report.unwrap().timeline.digest()
            );
        }
    }

    #[test]
    fn load_rejects_garbage_and_bad_versions() {
        assert!(matches!(
            PlacementExperiment::load_bytes(Bytes::from_static(b"nope")),
            Err(CheckpointError::NotACheckpoint)
        ));
        let agent = PlacementAgent::untrained(PlacementConfig::quick());
        let mut raw = BytesMut::from(&agent.save_bytes()[..]);
        raw[4] = 99;
        assert!(matches!(
            PlacementExperiment::load_bytes(raw.freeze()),
            Err(CheckpointError::BadVersion(_))
        ));
    }

    #[test]
    #[should_panic(expected = "needs 4 GPUs")]
    fn oversized_jobs_are_rejected_at_construction() {
        let s = suite();
        let t = vec![ClusterJob::new(0, "lavaMD", 0.0, 4, &s)];
        let make = dispatcher_maker();
        let _ = make_env(&s, 2, &t, &make);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_traces_are_rejected() {
        let s = suite();
        let t = vec![
            ClusterJob::new(0, "stream", 5.0, 1, &s),
            ClusterJob::new(1, "stream", 0.0, 1, &s),
        ];
        let make = dispatcher_maker();
        let _ = make_env(&s, 2, &t, &make);
    }
}
