//! The long-running scheduler service core.
//!
//! [`SchedulerService`] wraps a [`ClusterDrive`] behind an
//! event-driven ingest loop: each [`SchedulerService::step`] pulls
//! one arrival burst from the [`ArrivalSource`], runs one
//! *incremental scheduling cycle* at that instant, and routes every
//! job of the burst through the selector. A cycle re-plans only the
//! nodes whose slot profile can still change — quiescent nodes (idle,
//! no pending dispatch, no wakeup hint) are skipped entirely under
//! [`CycleMode::Incremental`] — yet the produced
//! [`ClusterTimeline`](hrp_cluster::multinode::ClusterTimeline) is
//! bit-identical to a batch [`MultiNodeSim`](hrp_cluster::multinode::MultiNodeSim)
//! replay of the same finite trace: skipping a quiescent node is a
//! provable no-op (its state cannot change and its load snapshot is
//! time-invariant), so the batch engines survive as the oracle.
//!
//! With [`ServeConfig::admission`] set, an admission-control +
//! fair-share tier sits in front of the selector: each arrival is
//! admitted, deferred (tenant over its in-flight quota), or rejected
//! (projected slowdown past the SLO), and each burst is ordered by
//! tenant karma ([`hrp_cluster::fair`]) before placement. Admission
//! state checkpoints alongside everything else, so kill/restore
//! reproduces the decisions bit-exactly.
//!
//! When the source has nothing to offer, the service sizes its idle
//! sleep from the dispatchers' [`next_wakeup`](hrp_cluster::sim::Dispatcher::next_wakeup)
//! hints: [`SchedulerService::next_wakeup`] is the earliest instant
//! any node wants a cycle with no job event in between (a backfill
//! reservation expiring), and [`SchedulerService::wake_cycle`] runs
//! exactly there.

use crate::source::{ArrivalSource, SourcePoll};
use hrp_cluster::backfill::BackfillPlanner;
use hrp_cluster::cosched::CoSchedulingDispatcher;
use hrp_cluster::fair::{self, FairConfig, FairShare};
use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::{ClusterDrive, MultiNodeReport};
use hrp_cluster::place::{PlacementAgent, PlacementDispatcher};
use hrp_cluster::select::{
    BackfillTier, LeastLoaded, NodeSelector, PolicySelector, RoundRobin, SelectorKind,
};
use hrp_core::policies::MpsOnly;
use hrp_core::rl::DqnSnapshot;
use hrp_workloads::Suite;
use std::collections::VecDeque;
use std::time::Instant;

/// Window size of each node's co-scheduling dispatcher — kept equal
/// to the batch evaluation geometry (`hrp-bench`'s `CLUSTER_W`) so
/// service runs are digest-comparable to `repro cluster` rows.
pub const SERVE_W: usize = 4;
/// Concurrency cap of each node's co-scheduling dispatcher (mirrors
/// `hrp-bench`'s `CLUSTER_CMAX`).
pub const SERVE_CMAX: usize = 4;

/// How much of the cluster a scheduling cycle touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleMode {
    /// Re-plan only non-quiescent nodes (the dirty set) — the online
    /// default.
    Incremental,
    /// Advance every node every cycle, exactly like the batch epoch
    /// barrier — the reference the incremental counters are compared
    /// against.
    Full,
}

impl CycleMode {
    /// Parse a CLI-style name (`incremental` / `full`).
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "incremental" => Ok(Self::Incremental),
            "full" => Ok(Self::Full),
            other => Err(other.to_owned()),
        }
    }

    /// The CLI-style name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Incremental => "incremental",
            Self::Full => "full",
        }
    }
}

/// The admission tier's knobs: per-user in-flight quota, karma
/// half-life, and the reject SLO. Attached to a service via
/// [`ServeConfig::admission`]; the defaults (`quota` unlimited, `slo`
/// infinite) admit everything but still order bursts by tenant karma.
///
/// ```
/// use hrp_cluster::select::SelectorKind;
/// use hrp_cluster::trace::{TraceConfig, TraceKind};
/// use hrp_gpusim::GpuArch;
/// use hrp_serve::{AdmissionConfig, SchedulerService, ServeConfig, TraceSource};
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// // Three Zipf-skewed tenants; tenant 0 is the heavy one.
/// let cfg = TraceConfig::new(TraceKind::Bursty, 24, 7)
///     .mean_gap(4.0)
///     .users(3);
///
/// let admission = AdmissionConfig::new().quota(2).half_life(120.0);
/// let mut service = SchedulerService::new(
///     &suite,
///     ServeConfig::new(2, 2).admission(admission),
///     SelectorKind::LeastLoaded,
///     TraceSource::new(&suite, cfg),
/// );
/// service.run_to_close();
/// let served = service.finish();
///
/// // Infinite SLO: nothing rejected, every arrival eventually admitted.
/// let outcome = served.admission.expect("admission tier was on");
/// assert_eq!(served.stats.rejected, 0);
/// assert_eq!(outcome.effective.len(), 24);
/// // The heavy tenant hit its 2-job in-flight cap along the way.
/// assert!(served.stats.deferred > 0, "quota deferred some arrivals");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Per-user in-flight cap: a tenant at the cap has new arrivals
    /// *deferred* until an earlier admission's estimated completion
    /// passes. [`usize::MAX`] (the default) never defers.
    pub quota: usize,
    /// Karma half-life in seconds (see [`hrp_cluster::fair`]).
    pub half_life: f64,
    /// Reject threshold on *projected slowdown*: a fresh arrival whose
    /// `(projected wait + solo time) / solo time` exceeds this is
    /// rejected outright. [`f64::INFINITY`] (the default) never
    /// rejects. The projected wait is the cheapest node's queued
    /// work per GPU at the admission instant — an O(nodes) read of the
    /// load snapshots the selector already maintains.
    pub slo: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            quota: usize::MAX,
            half_life: 300.0,
            slo: f64::INFINITY,
        }
    }
}

impl AdmissionConfig {
    /// The admit-everything defaults (fair ordering only).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: cap each tenant's in-flight jobs.
    ///
    /// # Panics
    /// Panics if `quota` is 0 (nothing could ever be admitted).
    #[must_use]
    pub fn quota(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "quota must be at least 1");
        self.quota = quota;
        self
    }

    /// Builder: override the karma half-life.
    ///
    /// # Panics
    /// Panics unless `half_life` is positive and finite.
    #[must_use]
    pub fn half_life(mut self, half_life: f64) -> Self {
        assert!(
            half_life.is_finite() && half_life > 0.0,
            "half_life must be positive and finite, got {half_life}"
        );
        self.half_life = half_life;
        self
    }

    /// Builder: reject arrivals whose projected slowdown exceeds
    /// `slo` (use [`f64::INFINITY`] to never reject).
    ///
    /// # Panics
    /// Panics if `slo` is NaN or not positive.
    #[must_use]
    pub fn slo(mut self, slo: f64) -> Self {
        assert!(slo > 0.0, "slo must be positive, got {slo}");
        self.slo = slo;
        self
    }

    /// The [`FairConfig`] this admission policy shares with the batch
    /// fair-ordering hook.
    #[must_use]
    pub fn fair_config(&self) -> FairConfig {
        FairConfig {
            quota: self.quota,
            half_life: self.half_life,
        }
    }
}

/// Service geometry and cycle policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Cluster nodes (1..=[`MAX_NODES`](hrp_cluster::multinode::MAX_NODES)).
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Walltime-estimate error handed to backfilling planners
    /// (ignored by the co-scheduling dispatcher kinds).
    pub walltime_err: f64,
    /// Cycle mode.
    pub mode: CycleMode,
    /// Admission control + per-user fair share in front of the
    /// selector, or `None` (the default) for the legacy
    /// admit-everything front door.
    pub admission: Option<AdmissionConfig>,
}

impl ServeConfig {
    /// An incremental-mode service of `nodes` × `gpus_per_node` with
    /// exact walltime estimates.
    #[must_use]
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        Self {
            nodes,
            gpus_per_node,
            walltime_err: 0.0,
            mode: CycleMode::Incremental,
            admission: None,
        }
    }

    /// Builder: walltime-estimate error fraction (see
    /// [`BackfillPlanner::with_walltime_err`]).
    #[must_use]
    pub fn walltime_err(mut self, err: f64) -> Self {
        self.walltime_err = err;
        self
    }

    /// Builder: cycle mode.
    #[must_use]
    pub fn mode(mut self, mode: CycleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: put an admission-control + fair-share tier in front
    /// of the selector.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }
}

/// The node-local dispatcher a selector kind schedules through, at
/// the service geometry: backfill tiers get a [`BackfillPlanner`] of
/// their policy, everything else the co-scheduling window dispatcher —
/// the same mapping `repro cluster` uses, which is what keeps service
/// and batch digests comparable per selector.
#[must_use]
pub fn dispatcher_for(
    kind: SelectorKind,
    gpus_per_node: usize,
    walltime_err: f64,
) -> PlacementDispatcher {
    match kind.backfill_policy() {
        Some(policy) => PlacementDispatcher::Backfill(
            BackfillPlanner::new(policy, gpus_per_node).with_walltime_err(walltime_err),
        ),
        None => {
            PlacementDispatcher::CoSched(CoSchedulingDispatcher::new(MpsOnly, SERVE_W, SERVE_CMAX))
        }
    }
}

/// The concrete selector state the service owns — the checkpointable
/// closed set of [`SelectorKind`]s plus the trained-policy tier.
pub(crate) enum SelectorState {
    /// Cyclic placement (cursor is checkpointed).
    RoundRobin(RoundRobin),
    /// Greedy least-outstanding-work placement (stateless).
    LeastLoaded(LeastLoaded),
    /// Least-loaded placement labeled by its backfill policy
    /// (stateless).
    Backfill(BackfillTier),
    /// A frozen RL policy: the agent (checkpointed as an embedded
    /// `HRPP` blob) plus the greedy selector wrapping its snapshot.
    Policy(Box<PlacementAgent>, Box<PolicySelector<DqnSnapshot>>),
}

impl SelectorState {
    pub(crate) fn from_kind(kind: SelectorKind) -> Self {
        match kind {
            SelectorKind::RoundRobin => Self::RoundRobin(RoundRobin::new()),
            SelectorKind::LeastLoaded => Self::LeastLoaded(LeastLoaded),
            SelectorKind::Policy => panic!(
                "SelectorKind::Policy needs a trained agent; \
                 build the service via SchedulerService::with_agent"
            ),
            SelectorKind::Fcfs | SelectorKind::Easy | SelectorKind::Conservative => {
                Self::Backfill(BackfillTier::new(kind.backfill_policy().expect("tier")))
            }
        }
    }

    pub(crate) fn from_agent(agent: PlacementAgent) -> Self {
        let selector = agent.selector();
        Self::Policy(Box::new(agent), Box::new(selector))
    }

    pub(crate) fn kind(&self) -> SelectorKind {
        match self {
            Self::RoundRobin(_) => SelectorKind::RoundRobin,
            Self::LeastLoaded(_) => SelectorKind::LeastLoaded,
            Self::Backfill(tier) => match tier.name() {
                "fcfs" => SelectorKind::Fcfs,
                "easy" => SelectorKind::Easy,
                _ => SelectorKind::Conservative,
            },
            Self::Policy(..) => SelectorKind::Policy,
        }
    }

    fn select(&mut self, gpus: usize, work: f64, loads: &[hrp_cluster::select::NodeLoad]) -> usize {
        match self {
            Self::RoundRobin(s) => s.select(gpus, work, loads),
            Self::LeastLoaded(s) => s.select(gpus, work, loads),
            Self::Backfill(s) => s.select(gpus, work, loads),
            Self::Policy(_, s) => s.select(gpus, work, loads),
        }
    }
}

/// Logical per-service counters, in the style of
/// [`SyncStats`](hrp_cluster::multinode::SyncStats): pure functions
/// of the input stream and the cycle mode, never of wall clock — so
/// tests can pin them and the incremental-vs-full savings claim is
/// reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Scheduling cycles triggered by arrival bursts.
    pub cycles: u64,
    /// Idle cycles triggered by wakeup hints ([`SchedulerService::settle`] /
    /// [`SchedulerService::wake_cycle`]).
    pub wake_cycles: u64,
    /// Placement decisions made (one per ingested job).
    pub decisions: u64,
    /// Node re-plans: a node advanced + load-refreshed during a cycle.
    pub nodes_replanned: u64,
    /// Nodes skipped as quiescent by the incremental dirty set.
    pub nodes_skipped: u64,
    /// Arrivals parked by the admission tier because their tenant was
    /// at its in-flight quota (counted once per job, not per retry).
    pub deferred: u64,
    /// Arrivals rejected because their projected slowdown exceeded
    /// the admission SLO.
    pub rejected: u64,
}

/// Decision-latency summary over one service run (microseconds,
/// nearest-rank percentiles). Wall-clock measurement — excluded from
/// checkpoints and never part of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Decisions timed.
    pub samples: usize,
    /// Median decision latency in µs.
    pub p50_us: f64,
    /// 99th-percentile decision latency in µs.
    pub p99_us: f64,
    /// Worst decision latency in µs.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarise raw per-decision seconds (empty input → all zeros).
    #[must_use]
    pub fn from_seconds(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                samples: 0,
                p50_us: 0.0,
                p99_us: 0.0,
                max_us: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            // Nearest-rank percentile: ceil(q·n) clamped into range.
            // When the real product q·n is integral but the f64
            // product lands 1 ulp above it, ceil would pick one rank
            // too high — snap back if the ceiling overshot by ~1.
            let scaled = q * sorted.len() as f64;
            let mut i = scaled.ceil();
            if i - scaled > 1.0 - 1e-9 {
                i -= 1.0;
            }
            sorted[(i as usize).clamp(1, sorted.len()) - 1] * 1e6
        };
        Self {
            samples: sorted.len(),
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            max_us: sorted[sorted.len() - 1] * 1e6,
        }
    }
}

/// What one [`SchedulerService::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceStep {
    /// Ran a scheduling cycle at `time`, placing `jobs` jobs.
    Cycle {
        /// The arrival instant the cycle ran at.
        time: f64,
        /// Jobs placed (the burst size).
        jobs: usize,
    },
    /// The source had nothing available right now; the caller may
    /// sleep until [`SchedulerService::next_wakeup`] or until new
    /// input is known to exist.
    Pending,
    /// The source is exhausted — call [`SchedulerService::finish`].
    Closed,
}

/// What the admission tier did over a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// Rolling FNV-1a digest over every admission decision
    /// `(job id, admission instant bits, user)` in order — the
    /// checkpointed fingerprint the fairness contract pins across
    /// cycle modes and kill/restore.
    pub digest: u64,
    /// The *effective* admitted trace: every admitted job with its
    /// arrival rewritten to the admission instant, in placement
    /// order. Replaying this through a batch
    /// [`MultiNodeSim`](hrp_cluster::multinode::MultiNodeSim)
    /// (arrival order) reproduces the service timeline bit-exactly.
    /// Not checkpointed — a restored service logs only the jobs it
    /// admitted since restore.
    pub effective: Vec<ClusterJob>,
}

/// Everything a finished service run reports.
#[derive(Debug)]
pub struct ServeReport {
    /// The drained cluster report — aggregate, per-node, and the
    /// merged deterministic timeline (digest-comparable to batch).
    pub report: MultiNodeReport,
    /// Logical service counters.
    pub stats: ServeStats,
    /// Wall-clock decision-latency summary.
    pub latency: LatencySummary,
    /// Admission-tier outcome, when [`ServeConfig::admission`] was on.
    pub admission: Option<AdmissionOutcome>,
}

/// Live admission-tier state: the fair-share bookkeeping plus the
/// quota-deferred queue and the decision digest. Checkpointed (minus
/// the effective-trace log) so kill/restore reproduces admission
/// decisions bit-exactly.
pub(crate) struct AdmissionState {
    pub(crate) share: FairShare,
    /// Quota-parked jobs in deferral order (FIFO re-examination).
    pub(crate) deferred: VecDeque<ClusterJob>,
    /// Rolling FNV-1a digest over admission decisions.
    pub(crate) digest: u64,
    /// Admitted jobs at their effective arrivals (not checkpointed).
    pub(crate) effective: Vec<ClusterJob>,
}

impl AdmissionState {
    pub(crate) fn new(cfg: &AdmissionConfig) -> Self {
        Self::with_share(FairShare::new(cfg.fair_config()))
    }

    pub(crate) fn with_share(share: FairShare) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        Self {
            share,
            deferred: VecDeque::new(),
            digest: FNV_OFFSET,
            effective: Vec::new(),
        }
    }

    /// Fold one admission decision into the digest.
    fn record(&mut self, job: &ClusterJob, t: f64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for word in [job.id as u64, t.to_bits(), u64::from(job.user)] {
            for b in word.to_le_bytes() {
                self.digest ^= u64::from(b);
                self.digest = self.digest.wrapping_mul(FNV_PRIME);
            }
        }
    }
}

/// A long-running scheduler service: ingest loop, incremental cycles,
/// and (via [`crate::checkpoint`]) live `HRPS` checkpoint/restore.
///
/// Draining a finite source reproduces the batch engines bit-exactly:
///
/// ```
/// use hrp_cluster::multinode::MultiNodeSim;
/// use hrp_cluster::select::SelectorKind;
/// use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
/// use hrp_gpusim::GpuArch;
/// use hrp_serve::{SchedulerService, ServeConfig, TraceSource};
/// use hrp_workloads::Suite;
///
/// let suite = Suite::paper_suite(&GpuArch::a100());
/// // A thin trace (long mean gap) so nodes drain between bursts and
/// // the incremental dirty set has something to skip.
/// let cfg = TraceConfig::new(TraceKind::Bursty, 24, 7)
///     .gang_share(0.25)
///     .mean_gap(40.0);
///
/// // Online: stream the arrivals through the service.
/// let source = TraceSource::new(&suite, cfg.clone());
/// let mut service = SchedulerService::new(
///     &suite,
///     ServeConfig::new(4, 2),
///     SelectorKind::LeastLoaded,
///     source,
/// );
/// service.run_to_close();
/// let served = service.finish();
///
/// // Batch oracle: the same trace through MultiNodeSim.
/// let mut selector = SelectorKind::LeastLoaded.build();
/// let batch = MultiNodeSim::new(4, 2).run(
///     &suite,
///     generate(&suite, &cfg),
///     selector.as_mut(),
///     |_| hrp_serve::dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0),
/// );
/// assert_eq!(served.report.timeline.digest(), batch.timeline.digest());
/// assert!(served.stats.nodes_skipped > 0, "dirty set saved re-plans");
/// ```
pub struct SchedulerService<'a, S: ArrivalSource> {
    pub(crate) suite: &'a Suite,
    pub(crate) cfg: ServeConfig,
    pub(crate) drive: ClusterDrive<'a, PlacementDispatcher>,
    pub(crate) selector: SelectorState,
    pub(crate) source: S,
    /// The first arrival of the *next* burst, pulled while grouping
    /// the current one.
    pub(crate) lookahead: Option<ClusterJob>,
    /// Instant of the last cycle — arrivals must not move backwards.
    pub(crate) last_cycle: f64,
    pub(crate) stats: ServeStats,
    pub(crate) latencies: Vec<f64>,
    /// The admission tier, when [`ServeConfig::admission`] is on.
    pub(crate) admission: Option<AdmissionState>,
}

impl<'a, S: ArrivalSource> SchedulerService<'a, S> {
    /// A fresh service over a heuristic selector kind.
    ///
    /// # Panics
    /// Panics for [`SelectorKind::Policy`] (use
    /// [`SchedulerService::with_agent`]) and on geometry the cluster
    /// rejects (0 or more than
    /// [`MAX_NODES`](hrp_cluster::multinode::MAX_NODES) nodes).
    #[must_use]
    pub fn new(suite: &'a Suite, cfg: ServeConfig, kind: SelectorKind, source: S) -> Self {
        Self::build(suite, cfg, SelectorState::from_kind(kind), source)
    }

    /// A fresh service placing through a trained (or untrained)
    /// placement agent — the frozen-policy global tier.
    #[must_use]
    pub fn with_agent(
        suite: &'a Suite,
        cfg: ServeConfig,
        agent: PlacementAgent,
        source: S,
    ) -> Self {
        Self::build(suite, cfg, SelectorState::from_agent(agent), source)
    }

    /// Like [`SchedulerService::new`] with explicitly-built node
    /// dispatchers — the hook for pre-loading backfill planners with
    /// advance reservations
    /// ([`BackfillPlanner::with_reservation`]). Reservations live in
    /// the planner's exported [`BackfillState`](hrp_cluster::backfill::BackfillState),
    /// so such a service still checkpoints and restores exactly.
    ///
    /// # Panics
    /// Same conditions as [`SchedulerService::new`].
    #[must_use]
    pub fn with_dispatchers(
        suite: &'a Suite,
        cfg: ServeConfig,
        kind: SelectorKind,
        source: S,
        make_dispatcher: impl FnMut(usize) -> PlacementDispatcher,
    ) -> Self {
        let drive = ClusterDrive::new(suite, cfg.nodes, cfg.gpus_per_node, make_dispatcher);
        let admission = cfg.admission.as_ref().map(AdmissionState::new);
        Self {
            suite,
            cfg,
            drive,
            selector: SelectorState::from_kind(kind),
            source,
            lookahead: None,
            last_cycle: 0.0,
            stats: ServeStats::default(),
            latencies: Vec::new(),
            admission,
        }
    }

    pub(crate) fn build(
        suite: &'a Suite,
        cfg: ServeConfig,
        selector: SelectorState,
        source: S,
    ) -> Self {
        let kind = selector.kind();
        let drive = ClusterDrive::new(suite, cfg.nodes, cfg.gpus_per_node, |_| {
            dispatcher_for(kind, cfg.gpus_per_node, cfg.walltime_err)
        });
        let admission = cfg.admission.as_ref().map(AdmissionState::new);
        Self {
            suite,
            cfg,
            drive,
            selector,
            source,
            lookahead: None,
            last_cycle: 0.0,
            stats: ServeStats::default(),
            latencies: Vec::new(),
            admission,
        }
    }

    /// The service geometry.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The selector kind placements run through.
    #[must_use]
    pub fn selector_kind(&self) -> SelectorKind {
        self.selector.kind()
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Jobs the source has handed out so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.source.consumed()
    }

    /// Jobs currently parked by the admission tier (quota-deferred,
    /// waiting for an earlier admission's estimated completion).
    #[must_use]
    pub fn deferred_jobs(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.deferred.len())
    }

    /// The rolling admission-decision digest, when the admission tier
    /// is on (see [`AdmissionOutcome::digest`]).
    #[must_use]
    pub fn admission_digest(&self) -> Option<u64> {
        self.admission.as_ref().map(|a| a.digest)
    }

    /// The earliest instant any node's dispatcher wants a cycle with
    /// no job event in between — the idle-sleep bound for a service
    /// whose source is [`SourcePoll::Pending`]. With quota-deferred
    /// jobs parked, the admission tier's earliest estimated release
    /// also bounds the sleep, so a service whose source went quiet
    /// still wakes to re-examine its deferred queue.
    #[must_use]
    pub fn next_wakeup(&self) -> Option<f64> {
        let drive = self.drive.next_wakeup();
        let fair = self
            .admission
            .as_ref()
            .filter(|a| !a.deferred.is_empty())
            .and_then(|a| a.share.next_release());
        match (drive, fair) {
            (Some(d), Some(f)) => Some(d.min(f)),
            (d, f) => d.or(f),
        }
    }

    /// Ingest one arrival burst and run one scheduling cycle.
    ///
    /// # Panics
    /// Panics if the source hands out arrivals that move backwards in
    /// time, or a job wider than a node.
    pub fn step(&mut self) -> ServiceStep {
        if self.lookahead.is_none() {
            match self.source.poll() {
                SourcePoll::Job(job) => self.lookahead = Some(job),
                SourcePoll::Pending => return ServiceStep::Pending,
                SourcePoll::Closed => return ServiceStep::Closed,
            }
        }
        let head = self.lookahead.take().expect("just filled");
        let t = head.arrival;
        assert!(
            t.total_cmp(&self.last_cycle).is_ge(),
            "source went backwards: arrival {t} before cycle {}",
            self.last_cycle
        );
        // Group the burst: every immediately-available job at the
        // bitwise-same instant (the grouping the batch epoch driver
        // uses), holding the first later arrival as lookahead.
        let mut burst = vec![head];
        while let SourcePoll::Job(job) = self.source.poll() {
            if job.arrival.total_cmp(&t).is_eq() {
                burst.push(job);
            } else {
                self.lookahead = Some(job);
                break;
            }
        }
        let jobs = burst.len();
        self.cycle(t, burst);
        ServiceStep::Cycle { time: t, jobs }
    }

    /// One scheduling cycle at instant `t`: advance the non-quiescent
    /// nodes, run the admission tier (if on), then route every
    /// admitted job of the burst.
    fn cycle(&mut self, t: f64, mut burst: Vec<ClusterJob>) {
        self.stats.cycles += 1;
        self.advance_cluster(t);
        if self.admission.is_some() {
            // Deferred jobs are re-examined first (FIFO — they have
            // been waiting longest), then the fresh burst is ordered
            // by tenant karma at this instant: the lightest tenant's
            // jobs go through the door first, ties keep submission
            // order. Both steps are pure functions of the admission
            // state, so every engine/mode replays them identically.
            self.revisit_deferred(t);
            let adm = self.admission.as_ref().expect("admission is on");
            adm.share.order_burst(t, &mut burst);
            for job in burst {
                self.consider(t, job, true);
            }
        } else {
            for job in burst {
                self.place_job(job);
            }
        }
        self.last_cycle = t;
    }

    /// Route one admitted job through the selector onto a node.
    fn place_job(&mut self, job: ClusterJob) {
        let work = job.solo_time(self.suite);
        let started = Instant::now();
        let node = self.selector.select(job.gpus, work, self.drive.loads());
        self.latencies.push(started.elapsed().as_secs_f64());
        self.stats.decisions += 1;
        self.drive.place(node, job);
    }

    /// Advance the fair-share clock to `t` (releasing due admissions)
    /// and re-admit every deferred job whose tenant dropped back under
    /// quota, preserving deferral order for the rest.
    fn revisit_deferred(&mut self, t: f64) {
        let adm = self.admission.as_mut().expect("admission is on");
        adm.share.advance_to(t);
        let parked = std::mem::take(&mut adm.deferred);
        for job in parked {
            self.consider(t, job, false);
        }
    }

    /// One admission decision at instant `t`: reject (fresh arrivals
    /// whose projected slowdown breaks the SLO), defer (tenant at
    /// quota), or admit — charging karma, scheduling the estimated
    /// release, and placing the job with its arrival rewritten to the
    /// admission instant (the effective arrival the batch oracle
    /// replays).
    fn consider(&mut self, t: f64, mut job: ClusterJob, fresh: bool) {
        let acfg = self.cfg.admission.clone().expect("admission is on");
        let work = job.solo_time(self.suite);
        if fresh && acfg.slo.is_finite() {
            let wait = self.projected_wait(&job);
            if (wait + work) / work > acfg.slo {
                self.stats.rejected += 1;
                return;
            }
        }
        let adm = self.admission.as_mut().expect("admission is on");
        if adm.share.over_quota(job.user) {
            if fresh {
                self.stats.deferred += 1;
            }
            adm.deferred.push_back(job);
            return;
        }
        adm.share
            .admit(job.user, fair::job_cost(self.suite, &job), t + work);
        job.arrival = t;
        adm.record(&job, t);
        adm.effective.push(job.clone());
        self.place_job(job);
    }

    /// A lower-bound wait estimate for one arrival: the cheapest
    /// node's outstanding queued work per GPU (zero if some node can
    /// start the job immediately) — the projected-wait profile the
    /// admission SLO is checked against.
    fn projected_wait(&self, job: &ClusterJob) -> f64 {
        self.drive
            .loads()
            .iter()
            .map(|l| {
                if l.free_gpus >= job.gpus && l.queued_jobs == 0 {
                    0.0
                } else {
                    l.outstanding / l.total_gpus as f64
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Advance the dirty set (or, under [`CycleMode::Full`], every
    /// node) to `t` and refresh the touched load snapshots.
    fn advance_cluster(&mut self, t: f64) {
        self.drive.note_round();
        for node in 0..self.cfg.nodes {
            if self.cfg.mode == CycleMode::Incremental && self.drive.node_is_quiescent(node) {
                self.stats.nodes_skipped += 1;
            } else {
                self.drive.advance_node_to(node, t);
                self.stats.nodes_replanned += 1;
            }
        }
    }

    /// An empty cycle at instant `t`: advance the dirty set with no
    /// arrivals to place. This is how idle time passes for a live
    /// service — deferred dispatches run, reservation wakeups fire,
    /// and [`SchedulerService::next_wakeup`] reflects the settled
    /// state. The caller promises no arrival earlier than `t` will be
    /// ingested afterwards (the same monotonicity the sources already
    /// guarantee).
    ///
    /// # Panics
    /// Panics if `t` precedes the last cycle.
    pub fn settle(&mut self, t: f64) {
        assert!(
            t.total_cmp(&self.last_cycle).is_ge(),
            "settle at {t} before cycle {}",
            self.last_cycle
        );
        self.stats.wake_cycles += 1;
        self.advance_cluster(t);
        if self.admission.is_some() {
            self.revisit_deferred(t);
        }
        self.last_cycle = t;
    }

    /// Run one idle cycle exactly at the earliest dispatcher wakeup
    /// hint, if any — the service's cycle-timer consumption of
    /// [`Dispatcher::next_wakeup`](hrp_cluster::sim::Dispatcher::next_wakeup).
    /// Returns the instant it woke at.
    pub fn wake_cycle(&mut self) -> Option<f64> {
        let wake = self.next_wakeup()?;
        self.settle(wake);
        Some(wake)
    }

    /// Drive [`SchedulerService::step`] until the source closes,
    /// serving wakeup hints while it pends. Intended for sources that
    /// eventually close (finite traces, load generators, channels
    /// whose producers hang up); a live deployment drives `step` /
    /// `settle` itself.
    pub fn run_to_close(&mut self) {
        loop {
            match self.step() {
                ServiceStep::Cycle { .. } => {}
                ServiceStep::Pending => {
                    if self.wake_cycle().is_none() {
                        std::thread::yield_now();
                    }
                }
                ServiceStep::Closed => {
                    // A closed source can still leave quota-deferred
                    // jobs parked; estimated releases keep arriving,
                    // so wake through them until the queue drains.
                    if self.deferred_jobs() == 0 {
                        break;
                    }
                    self.wake_cycle()
                        .expect("deferred jobs imply a pending release wake-up");
                }
            }
        }
    }

    /// Drain every node to the end of time and report. The final
    /// drain consumes remaining wakeup hints internally, so a blocked
    /// queue behind a reservation still completes.
    ///
    /// # Panics
    /// Panics if a node's dispatcher strands jobs (the per-node
    /// deadlock check), or if the admission tier still has deferred
    /// jobs parked (drive the service to close first — finishing
    /// would silently drop them).
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        assert_eq!(
            self.deferred_jobs(),
            0,
            "finish with deferred jobs still parked; run_to_close first"
        );
        let report = self.drive.finish();
        ServeReport {
            report,
            stats: self.stats,
            latency: LatencySummary::from_seconds(&self.latencies),
            admission: self.admission.map(|a| AdmissionOutcome {
                digest: a.digest,
                effective: a.effective,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ChannelSource, TraceSource};
    use hrp_cluster::backfill::BackfillPolicy;
    use hrp_cluster::multinode::MultiNodeSim;
    use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// The satellite contract for wakeup hints: an idle service whose
    /// only job is blocked behind an advance reservation sleeps until
    /// *exactly* the hinted reservation expiry, wakes there, and the
    /// job starts at that instant.
    #[test]
    fn idle_service_wakes_exactly_at_the_hinted_reservation_start() {
        let s = suite();
        let (tx, src) = ChannelSource::channel();
        let mut svc = SchedulerService::with_dispatchers(
            &s,
            ServeConfig::new(1, 2),
            SelectorKind::Easy,
            src,
            |_| {
                PlacementDispatcher::Backfill(
                    // GPUs are reserved over [5, 30), so a 2-GPU job
                    // arriving at 10 cannot start before 30.
                    BackfillPlanner::new(BackfillPolicy::Easy, 2).with_reservation(5.0, 25.0, 2),
                )
            },
        );
        tx.send(ClusterJob::new(0, "lavaMD", 10.0, 2, &s)).unwrap();
        assert_eq!(
            svc.step(),
            ServiceStep::Cycle {
                time: 10.0,
                jobs: 1
            }
        );
        // Absorb the arrival (dispatch at 10 is blocked by the
        // reservation); the planner now hints its expiry.
        svc.settle(11.0);
        assert_eq!(svc.next_wakeup(), Some(30.0), "hint is the expiry");
        assert_eq!(svc.wake_cycle(), Some(30.0), "service wakes exactly there");
        drop(tx);
        assert_eq!(svc.step(), ServiceStep::Closed);
        let report = svc.finish();
        // lavaMD on 2 GPUs runs 19 s: start 30, finish 49.
        let makespan = report.report.aggregate.makespan;
        assert!((makespan - 49.0).abs() < 1e-9, "makespan {makespan}");
        assert_eq!(report.stats.wake_cycles, 2, "settle(11) + wake_cycle(30)");
        assert_eq!(report.stats.decisions, 1);
    }

    /// Incremental and full cycle modes are digest-identical (and both
    /// match the batch oracle); incremental provably re-plans fewer
    /// nodes on a thin trace.
    #[test]
    fn incremental_mode_matches_full_mode_with_fewer_replans() {
        let s = suite();
        // Thin bursty arrivals: bursts of 2–5 jobs touch a strict
        // subset of the 4 nodes and the long gaps let the rest drain
        // to quiescence, so the dirty set has nodes to skip.
        let cfg = TraceConfig::new(TraceKind::Bursty, 40, 9)
            .gang_share(0.25)
            .mean_gap(40.0);
        let run = |mode: CycleMode| {
            let mut svc = SchedulerService::new(
                &s,
                ServeConfig::new(4, 2).mode(mode),
                SelectorKind::LeastLoaded,
                TraceSource::new(&s, cfg.clone()),
            );
            svc.run_to_close();
            svc.finish()
        };
        let incremental = run(CycleMode::Incremental);
        let full = run(CycleMode::Full);
        assert_eq!(
            incremental.report.timeline.digest(),
            full.report.timeline.digest()
        );
        let mut selector = SelectorKind::LeastLoaded.build();
        let batch = MultiNodeSim::new(4, 2).run(&s, generate(&s, &cfg), selector.as_mut(), |_| {
            dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0)
        });
        assert_eq!(
            incremental.report.timeline.digest(),
            batch.timeline.digest()
        );
        assert!(
            incremental.stats.nodes_replanned < full.stats.nodes_replanned,
            "dirty set saved work: {} vs {}",
            incremental.stats.nodes_replanned,
            full.stats.nodes_replanned
        );
        // Every cycle accounts for every node, skipped or re-planned.
        for r in [&incremental, &full] {
            assert_eq!(
                r.stats.nodes_replanned + r.stats.nodes_skipped,
                (r.stats.cycles + r.stats.wake_cycles) * 4
            );
        }
    }

    #[test]
    fn latency_summary_uses_nearest_rank_percentiles() {
        let micros: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-6).collect();
        let summary = LatencySummary::from_seconds(&micros);
        assert_eq!(summary.samples, 100);
        assert!((summary.p50_us - 50.0).abs() < 1e-9);
        assert!((summary.p99_us - 99.0).abs() < 1e-9);
        assert!((summary.max_us - 100.0).abs() < 1e-9);
        let empty = LatencySummary::from_seconds(&[]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.max_us, 0.0);
    }

    /// Satellite regression: the nearest-rank index must match the
    /// exact integer ceiling `⌈q·n⌉` even when `q * n as f64` lands one
    /// ulp above an integral product (e.g. `0.99 × 300`), which would
    /// otherwise ceil one rank too high.
    #[test]
    fn latency_percentile_rank_is_robust_at_sample_count_boundaries() {
        for n in [1usize, 2, 99, 100, 101, 300] {
            let secs: Vec<f64> = (1..=n).map(|i| i as f64 * 1e-6).collect();
            let summary = LatencySummary::from_seconds(&secs);
            // Exact nearest-rank in integer arithmetic: ⌈q·n⌉.
            let p50 = n.div_ceil(2) as f64;
            let p99 = (99 * n).div_ceil(100) as f64;
            assert!(
                (summary.p50_us - p50).abs() < 1e-9,
                "n={n}: p50 {} want {p50}",
                summary.p50_us
            );
            assert!(
                (summary.p99_us - p99).abs() < 1e-9,
                "n={n}: p99 {} want {p99}",
                summary.p99_us
            );
            assert!((summary.max_us - n as f64).abs() < 1e-9);
        }
    }

    /// Quota deferral is a delay, never a drop: every arrival is
    /// eventually admitted, the deferred queue drains by close, and the
    /// deferral counter records the parked jobs.
    #[test]
    fn admission_quota_defers_without_dropping_jobs() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 40, 9)
            .gang_share(0.25)
            .users(4);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(AdmissionConfig::new().quota(1)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        svc.run_to_close();
        let out = svc.finish();
        assert_eq!(out.stats.rejected, 0, "infinite SLO never rejects");
        assert!(out.stats.deferred > 0, "bursty tenants must hit quota 1");
        let adm = out.admission.expect("admission tier was on");
        assert_eq!(adm.effective.len(), 40, "every job admitted eventually");
        assert_eq!(out.stats.decisions, 40, "every admitted job was placed");
        // Deferral rewrites arrivals forward, never backwards.
        assert!(adm
            .effective
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// A finite SLO rejects at the front door under overload, and
    /// rejected jobs never reach the cluster.
    #[test]
    fn admission_slo_rejects_under_overload() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 60, 11)
            .gang_share(0.25)
            .mean_gap(2.0)
            .users(4);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(1, 2).admission(AdmissionConfig::new().slo(1.05)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg),
        );
        svc.run_to_close();
        let out = svc.finish();
        assert!(out.stats.rejected > 0, "a tight SLO must reject overload");
        let adm = out.admission.expect("admission tier was on");
        assert_eq!(
            adm.effective.len() + out.stats.rejected as usize,
            60,
            "admitted + rejected covers the trace"
        );
        assert_eq!(
            out.stats.decisions as usize,
            adm.effective.len(),
            "only admitted jobs reach the selector"
        );
    }

    /// With the admit-everything defaults the admission tier is pure
    /// reordering, and the service reproduces the batch engine run
    /// under [`MultiNodeSim::with_fair_order`] bit-exactly — the
    /// fair-share analogue of the batch-oracle contract.
    #[test]
    fn ordering_only_admission_matches_the_batch_fair_order_oracle() {
        let s = suite();
        let cfg = TraceConfig::new(TraceKind::Bursty, 48, 7)
            .gang_share(0.25)
            .users(5);
        let acfg = AdmissionConfig::new().half_life(120.0);
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2).admission(acfg.clone()),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, cfg.clone()),
        );
        svc.run_to_close();
        let served = svc.finish();
        let mut selector = SelectorKind::LeastLoaded.build();
        let batch = MultiNodeSim::new(4, 2)
            .with_fair_order(acfg.fair_config())
            .run(&s, generate(&s, &cfg), selector.as_mut(), |_| {
                dispatcher_for(SelectorKind::LeastLoaded, 2, 0.0)
            });
        assert_eq!(
            served.report.timeline.digest(),
            batch.timeline.digest(),
            "ordering-only admission must match the batch oracle"
        );
        assert_eq!(served.stats.deferred, 0);
        assert_eq!(served.stats.rejected, 0);
    }

    #[test]
    fn dispatcher_for_maps_selector_families() {
        for kind in [
            SelectorKind::RoundRobin,
            SelectorKind::LeastLoaded,
            SelectorKind::Policy,
        ] {
            assert!(matches!(
                dispatcher_for(kind, 2, 0.0),
                PlacementDispatcher::CoSched(_)
            ));
        }
        for kind in [
            SelectorKind::Fcfs,
            SelectorKind::Easy,
            SelectorKind::Conservative,
        ] {
            match dispatcher_for(kind, 2, 0.25) {
                PlacementDispatcher::Backfill(p) => {
                    assert_eq!(p.policy(), kind.backfill_policy().unwrap());
                    assert!((p.walltime_err() - 0.25).abs() < 1e-12);
                }
                PlacementDispatcher::CoSched(_) => panic!("{} must backfill", kind.name()),
            }
        }
    }
}
