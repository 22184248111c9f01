//! Backfilling dispatch over walltime *estimates* and advance
//! reservations.
//!
//! [`BackfillPlanner`] is a node-local [`Dispatcher`] that plans
//! through a [`TreeSlotSet`] release profile instead of greedy
//! head-of-queue dispatch. Three classic policies:
//!
//! * **FCFS** — strict order: nothing starts before every job ahead
//!   of it has started.
//! * **EASY** — the queue head gets a reservation at its earliest
//!   estimated start; any later job may *backfill* into a hole
//!   provided its estimated run does not delay that reservation.
//! * **conservative** — every queued job gets a reservation, in
//!   order; a backfill may never delay *any* of them.
//!
//! The planner sees only walltime **estimates** (`solo_time` scaled
//! by a deterministic per-job error factor, [`BackfillPlanner::with_walltime_err`]),
//! while the simulator runs jobs for their true duration — exactly
//! the over/under-run mismatch a production batch scheduler lives
//! with. Stale estimate bookkeeping is re-grounded against the real
//! GPU pool on every decision (see `next_placement`), so an
//! early-finishing job can never wedge the queue.
//!
//! Advance reservations ([`BackfillPlanner::with_reservation`]) pin
//! future windows: the planner schedules around them, and its
//! [`Dispatcher::next_wakeup`] hint tells the simulator to consult it
//! again when a reservation expires even if no job event falls there.
//!
//! [`QueueOrder`] is the companion queue-reordering hook: it lets the
//! planner (or the RL layer above it) pick the order simultaneous
//! arrivals are considered in, without perturbing event-time
//! determinism.
//!
//! ```
//! use hrp_cluster::backfill::{BackfillPlanner, BackfillPolicy};
//! use hrp_cluster::multinode::MultiNodeSim;
//! use hrp_cluster::select::SelectorKind;
//! use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
//! use hrp_gpusim::GpuArch;
//! use hrp_workloads::Suite;
//!
//! let suite = Suite::paper_suite(&GpuArch::a100());
//! let jobs = generate(&suite, &TraceConfig::new(TraceKind::Bursty, 24, 7).max_gpus(2));
//! let mut selector = SelectorKind::Easy.build();
//! let report = MultiNodeSim::new(2, 2).run(&suite, jobs, selector.as_mut(), |_| {
//!     BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.25)
//! });
//! assert_eq!(report.completed_jobs(), 24);
//! ```

use crate::job::ClusterJob;
use crate::sim::{Dispatcher, Placement, TIME_EPS};
use crate::slots::TreeSlotSet;
use hrp_workloads::Suite;
use serde::{Deserialize, Serialize};

/// Slack when deciding whether an earliest fit is "now": matches the
/// backfill tolerance the legacy [`crate::fcfs::FcfsBackfill`] uses.
const FIT_EPS: f64 = 1e-9;

/// Which backfilling discipline a [`BackfillPlanner`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillPolicy {
    /// Strict first-come-first-served: no backfilling at all.
    Fcfs,
    /// EASY backfilling: only the queue head is protected.
    Easy,
    /// Conservative backfilling: every queued job is protected.
    Conservative,
}

impl BackfillPolicy {
    /// Parse a CLI/spec spelling. Accepts `fcfs`, `easy`,
    /// `conservative`.
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(input: &str) -> Result<Self, String> {
        match input {
            "fcfs" => Ok(Self::Fcfs),
            "easy" => Ok(Self::Easy),
            "conservative" => Ok(Self::Conservative),
            other => Err(other.to_string()),
        }
    }

    /// Canonical spelling (round-trips through [`BackfillPolicy::parse`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fcfs => "fcfs",
            Self::Easy => "easy",
            Self::Conservative => "conservative",
        }
    }

    /// `(reservation depth, backfilling allowed)`: FCFS protects the
    /// head and forbids backfill, EASY protects the head and allows
    /// it, conservative protects the whole queue. The depth is the
    /// knob [`crate::place::PlacementConfig`] lets the RL layer pick.
    #[must_use]
    pub fn depth_and_backfill(&self) -> (usize, bool) {
        match self {
            Self::Fcfs => (1, false),
            Self::Easy => (1, true),
            Self::Conservative => (usize::MAX, true),
        }
    }
}

/// How simultaneous arrivals are ordered before dispatchers see them.
///
/// Reordering is *within* an arrival burst only (jobs whose arrival
/// times are bitwise equal, the same grouping the epoch driver uses),
/// so arrival causality is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueOrder {
    /// Submission order (the default; bit-identical to the pre-hook
    /// behaviour).
    #[default]
    Arrival,
    /// Shortest estimated solo time first within a burst.
    ShortestFirst,
    /// Widest (most GPUs) first within a burst.
    WidestFirst,
}

impl QueueOrder {
    /// Parse a CLI/spec spelling. Accepts `arrival`,
    /// `shortest-first`, `widest-first`.
    ///
    /// # Errors
    /// Returns the unrecognised input.
    pub fn parse(input: &str) -> Result<Self, String> {
        match input {
            "arrival" => Ok(Self::Arrival),
            "shortest-first" => Ok(Self::ShortestFirst),
            "widest-first" => Ok(Self::WidestFirst),
            other => Err(other.to_string()),
        }
    }

    /// Canonical spelling (round-trips through [`QueueOrder::parse`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Arrival => "arrival",
            Self::ShortestFirst => "shortest-first",
            Self::WidestFirst => "widest-first",
        }
    }

    /// Reorder `jobs` (already sorted by arrival) within each
    /// same-instant burst. Ties keep submission order: the sort is
    /// stable, so `Arrival` is exactly the identity.
    pub fn apply(self, suite: &Suite, jobs: &mut [ClusterJob]) {
        if self == Self::Arrival || jobs.is_empty() {
            return;
        }
        let mut start = 0;
        for i in 1..=jobs.len() {
            let burst_over =
                i == jobs.len() || jobs[i].arrival.total_cmp(&jobs[start].arrival).is_ne();
            if burst_over {
                match self {
                    Self::Arrival => {}
                    Self::ShortestFirst => jobs[start..i]
                        .sort_by(|a, b| a.solo_time(suite).total_cmp(&b.solo_time(suite))),
                    Self::WidestFirst => {
                        jobs[start..i].sort_by_key(|j| std::cmp::Reverse(j.gpus));
                    }
                }
                start = i;
            }
        }
    }
}

/// A backfilling [`Dispatcher`]: plans the node's queue through a
/// fresh [`TreeSlotSet`] release profile on every decision.
///
/// The planner is a pure function of its inputs plus its own
/// bookkeeping, so every run replays it bit-for-bit (determinism
/// contract point 7 in ARCHITECTURE.md).
#[derive(Debug, Clone)]
pub struct BackfillPlanner {
    policy: BackfillPolicy,
    n_gpus: usize,
    walltime_err: f64,
    /// `(estimated finish, gpus)` for placements this planner
    /// started. Estimates — the simulator's true finishes may
    /// differ, so every decision re-grounds this list against the
    /// live pool.
    releases: Vec<(f64, usize)>,
    /// `(start, end, gpus)` advance reservations pinned at build
    /// time.
    reservations: Vec<(f64, f64, usize)>,
    /// Earliest future instant a reservation expiry could unblock the
    /// queue; handed to the simulator via [`Dispatcher::next_wakeup`].
    wake: Option<f64>,
}

impl BackfillPlanner {
    /// A planner for one node of `n_gpus` GPUs.
    ///
    /// # Panics
    /// Panics if `n_gpus` is zero.
    #[must_use]
    pub fn new(policy: BackfillPolicy, n_gpus: usize) -> Self {
        assert!(n_gpus >= 1);
        Self {
            policy,
            n_gpus,
            walltime_err: 0.0,
            releases: Vec::new(),
            reservations: Vec::new(),
            wake: None,
        }
    }

    /// Set the walltime-estimate error fraction `err ∈ [0, 1)`: job
    /// `i`'s estimate becomes `solo_time × (1 + err × (2u_i − 1))`
    /// with `u_i ∈ [0, 1)` hashed from the job id (splitmix64), so
    /// estimates deterministically over- and under-run the truth by
    /// up to ±`err`. `0` keeps estimates exact.
    ///
    /// # Panics
    /// Panics outside `[0, 1)` (a factor of `1` could zero an
    /// estimate).
    #[must_use]
    pub fn with_walltime_err(mut self, err: f64) -> Self {
        assert!(
            err.is_finite() && (0.0..1.0).contains(&err),
            "walltime error fraction must lie in [0, 1), got {err}"
        );
        self.walltime_err = err;
        self
    }

    /// Pin an advance reservation: `gpus` GPUs held for
    /// `[start, start + duration)`. The planner schedules around it
    /// and wakes the simulator when it expires.
    ///
    /// # Panics
    /// Panics on a non-positive/non-finite window or more GPUs than
    /// the node has.
    #[must_use]
    pub fn with_reservation(mut self, start: f64, duration: f64, gpus: usize) -> Self {
        assert!(
            start.is_finite() && start >= 0.0 && duration.is_finite() && duration > 0.0,
            "reservation window must be finite and non-empty"
        );
        assert!(
            gpus >= 1 && gpus <= self.n_gpus,
            "reservation of {gpus} GPUs on a {}-GPU node",
            self.n_gpus
        );
        self.reservations.push((start, start + duration, gpus));
        self
    }

    /// The policy this planner runs.
    #[must_use]
    pub fn policy(&self) -> BackfillPolicy {
        self.policy
    }

    /// The walltime-estimate error fraction set at build time.
    #[must_use]
    pub fn walltime_err(&self) -> f64 {
        self.walltime_err
    }

    /// Snapshot the planner's mutable bookkeeping for serialization.
    /// Release entries store `now + estimate` sums whose bit patterns
    /// cannot be reproduced by re-deriving them (f64 addition is not
    /// associative across a resume boundary), so a live checkpoint
    /// must carry them verbatim.
    #[must_use]
    pub fn export_state(&self) -> BackfillState {
        BackfillState {
            releases: self.releases.clone(),
            reservations: self.reservations.clone(),
            wake: self.wake,
        }
    }

    /// Overwrite the mutable bookkeeping with an exported snapshot:
    /// a planner built with the same policy/pool/error and restored
    /// this way decides bit-identically to the one the snapshot was
    /// taken from.
    pub fn restore_state(&mut self, state: BackfillState) {
        self.releases = state.releases;
        self.reservations = state.reservations;
        self.wake = state.wake;
    }

    /// The walltime estimate the planner schedules `job` by (true
    /// duration scaled by the deterministic error factor).
    #[must_use]
    pub fn walltime_estimate(&self, suite: &Suite, job: &ClusterJob) -> f64 {
        let truth = job.solo_time(suite);
        if self.walltime_err == 0.0 {
            return truth;
        }
        truth * (1.0 + self.walltime_err * (2.0 * unit_hash(job.id as u64) - 1.0))
    }

    /// Re-ground the estimate bookkeeping against the live pool:
    /// drop releases the clock has passed, then trim the earliest
    /// entries until the claimed-busy total matches the GPUs that are
    /// *actually* busy. Without this, a job that finished earlier
    /// than estimated would leave a phantom booking that blocks an
    /// idle node forever.
    fn reground_releases(&mut self, free_gpus: usize, now: f64) {
        self.releases.retain(|(t, _)| *t > now + FIT_EPS);
        self.releases
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let busy = self.n_gpus - free_gpus;
        let booked: usize = self.releases.iter().map(|(_, g)| *g).sum();
        let mut excess = booked.saturating_sub(busy);
        while excess > 0 {
            let head = self
                .releases
                .first_mut()
                .expect("excess > 0 implies entries");
            if head.1 <= excess {
                excess -= head.1;
                self.releases.remove(0);
            } else {
                head.1 -= excess;
                excess = 0;
            }
        }
    }

    /// The free-capacity profile at `now`: full node minus the
    /// (re-grounded) estimated releases minus active/future
    /// reservations. By construction `capacity_at(now)` equals the
    /// simulator's free-GPU count exactly, minus any reservation
    /// covering `now`.
    fn profile(&self, now: f64) -> TreeSlotSet {
        let mut profile = TreeSlotSet::new(self.n_gpus);
        for (t, g) in &self.releases {
            profile.claim(now, *t, *g);
        }
        for (s, e, g) in &self.reservations {
            let s = s.max(now);
            if *e > s + TIME_EPS {
                // `claim_up_to`: a reservation may cover GPUs the
                // release bookings already count as busy.
                profile.claim_up_to(s, *e, *g);
            }
        }
        profile
    }
}

/// A [`BackfillPlanner`]'s mutable bookkeeping, exported by
/// [`BackfillPlanner::export_state`] for live checkpoints and restored
/// via [`BackfillPlanner::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackfillState {
    /// `(estimated finish, gpus)` bookings of started placements.
    pub releases: Vec<(f64, usize)>,
    /// `(start, end, gpus)` advance reservations.
    pub reservations: Vec<(f64, f64, usize)>,
    /// Pending wakeup hint.
    pub wake: Option<f64>,
}

/// splitmix64 finalizer mapped to `[0, 1)`.
fn unit_hash(id: u64) -> f64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Dispatcher for BackfillPlanner {
    fn name(&self) -> &'static str {
        match self.policy {
            BackfillPolicy::Fcfs => "backfill-fcfs",
            BackfillPolicy::Easy => "backfill-easy",
            BackfillPolicy::Conservative => "backfill-conservative",
        }
    }

    fn next_placement(
        &mut self,
        suite: &Suite,
        waiting: &[ClusterJob],
        free_gpus: usize,
        now: f64,
    ) -> Option<Placement> {
        self.wake = None;
        self.reground_releases(free_gpus, now);
        let mut profile = self.profile(now);
        let (depth, backfill) = self.policy.depth_and_backfill();
        for (k, job) in waiting.iter().enumerate() {
            if k >= depth && !backfill {
                // Strict order: once a protected job is held back,
                // nothing behind it may start — not even a job that
                // would fit right now.
                break;
            }
            let est = self.walltime_estimate(suite, job);
            let start = profile.earliest_fit(now, job.gpus, est);
            if start <= now + FIT_EPS && job.gpus <= free_gpus {
                // Starts immediately: record the *estimated* release
                // and hand the simulator the *true* duration.
                self.releases.push((now + est, job.gpus));
                return Some(Placement {
                    job_ids: vec![job.id],
                    gpus: job.gpus,
                    duration: job.solo_time(suite),
                });
            }
            if k < depth {
                // Protected job: reserve its window so nothing
                // considered after it can delay it.
                profile.claim(start, start + est, job.gpus);
            }
        }
        // Idle with work queued: if an advance reservation's expiry is
        // what we're waiting on, ask the simulator to wake us there —
        // no job event may fall on that instant.
        if !waiting.is_empty() {
            let expiry = self
                .reservations
                .iter()
                .map(|(_, e, _)| *e)
                .filter(|e| *e > now + TIME_EPS)
                .fold(f64::INFINITY, f64::min);
            if expiry.is_finite() {
                self.wake = Some(expiry);
            }
        }
        None
    }

    fn next_wakeup(&self, _now: f64) -> Option<f64> {
        self.wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// stream solo = 10 s, kmeans = 16 s, pathfinder = 14 s,
    /// lavaMD@2 = 19 s.
    fn job(s: &Suite, id: usize, name: &str, arrival: f64, gpus: usize) -> ClusterJob {
        ClusterJob::new(id, name, arrival, gpus, s)
    }

    #[test]
    fn policies_parse_and_round_trip() {
        for p in [
            BackfillPolicy::Fcfs,
            BackfillPolicy::Easy,
            BackfillPolicy::Conservative,
        ] {
            assert_eq!(BackfillPolicy::parse(p.name()), Ok(p));
        }
        assert!(BackfillPolicy::parse("eazy").is_err());
    }

    #[test]
    fn queue_orders_parse_and_round_trip() {
        for q in [
            QueueOrder::Arrival,
            QueueOrder::ShortestFirst,
            QueueOrder::WidestFirst,
        ] {
            assert_eq!(QueueOrder::parse(q.name()), Ok(q));
        }
        assert!(QueueOrder::parse("fifo").is_err());
    }

    #[test]
    fn queue_order_reorders_within_bursts_only() {
        let s = suite();
        let mut jobs = vec![
            job(&s, 0, "kmeans", 0.0, 1), // 16 s
            job(&s, 1, "stream", 0.0, 1), // 10 s
            job(&s, 2, "lavaMD", 5.0, 2), // later burst
            job(&s, 3, "stream", 5.0, 1),
        ];
        QueueOrder::ShortestFirst.apply(&s, &mut jobs);
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        // Burst at t = 0 flips (stream < kmeans); the t = 5 burst
        // sorts independently (stream 10 s < lavaMD@2 19 s).
        assert_eq!(ids, vec![1, 0, 3, 2]);
        QueueOrder::WidestFirst.apply(&s, &mut jobs);
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 0, 2, 3], "widest first within the late burst");
    }

    #[test]
    fn walltime_estimates_are_deterministic_and_bounded() {
        let s = suite();
        let p = BackfillPlanner::new(BackfillPolicy::Easy, 2).with_walltime_err(0.5);
        for id in 0..64 {
            let j = job(&s, id, "stream", 0.0, 1);
            let truth = j.solo_time(&s);
            let est = p.walltime_estimate(&s, &j);
            assert_eq!(est.to_bits(), p.walltime_estimate(&s, &j).to_bits());
            assert!(
                est > truth * 0.5 - 1e-9 && est < truth * 1.5 + 1e-9,
                "{est}"
            );
        }
        let exact = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let j = job(&s, 3, "kmeans", 0.0, 1);
        assert_eq!(exact.walltime_estimate(&s, &j), j.solo_time(&s));
    }

    #[test]
    fn easy_backfills_a_short_job_behind_a_blocked_gang() {
        let s = suite();
        // 2-GPU node. kmeans (16 s) holds one GPU; the 2-GPU lavaMD
        // head must wait for it; EASY lets the 10 s stream job run on
        // the idle GPU meanwhile — FCFS leaves it idle.
        let jobs = vec![
            job(&s, 0, "kmeans", 0.0, 1),
            job(&s, 1, "lavaMD", 1.0, 2),
            job(&s, 2, "stream", 1.0, 1),
        ];
        let run = |policy| {
            let mut d = BackfillPlanner::new(policy, 2);
            ClusterSim::new(2).run(&s, jobs.clone(), &mut d)
        };
        let fcfs = run(BackfillPolicy::Fcfs);
        let easy = run(BackfillPolicy::Easy);
        // FCFS: kmeans [0,16), lavaMD [16,35), stream [35,45).
        assert!((fcfs.makespan - 45.0).abs() < 1e-9, "{}", fcfs.makespan);
        // EASY: stream backfills [1,11) beside kmeans; same lavaMD
        // start, so the head was not delayed.
        assert!((easy.makespan - 35.0).abs() < 1e-9, "{}", easy.makespan);
    }

    #[test]
    fn easy_backfill_never_delays_the_head() {
        let s = suite();
        // kmeans (16 s) on one GPU; the lavaMD gang head reserves
        // [16, 35). pathfinder (14 s) would *overrun* that start
        // (1 + 14 = 15 ≤ 16 fits!) — pick stream at t=7 instead:
        // 7 + 10 = 17 > 16 would delay the head, so EASY must hold it.
        let jobs = vec![
            job(&s, 0, "kmeans", 0.0, 1),
            job(&s, 1, "lavaMD", 1.0, 2),
            job(&s, 2, "stream", 7.0, 1),
        ];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 2);
        let report = ClusterSim::new(2).run(&s, jobs, &mut d);
        // stream waits for the gang: kmeans [0,16), lavaMD [16,35),
        // stream [35,45).
        assert!((report.makespan - 45.0).abs() < 1e-9, "{}", report.makespan);
    }

    #[test]
    fn reservation_blocks_and_wakes_an_idle_node() {
        let s = suite();
        // Full-node reservation [5, 30): the 2-GPU job arriving at 10
        // cannot start inside it, and nothing else ever happens on the
        // node — only the next_wakeup hint can un-wedge the drain.
        let jobs = vec![job(&s, 0, "lavaMD", 10.0, 2)];
        let mut d = BackfillPlanner::new(BackfillPolicy::Easy, 2).with_reservation(5.0, 25.0, 2);
        let (report, events) = ClusterSim::new(2).run_traced(&s, jobs, &mut d);
        let start = events
            .iter()
            .find_map(|e| match &e.kind {
                crate::sim::EventKind::Start { .. } => Some(e.time),
                _ => None,
            })
            .expect("job started");
        assert!((start - 30.0).abs() < 1e-9, "started at {start}");
        assert!((report.makespan - 49.0).abs() < 1e-9);
    }

    #[test]
    fn early_finishes_do_not_wedge_the_planner() {
        let s = suite();
        // Overestimated walltimes: every estimate can exceed the true
        // duration, so the release book claims GPUs busy after they
        // actually freed. The re-grounding pass must keep dispatching.
        let jobs: Vec<ClusterJob> = (0..12)
            .map(|i| {
                job(
                    &s,
                    i,
                    ["stream", "kmeans", "pathfinder"][i % 3],
                    0.0,
                    1 + i % 2,
                )
            })
            .collect();
        for policy in [BackfillPolicy::Easy, BackfillPolicy::Conservative] {
            let mut d = BackfillPlanner::new(policy, 2).with_walltime_err(0.9);
            let report = ClusterSim::new(2).run(&s, jobs.clone(), &mut d);
            assert!(report.makespan.is_finite() && report.placements == 12);
        }
    }
}
