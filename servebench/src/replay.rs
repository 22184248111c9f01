//! The traced run: the service cycle replayed by the benchmark itself
//! through public calls, with a span recorded around every call into a
//! layer.
//!
//! `SchedulerService` owns its concrete `PlacementDispatcher`, so timing
//! wrappers cannot be injected into it. The replay therefore rebuilds
//! the service loop — `ArrivalSource::poll` for ingest, `FairShare` for
//! admission, the `ClusterDrive` node calls, the selector — over a
//! `ClusterDrive` whose node dispatchers are wrapped. Its timeline and
//! admission digests are checked against the untraced run's, so a
//! replay that drifts from the service fails instead of being measured.

use crate::workload::{suite, Outcome, Workload, GPUS_PER_NODE, NODES};
use hrp_cluster::backfill::BackfillPlanner;
use hrp_cluster::cosched::CoSchedulingDispatcher;
use hrp_cluster::fair::{self, FairShare};
use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::ClusterDrive;
use hrp_cluster::place::PlacementDispatcher;
use hrp_cluster::select::{NodeLoad, NodeSelector};
use hrp_cluster::sim::{Dispatcher, Placement};
use hrp_core::policies::{MpsOnly, Policy, ScheduleContext};
use hrp_core::problem::ScheduleDecision;
use hrp_serve::{
    dispatcher_for, AdmissionConfig, ArrivalSource, SourcePoll, TraceSource, SERVE_CMAX, SERVE_W,
};
use hrp_workloads::Suite;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

/// A span's layer. `Step` is the replay loop itself (one per service
/// step); every other variant is a layer of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Step,
    Ingest,
    Admission,
    Advance,
    Cosched,
    Plan,
    Backfill,
    Select,
    Place,
    Drain,
}

const LAYERS: usize = 10;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Step,
        Layer::Ingest,
        Layer::Admission,
        Layer::Advance,
        Layer::Cosched,
        Layer::Plan,
        Layer::Backfill,
        Layer::Select,
        Layer::Place,
        Layer::Drain,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Ingest => "ingest",
            Layer::Admission => "admission",
            Layer::Advance => "advance",
            Layer::Cosched => "cosched",
            Layer::Plan => "plan",
            Layer::Backfill => "backfill",
            Layer::Select => "select",
            Layer::Place => "place",
            Layer::Drain => "drain",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: layer, the span that caused it, and its host
/// interval in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    start: u64,
    end: u64,
}

/// In-memory span recorder plus the window statistics the plan wrapper
/// counts. One per thread; the replay is single-threaded.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// One packed bench tuple per planned window (see `pack_window`).
    windows: Vec<u64>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

fn enter(layer: Layer) -> u32 {
    TRACER.with_borrow_mut(|t| {
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let start = t.now();
        t.spans.push(Span {
            layer,
            parent,
            start,
            end: start,
        });
        t.open.push(id);
        id
    })
}

fn exit(id: u32) {
    TRACER.with_borrow_mut(|t| {
        let end = t.now();
        t.spans[id as usize].end = end;
        let top = t.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    });
}

fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = enter(layer);
    let out = f();
    exit(id);
    out
}

/// A window's ordered bench tuple packed into one word: the length in
/// the top byte, then one byte per bench index (the suite has 27
/// benchmarks and windows hold at most `SERVE_W` = 4 jobs).
fn pack_window(benches: impl Iterator<Item = usize>) -> u64 {
    let mut packed = 0u64;
    let mut len = 0u64;
    for b in benches {
        packed = (packed << 8) | (b as u64 & 0xff);
        len += 1;
    }
    packed | (len << 56)
}

/// `MpsOnly` behind a `Policy` wrapper: the window search is timed as
/// the `plan` span and the window's bench tuple is counted.
struct TimedMpsOnly;

impl Policy for TimedMpsOnly {
    fn name(&self) -> &'static str {
        MpsOnly.name()
    }

    fn schedule(&self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let decision = span(Layer::Plan, || MpsOnly.schedule(ctx));
        let packed = pack_window(ctx.queue.jobs.iter().map(|j| j.bench));
        TRACER.with_borrow_mut(|t| t.windows.push(packed));
        decision
    }
}

/// The node dispatchers the service would build, behind a `Dispatcher`
/// wrapper that times every consultation.
enum TimedDispatcher {
    CoSched(CoSchedulingDispatcher<TimedMpsOnly>),
    Backfill(BackfillPlanner),
}

impl TimedDispatcher {
    /// Mirror `hrp_serve::dispatcher_for` at the service geometry.
    fn for_workload(w: &Workload) -> Self {
        match dispatcher_for(w.selector, GPUS_PER_NODE, 0.0) {
            PlacementDispatcher::CoSched(_) => Self::CoSched(CoSchedulingDispatcher::new(
                TimedMpsOnly,
                SERVE_W,
                SERVE_CMAX,
            )),
            PlacementDispatcher::Backfill(planner) => Self::Backfill(planner),
        }
    }
}

impl Dispatcher for TimedDispatcher {
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
    ) -> Option<Placement> {
        match self {
            Self::CoSched(d) => span(Layer::Cosched, || {
                d.next_placement(suite, waiting, free_gpus, now)
            }),
            Self::Backfill(d) => span(Layer::Backfill, || {
                d.next_placement(suite, waiting, free_gpus, now)
            }),
        }
    }

    fn next_wakeup(&self, now: f64) -> Option<f64> {
        match self {
            Self::CoSched(d) => d.next_wakeup(now),
            Self::Backfill(d) => d.next_wakeup(now),
        }
    }
}

/// The admission tier as the service runs it, rebuilt from public
/// `FairShare` calls.
struct AdmissionReplay {
    cfg: AdmissionConfig,
    share: FairShare,
    deferred: VecDeque<ClusterJob>,
    digest: u64,
}

impl AdmissionReplay {
    /// Fold one admission decision into the FNV-1a digest, exactly as
    /// the service does.
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

/// The replayed service state.
struct Replay<'a> {
    suite: &'a Suite,
    drive: ClusterDrive<'a, TimedDispatcher>,
    selector: Box<dyn NodeSelector>,
    source: TraceSource<'a>,
    lookahead: Option<ClusterJob>,
    admission: Option<AdmissionReplay>,
    outcome: Outcome,
    cycles: u64,
}

impl Replay<'_> {
    /// Pull one burst: every immediately-available arrival at the
    /// bitwise-same instant, holding the first later one back.
    fn ingest(&mut self) -> Option<(f64, Vec<ClusterJob>)> {
        let head = match self.lookahead.take() {
            Some(job) => job,
            None => match self.source.poll() {
                SourcePoll::Job(job) => job,
                SourcePoll::Closed => return None,
                SourcePoll::Pending => unreachable!("trace sources never pend"),
            },
        };
        let t = head.arrival;
        let mut burst = vec![head];
        while let SourcePoll::Job(job) = self.source.poll() {
            if job.arrival.total_cmp(&t).is_eq() {
                burst.push(job);
            } else {
                self.lookahead = Some(job);
                break;
            }
        }
        Some((t, burst))
    }

    fn cycle(&mut self, t: f64, mut burst: Vec<ClusterJob>) {
        self.cycles += 1;
        span(Layer::Advance, || self.advance_cluster(t));
        if self.admission.is_some() {
            let id = enter(Layer::Admission);
            self.revisit_deferred(t);
            let adm = self.admission.as_ref().expect("admission is on");
            adm.share.order_burst(t, &mut burst);
            for job in burst {
                self.consider(t, job, true);
            }
            exit(id);
        } else {
            for job in burst {
                self.place_job(job);
            }
        }
    }

    fn advance_cluster(&mut self, t: f64) {
        self.drive.note_round();
        for node in 0..NODES {
            if self.drive.node_is_quiescent(node) {
                self.outcome.nodes_skipped += 1;
            } else {
                self.drive.advance_node_to(node, t);
                self.outcome.nodes_replanned += 1;
            }
        }
    }

    fn place_job(&mut self, job: ClusterJob) {
        let work = job.solo_time(self.suite);
        let loads = self.drive.loads();
        let selector = &mut self.selector;
        let node = span(Layer::Select, || selector.select(job.gpus, work, loads));
        self.outcome.decisions += 1;
        let drive = &mut self.drive;
        span(Layer::Place, || drive.place(node, job));
    }

    fn revisit_deferred(&mut self, t: f64) {
        let adm = self.admission.as_mut().expect("admission is on");
        adm.share.advance_to(t);
        let parked = std::mem::take(&mut adm.deferred);
        for job in parked {
            self.consider(t, job, false);
        }
    }

    fn consider(&mut self, t: f64, mut job: ClusterJob, fresh: bool) {
        let work = job.solo_time(self.suite);
        let adm = self.admission.as_mut().expect("admission is on");
        if fresh && adm.cfg.slo.is_finite() {
            let wait = projected_wait(self.drive.loads(), &job);
            if (wait + work) / work > adm.cfg.slo {
                self.outcome.rejected += 1;
                return;
            }
        }
        if adm.share.over_quota(job.user) {
            if fresh {
                self.outcome.deferred += 1;
            }
            adm.deferred.push_back(job);
            return;
        }
        adm.share
            .admit(job.user, fair::job_cost(self.suite, &job), t + work);
        job.arrival = t;
        adm.record(&job, t);
        self.place_job(job);
    }

    /// An idle cycle at the earliest wake-up: how the service drains
    /// quota-deferred jobs after its source closes.
    fn wake(&mut self) {
        let drive = self.drive.next_wakeup();
        let adm = self.admission.as_mut().expect("only deferred jobs wake");
        let t = match (drive, adm.share.next_release()) {
            (Some(d), Some(f)) => d.min(f),
            (d, f) => d.or(f).expect("deferred jobs imply a pending release"),
        };
        span(Layer::Advance, || self.advance_cluster(t));
        let id = enter(Layer::Admission);
        self.revisit_deferred(t);
        exit(id);
    }
}

/// The service's admission-time wait estimate (`projected_wait`).
fn projected_wait(loads: &[NodeLoad], job: &ClusterJob) -> f64 {
    loads
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

/// Per-layer totals of one traced run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// First step through the end of the drain, traced.
    pub wall_s: f64,
    pub outcome: Outcome,
    pub cycles: u64,
    /// Self time (span minus its child spans) per layer, in ns.
    self_ns: [i64; LAYERS],
    /// Inclusive span time per layer, in ns.
    incl_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    pub windows: u64,
    pub window_jobs: u64,
    pub singleton_windows: u64,
    pub distinct_windows: u64,
}

impl TracedRun {
    #[must_use]
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    #[must_use]
    pub fn incl_s(&self, layer: Layer) -> f64 {
        self.incl_ns[layer as usize] as f64 * 1e-9
    }

    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Σ self time of the program's layers (everything but the replay
    /// loop's own `step` spans).
    #[must_use]
    pub fn layer_self_s(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Step)
            .map(|&l| self.self_s(l))
            .sum()
    }
}

/// The spans of one traced run, kept in memory until the benchmark
/// ends.
pub struct Spans(Vec<Span>);

impl Spans {
    /// One line per span: `id parent layer start_ns end_ns`.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut tsv = String::with_capacity(self.0.len() * 40);
        tsv.push_str("id\tparent\tlayer\tstart_ns\tend_ns\n");
        for (id, s) in self.0.iter().enumerate() {
            let _ = write!(tsv, "{id}\t");
            if s.parent == NO_PARENT {
                tsv.push('-');
            } else {
                let _ = write!(tsv, "{}", s.parent);
            }
            let _ = writeln!(tsv, "\t{}\t{}\t{}", s.layer.name(), s.start, s.end);
        }
        tsv
    }
}

/// Replay one service run of the workload under tracing.
pub fn traced_run(w: &Workload, seed: u64) -> (TracedRun, Spans) {
    let suite = suite();
    let mut replay = Replay {
        suite: &suite,
        drive: ClusterDrive::new(&suite, NODES, GPUS_PER_NODE, |_| {
            TimedDispatcher::for_workload(w)
        }),
        selector: w.selector.build(),
        source: TraceSource::new(&suite, w.trace_cfg(seed)),
        lookahead: None,
        admission: w.admission_cfg().map(|cfg| AdmissionReplay {
            share: FairShare::new(cfg.fair_config()),
            cfg,
            deferred: VecDeque::new(),
            digest: 0xcbf2_9ce4_8422_2325,
        }),
        outcome: Outcome::default(),
        cycles: 0,
    };
    TRACER.with_borrow_mut(|t| {
        *t = Tracer::new();
        t.spans.reserve(w.jobs * 8);
        t.windows.reserve(w.jobs);
    });

    let start = Instant::now();
    loop {
        let id = enter(Layer::Step);
        let Some((t, burst)) = span(Layer::Ingest, || replay.ingest()) else {
            exit(id);
            break;
        };
        replay.cycle(t, burst);
        exit(id);
    }
    while replay
        .admission
        .as_ref()
        .is_some_and(|a| !a.deferred.is_empty())
    {
        span(Layer::Step, || replay.wake());
    }
    let report = span(Layer::Drain, || replay.drive.finish());
    let wall_s = start.elapsed().as_secs_f64();

    let mut outcome = Outcome::from_report(replay.source.consumed(), &report);
    outcome.admission_digest = replay.admission.as_ref().map(|a| a.digest);
    outcome.decisions = replay.outcome.decisions;
    outcome.rejected = replay.outcome.rejected;
    outcome.deferred = replay.outcome.deferred;
    outcome.nodes_replanned = replay.outcome.nodes_replanned;
    outcome.nodes_skipped = replay.outcome.nodes_skipped;

    let tracer = TRACER.with_borrow_mut(|t| std::mem::replace(t, Tracer::new()));
    debug_assert!(tracer.open.is_empty(), "every span closed");
    let mut run = TracedRun {
        wall_s,
        outcome,
        cycles: replay.cycles,
        self_ns: [0; LAYERS],
        incl_ns: [0; LAYERS],
        calls: [0; LAYERS],
        windows: tracer.windows.len() as u64,
        window_jobs: tracer.windows.iter().map(|p| p >> 56).sum(),
        singleton_windows: tracer.windows.iter().filter(|&&p| p >> 56 == 1).count() as u64,
        distinct_windows: tracer.windows.iter().collect::<HashSet<_>>().len() as u64,
    };
    for s in &tracer.spans {
        let dur = s.end - s.start;
        let l = s.layer as usize;
        run.self_ns[l] += dur as i64;
        run.incl_ns[l] += dur;
        run.calls[l] += 1;
        if s.parent != NO_PARENT {
            run.self_ns[tracer.spans[s.parent as usize].layer as usize] -= dur as i64;
        }
    }
    (run, Spans(tracer.spans))
}
