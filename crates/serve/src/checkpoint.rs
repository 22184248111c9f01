//! The `HRPS` live-checkpoint format: kill a running
//! [`SchedulerService`] and resume it bit-identically mid-trace.
//!
//! The container follows the repo's `HRPE`/`HRPP` snapshot pattern —
//! a 4-byte magic, a little-endian `u32` version, a length-prefixed
//! textual `key=value` spec, then a binary body:
//!
//! ```text
//! "HRPS" | version u32 | spec_len u32 | spec text | body
//! ```
//!
//! The spec carries everything reconstructible from plain text: the
//! service geometry, cycle mode, selector kind (plus the round-robin
//! cursor), the source family with its parameters and stream
//! position, the logical counters, and the last-cycle instant as raw
//! bits. The body carries what must survive *verbatim*: every node's
//! in-flight [`NodeRunState`] (running placements, waiting queue,
//! undrained events, clocks — f64s as bit patterns, since re-deriving
//! sums would not reproduce them), the load snapshots, per-node
//! dispatcher bookkeeping ([`BackfillState`] or the co-scheduling
//! window counter), the service's one-job lookahead, and — for the
//! policy selector — the agent's embedded `HRPP` blob.
//!
//! Deterministic sources checkpoint as spec + position: a rebuilt
//! source replays `consumed` draws to restore its RNG cursor exactly.
//! A live [`ChannelSource`](crate::source::ChannelSource) has no such
//! position and refuses to checkpoint. Decision-latency samples are
//! wall-clock measurement, not state — a restored service starts a
//! fresh latency window.
//!
//! Version 2 added the admission tier: jobs carry a tenant id, the
//! spec gains the admission knobs plus the `deferred`/`rejected`
//! counters, and the body gains the fair-share snapshot, the rolling
//! admission digest, and the quota-deferred queue. Version 1 blobs
//! (no tenant field in job records, no admission keys) still restore:
//! every new spec key defaults to the legacy behaviour and the `user`
//! field is only decoded for v2 bodies. The spec is parsed defensively
//! — out-of-range values (a forged source position past the trace, a
//! zero quota, a non-finite rate, more than [`MAX_NODES`] nodes)
//! surface as [`CheckpointError::Spec`] rather than tripping builder
//! asserts.
//!
//! Older writers also emitted `chunks`, `speculations`, `rollbacks` and
//! `clean_commits` sync counters, left over from a since-removed
//! chunked multi-node engine (always 0 in the service). The reader
//! ignores unknown spec keys, so those blobs restore unchanged.

use crate::service::{
    dispatcher_for, AdmissionConfig, AdmissionState, CycleMode, SchedulerService, SelectorState,
    ServeConfig, ServeStats,
};
use crate::source::{ArrivalSource, LoadGen, LoadShape, TraceSource};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hrp_cluster::backfill::BackfillState;
use hrp_cluster::fair::{FairConfig, FairShare, FairShareState};
use hrp_cluster::job::ClusterJob;
use hrp_cluster::multinode::{ClusterDrive, SyncStats, MAX_NODES};
use hrp_cluster::place::{PlacementDispatcher, PlacementExperiment};
use hrp_cluster::select::{NodeLoad, RoundRobin, SelectorKind};
use hrp_cluster::sim::{EventKind, NodeEvent, NodeRunState};
use hrp_cluster::trace::{TraceConfig, TraceKind, DEFAULT_USER_SKEW};
pub use hrp_core::experiment::CheckpointError;
use hrp_workloads::Suite;
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"HRPS";
const VERSION: u32 = 2;

/// Per-node dispatcher bookkeeping captured under the node lock.
enum DispatcherState {
    CoSched { windows: usize },
    Backfill(BackfillState),
}

impl<'a, S: ArrivalSource> SchedulerService<'a, S> {
    /// Serialize the full in-flight service state as an `HRPS` blob.
    ///
    /// # Errors
    /// [`CheckpointError::Spec`] if the arrival source cannot be
    /// checkpointed (live channels have no replayable position).
    pub fn checkpoint(&self) -> Result<Bytes, CheckpointError> {
        let src_spec = self.source.checkpoint_spec().ok_or_else(|| {
            CheckpointError::Spec(format!(
                "source '{}' has no replayable position",
                self.source.name()
            ))
        })?;

        let agent_blob = match &self.selector {
            SelectorState::Policy(agent, _) => Some(agent.save_bytes()),
            _ => None,
        };

        let mut spec = String::new();
        let mut kv = |k: &str, v: String| {
            spec.push_str(k);
            spec.push('=');
            spec.push_str(&v);
            spec.push('\n');
        };
        let sync = self.drive.sync_stats();
        kv("nodes", self.cfg.nodes.to_string());
        kv("gpus_per_node", self.cfg.gpus_per_node.to_string());
        kv("walltime_err", format!("{:?}", self.cfg.walltime_err));
        kv("mode", self.cfg.mode.name().to_owned());
        kv("selector", self.selector.kind().name().to_owned());
        if let SelectorState::RoundRobin(rr) = &self.selector {
            kv("rr_cursor", rr.cursor().to_string());
        }
        kv("source", self.source.name().to_owned());
        kv("src_consumed", self.source.consumed().to_string());
        for (k, v) in src_spec {
            kv(&format!("src_{k}"), v);
        }
        kv("cycles", self.stats.cycles.to_string());
        kv("wake_cycles", self.stats.wake_cycles.to_string());
        kv("decisions", self.stats.decisions.to_string());
        kv("nodes_replanned", self.stats.nodes_replanned.to_string());
        kv("nodes_skipped", self.stats.nodes_skipped.to_string());
        kv("deferred", self.stats.deferred.to_string());
        kv("rejected", self.stats.rejected.to_string());
        kv("placed", self.drive.placed().to_string());
        kv("sync_rounds", sync.sync_rounds.to_string());
        kv("node_advances", sync.node_advances.to_string());
        kv("last_cycle_bits", self.last_cycle.to_bits().to_string());
        kv(
            "has_lookahead",
            u8::from(self.lookahead.is_some()).to_string(),
        );
        kv("has_agent", u8::from(agent_blob.is_some()).to_string());
        kv(
            "admission",
            u8::from(self.cfg.admission.is_some()).to_string(),
        );
        if let Some(acfg) = &self.cfg.admission {
            kv("adm_quota", acfg.quota.to_string());
            kv("adm_half_life", format!("{:?}", acfg.half_life));
            kv("adm_slo", format!("{:?}", acfg.slo));
        }

        let mut body = BytesMut::with_capacity(4096);
        if let Some(job) = &self.lookahead {
            put_job(&mut body, job);
        }
        for node in 0..self.cfg.nodes {
            let run = self.drive.node(node);
            let disp = match run.dispatcher() {
                PlacementDispatcher::CoSched(d) => DispatcherState::CoSched {
                    windows: d.windows_scheduled(),
                },
                PlacementDispatcher::Backfill(p) => DispatcherState::Backfill(p.export_state()),
            };
            put_node_state(&mut body, &run.export_state());
            put_load(&mut body, &self.drive.loads()[node]);
            put_dispatcher(&mut body, &disp);
        }
        if let Some(blob) = agent_blob {
            put_len(&mut body, blob.len());
            body.put_slice(&blob);
        }
        if let Some(adm) = &self.admission {
            put_admission(&mut body, adm);
        }

        let mut out = BytesMut::with_capacity(12 + spec.len() + body.len());
        out.put_slice(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u32_le(spec.len() as u32);
        out.put_slice(spec.as_bytes());
        out.put_slice(&body);
        Ok(out.freeze())
    }

    /// [`SchedulerService::checkpoint`] straight to a file.
    ///
    /// # Errors
    /// Checkpoint errors, plus [`CheckpointError::Io`] on write
    /// failure.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let blob = self.checkpoint()?;
        std::fs::write(path, &*blob).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }
}

/// Rebuild a service from an `HRPS` blob. The returned service is
/// positioned exactly where [`SchedulerService::checkpoint`] left
/// off: driving it to close yields the same merged timeline, bit for
/// bit, as the service it was captured from would have produced
/// uninterrupted.
///
/// # Errors
/// [`CheckpointError::NotACheckpoint`] / [`CheckpointError::BadVersion`]
/// on a foreign or future blob, [`CheckpointError::Spec`] on any
/// malformed spec or body content.
pub fn restore(
    suite: &Suite,
    mut blob: Bytes,
) -> Result<SchedulerService<'_, Box<dyn ArrivalSource + '_>>, CheckpointError> {
    if blob.len() < 12 || &blob[..4] != MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    blob.advance(4);
    let version = blob.get_u32_le();
    if !(1..=VERSION).contains(&version) {
        return Err(CheckpointError::BadVersion(version));
    }
    let spec_len = blob.get_u32_le() as usize;
    if blob.len() < spec_len {
        return Err(CheckpointError::Spec("truncated spec".into()));
    }
    let spec_bytes = blob.split_to(spec_len);
    let spec_text = std::str::from_utf8(&spec_bytes)
        .map_err(|_| CheckpointError::Spec("spec is not UTF-8".into()))?;
    let spec = parse_spec(spec_text)?;

    let nodes = get_usize(&spec, "nodes")?;
    let gpus_per_node = get_usize(&spec, "gpus_per_node")?;
    let walltime_err = get_f64(&spec, "walltime_err")?;
    ensure(
        (1..=MAX_NODES).contains(&nodes),
        format!("nodes {nodes} out of range"),
    )?;
    ensure(
        (1..=1024).contains(&gpus_per_node),
        format!("gpus_per_node {gpus_per_node} out of range"),
    )?;
    ensure(
        (0.0..1.0).contains(&walltime_err),
        format!("walltime_err {walltime_err} out of range"),
    )?;
    let mode = CycleMode::parse(get(&spec, "mode")?)
        .map_err(|m| CheckpointError::Spec(format!("unknown mode '{m}'")))?;
    let kind = SelectorKind::parse(get(&spec, "selector")?)
        .map_err(|s| CheckpointError::Spec(format!("unknown selector '{s}'")))?;
    let adm_cfg = if get_u64_or(&spec, "admission", 0)? != 0 {
        let quota = get_usize(&spec, "adm_quota")?;
        let half_life = get_f64(&spec, "adm_half_life")?;
        let slo = get_f64(&spec, "adm_slo")?;
        ensure(quota >= 1, "adm_quota must be at least 1".into())?;
        ensure(
            half_life.is_finite() && half_life > 0.0,
            format!("adm_half_life {half_life} out of range"),
        )?;
        ensure(slo > 0.0, format!("adm_slo {slo} out of range"))?;
        Some(AdmissionConfig {
            quota,
            half_life,
            slo,
        })
    } else {
        None
    };
    let mut cfg = ServeConfig::new(nodes, gpus_per_node)
        .walltime_err(walltime_err)
        .mode(mode);
    if let Some(acfg) = &adm_cfg {
        cfg = cfg.admission(acfg.clone());
    }
    let stats = ServeStats {
        cycles: get_u64(&spec, "cycles")?,
        wake_cycles: get_u64(&spec, "wake_cycles")?,
        decisions: get_u64(&spec, "decisions")?,
        nodes_replanned: get_u64(&spec, "nodes_replanned")?,
        nodes_skipped: get_u64(&spec, "nodes_skipped")?,
        deferred: get_u64_or(&spec, "deferred", 0)?,
        rejected: get_u64_or(&spec, "rejected", 0)?,
    };
    let sync = SyncStats {
        sync_rounds: get_u64(&spec, "sync_rounds")?,
        node_advances: get_u64(&spec, "node_advances")?,
    };
    let placed = get_usize(&spec, "placed")?;
    let last_cycle = f64::from_bits(get_u64(&spec, "last_cycle_bits")?);
    let has_lookahead = get_u64(&spec, "has_lookahead")? != 0;
    let has_agent = get_u64(&spec, "has_agent")? != 0;

    let mut body = Body(blob, version);
    let lookahead = if has_lookahead {
        Some(body.job()?)
    } else {
        None
    };
    let mut parts: Vec<(NodeRunState, PlacementDispatcher)> = Vec::with_capacity(nodes);
    let mut loads: Vec<NodeLoad> = Vec::with_capacity(nodes);
    for node in 0..nodes {
        let state = body.node_state(node, gpus_per_node)?;
        loads.push(body.load(node)?);
        let dispatcher = body.dispatcher(kind, gpus_per_node, walltime_err)?;
        parts.push((state, dispatcher));
    }
    let selector = if has_agent {
        if kind != SelectorKind::Policy {
            return Err(CheckpointError::Spec(format!(
                "agent blob on non-policy selector '{}'",
                kind.name()
            )));
        }
        let len = body.len_prefix()?;
        let agent = PlacementExperiment::load_bytes(body.take(len)?)?;
        SelectorState::from_agent(agent)
    } else {
        match kind {
            SelectorKind::Policy => {
                return Err(CheckpointError::Spec(
                    "policy selector checkpoint is missing its agent blob".into(),
                ))
            }
            SelectorKind::RoundRobin => {
                SelectorState::RoundRobin(RoundRobin::with_cursor(get_usize(&spec, "rr_cursor")?))
            }
            other => SelectorState::from_kind(other),
        }
    };
    let admission = match &adm_cfg {
        Some(acfg) => Some(body.admission(acfg.fair_config())?),
        None => None,
    };
    if !body.0.is_empty() {
        return Err(CheckpointError::Spec(format!(
            "{} trailing bytes after the body",
            body.0.len()
        )));
    }

    let src_consumed = get_usize(&spec, "src_consumed")?;
    let src_users = u32::try_from(get_u64_or(&spec, "src_users", 0)?)
        .map_err(|_| CheckpointError::Spec("'src_users' does not fit u32".into()))?;
    let src_user_skew = get_f64_or(&spec, "src_user_skew", DEFAULT_USER_SKEW)?;
    ensure(
        src_user_skew.is_finite() && src_user_skew > 0.0,
        format!("src_user_skew {src_user_skew} out of range"),
    )?;
    let source: Box<dyn ArrivalSource + '_> = match get(&spec, "source")? {
        "trace" => {
            let trace_kind = TraceKind::parse(get(&spec, "src_kind")?)
                .map_err(|k| CheckpointError::Spec(format!("unknown trace kind '{k}'")))?;
            let jobs = get_usize(&spec, "src_jobs")?;
            let max_gpus = get_usize(&spec, "src_max_gpus")?;
            let mean_gap = get_f64(&spec, "src_mean_gap")?;
            let gang_share = get_f64(&spec, "src_gang_share")?;
            ensure(jobs >= 1, "src_jobs must be at least 1".into())?;
            ensure(max_gpus >= 1, "src_max_gpus must be at least 1".into())?;
            ensure(
                mean_gap.is_finite() && mean_gap > 0.0,
                format!("src_mean_gap {mean_gap} out of range"),
            )?;
            ensure(
                (0.0..=1.0).contains(&gang_share),
                format!("src_gang_share {gang_share} out of range"),
            )?;
            ensure(
                src_consumed <= jobs,
                format!("source position {src_consumed} beyond the {jobs}-job trace"),
            )?;
            let cfg = TraceConfig::new(trace_kind, jobs, get_u64(&spec, "src_seed")?)
                .max_gpus(max_gpus)
                .mean_gap(mean_gap)
                .gang_share(gang_share)
                .users(src_users)
                .user_skew(src_user_skew);
            Box::new(TraceSource::resume(suite, cfg, src_consumed))
        }
        shape @ ("poisson" | "bursty") => {
            let shape = if shape == "poisson" {
                LoadShape::Poisson
            } else {
                LoadShape::Bursty
            };
            let rate = get_f64(&spec, "src_rate")?;
            let duration = get_f64(&spec, "src_duration")?;
            let max_gpus = get_usize(&spec, "src_max_gpus")?;
            ensure(
                rate.is_finite() && rate > 0.0,
                format!("src_rate {rate} out of range"),
            )?;
            ensure(
                duration.is_finite() && duration > 0.0,
                format!("src_duration {duration} out of range"),
            )?;
            ensure(max_gpus >= 1, "src_max_gpus must be at least 1".into())?;
            let generator = LoadGen::with_max_gpus(
                suite,
                shape,
                rate,
                duration,
                get_u64(&spec, "src_seed")?,
                max_gpus,
            )
            .with_users(src_users, src_user_skew)
            .resume_to(src_consumed)
            .ok_or_else(|| {
                CheckpointError::Spec(format!(
                    "source position {src_consumed} beyond the generator's horizon"
                ))
            })?;
            Box::new(generator)
        }
        other => {
            return Err(CheckpointError::Spec(format!(
                "source '{other}' cannot be restored"
            )))
        }
    };

    let drive = ClusterDrive::from_states(suite, gpus_per_node, parts, loads, placed, sync);
    Ok(SchedulerService {
        suite,
        cfg,
        drive,
        selector,
        source,
        lookahead,
        last_cycle,
        stats,
        latencies: Vec::new(),
        admission,
    })
}

/// [`restore`] straight from a file.
///
/// # Errors
/// Restore errors, plus [`CheckpointError::Io`] on read failure.
pub fn restore_file<'a>(
    suite: &'a Suite,
    path: &std::path::Path,
) -> Result<SchedulerService<'a, Box<dyn ArrivalSource + 'a>>, CheckpointError> {
    let raw = std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
    restore(suite, Bytes::from(raw))
}

// ---- spec helpers -------------------------------------------------

fn parse_spec(text: &str) -> Result<BTreeMap<&str, &str>, CheckpointError> {
    let mut map = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| CheckpointError::Spec(format!("malformed line '{line}'")))?;
        if map.insert(key, value).is_some() {
            return Err(CheckpointError::Spec(format!("duplicate key '{key}'")));
        }
    }
    Ok(map)
}

fn get<'m>(spec: &BTreeMap<&str, &'m str>, key: &str) -> Result<&'m str, CheckpointError> {
    spec.get(key)
        .copied()
        .ok_or_else(|| CheckpointError::Spec(format!("missing key '{key}'")))
}

fn get_usize(spec: &BTreeMap<&str, &str>, key: &str) -> Result<usize, CheckpointError> {
    get(spec, key)?
        .parse()
        .map_err(|_| CheckpointError::Spec(format!("'{key}' is not an integer")))
}

fn get_u64(spec: &BTreeMap<&str, &str>, key: &str) -> Result<u64, CheckpointError> {
    get(spec, key)?
        .parse()
        .map_err(|_| CheckpointError::Spec(format!("'{key}' is not an integer")))
}

fn get_f64(spec: &BTreeMap<&str, &str>, key: &str) -> Result<f64, CheckpointError> {
    get(spec, key)?
        .parse()
        .map_err(|_| CheckpointError::Spec(format!("'{key}' is not a float")))
}

/// Like [`get_u64`] with a default for keys absent from legacy blobs.
fn get_u64_or(
    spec: &BTreeMap<&str, &str>,
    key: &str,
    default: u64,
) -> Result<u64, CheckpointError> {
    if spec.contains_key(key) {
        get_u64(spec, key)
    } else {
        Ok(default)
    }
}

/// Like [`get_f64`] with a default for keys absent from legacy blobs.
fn get_f64_or(
    spec: &BTreeMap<&str, &str>,
    key: &str,
    default: f64,
) -> Result<f64, CheckpointError> {
    if spec.contains_key(key) {
        get_f64(spec, key)
    } else {
        Ok(default)
    }
}

/// Turn a forged or out-of-range spec value into a typed error at the
/// restore boundary instead of letting a builder assert panic.
fn ensure(cond: bool, msg: String) -> Result<(), CheckpointError> {
    if cond {
        Ok(())
    } else {
        Err(CheckpointError::Spec(msg))
    }
}

// ---- body writers -------------------------------------------------

fn put_u8(buf: &mut BytesMut, v: u8) {
    buf.put_slice(&[v]);
}

fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_len(buf: &mut BytesMut, n: usize) {
    buf.put_u32_le(u32::try_from(n).expect("section fits u32"));
}

fn put_job(buf: &mut BytesMut, job: &ClusterJob) {
    put_u64(buf, job.id as u64);
    put_u64(buf, job.bench as u64);
    put_f64(buf, job.arrival);
    put_len(buf, job.gpus);
    buf.put_u32_le(job.user);
    put_len(buf, job.name.len());
    buf.put_slice(job.name.as_bytes());
}

fn put_admission(buf: &mut BytesMut, adm: &AdmissionState) {
    let state = adm.share.export_state();
    put_f64(buf, state.now);
    put_u64(buf, state.seq);
    put_len(buf, state.karma.len());
    for (user, value, stamp) in &state.karma {
        buf.put_u32_le(*user);
        put_f64(buf, *value);
        put_f64(buf, *stamp);
    }
    put_len(buf, state.inflight.len());
    for (user, count) in &state.inflight {
        buf.put_u32_le(*user);
        put_u64(buf, *count);
    }
    put_len(buf, state.releases.len());
    for (time_bits, seq, user) in &state.releases {
        put_u64(buf, *time_bits);
        put_u64(buf, *seq);
        buf.put_u32_le(*user);
    }
    put_u64(buf, adm.digest);
    put_len(buf, adm.deferred.len());
    for job in &adm.deferred {
        put_job(buf, job);
    }
}

fn put_ids(buf: &mut BytesMut, ids: &[usize]) {
    put_len(buf, ids.len());
    for id in ids {
        put_u64(buf, *id as u64);
    }
}

fn put_node_state(buf: &mut BytesMut, state: &NodeRunState) {
    put_f64(buf, state.clock);
    put_len(buf, state.free);
    put_f64(buf, state.busy_gpu_seconds);
    put_f64(buf, state.wait_sum);
    put_u64(buf, state.placements as u64);
    put_u64(buf, state.jobs as u64);
    put_u64(buf, state.completed as u64);
    put_u64(buf, state.seq);
    put_u8(buf, u8::from(state.dirty));
    put_len(buf, state.arrivals.len());
    for job in &state.arrivals {
        put_job(buf, job);
    }
    put_len(buf, state.waiting.len());
    for job in &state.waiting {
        put_job(buf, job);
    }
    put_len(buf, state.running.len());
    for (finish, gpus, ids) in &state.running {
        put_f64(buf, *finish);
        put_len(buf, *gpus);
        put_ids(buf, ids);
    }
    put_len(buf, state.events.len());
    for event in &state.events {
        put_f64(buf, event.time);
        put_u64(buf, event.seq);
        match &event.kind {
            EventKind::Arrival { job } => {
                put_u8(buf, 0);
                put_u64(buf, *job as u64);
            }
            EventKind::Start {
                job_ids,
                gpus,
                duration,
            } => {
                put_u8(buf, 1);
                put_len(buf, *gpus);
                put_f64(buf, *duration);
                put_ids(buf, job_ids);
            }
            EventKind::Finish { job_ids, gpus } => {
                put_u8(buf, 2);
                put_len(buf, *gpus);
                put_ids(buf, job_ids);
            }
        }
    }
}

fn put_load(buf: &mut BytesMut, load: &NodeLoad) {
    put_len(buf, load.total_gpus);
    put_len(buf, load.free_gpus);
    put_u64(buf, load.queued_jobs as u64);
    put_f64(buf, load.outstanding);
}

fn put_dispatcher(buf: &mut BytesMut, disp: &DispatcherState) {
    match disp {
        DispatcherState::CoSched { windows } => {
            put_u8(buf, 0);
            put_u64(buf, *windows as u64);
        }
        DispatcherState::Backfill(state) => {
            put_u8(buf, 1);
            put_len(buf, state.releases.len());
            for (finish, gpus) in &state.releases {
                put_f64(buf, *finish);
                put_len(buf, *gpus);
            }
            put_len(buf, state.reservations.len());
            for (start, end, gpus) in &state.reservations {
                put_f64(buf, *start);
                put_f64(buf, *end);
                put_len(buf, *gpus);
            }
            match state.wake {
                Some(wake) => {
                    put_u8(buf, 1);
                    put_f64(buf, wake);
                }
                None => put_u8(buf, 0),
            }
        }
    }
}

// ---- body reader --------------------------------------------------

/// Bounds-checked little-endian reader over the checkpoint body (the
/// vendored `bytes` accessors panic on underrun; a foreign blob must
/// produce an error instead). Carries the container version so job
/// records decode the right shape: v1 bodies have no tenant field.
struct Body(Bytes, u32);

impl Body {
    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.0.remaining() < n {
            return Err(CheckpointError::Spec("truncated body".into()));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.need(1)?;
        let mut b = [0u8; 1];
        self.0.copy_to_slice(&mut b);
        Ok(b[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        let mut b = [0u8; 4];
        self.0.copy_to_slice(&mut b);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        let mut b = [0u8; 8];
        self.0.copy_to_slice(&mut b);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len_prefix(&mut self) -> Result<usize, CheckpointError> {
        self.need(4)?;
        Ok(self.0.get_u32_le() as usize)
    }

    fn take(&mut self, n: usize) -> Result<Bytes, CheckpointError> {
        self.need(n)?;
        Ok(self.0.split_to(n))
    }

    fn job(&mut self) -> Result<ClusterJob, CheckpointError> {
        let id = self.u64()? as usize;
        let bench = self.u64()? as usize;
        let arrival = self.f64()?;
        let gpus = self.len_prefix()?;
        let user = if self.1 >= 2 { self.u32()? } else { 0 };
        let name_len = self.len_prefix()?;
        let name = String::from_utf8(self.take(name_len)?.to_vec())
            .map_err(|_| CheckpointError::Spec("job name is not UTF-8".into()))?;
        Ok(ClusterJob {
            id,
            name,
            bench,
            arrival,
            gpus,
            user,
        })
    }

    fn ids(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let n = self.len_prefix()?;
        (0..n).map(|_| Ok(self.u64()? as usize)).collect()
    }

    fn node_state(
        &mut self,
        node: usize,
        gpus_per_node: usize,
    ) -> Result<NodeRunState, CheckpointError> {
        let clock = self.f64()?;
        let free = self.len_prefix()?;
        let busy_gpu_seconds = self.f64()?;
        let wait_sum = self.f64()?;
        let placements = self.u64()? as usize;
        let jobs = self.u64()? as usize;
        let completed = self.u64()? as usize;
        let seq = self.u64()?;
        let dirty = self.u8()? != 0;
        let arrivals = {
            let n = self.len_prefix()?;
            (0..n).map(|_| self.job()).collect::<Result<Vec<_>, _>>()?
        };
        let waiting = {
            let n = self.len_prefix()?;
            (0..n).map(|_| self.job()).collect::<Result<Vec<_>, _>>()?
        };
        let running = {
            let n = self.len_prefix()?;
            (0..n)
                .map(|_| Ok((self.f64()?, self.len_prefix()?, self.ids()?)))
                .collect::<Result<Vec<_>, CheckpointError>>()?
        };
        let events = {
            let n = self.len_prefix()?;
            (0..n)
                .map(|_| self.event(node))
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(NodeRunState {
            node,
            n_gpus: gpus_per_node,
            clock,
            free,
            arrivals,
            waiting,
            running,
            busy_gpu_seconds,
            wait_sum,
            placements,
            jobs,
            completed,
            seq,
            dirty,
            events,
        })
    }

    fn event(&mut self, node: usize) -> Result<NodeEvent, CheckpointError> {
        let time = self.f64()?;
        let seq = self.u64()?;
        let kind = match self.u8()? {
            0 => EventKind::Arrival {
                job: self.u64()? as usize,
            },
            1 => {
                let gpus = self.len_prefix()?;
                let duration = self.f64()?;
                EventKind::Start {
                    job_ids: self.ids()?,
                    gpus,
                    duration,
                }
            }
            2 => {
                let gpus = self.len_prefix()?;
                EventKind::Finish {
                    job_ids: self.ids()?,
                    gpus,
                }
            }
            tag => return Err(CheckpointError::Spec(format!("unknown event tag {tag}"))),
        };
        Ok(NodeEvent {
            time,
            node,
            seq,
            kind,
        })
    }

    fn load(&mut self, node: usize) -> Result<NodeLoad, CheckpointError> {
        Ok(NodeLoad {
            node,
            total_gpus: self.len_prefix()?,
            free_gpus: self.len_prefix()?,
            queued_jobs: self.u64()? as usize,
            outstanding: self.f64()?,
        })
    }

    /// The admission-tier section: fair-share snapshot, rolling
    /// decision digest, and the quota-deferred queue (v2 bodies only —
    /// a v1 blob never sets the `admission` spec key).
    fn admission(&mut self, cfg: FairConfig) -> Result<AdmissionState, CheckpointError> {
        let now = self.f64()?;
        let seq = self.u64()?;
        let karma = {
            let n = self.len_prefix()?;
            (0..n)
                .map(|_| Ok((self.u32()?, self.f64()?, self.f64()?)))
                .collect::<Result<Vec<_>, CheckpointError>>()?
        };
        let inflight = {
            let n = self.len_prefix()?;
            (0..n)
                .map(|_| Ok((self.u32()?, self.u64()?)))
                .collect::<Result<Vec<_>, CheckpointError>>()?
        };
        let releases = {
            let n = self.len_prefix()?;
            (0..n)
                .map(|_| Ok((self.u64()?, self.u64()?, self.u32()?)))
                .collect::<Result<Vec<_>, CheckpointError>>()?
        };
        let state = FairShareState {
            now,
            seq,
            karma,
            inflight,
            releases,
        };
        let mut adm = AdmissionState::with_share(FairShare::from_state(cfg, &state));
        adm.digest = self.u64()?;
        let parked = self.len_prefix()?;
        for _ in 0..parked {
            adm.deferred.push_back(self.job()?);
        }
        Ok(adm)
    }

    fn dispatcher(
        &mut self,
        kind: SelectorKind,
        gpus_per_node: usize,
        walltime_err: f64,
    ) -> Result<PlacementDispatcher, CheckpointError> {
        let fresh = dispatcher_for(kind, gpus_per_node, walltime_err);
        match (self.u8()?, fresh) {
            (0, PlacementDispatcher::CoSched(mut d)) => {
                d.restore_windows_scheduled(self.u64()? as usize);
                Ok(PlacementDispatcher::CoSched(d))
            }
            (1, PlacementDispatcher::Backfill(mut p)) => {
                let releases = {
                    let n = self.len_prefix()?;
                    (0..n)
                        .map(|_| Ok((self.f64()?, self.len_prefix()?)))
                        .collect::<Result<Vec<_>, CheckpointError>>()?
                };
                let reservations = {
                    let n = self.len_prefix()?;
                    (0..n)
                        .map(|_| Ok((self.f64()?, self.f64()?, self.len_prefix()?)))
                        .collect::<Result<Vec<_>, CheckpointError>>()?
                };
                let wake = if self.u8()? != 0 {
                    Some(self.f64()?)
                } else {
                    None
                };
                p.restore_state(BackfillState {
                    releases,
                    reservations,
                    wake,
                });
                Ok(PlacementDispatcher::Backfill(p))
            }
            (tag, _) => Err(CheckpointError::Spec(format!(
                "dispatcher tag {tag} does not match selector '{}'",
                kind.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeReport;
    use crate::source::ChannelSource;
    use hrp_cluster::place::{PlacementAgent, PlacementConfig};
    use hrp_gpusim::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    fn trace_cfg(kind: TraceKind, jobs: usize, seed: u64) -> TraceConfig {
        TraceConfig::new(kind, jobs, seed).gang_share(0.25)
    }

    fn drain<S: ArrivalSource>(mut svc: SchedulerService<'_, S>) -> ServeReport {
        svc.run_to_close();
        svc.finish()
    }

    /// Run until `cut` jobs have been ingested, checkpoint there, then
    /// finish both halves and demand a bit-identical timeline.
    fn assert_kill_restore_is_exact<S: ArrivalSource>(
        mut svc: SchedulerService<'_, S>,
        cut: usize,
    ) {
        let s = suite();
        while svc.consumed() < cut {
            assert!(
                !matches!(svc.step(), crate::service::ServiceStep::Closed),
                "trace closed before the cut at {cut}"
            );
        }
        let blob = svc.checkpoint().expect("deterministic source");
        let uninterrupted = drain(svc);
        let resumed = drain(restore(&s, blob).expect("round trip"));
        assert_eq!(
            resumed.report.timeline.digest(),
            uninterrupted.report.timeline.digest(),
            "resumed timeline diverged"
        );
        assert_eq!(resumed.report.per_node, uninterrupted.report.per_node);
        assert_eq!(resumed.report.aggregate, uninterrupted.report.aggregate);
        assert_eq!(resumed.stats, uninterrupted.stats, "logical counters");
        assert_eq!(
            resumed.admission.as_ref().map(|a| a.digest),
            uninterrupted.admission.as_ref().map(|a| a.digest),
            "admission-decision digests diverged"
        );
    }

    /// Rewrite one `key=value` line in the spec, fixing up the length
    /// prefix — how a forged blob smuggles an out-of-range value past
    /// an otherwise valid container.
    fn tamper(blob: &Bytes, key: &str, value: &str) -> Bytes {
        let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
        let prefix = format!("{key}=");
        let mut hit = false;
        let new_spec: String = spec
            .lines()
            .map(|line| {
                if line.starts_with(&prefix) {
                    hit = true;
                    format!("{key}={value}\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        assert!(hit, "spec has no '{key}' line to tamper with");
        let mut out = BytesMut::with_capacity(blob.len());
        out.put_slice(&blob[..8]);
        out.put_u32_le(new_spec.len() as u32);
        out.put_slice(new_spec.as_bytes());
        out.put_slice(&blob[12 + spec_len..]);
        out.freeze()
    }

    #[test]
    fn kill_restore_round_trip_least_loaded() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 60, 7)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn kill_restore_round_trip_round_robin_cursor() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(3, 2),
            SelectorKind::RoundRobin,
            TraceSource::new(&s, trace_cfg(TraceKind::Skewed, 50, 11)),
        );
        assert_kill_restore_is_exact(svc, 25);
    }

    #[test]
    fn kill_restore_round_trip_backfill_reservations() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2).walltime_err(0.25),
            SelectorKind::Conservative,
            TraceSource::new(&s, trace_cfg(TraceKind::HeavyTail, 60, 13)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn kill_restore_round_trip_policy_agent() {
        let s = suite();
        let agent = PlacementAgent::untrained(PlacementConfig::quick());
        let svc = SchedulerService::with_agent(
            &s,
            ServeConfig::new(4, 2),
            agent,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 40, 5)),
        );
        assert_kill_restore_is_exact(svc, 20);
    }

    #[test]
    fn kill_restore_round_trip_load_generator() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2),
            SelectorKind::LeastLoaded,
            LoadGen::new(&s, LoadShape::Bursty, 3.0, 40.0, 17),
        );
        assert_kill_restore_is_exact(svc, 40);
    }

    #[test]
    fn kill_restore_round_trip_admission_fair_share() {
        let s = suite();
        let cfg = ServeConfig::new(2, 2).admission(
            crate::service::AdmissionConfig::new()
                .quota(2)
                .half_life(60.0),
        );
        let svc = SchedulerService::new(
            &s,
            cfg,
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 60, 7).users(4)),
        );
        assert_kill_restore_is_exact(svc, 30);
    }

    #[test]
    fn channel_source_refuses_to_checkpoint() {
        let s = suite();
        let (_tx, src) = ChannelSource::channel();
        let svc = SchedulerService::new(&s, ServeConfig::new(2, 2), SelectorKind::LeastLoaded, src);
        match svc.checkpoint() {
            Err(CheckpointError::Spec(msg)) => {
                assert!(msg.contains("channel"), "names the source: {msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_blobs_are_rejected() {
        let s = suite();
        assert!(matches!(
            restore(&s, Bytes::from(b"HRPP----------------".to_vec())),
            Err(CheckpointError::NotACheckpoint)
        ));
        for version in [0u32, 99] {
            let mut alien = BytesMut::with_capacity(12);
            alien.put_slice(MAGIC);
            alien.put_u32_le(version);
            alien.put_u32_le(0);
            assert!(matches!(
                restore(&s, alien.freeze()),
                Err(CheckpointError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn truncated_bodies_error_instead_of_panicking() {
        let s = suite();
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(crate::service::AdmissionConfig::new().quota(1)),
            SelectorKind::Easy,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 20, 3).users(3)),
        );
        // Mid-run, so the body carries jobs, fair-share state, and
        // (with quota 1 under bursts) usually a deferred queue too.
        while svc.consumed() < 10 {
            let _ = svc.step();
        }
        let blob = svc.checkpoint().expect("checkpointable");
        for cut in [13usize, blob.len() / 2, blob.len() - 1] {
            let mut clipped = blob.clone();
            let clipped = clipped.split_to(cut);
            assert!(
                restore(&s, clipped).is_err(),
                "clip at {cut} must be an error"
            );
        }
    }

    /// Satellite regression: a structurally valid blob whose source
    /// position points past the end of the stream must come back as a
    /// typed spec error, not an assert panic in the resume path.
    #[test]
    fn forged_source_positions_error_instead_of_panicking() {
        let s = suite();
        let trace_svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3)),
        );
        let blob = trace_svc.checkpoint().expect("checkpointable");
        let forged = restore(&s, tamper(&blob, "src_consumed", "1000000")).map(|_| ());
        match forged {
            Err(CheckpointError::Spec(msg)) => {
                assert!(msg.contains("beyond"), "names the overrun: {msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }

        let gen_svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            LoadGen::new(&s, LoadShape::Poisson, 3.0, 20.0, 11),
        );
        let blob = gen_svc.checkpoint().expect("checkpointable");
        let forged = restore(&s, tamper(&blob, "src_consumed", "1000000")).map(|_| ());
        match forged {
            Err(CheckpointError::Spec(msg)) => {
                assert!(msg.contains("horizon"), "names the overrun: {msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    /// More forged-spec hardening: out-of-range geometry and admission
    /// knobs surface as typed errors before any builder assert runs.
    #[test]
    fn forged_spec_values_error_instead_of_panicking() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2).admission(crate::service::AdmissionConfig::new().quota(2)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3).users(3)),
        );
        let blob = svc.checkpoint().expect("checkpointable");
        for (key, value) in [
            ("nodes", "0"),
            ("nodes", "9999999"),
            ("gpus_per_node", "0"),
            ("walltime_err", "NaN"),
            ("adm_quota", "0"),
            ("adm_half_life", "inf"),
            ("adm_slo", "-1.0"),
            ("src_jobs", "0"),
            ("src_mean_gap", "NaN"),
            ("src_gang_share", "2.0"),
            ("src_user_skew", "0.0"),
        ] {
            assert!(
                matches!(
                    restore(&s, tamper(&blob, key, value)),
                    Err(CheckpointError::Spec(_))
                ),
                "forged {key}={value} must be a spec error"
            );
        }
    }

    /// Re-encode `blob` with a new version word and spec text, keeping
    /// its body verbatim.
    fn respec(blob: &Bytes, version: u32, spec: &str) -> Bytes {
        let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let mut out = BytesMut::with_capacity(blob.len());
        out.put_slice(MAGIC);
        out.put_u32_le(version);
        out.put_u32_le(spec.len() as u32);
        out.put_slice(spec.as_bytes());
        out.put_slice(&blob[12 + spec_len..]);
        out.freeze()
    }

    /// `blob`'s spec lines, with the four speculation counters older
    /// writers emitted after `node_advances` put back in.
    fn spec_lines_with_speculation_keys(blob: &Bytes) -> Vec<String> {
        let spec_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let spec = std::str::from_utf8(&blob[12..12 + spec_len]).unwrap();
        let mut lines = Vec::new();
        for line in spec.lines() {
            lines.push(line.to_owned());
            if line.starts_with("node_advances=") {
                for key in ["chunks", "speculations", "rollbacks", "clean_commits"] {
                    lines.push(format!("{key}=0"));
                }
            }
        }
        assert_eq!(lines.len(), spec.lines().count() + 4);
        lines
    }

    /// A version-1 blob — no tenant fields, no admission keys, but the
    /// speculation counters — still restores. A fresh (unstepped)
    /// service's body carries no job records, so stripping the v2 spec
    /// keys and rewriting the version word reproduces the v1 encoding
    /// exactly.
    #[test]
    fn legacy_v1_blobs_still_restore() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(2, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3)),
        );
        let blob = svc.checkpoint().expect("checkpointable");
        let uninterrupted = drain(svc);

        let v2_keys = [
            "deferred=",
            "rejected=",
            "admission=",
            "src_users=",
            "src_user_skew=",
        ];
        let v1_spec: String = spec_lines_with_speculation_keys(&blob)
            .into_iter()
            .filter(|line| !v2_keys.iter().any(|k| line.starts_with(k)))
            .map(|line| format!("{line}\n"))
            .collect();

        let resumed = drain(restore(&s, respec(&blob, 1, &v1_spec)).expect("legacy blob restores"));
        assert_eq!(
            resumed.report.timeline.digest(),
            uninterrupted.report.timeline.digest(),
            "legacy restore diverged"
        );
        assert!(resumed.admission.is_none(), "v1 has no admission tier");
    }

    /// A version-2 blob as older writers encoded it mid-run — with the
    /// `chunks`/`speculations`/`rollbacks`/`clean_commits` spec keys —
    /// restores bit-exactly.
    #[test]
    fn v2_blobs_with_speculation_counters_still_restore() {
        let s = suite();
        let mut svc = SchedulerService::new(
            &s,
            ServeConfig::new(4, 2).admission(crate::service::AdmissionConfig::new().quota(2)),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Bursty, 60, 7).users(3)),
        );
        while svc.consumed() < 30 {
            let _ = svc.step();
        }
        let blob = svc.checkpoint().expect("checkpointable");
        let uninterrupted = drain(svc);

        let old_spec: String = spec_lines_with_speculation_keys(&blob)
            .into_iter()
            .map(|line| format!("{line}\n"))
            .collect();
        let resumed = drain(restore(&s, respec(&blob, 2, &old_spec)).expect("old blob restores"));
        assert_eq!(
            resumed.report.timeline.digest(),
            uninterrupted.report.timeline.digest(),
            "restore of the older encoding diverged"
        );
        assert_eq!(resumed.report, uninterrupted.report);
        assert_eq!(resumed.stats, uninterrupted.stats);
        assert_eq!(
            resumed.admission.map(|a| a.digest),
            uninterrupted.admission.map(|a| a.digest)
        );
    }

    /// A structurally complete blob for one node more than the cluster
    /// engine supports — a fresh 64-node blob plus one more idle-node
    /// body section, spec tampered to `nodes=65` — is a spec error,
    /// not a panic in the drive rebuild.
    #[test]
    fn forged_oversized_clusters_error_instead_of_panicking() {
        let s = suite();
        let svc = SchedulerService::new(
            &s,
            ServeConfig::new(MAX_NODES, 2),
            SelectorKind::LeastLoaded,
            TraceSource::new(&s, trace_cfg(TraceKind::Uniform, 20, 3)),
        );
        let blob = svc.checkpoint().expect("checkpointable");
        let idle = svc.drive.node(MAX_NODES - 1).export_state();
        let mut grown = BytesMut::with_capacity(blob.len() + 256);
        grown.put_slice(&blob);
        put_node_state(&mut grown, &idle);
        put_load(&mut grown, &svc.drive.loads()[MAX_NODES - 1]);
        put_dispatcher(&mut grown, &DispatcherState::CoSched { windows: 0 });
        let forged = tamper(&grown.freeze(), "nodes", &(MAX_NODES + 1).to_string());
        match restore(&s, forged).map(|_| ()) {
            Err(CheckpointError::Spec(msg)) => {
                assert!(msg.contains("nodes 65"), "names the node count: {msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }
}
