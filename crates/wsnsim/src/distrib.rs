//! The distributed experiment runner: one grid, many worker **processes**,
//! the filesystem as the coordination bus.
//!
//! The experiment engine's flat job list is the natural unit of
//! distribution, and the persistence layer already makes every completed job
//! a durable, deduplicatable JSONL record.  This module adds the missing
//! execution layer on top of both:
//!
//! 1. A **coordinator** ([`ExperimentSpec::run_distributed`]) writes the
//!    fully resolved job list to a [`GridManifest`] on disk, partitioned
//!    round-robin into `shard_count` claimable shards, then spawns `N`
//!    workers (separate processes via [`ProcessSpawner`], or in-process
//!    threads via [`ThreadSpawner`] for tests and examples).
//! 2. Each **worker** ([`run_worker`]) repeatedly claims a shard through a
//!    lock-file lease (`create_new` is the atomic claim; a lease whose owner
//!    process is dead or whose file has outlived its TTL is **stolen** by
//!    rewrite-and-rename), runs the shard's jobs through one rayon fan-out,
//!    and streams every completed [`JobRecord`] to its own per-worker JSONL
//!    store using the torn-line-safe append path.  Idle workers steal
//!    unclaimed or expired shards, so a killed worker only delays its
//!    shards, never loses them.
//! 3. The coordinator joins the workers, finishes any leftover shards
//!    inline, and **merges** all worker stores through the single canonical
//!    [`ExperimentReport::from_records`] path.  Because records are
//!    deterministic in (scenario, policy, seed) and duplicates dedupe
//!    last-wins over byte-identical payloads, a 1-worker run, an N-worker
//!    run, a run with mid-flight worker kills and a killed-and-restarted
//!    coordinator all produce **bit-identical** reports.
//!
//! Thread discipline: the coordinator exports
//! `RAYON_TOTAL_THREADS = process_thread_cap() / workers` to every spawned
//! worker process ([`rayon::split_thread_budget`]), so the whole process
//! tree stays within the budget one process would use — the PR 2
//! no-oversubscription guarantee, extended across `fork`/`exec`.
//!
//! No network is involved: shard claims, leases, records and the manifest
//! are all plain files, so "several machines" is just "several processes"
//! plus a shared filesystem.
//!
//! **Failure model.**  All lease and manifest IO routes through the
//! [`crate::faults`] seam: transient failures retry with bounded backoff,
//! manifests and done markers are fsynced before their rename, lease
//! staleness combines a TTL heartbeat with a pid + process-start-time owner
//! identity (safe under pid reuse; TTL-only where `/proc` is absent), and a
//! job that keeps panicking or blowing its wall-clock budget is quarantined
//! as a [`JobFailure`] instead of wedging its shard.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration as StdDuration;

use caem::policy::PolicyKind;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::experiment::{
    ExperimentJob, ExperimentReport, ExperimentSpec, SequentialOutcome, SequentialStopping,
};
use crate::faults::{self, retry_transient, RetryPolicy, RunEvent};
use crate::persist::{
    fnv1a64, ExperimentStore, Fnv1a, JobFailure, JobKey, JobRecord, StoreError, StoreOptions,
};
use crate::runner::SimulationRun;

/// Manifest format version (bumped on incompatible layout changes).
pub const MANIFEST_VERSION: u64 = 1;

/// File name of the grid manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "grid.json";

/// Default shard-lease TTL before an unrefreshed claim may be stolen.
/// Overridable per run through the spec's `distrib` block and the
/// `--lease-ttl` flag.
pub const DEFAULT_LEASE_TTL: StdDuration = StdDuration::from_secs(60);

/// Default heartbeat interval of socket-transport workers.  The file-based
/// protocol heartbeats implicitly — every completed job bumps the lease
/// mtime — so only the service transport consults this directly.
pub const DEFAULT_HEARTBEAT: StdDuration = StdDuration::from_secs(5);

/// Errors raised by the distributed runner.
#[derive(Debug)]
pub enum DistribError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A worker store failed to open, load or append.
    Store(StoreError),
    /// A malformed manifest, lease or layout.
    Format(String),
    /// The shard directory belongs to a different grid than the spec
    /// describes (its manifest hash does not match).
    ManifestMismatch {
        /// Hash of the grid the caller's spec enumerates to.
        expected: u64,
        /// Hash recorded in the on-disk manifest.
        found: u64,
    },
    /// All shards report done but merged records do not cover the grid.
    Incomplete {
        /// Number of jobs with no valid record.
        missing: usize,
    },
}

impl std::fmt::Display for DistribError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistribError::Io(e) => write!(f, "distributed runner I/O error: {e}"),
            DistribError::Store(e) => write!(f, "distributed runner store error: {e}"),
            DistribError::Format(m) => write!(f, "distributed runner format error: {m}"),
            DistribError::ManifestMismatch { expected, found } => write!(
                f,
                "shard directory holds a different grid (manifest hash {found:#x}, spec enumerates to {expected:#x}); \
                 point --distrib-dir at a fresh directory or drop --resume to start over"
            ),
            DistribError::Incomplete { missing } => write!(
                f,
                "all shards are marked done but {missing} jobs have no valid record"
            ),
        }
    }
}

impl std::error::Error for DistribError {}

impl From<std::io::Error> for DistribError {
    fn from(e: std::io::Error) -> Self {
        DistribError::Io(e)
    }
}

impl From<StoreError> for DistribError {
    fn from(e: StoreError) -> Self {
        DistribError::Store(e)
    }
}

/// The on-disk layout of one distributed grid:
///
/// ```text
/// <root>/
///   grid.json                  # the GridManifest (written atomically)
///   shards/shard_0007.lease    # claim lock: JSON ShardLease, mtime = heartbeat
///   shards/shard_0007.done     # completion marker (written atomically)
///   workers/worker_000.jsonl   # per-worker ExperimentStore (JSONL records)
/// ```
#[derive(Debug, Clone)]
pub struct ShardLayout {
    root: PathBuf,
}

impl ShardLayout {
    /// Describe (without creating) the layout rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ShardLayout { root: root.into() }
    }

    /// The layout's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the grid manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join(MANIFEST_FILE)
    }

    /// Directory holding shard leases and done markers.
    pub fn shards_dir(&self) -> PathBuf {
        self.root.join("shards")
    }

    /// Directory holding the per-worker JSONL stores.
    pub fn workers_dir(&self) -> PathBuf {
        self.root.join("workers")
    }

    /// Lease (claim lock) path of one shard.
    pub fn lease_path(&self, shard: usize) -> PathBuf {
        self.shards_dir().join(format!("shard_{shard:04}.lease"))
    }

    /// Completion-marker path of one shard.
    pub fn done_path(&self, shard: usize) -> PathBuf {
        self.shards_dir().join(format!("shard_{shard:04}.done"))
    }

    /// The JSONL store path of a named worker.
    pub fn worker_store_path(&self, worker: &str) -> PathBuf {
        self.workers_dir().join(format!("worker_{worker}.jsonl"))
    }

    /// Create the shard and worker directories (and the root).
    pub fn create_dirs(&self) -> Result<(), DistribError> {
        fs::create_dir_all(self.shards_dir())?;
        fs::create_dir_all(self.workers_dir())?;
        Ok(())
    }

    /// How many of the first `shard_count` shards carry a done marker.
    pub fn done_count(&self, shard_count: usize) -> usize {
        (0..shard_count)
            .filter(|&s| self.done_path(s).exists())
            .count()
    }

    /// True when every shard carries a done marker.
    pub fn all_done(&self, shard_count: usize) -> bool {
        self.done_count(shard_count) == shard_count
    }

    /// Discover every per-worker store in the layout, sorted by file name
    /// (the merge result does not depend on this order; sorting just keeps
    /// log output stable).
    pub fn discover_worker_stores(&self) -> Result<Vec<PathBuf>, DistribError> {
        let mut stores = Vec::new();
        for entry in fs::read_dir(self.workers_dir())? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                stores.push(path);
            }
        }
        stores.sort();
        Ok(stores)
    }
}

/// One fully resolved job as persisted in the grid manifest: the
/// deterministic coordinates plus the exact [`ScenarioConfig`] to run, so a
/// worker process needs nothing but the manifest to do its share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestJob {
    /// Index of the scenario in the grid's scenario list.
    pub scenario_index: usize,
    /// The scenario's label.
    pub scenario: String,
    /// Index of the policy in the grid's policy list.
    pub policy_index: usize,
    /// The protocol variant to run.
    pub policy: PolicyKind,
    /// Master seed of the replicate.
    pub seed: u64,
    /// [`config_hash`](crate::persist::config_hash) of `config` — the
    /// validity check merged records are checked against.
    pub config_hash: u64,
    /// The fully resolved configuration.
    pub config: ScenarioConfig,
}

impl ManifestJob {
    /// The job's deterministic coordinates.
    pub fn key(&self) -> JobKey {
        (self.scenario_index, self.policy_index, self.seed)
    }

    /// Simulate the job and encode the result as its [`JobRecord`] — the
    /// exact record a single-process [`ExperimentSpec::run`] would produce.
    pub fn run(&self) -> JobRecord {
        let job = ExperimentJob {
            scenario: self.scenario_index,
            policy: self.policy,
            seed: self.seed,
            config: self.config.clone(),
        };
        let result = SimulationRun::new(job.config.clone()).run();
        JobRecord::from_result(&self.scenario, self.policy_index, &job, &result)
    }

    /// Fold this job's JSON — the exact bytes `serde_json::to_string(self)`
    /// emits — into `hash`, with `config_json`, the job's already
    /// serialized config, spliced in unchanged.  Field order follows the
    /// struct declaration, as the derive emits it.
    fn fold_json(&self, config_json: &[u8], hash: &mut Fnv1a) {
        use std::io::Write;
        const INFALLIBLE: &str = "hashing never fails";
        write!(
            hash,
            "{{\"scenario_index\":{},\"scenario\":",
            self.scenario_index
        )
        .expect(INFALLIBLE);
        serde_json::to_writer(&mut *hash, &self.scenario).expect(INFALLIBLE);
        write!(hash, ",\"policy_index\":{},\"policy\":", self.policy_index).expect(INFALLIBLE);
        serde_json::to_writer(&mut *hash, &self.policy).expect(INFALLIBLE);
        write!(
            hash,
            ",\"seed\":{},\"config_hash\":{},\"config\":",
            self.seed, self.config_hash
        )
        .expect(INFALLIBLE);
        hash.update(config_json);
        hash.update(b"}");
    }
}

/// The persisted description of one distributed grid: every job fully
/// resolved, plus the shard partition.  Shard `s` owns the jobs whose
/// enumeration index `j` satisfies `j % shard_count == s` (round-robin, so
/// every shard sees the same scenario mix and shard runtimes stay even).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridManifest {
    caem_distrib_manifest: u64,
    /// FNV-1a hash of the serialized job list — the grid identity compared
    /// when a coordinator resumes a directory.  Deliberately independent of
    /// the shard partition, so a grid started with `--workers 3` can be
    /// resumed with any worker count (the on-disk partition is kept).
    pub grid_hash: u64,
    /// Number of claimable shards the job list is partitioned into.
    pub shard_count: usize,
    /// The seed replicates of the grid (in spec order).
    pub seeds: Vec<u64>,
    /// Every job of the grid, in canonical enumeration order.
    pub jobs: Vec<ManifestJob>,
}

impl GridManifest {
    /// Build the manifest a spec enumerates to, partitioned into
    /// `shard_count` shards.
    ///
    /// Jobs, config hashes and the grid identity are all derived from the
    /// **canonical resolved spec** — the same fully resolved
    /// [`ScenarioConfig`]s `--print-spec` dumps and the persistence layer
    /// hashes — so a grid defined by a committed spec file and the
    /// identical code-built grid produce interchangeable manifests.
    pub fn from_spec(spec: &ExperimentSpec, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "need at least one shard");
        // One serialization per job: its config's JSON is hashed into the
        // job's `config_hash` and, framed as the job's own JSON, into the
        // grid identity — the FNV-1a of `serde_json::to_string(&jobs)`.
        let mut config_json = Vec::new();
        let mut identity = Fnv1a::default();
        identity.update(b"[");
        let mut jobs = Vec::with_capacity(spec.job_count());
        for (j, job) in spec.enumerate_jobs().into_iter().enumerate() {
            let policy_index = spec
                .policies
                .iter()
                .position(|&p| p == job.policy)
                .expect("enumerated jobs carry spec policies");
            config_json.clear();
            serde_json::to_writer(&mut config_json, &job.config)
                .expect("scenario configs always serialize");
            let job = ManifestJob {
                scenario_index: job.scenario,
                scenario: spec.scenarios[job.scenario].label.clone(),
                policy_index,
                policy: job.policy,
                seed: job.seed,
                config_hash: fnv1a64(&config_json),
                config: job.config,
            };
            if j > 0 {
                identity.update(b",");
            }
            job.fold_json(&config_json, &mut identity);
            jobs.push(job);
        }
        identity.update(b"]");
        GridManifest {
            caem_distrib_manifest: MANIFEST_VERSION,
            grid_hash: identity.finish(),
            shard_count,
            seeds: spec.seeds.clone(),
            jobs,
        }
    }

    /// The jobs belonging to one shard.
    pub fn shard_jobs(&self, shard: usize) -> Vec<&ManifestJob> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(j, _)| j % self.shard_count == shard)
            .map(|(_, job)| job)
            .collect()
    }

    /// Write the manifest atomically (fsync, then temp file + rename) so a
    /// crashed coordinator — or a crashed **machine** — can never leave a
    /// torn or half-persisted manifest for workers to misread.
    pub fn write(&self, layout: &ShardLayout) -> Result<(), DistribError> {
        let text = serde_json::to_string(self)
            .map_err(|e| DistribError::Format(format!("manifest serialization failed: {e}")))?;
        write_atomic(&layout.manifest_path(), text.as_bytes(), true)?;
        Ok(())
    }

    /// Load the manifest of a shard directory.
    pub fn load(layout: &ShardLayout) -> Result<Self, DistribError> {
        let path = layout.manifest_path();
        let text = fs::read_to_string(&path)?;
        let manifest: GridManifest = serde_json::from_str(&text)
            .map_err(|e| DistribError::Format(format!("bad manifest {}: {e}", path.display())))?;
        if manifest.caem_distrib_manifest != MANIFEST_VERSION {
            return Err(DistribError::Format(format!(
                "manifest version {} (this build reads version {MANIFEST_VERSION})",
                manifest.caem_distrib_manifest
            )));
        }
        if manifest.shard_count == 0 || manifest.jobs.is_empty() {
            return Err(DistribError::Format(
                "manifest describes an empty grid".into(),
            ));
        }
        Ok(manifest)
    }

    /// Validity lookup for merged records: job key → (config hash, label).
    fn record_filter(&self) -> HashMap<JobKey, (u64, &str)> {
        self.jobs
            .iter()
            .map(|j| (j.key(), (j.config_hash, j.scenario.as_str())))
            .collect()
    }
}

/// The content of a shard lease: who claimed it.  The lease file's mtime is
/// the claim heartbeat — refreshed whenever the owner makes progress — and
/// the pid + process-start-time pair identifies the owner **process**, not
/// merely its pid number: a recycled pid gets a fresh kernel start time, so
/// a dead owner can never masquerade as alive behind a reused pid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardLease {
    /// Human-readable owner label (e.g. `worker_002` or `coordinator`).
    pub worker: String,
    /// Process id of the owner.
    pub pid: u32,
    /// The owner's kernel start time (clock ticks since boot, field 22 of
    /// `/proc/<pid>/stat`) — the pid-reuse discriminator.  `None` where
    /// `/proc` is unavailable; staleness then falls back to the TTL alone.
    pub pid_start: Option<u64>,
}

impl ShardLease {
    /// A lease naming this process as the owner, with its start-time
    /// identity captured (where `/proc` allows).
    pub fn current(worker: impl Into<String>) -> Self {
        let pid = std::process::id();
        ShardLease {
            worker: worker.into(),
            pid,
            pid_start: process_start_ticks(pid),
        }
    }
}

/// The kernel start time of `pid` in clock ticks since boot — field 22 of
/// `/proc/<pid>/stat`, parsed after the last `)` because the comm field may
/// itself contain spaces or parentheses.  `None` when the process does not
/// exist or `/proc` is unavailable (non-Linux).
fn process_start_ticks(pid: u32) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    // After the comm field, the next token is field 3 (state); starttime is
    // field 22, i.e. the 19th post-comm token.
    after_comm
        .split_whitespace()
        .nth(19)
        .and_then(|t| t.parse().ok())
}

/// Atomically replace `path` with `bytes` through the lease-IO seam, with
/// transient-failure retry.  `durable` fsyncs before the rename (manifests
/// and done markers — files whose loss would orphan completed work);
/// heartbeat refreshes skip the fsync, since a lost beat only risks
/// duplicated work.
fn write_atomic(path: &Path, bytes: &[u8], durable: bool) -> Result<(), DistribError> {
    let io = faults::lease_io();
    retry_transient(&RetryPolicy::default(), |attempt| {
        io.replace_atomic(path, bytes, durable, attempt)
    })?;
    Ok(())
}

/// Is the lease's owner process verifiably gone?  Only Linux can answer;
/// elsewhere the answer is "unknown" and staleness falls back to the TTL.
/// A pid that exists but whose kernel start time differs from the one the
/// lease recorded is a **reused** pid — the owner is just as dead.
fn owner_verifiably_dead(lease: &ShardLease) -> bool {
    if lease.pid == std::process::id() || !cfg!(target_os = "linux") {
        // This process "owns" every in-process worker thread; and without
        // /proc there is no verdict.
        return false;
    }
    match process_start_ticks(lease.pid) {
        // No /proc/<pid>/stat: the process is gone.
        None => true,
        Some(current_start) => match lease.pid_start {
            // Same pid, different start time: the pid was recycled.
            Some(recorded) => recorded != current_start,
            // A lease without the identity (degraded writer): the live pid
            // must be presumed to be the owner.
            None => false,
        },
    }
}

/// Why a lease may be taken over from its holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StaleRule {
    /// The holder is gone: its process is dead or its pid was reused (file
    /// bus), or its connection dropped (daemon).
    OwnerGone,
    /// The holder is silent: its last heartbeat is at least one TTL old.
    Expired,
}

/// The one staleness rule both lease holders apply — the file bus's
/// lock-file leases and the daemon's shard table: a lease whose owner is
/// gone is stale at once, and any other lease once `age >= ttl`.  The age
/// is only read when the owner is not gone (a file-bus age read can carry
/// an injected clock skew, counted as a fault).
pub(crate) fn lease_staleness(
    owner_gone: bool,
    age: impl FnOnce() -> StdDuration,
    ttl: StdDuration,
) -> Option<StaleRule> {
    if owner_gone {
        Some(StaleRule::OwnerGone)
    } else if age() >= ttl {
        Some(StaleRule::Expired)
    } else {
        None
    }
}

/// Is the lease at `path` stealable, and by which rule?  Age reads go
/// through the lease-IO seam and clamp future mtimes to zero, so clock skew
/// can only delay a TTL steal — a spurious steal (two workers running one
/// shard) stays safe regardless, because records are deterministic and the
/// merge dedupes by job key.  An unreadable age (the lease vanished
/// mid-check) counts as expired: the atomic create/rename race in
/// [`try_claim_shard`] settles ownership.
fn file_lease_staleness(
    path: &Path,
    lease: Option<&ShardLease>,
    ttl: StdDuration,
) -> Option<StaleRule> {
    lease_staleness(
        lease.is_some_and(owner_verifiably_dead),
        || {
            faults::lease_io()
                .lease_age(path)
                .unwrap_or(StdDuration::MAX)
        },
        ttl,
    )
}

/// Outcome of one claim attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClaimOutcome {
    /// This worker now holds the shard's lease (it was free).
    Claimed,
    /// This worker took the shard's stale lease over, by this rule.
    Stolen(StaleRule),
    /// The shard is already completed.
    Done,
    /// Another live worker holds a fresh lease.
    Busy,
}

/// Try to claim `shard`: atomic `create_new` of the lease file, or an
/// atomic rewrite-and-rename **steal** when the existing lease is stale.
/// Two stealers can race; both then run the shard, which is safe because
/// records are deterministic and the merge dedupes by job key.
fn try_claim_shard(
    layout: &ShardLayout,
    shard: usize,
    me: &ShardLease,
    ttl: StdDuration,
) -> Result<ClaimOutcome, DistribError> {
    if layout.done_path(shard).exists() {
        return Ok(ClaimOutcome::Done);
    }
    let lease_path = layout.lease_path(shard);
    let body = serde_json::to_string(me)
        .map_err(|e| DistribError::Format(format!("lease serialization failed: {e}")))?;
    let io = faults::lease_io();
    let created = retry_transient(&RetryPolicy::default(), |attempt| {
        io.create_new(&lease_path, body.as_bytes(), attempt)
    })?;
    if created {
        return Ok(ClaimOutcome::Claimed);
    }
    let holder: Option<ShardLease> = fs::read_to_string(&lease_path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    match file_lease_staleness(&lease_path, holder.as_ref(), ttl) {
        Some(rule) => {
            write_atomic(&lease_path, body.as_bytes(), false)?;
            faults::note_event(RunEvent::LeaseStolen);
            Ok(ClaimOutcome::Stolen(rule))
        }
        None => Ok(ClaimOutcome::Busy),
    }
}

/// Refresh a held lease (bumps the file's mtime — the heartbeat other
/// workers consult before stealing).
fn refresh_lease(layout: &ShardLayout, shard: usize, me: &ShardLease) -> Result<(), DistribError> {
    let body = serde_json::to_string(me)
        .map_err(|e| DistribError::Format(format!("lease serialization failed: {e}")))?;
    write_atomic(&layout.lease_path(shard), body.as_bytes(), false)
}

/// Release a held lease outright — the graceful-shutdown path.  Removing
/// the file lets any other worker's atomic `create_new` claim the shard
/// **instantly**, with no TTL wait; a lease that is already gone is fine.
fn release_lease(layout: &ShardLayout, shard: usize) -> Result<(), DistribError> {
    match fs::remove_file(layout.lease_path(shard)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Process-wide graceful-shutdown flag, checked between jobs and between
/// shards.  Socket workers raise it when the daemon connection closes; the
/// CLI raises it from a SIGTERM-style request.  There is deliberately no
/// way to lower it — shutdown is one-way.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Ask every worker loop in this process to wind down: finish (or skip)
/// the job at hand, release unfinished leases and
/// return cleanly.  A released shard is immediately claimable by any other
/// worker — no TTL expiry is involved.
pub fn request_shutdown() {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Whether a graceful shutdown has been requested in this process.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(std::sync::atomic::Ordering::Relaxed)
}

/// Lower the shutdown flag (test isolation only — production shutdown is
/// one-way).
pub fn reset_shutdown() {
    SHUTDOWN.store(false, std::sync::atomic::Ordering::Relaxed);
}

/// Everything a worker needs to participate in a grid.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The shard directory (must contain a manifest).
    pub dir: PathBuf,
    /// This worker's own JSONL store (created if missing, resumed if not).
    pub store_path: PathBuf,
    /// Owner label written into claimed leases.
    pub label: String,
    /// Lease time-to-live before other workers may steal.
    pub lease_ttl: StdDuration,
    /// Test hook: stop (as if killed) after completing this many shards.
    pub max_shards: Option<usize>,
    /// fsync every store append (the worker-side form of `--fsync`).
    pub fsync: bool,
    /// Total attempts per job before a panicking or budget-blowing job is
    /// quarantined as a [`JobFailure`] (at least 1).
    pub job_attempts: u32,
    /// Optional per-job wall-clock budget; a job still running past it
    /// counts as a failed attempt (its thread is abandoned, its eventual
    /// result discarded).  `None` — the default — imposes no budget.
    pub job_wall_budget: Option<StdDuration>,
}

impl WorkerConfig {
    /// A worker on `dir` writing to `store_path`, with the default lease
    /// TTL ([`DEFAULT_LEASE_TTL`]), no per-append fsync, 2 attempts per job
    /// and no wall-clock budget.
    pub fn new(
        dir: impl Into<PathBuf>,
        store_path: impl Into<PathBuf>,
        label: impl Into<String>,
    ) -> Self {
        WorkerConfig {
            dir: dir.into(),
            store_path: store_path.into(),
            label: label.into(),
            lease_ttl: DEFAULT_LEASE_TTL,
            max_shards: None,
            fsync: false,
            job_attempts: 2,
            job_wall_budget: None,
        }
    }
}

/// What one worker invocation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Shards this worker claimed and completed.
    pub shards_completed: usize,
    /// Jobs simulated (fresh records appended to the worker's store).
    pub jobs_run: usize,
    /// Jobs skipped because a valid record was already in the worker's own
    /// store (a restarted worker resuming its partial shard).
    pub jobs_reused: usize,
    /// Jobs that exhausted their attempts and were recorded as failures.
    pub jobs_quarantined: usize,
}

/// The worker loop: claim a shard, run its pending jobs through one rayon
/// fan-out (streaming each record to this worker's store the moment it
/// completes), mark the shard done, repeat — until every shard is either
/// done or freshly leased by another live worker.
///
/// This is what the `experiment` binary executes under `--worker-shard`,
/// and what [`ThreadSpawner`] runs in-process.
///
/// **Graceful shutdown**: once [`request_shutdown`] has been called, the
/// loop skips jobs it has not started, **releases** the lease of any unfinished shard (so another
/// worker re-claims it instantly, without waiting out the TTL) and returns
/// cleanly with whatever it completed.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerOutcome, DistribError> {
    // A spawned worker process inherits the coordinator's `--profile`
    // through the environment; in-process thread workers already share the
    // coordinator's profiler gate.
    caem_metrics::prof::install_from_env();
    let layout = ShardLayout::new(&cfg.dir);
    let manifest = GridManifest::load(&layout)?;
    let mut store = ExperimentStore::open_with(&cfg.store_path, StoreOptions { fsync: cfg.fsync })?;
    let me = ShardLease::current(cfg.label.clone());
    let mut outcome = WorkerOutcome::default();
    'scan: loop {
        let mut progressed = false;
        for shard in 0..manifest.shard_count {
            if shutdown_requested() {
                break 'scan;
            }
            if cfg
                .max_shards
                .is_some_and(|limit| outcome.shards_completed >= limit)
            {
                break 'scan; // simulated death, for the kill/steal tests
            }
            if !matches!(
                try_claim_shard(&layout, shard, &me, cfg.lease_ttl)?,
                ClaimOutcome::Claimed | ClaimOutcome::Stolen(_)
            ) {
                continue;
            }
            progressed = true;
            let completed = run_shard(
                &layout,
                &manifest,
                shard,
                &me,
                cfg,
                &mut store,
                &mut outcome,
            )?;
            if !completed {
                // Shutdown interrupted the shard: hand it straight back.
                release_lease(&layout, shard)?;
                break 'scan;
            }
            refresh_lease(&layout, shard, &me)?;
            let summary = format!(
                "{{\"worker\":{:?},\"pid\":{},\"jobs\":{}}}",
                me.worker,
                me.pid,
                manifest.shard_jobs(shard).len()
            );
            // Done markers are durable: losing one after the workers exit
            // would strand the shard "in progress" forever from the
            // coordinator's point of view.
            write_atomic(&layout.done_path(shard), summary.as_bytes(), true)?;
            outcome.shards_completed += 1;
        }
        if !progressed {
            break;
        }
    }
    // Every record was written before its sink returned; nothing is held
    // back.  Any shard this worker completed keeps its done marker; anything else has
    // no lease left to expire.
    Ok(outcome)
}

/// Run one claimed shard: reuse the worker's own valid records (and respect
/// its standing quarantines), fan the rest out through the single parallel
/// layer, stream each fresh record — or [`JobFailure`] — as it settles.
/// Returns `false` when a graceful shutdown skipped jobs, leaving the shard
/// unfinished (the caller releases its lease instead of marking it done).
fn run_shard(
    layout: &ShardLayout,
    manifest: &GridManifest,
    shard: usize,
    me: &ShardLease,
    cfg: &WorkerConfig,
    store: &mut ExperimentStore,
    outcome: &mut WorkerOutcome,
) -> Result<bool, DistribError> {
    let jobs = manifest.shard_jobs(shard);
    let total = jobs.len();
    let pending: Vec<&ManifestJob> = jobs
        .into_iter()
        .filter(|job| {
            // A valid success record — or a valid standing quarantine —
            // settles the job; only truly undecided jobs run.  Without the
            // failure check, a resumed poison grid would re-run its poison
            // jobs forever.
            store
                .get(job.key(), job.config_hash, &job.scenario)
                .is_none()
                && store
                    .get_failure(job.key(), job.config_hash, &job.scenario)
                    .is_none()
        })
        .collect();
    outcome.jobs_reused += total - pending.len();
    if pending.is_empty() {
        return Ok(true);
    }
    // The worker's single parallel layer, drawing from the process budget
    // the coordinator allotted via RAYON_TOTAL_THREADS.  Fresh results
    // stream through the store's shared sink; IO errors surface when the
    // fan-out ends.  A job not yet started when shutdown is requested
    // is skipped (`None`), never half-run.
    let settled: Vec<Option<Result<JobRecord, JobFailure>>> = store.with_parallel_sink(|sink| {
        pending
            .par_iter()
            .map(|job| {
                if shutdown_requested() {
                    return None;
                }
                let settled = run_job_guarded(job, cfg.job_attempts, cfg.job_wall_budget);
                match &settled {
                    Ok(record) => sink.append(record),
                    Err(failure) => sink.append_failure(failure),
                }
                // Heartbeat: bump the lease mtime after every completed job,
                // so a shard whose jobs together outlast the TTL is not
                // stolen while its owner is demonstrably making progress.
                // Best-effort — a lost beat only risks duplicated work,
                // never wrong results.
                let _ = refresh_lease(layout, shard, me);
                Some(settled)
            })
            .collect()
    })?;
    let mut completed = true;
    for settled in settled {
        match settled {
            Some(Ok(record)) => {
                outcome.jobs_run += 1;
                store.note_record(record);
            }
            Some(Err(failure)) => {
                outcome.jobs_quarantined += 1;
                store.note_failure(failure);
            }
            None => completed = false,
        }
    }
    Ok(completed)
}

/// Run one job under the quarantine guard: up to `attempts` tries, each
/// wrapped in `catch_unwind` (and, with a budget, raced against the clock);
/// a job that never settles cleanly becomes a [`JobFailure`] so the shard —
/// and the grid — still completes.  Shared with the socket-transport worker
/// in [`crate::serve`], whose jobs arrive over the wire instead of from a
/// manifest file.
pub(crate) fn run_job_guarded(
    job: &ManifestJob,
    attempts: u32,
    wall_budget: Option<StdDuration>,
) -> Result<JobRecord, JobFailure> {
    let attempts = attempts.max(1);
    let mut last_reason = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            faults::note_event(RunEvent::JobRetried);
        }
        match run_job_once(job, wall_budget) {
            Ok(record) => return Ok(record),
            Err(reason) => last_reason = reason,
        }
    }
    faults::note_event(RunEvent::JobQuarantined);
    Err(JobFailure {
        scenario_index: job.scenario_index,
        scenario: job.scenario.clone(),
        policy_index: job.policy_index,
        policy: job.policy,
        seed: job.seed,
        config_hash: job.config_hash,
        attempts,
        reason: last_reason,
    })
}

/// One guarded attempt: the simulation inside `catch_unwind`, optionally on
/// a watchdog thread so a runaway job can be abandoned at its wall-clock
/// budget (the thread cannot be killed; it is detached and its eventual
/// result discarded — the quarantine record is what the grid keeps).
fn run_job_once(job: &ManifestJob, wall_budget: Option<StdDuration>) -> Result<JobRecord, String> {
    let key = job.key();
    let owned = job.clone();
    let attempt = move || -> JobRecord {
        faults::poison_check(key);
        owned.run()
    };
    match wall_budget {
        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
            .map_err(|payload| format!("job panicked: {}", panic_text(payload.as_ref()))),
        Some(budget) => {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::Builder::new()
                .name(format!("caem-job-{}-{}-{}", key.0, key.1, key.2))
                .spawn(move || {
                    let settled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
                    let _ = tx.send(settled);
                })
                .map_err(|e| format!("could not spawn job thread: {e}"))?;
            match rx.recv_timeout(budget) {
                Ok(Ok(record)) => Ok(record),
                Ok(Err(payload)) => Err(format!("job panicked: {}", panic_text(payload.as_ref()))),
                Err(_) => Err(format!(
                    "job exceeded its wall-clock budget of {:.1} s",
                    budget.as_secs_f64()
                )),
            }
        }
    }
}

/// Best-effort text of a panic payload (panics carry `String` or `&str`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A handle on one spawned worker (process or thread).
pub struct WorkerHandle(HandleInner);

enum HandleInner {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>),
}

impl WorkerHandle {
    /// Wrap a spawned worker process.
    pub fn from_child(child: std::process::Child) -> Self {
        WorkerHandle(HandleInner::Process(child))
    }

    /// Wrap an in-process worker thread.
    pub fn from_thread(
        handle: std::thread::JoinHandle<Result<WorkerOutcome, DistribError>>,
    ) -> Self {
        WorkerHandle(HandleInner::Thread(handle))
    }

    /// Wait for the worker to finish.  `Err` carries a description of an
    /// abnormal exit (non-zero status, kill signal, panic or worker error);
    /// the coordinator treats that as "its shards will be stolen", not as a
    /// fatal condition.
    pub fn join(self) -> Result<(), String> {
        match self.0 {
            HandleInner::Process(mut child) => match child.wait() {
                Ok(status) if status.success() => Ok(()),
                Ok(status) => Err(format!("worker process exited with {status}")),
                Err(e) => Err(format!("could not wait for worker process: {e}")),
            },
            HandleInner::Thread(handle) => match handle.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("worker thread failed: {e}")),
                Err(_) => Err("worker thread panicked".to_string()),
            },
        }
    }
}

/// How a coordinator brings workers to a shard directory.
/// Implementations: [`ProcessSpawner`] (separate processes) and
/// [`ThreadSpawner`] (in-process threads); both speak the same lock-file
/// protocol.
pub trait WorkerSpawner {
    /// Launch worker `index` against the shard directory `dir`.
    /// `thread_budget` is the rayon thread share this worker should confine
    /// itself to (exported as `RAYON_TOTAL_THREADS` for process workers;
    /// in-process workers share the parent's budget, which already caps the
    /// total by construction).
    fn spawn(
        &self,
        dir: &Path,
        index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError>;
}

/// Spawn real worker **processes**: re-invokes a binary (normally
/// `std::env::current_exe()`) with `--worker-shard DIR --store
/// DIR/workers/worker_INDEX.jsonl` appended to `base_args`, and
/// `RAYON_TOTAL_THREADS` set to the worker's thread share.
#[derive(Debug, Clone)]
pub struct ProcessSpawner {
    /// The worker binary to execute.
    pub program: PathBuf,
    /// Arguments placed before the `--worker-shard`/`--store` pair.
    pub base_args: Vec<String>,
    /// Extra environment exported to every worker (how the `experiment`
    /// binary forwards the chaos plan and fsync setting across `exec`).
    pub envs: Vec<(String, String)>,
}

impl ProcessSpawner {
    /// Spawn workers by re-invoking the current executable.
    pub fn current_exe(base_args: Vec<String>) -> Result<Self, DistribError> {
        Ok(ProcessSpawner {
            program: std::env::current_exe()?,
            base_args,
            envs: Vec::new(),
        })
    }
}

impl WorkerSpawner for ProcessSpawner {
    fn spawn(
        &self,
        dir: &Path,
        index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let store = ShardLayout::new(dir).worker_store_path(&format!("{index:03}"));
        let child = std::process::Command::new(&self.program)
            .args(&self.base_args)
            .arg("--worker-shard")
            .arg(dir)
            .arg("--store")
            .arg(store)
            .env("RAYON_TOTAL_THREADS", thread_budget.to_string())
            .envs(self.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .spawn()?;
        Ok(WorkerHandle::from_child(child))
    }
}

/// Spawn in-process worker **threads** running [`run_worker`] directly —
/// the claim protocol is identical (same lease files, same steals), which
/// is what the integration tests and the example exercise without needing a
/// separate binary.  All threads draw from the parent's shared rayon
/// budget, so the no-oversubscription guarantee holds without an env split.
#[derive(Debug, Clone)]
pub struct ThreadSpawner {
    /// Lease TTL handed to every worker.
    pub lease_ttl: StdDuration,
    /// Test hook: each worker stops (as if killed) after this many shards.
    pub max_shards: Option<usize>,
    /// fsync every store append in each worker.
    pub fsync: bool,
}

impl Default for ThreadSpawner {
    fn default() -> Self {
        ThreadSpawner {
            lease_ttl: DEFAULT_LEASE_TTL,
            max_shards: None,
            fsync: false,
        }
    }
}

impl WorkerSpawner for ThreadSpawner {
    fn spawn(
        &self,
        dir: &Path,
        index: usize,
        _thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let mut cfg = WorkerConfig::new(
            dir,
            ShardLayout::new(dir).worker_store_path(&format!("{index:03}")),
            format!("thread_{index:03}"),
        );
        cfg.lease_ttl = self.lease_ttl;
        cfg.max_shards = self.max_shards;
        cfg.fsync = self.fsync;
        Ok(WorkerHandle::from_thread(std::thread::spawn(move || {
            run_worker(&cfg)
        })))
    }
}

/// Coordinator-side knobs of a distributed run.
#[derive(Debug, Clone)]
pub struct DistribOptions {
    /// Worker processes (or threads) to spawn.
    pub workers: usize,
    /// Shard granularity: the job list splits into `workers ×
    /// shards_per_worker` shards (clamped to the job count), so stealing
    /// rebalances in useful increments when a worker dies.
    pub shards_per_worker: usize,
    /// Lease time-to-live before an unrefreshed claim may be stolen.
    pub lease_ttl: StdDuration,
    /// Wipe the shard directory before starting (a fresh run).  Leave false
    /// to resume: done shards are skipped, valid records reused.
    pub fresh: bool,
    /// fsync every store append in the coordinator's inline worker (spawned
    /// workers receive the setting through their spawner).
    pub fsync: bool,
}

impl DistribOptions {
    /// Defaults for `workers` workers: 4 shards per worker, the default
    /// lease TTL ([`DEFAULT_LEASE_TTL`]), resume semantics (`fresh =
    /// false`), no per-append fsync.
    pub fn new(workers: usize) -> Self {
        DistribOptions {
            workers,
            shards_per_worker: 4,
            lease_ttl: DEFAULT_LEASE_TTL,
            fresh: false,
            fsync: false,
        }
    }
}

/// Everything a grid settled: the valid success records plus the jobs that
/// ended in quarantine (no success record anywhere, a standing
/// [`JobFailure`]).  A success in **any** store beats a failure in another —
/// a job another worker completed after one worker's quarantine is simply
/// complete.
#[derive(Debug, Clone, Default)]
pub struct GridOutcome {
    /// Valid success records (pre-dedup; aggregation dedupes last-wins).
    pub records: Vec<JobRecord>,
    /// Standing quarantines, one per failed job key, in canonical key order.
    pub failures: Vec<JobFailure>,
}

/// Collect everything the given stores settled for `manifest`: every
/// record that belongs to the grid (matching key, config hash and scenario
/// label) plus the standing quarantines (valid failure records whose job
/// has no valid success record in any store), deduplicated per key and
/// sorted canonically so downstream report sections are deterministic.
/// Records from other grids, stale configurations or renamed scenarios are
/// counted and skipped with a warning — they cannot silently contaminate a
/// merged report.
///
/// The records are deliberately **order-insensitive** downstream: records
/// are deterministic per job, so however the stores are ordered (and
/// however many duplicates worker kills and steals produced), the
/// deduplicated canonical aggregation is identical.
pub fn collect_grid_outcome(
    manifest: &GridManifest,
    store_paths: &[PathBuf],
) -> Result<GridOutcome, DistribError> {
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for path in store_paths {
        let store = ExperimentStore::load(path)?;
        records.extend(store.records().iter().cloned());
        failures.extend(store.failures().iter().cloned());
    }
    Ok(merge_outcome(manifest, records, failures))
}

/// The transport-independent core of [`collect_grid_outcome`]: merge
/// already-loaded records and failures against `manifest`'s validity filter
/// (matching key, config hash and scenario label), drop quarantines that
/// any success record supersedes, and sort the survivors canonically.  The
/// service daemon feeds this with records that arrived over sockets instead
/// of from files — the merge semantics (and therefore the report bytes) are
/// identical by construction.
pub fn merge_outcome(
    manifest: &GridManifest,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
) -> GridOutcome {
    let filter = manifest.record_filter();
    let mut outcome = GridOutcome::default();
    let mut standing: HashMap<JobKey, JobFailure> = HashMap::new();
    let mut foreign = 0usize;
    for record in records {
        match filter.get(&record.key()) {
            Some(&(hash, label)) if record.config_hash == hash && record.scenario == label => {
                outcome.records.push(record);
            }
            _ => foreign += 1,
        }
    }
    for failure in failures {
        match filter.get(&failure.key()) {
            Some(&(hash, label)) if failure.config_hash == hash && failure.scenario == label => {
                standing.insert(failure.key(), failure);
            }
            _ => foreign += 1,
        }
    }
    // Success beats failure: a quarantine only stands while no worker ever
    // completed the job.
    let completed: std::collections::HashSet<JobKey> =
        outcome.records.iter().map(JobRecord::key).collect();
    outcome.failures = standing
        .into_values()
        .filter(|f| !completed.contains(&f.key()))
        .collect();
    outcome.failures.sort_by_key(JobFailure::key);
    if foreign > 0 {
        faults::note_events(RunEvent::ForeignRecordIgnored, foreign as u64);
        eprintln!("warning: ignored {foreign} persisted records that do not belong to this grid");
    }
    outcome
}

/// Merge a completed grid directory into its canonical report (no spec
/// needed — the offline counterpart of [`ExperimentSpec::run_distributed`],
/// analogous to [`ExperimentStore::rebuild_report`]).  Standing quarantines
/// surface in the report's degradation section.
pub fn merge_grid_report(dir: &Path) -> Result<ExperimentReport, DistribError> {
    let layout = ShardLayout::new(dir);
    let manifest = GridManifest::load(&layout)?;
    let stores = layout.discover_worker_stores()?;
    // Reading worker shard stores back is collector-path work.
    let span = caem_metrics::prof::Span::start();
    let outcome = collect_grid_outcome(&manifest, &stores)?;
    span.stop_global(
        caem_metrics::prof::ProfKey::Collector,
        outcome.records.len() as u64,
    );
    let mut report = ExperimentReport::from_records(outcome.records);
    report.failures = outcome.failures;
    Ok(report)
}

impl ExperimentSpec {
    /// Run the grid across `opts.workers` workers coordinated through the
    /// shard directory `dir`, and aggregate through the canonical
    /// [`ExperimentReport::from_records`] path.
    ///
    /// The report is **bit-identical** to [`ExperimentSpec::run`] on the
    /// same spec — whether one worker ran everything, N workers split it,
    /// workers were killed mid-run, or the whole coordinator was killed and
    /// this call resumed the directory (`opts.fresh == false`).
    pub fn run_distributed<S: WorkerSpawner>(
        &self,
        dir: &Path,
        opts: &DistribOptions,
        spawner: &S,
    ) -> Result<ExperimentReport, DistribError> {
        let outcome = self.run_distributed_outcome(dir, opts, spawner)?;
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = self.seeds.clone();
        report.failures = outcome.failures;
        Ok(report)
    }

    /// The record-level body of [`ExperimentSpec::run_distributed`]:
    /// prepare the manifest, spawn and join workers, finish leftover shards
    /// inline, and return every settled job of the grid — success records
    /// (deduplicable, covering every non-quarantined job) plus standing
    /// quarantines.  The grid counts as complete when every job is settled
    /// one way or the other.
    pub fn run_distributed_outcome<S: WorkerSpawner>(
        &self,
        dir: &Path,
        opts: &DistribOptions,
        spawner: &S,
    ) -> Result<GridOutcome, DistribError> {
        self.assert_distinct_axes();
        assert!(opts.workers >= 1, "need at least one worker");
        assert!(
            opts.shards_per_worker >= 1,
            "need at least one shard per worker"
        );
        assert!(self.job_count() >= 1, "cannot distribute an empty grid");
        let layout = ShardLayout::new(dir);
        if opts.fresh && dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        layout.create_dirs()?;
        let shard_count = (opts.workers * opts.shards_per_worker).min(self.job_count());
        let fresh_manifest = GridManifest::from_spec(self, shard_count);
        // Resume keeps the on-disk shard partition (workers read it from the
        // manifest anyway), but only for the *same* grid: a different job
        // list is rejected rather than silently mixed in.
        let manifest = if layout.manifest_path().exists() {
            let existing = GridManifest::load(&layout)?;
            if existing.grid_hash != fresh_manifest.grid_hash {
                return Err(DistribError::ManifestMismatch {
                    expected: fresh_manifest.grid_hash,
                    found: existing.grid_hash,
                });
            }
            existing
        } else {
            fresh_manifest.write(&layout)?;
            fresh_manifest
        };

        let budget = rayon::split_thread_budget(opts.workers);
        let handles: Vec<WorkerHandle> = (0..opts.workers)
            .map(|i| spawner.spawn(dir, i, budget))
            .collect::<Result<_, _>>()?;
        for handle in handles {
            if let Err(why) = handle.join() {
                faults::note_event(RunEvent::WorkerAbnormalExit);
                eprintln!("warning: {why} — its unfinished shards will be stolen");
            }
        }

        // Finish whatever the workers left behind (killed workers leave
        // stale leases; the inline pass steals and completes them).
        let mut patience = 0u32;
        while !layout.all_done(manifest.shard_count) {
            let mut inline = WorkerConfig::new(
                dir.to_path_buf(),
                layout.worker_store_path("coordinator"),
                "coordinator",
            );
            inline.lease_ttl = opts.lease_ttl;
            inline.fsync = opts.fsync;
            run_worker(&inline)?;
            if layout.all_done(manifest.shard_count) {
                break;
            }
            // Shards still leased (e.g. a worker died milliseconds ago on a
            // non-Linux host): wait a slice of the TTL and steal.
            patience += 1;
            if patience > 10_000 {
                return Err(DistribError::Format(
                    "shards never completed (live leases that refuse to expire)".into(),
                ));
            }
            std::thread::sleep(
                opts.lease_ttl
                    .div_f64(4.0)
                    .min(StdDuration::from_millis(200)),
            );
        }

        let stores = layout.discover_worker_stores()?;
        let outcome = collect_grid_outcome(&manifest, &stores)?;
        // Coverage: every job is settled by a success record or a standing
        // quarantine; anything else means records were lost, which must be
        // an error, never a silently thinner report.
        let mut keys: Vec<JobKey> = outcome
            .records
            .iter()
            .map(JobRecord::key)
            .chain(outcome.failures.iter().map(JobFailure::key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        if keys.len() != manifest.jobs.len() {
            return Err(DistribError::Incomplete {
                missing: manifest.jobs.len() - keys.len(),
            });
        }
        Ok(outcome)
    }
}

/// Distributed CI-driven sequential stopping: the exact
/// [`ExperimentSpec::run_sequential`] loop, with each replicate batch
/// running as its own distributed grid under `dir/round_<k>/`.
///
/// Batches (and therefore rounds, replicate counts and the final report)
/// are deterministic in the spec and stopping rule, so a killed and
/// re-invoked loop resumes: completed rounds merge straight from their
/// shard directories without simulating anything.
pub fn run_sequential_distributed<S: WorkerSpawner>(
    spec: &ExperimentSpec,
    dir: &Path,
    opts: &DistribOptions,
    spawner: &S,
    stop: &SequentialStopping,
) -> Result<SequentialOutcome, DistribError> {
    let round_opts = DistribOptions {
        fresh: false,
        ..opts.clone()
    };
    let mut round = 0usize;
    let mut records: Vec<JobRecord> = Vec::new();
    let mut failures: Vec<JobFailure> = Vec::new();
    spec.sequential_rounds(stop, |grid, first_new| {
        if round == 0 && opts.fresh && dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        let batch = ExperimentSpec {
            scenarios: grid.scenarios.clone(),
            policies: grid.policies.clone(),
            seeds: grid.seeds[first_new..].to_vec(),
        };
        let round_dir = dir.join(format!("round_{round:03}"));
        let outcome = batch.run_distributed_outcome(&round_dir, &round_opts, spawner)?;
        round += 1;
        records.extend(outcome.records);
        failures.extend(outcome.failures);
        let mut report = ExperimentReport::from_records(records.iter().cloned());
        report.seeds = grid.seeds.clone();
        report.failures = failures.clone();
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::experiment::ScenarioSpec;
    use crate::persist::config_hash;
    use caem_simcore::time::Duration;

    fn temp_grid(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("caem_distrib_unit_{}_{name}", std::process::id()));
        fs::remove_dir_all(&path).ok();
        path
    }

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::paper_policies(
            vec![ScenarioSpec::new(
                "uniform",
                ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
                    .with_duration(Duration::from_secs(5)),
            )],
            400,
            2,
        )
    }

    #[test]
    fn manifest_partitions_every_job_exactly_once() {
        let spec = tiny_spec();
        let manifest = GridManifest::from_spec(&spec, 4);
        assert_eq!(manifest.jobs.len(), spec.job_count());
        assert_eq!(manifest.seeds, spec.seeds);
        let mut seen = 0;
        for shard in 0..manifest.shard_count {
            seen += manifest.shard_jobs(shard).len();
        }
        assert_eq!(seen, manifest.jobs.len(), "shards cover the grid");
        // Identity follows the job list, not the partition: the same grid
        // resharded for a different worker count still resumes...
        let other = GridManifest::from_spec(&spec, 3);
        assert_eq!(manifest.grid_hash, other.grid_hash);
        // ...but any change to the jobs themselves is a different grid.
        let mut edited = spec.clone();
        edited.seeds[0] += 1;
        assert_ne!(
            manifest.grid_hash,
            GridManifest::from_spec(&edited, 4).grid_hash
        );
    }

    /// The quick `specs/zoo.json` grid as `experiment --quick --spec`
    /// resolves it (the document pins its own `base_seed`).
    fn quick_zoo_spec() -> ExperimentSpec {
        crate::spec::GridSpec::parse(include_str!("../../../specs/zoo.json"))
            .and_then(|parsed| parsed.resolve(0, true))
            .expect("the committed zoo spec resolves")
            .spec
    }

    /// Resume compares `grid_hash` against manifests already on disk, and
    /// merged records are validated by `config_hash`: both are pinned to
    /// the values the previous manifest builder produced.
    #[test]
    fn quick_zoo_manifest_hashes_are_pinned() {
        let manifest = GridManifest::from_spec(&quick_zoo_spec(), 8);
        assert_eq!(manifest.jobs.len(), 90);
        assert_eq!(manifest.grid_hash, 0xd8d0_9eea_6eee_0fa5);
        assert_eq!(manifest.jobs[0].config_hash, 0x38ba_d6a6_e948_a9a8);
        assert_eq!(manifest.jobs[89].config_hash, 0x6083_5160_7b91_11f2);
    }

    /// The single-pass hashes equal hashing the fully serialized job list,
    /// including labels the hand-framed job JSON has to escape.
    #[test]
    fn single_pass_hashes_match_serializing_the_whole_job_list() {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0)
            .with_duration(Duration::from_secs(5));
        let spec = ExperimentSpec::paper_policies(
            vec![
                ScenarioSpec::new("quote \" back\\slash", base.clone()),
                ScenarioSpec::new(
                    "new\nline ünïcode ✓",
                    base.with_topology(crate::config::Topology::Corridor {
                        width_fraction: 0.3,
                    }),
                ),
            ],
            77,
            2,
        );
        let manifest = GridManifest::from_spec(&spec, 3);
        assert_eq!(manifest.jobs.len(), 12);
        let text = serde_json::to_string(&manifest.jobs).unwrap();
        assert_eq!(manifest.grid_hash, fnv1a64(text.as_bytes()));
        for job in &manifest.jobs {
            assert_eq!(job.config_hash, config_hash(&job.config));
        }
    }

    #[test]
    fn manifest_round_trips_through_its_file() {
        let spec = tiny_spec();
        let dir = temp_grid("manifest_roundtrip");
        let layout = ShardLayout::new(&dir);
        layout.create_dirs().unwrap();
        let manifest = GridManifest::from_spec(&spec, 2);
        manifest.write(&layout).unwrap();
        let back = GridManifest::load(&layout).unwrap();
        assert_eq!(back.grid_hash, manifest.grid_hash);
        assert_eq!(back.shard_count, 2);
        assert_eq!(back.jobs.len(), manifest.jobs.len());
        assert_eq!(back.jobs[0].key(), manifest.jobs[0].key());
        assert_eq!(back.jobs[0].config_hash, manifest.jobs[0].config_hash);
        // The persisted config hashes to the same identity after the JSON
        // round-trip — the property record validation relies on.
        assert_eq!(config_hash(&back.jobs[0].config), back.jobs[0].config_hash);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claim_is_exclusive_and_done_wins() {
        let dir = temp_grid("claims");
        let layout = ShardLayout::new(&dir);
        layout.create_dirs().unwrap();
        let ttl = StdDuration::from_secs(60);
        let a = ShardLease::current("a");
        let b = ShardLease::current("b");
        assert_eq!(
            try_claim_shard(&layout, 0, &a, ttl).unwrap(),
            ClaimOutcome::Claimed
        );
        assert_eq!(
            try_claim_shard(&layout, 0, &b, ttl).unwrap(),
            ClaimOutcome::Busy,
            "a fresh lease is exclusive"
        );
        write_atomic(&layout.done_path(0), b"{}", true).unwrap();
        assert_eq!(
            try_claim_shard(&layout, 0, &b, ttl).unwrap(),
            ClaimOutcome::Done
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_owner_and_expired_leases_are_stolen() {
        let dir = temp_grid("steal");
        let layout = ShardLayout::new(&dir);
        layout.create_dirs().unwrap();
        let me = ShardLease::current("stealer");
        // A lease held by a verifiably dead process is stolen immediately.
        let ghost = ShardLease {
            worker: "ghost".into(),
            pid: u32::MAX - 1,
            pid_start: None,
        };
        write_atomic(
            &layout.lease_path(0),
            serde_json::to_string(&ghost).unwrap().as_bytes(),
            false,
        )
        .unwrap();
        assert_eq!(
            try_claim_shard(&layout, 0, &me, StdDuration::from_secs(3600)).unwrap(),
            ClaimOutcome::Stolen(StaleRule::OwnerGone),
            "dead-pid lease must be stolen despite a fresh mtime"
        );
        // A live-pid lease is only stolen after its TTL expires.
        write_atomic(
            &layout.lease_path(1),
            serde_json::to_string(&me).unwrap().as_bytes(),
            false,
        )
        .unwrap();
        assert_eq!(
            try_claim_shard(&layout, 1, &me, StdDuration::from_secs(3600)).unwrap(),
            ClaimOutcome::Busy
        );
        std::thread::sleep(StdDuration::from_millis(30));
        assert_eq!(
            try_claim_shard(&layout, 1, &me, StdDuration::from_millis(10)).unwrap(),
            ClaimOutcome::Stolen(StaleRule::Expired),
            "an expired lease is stolen"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_without_start_time_decodes_and_its_dead_owner_is_stale() {
        // Leases written before the start-time identity existed carry only
        // the owner label and pid.
        let text = "{\"worker\":\"doomed_000\",\"pid\":4294967294}";
        let legacy: ShardLease = serde_json::from_str(text).expect("legacy lease decodes");
        assert_eq!(legacy.worker, "doomed_000");
        assert_eq!(legacy.pid, 4_294_967_294);
        assert_eq!(legacy.pid_start, None);
        if cfg!(target_os = "linux") {
            assert!(owner_verifiably_dead(&legacy), "no such pid");
            let dir = temp_grid("legacy_lease");
            let layout = ShardLayout::new(&dir);
            layout.create_dirs().unwrap();
            fs::write(layout.lease_path(0), text).unwrap();
            let long_ttl = StdDuration::from_secs(3600);
            assert_eq!(
                file_lease_staleness(&layout.lease_path(0), Some(&legacy), long_ttl),
                Some(StaleRule::OwnerGone),
                "a freshly written lease of a dead owner is stale without the TTL"
            );
            assert_eq!(
                try_claim_shard(&layout, 0, &ShardLease::current("heir"), long_ttl).unwrap(),
                ClaimOutcome::Stolen(StaleRule::OwnerGone)
            );
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lease_missing_a_required_field_is_an_error() {
        let err = serde_json::from_str::<ShardLease>("{\"worker\":\"w\",\"pid_start\":7}")
            .expect_err("pid is not optional");
        assert!(
            err.to_string().contains("missing field `pid`"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn staleness_rule_fires_at_the_ttl_and_owner_loss_wins() {
        let ttl = StdDuration::from_secs(10);
        let just_under = || ttl - StdDuration::from_millis(1);
        assert_eq!(lease_staleness(false, just_under, ttl), None);
        assert_eq!(
            lease_staleness(false, || ttl, ttl),
            Some(StaleRule::Expired),
            "an age of exactly one TTL is expired"
        );
        assert_eq!(
            lease_staleness(true, || panic!("age is not read"), ttl),
            Some(StaleRule::OwnerGone)
        );
    }

    #[test]
    fn released_lease_is_reclaimed_instantly() {
        let dir = temp_grid("release");
        let layout = ShardLayout::new(&dir);
        layout.create_dirs().unwrap();
        let ttl = StdDuration::from_secs(3600);
        let a = ShardLease::current("a");
        let b = ShardLease::current("b");
        assert_eq!(
            try_claim_shard(&layout, 0, &a, ttl).unwrap(),
            ClaimOutcome::Claimed
        );
        assert_eq!(
            try_claim_shard(&layout, 0, &b, ttl).unwrap(),
            ClaimOutcome::Busy
        );
        // Graceful shutdown releases the lease outright: worker b's very
        // next claim succeeds, hours before the TTL could have expired.
        release_lease(&layout, 0).unwrap();
        assert_eq!(
            try_claim_shard(&layout, 0, &b, ttl).unwrap(),
            ClaimOutcome::Claimed,
            "a released shard is re-claimed with no TTL wait"
        );
        // Releasing an already-released lease is a no-op, not an error.
        release_lease(&layout, 1).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_skips_pending_jobs_and_releases_the_shard() {
        let spec = tiny_spec();
        let dir = temp_grid("shutdown");
        let layout = ShardLayout::new(&dir);
        layout.create_dirs().unwrap();
        let manifest = GridManifest::from_spec(&spec, 1);
        manifest.write(&layout).unwrap();
        let ttl = StdDuration::from_secs(3600);
        let me = ShardLease::current("quitter");
        assert_eq!(
            try_claim_shard(&layout, 0, &me, ttl).unwrap(),
            ClaimOutcome::Claimed
        );
        let cfg = WorkerConfig::new(&dir, layout.worker_store_path("quitter"), "quitter");
        let mut store =
            ExperimentStore::open_with(&cfg.store_path, StoreOptions { fsync: false }).unwrap();
        request_shutdown();
        let mut outcome = WorkerOutcome::default();
        let completed =
            run_shard(&layout, &manifest, 0, &me, &cfg, &mut store, &mut outcome).unwrap();
        reset_shutdown();
        assert!(!completed, "shutdown leaves the shard unfinished");
        assert_eq!(outcome.jobs_run, 0, "no job started after the request");
        release_lease(&layout, 0).unwrap();
        let successor = ShardLease::current("successor");
        assert_eq!(
            try_claim_shard(&layout, 0, &successor, ttl).unwrap(),
            ClaimOutcome::Claimed,
            "the released shard is claimable immediately"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn lease_identity_detects_pid_reuse() {
        let me = ShardLease::current("self");
        assert!(
            me.pid_start.is_some(),
            "Linux leases carry the start-time identity"
        );
        assert!(!owner_verifiably_dead(&me), "own lease is never dead");
        // Same pid but a different recorded start time: the pid was
        // recycled, so the original owner is verifiably dead even though
        // /proc/<pid> exists.
        let recycled = ShardLease {
            worker: "previous-owner".into(),
            pid: std::process::id(),
            pid_start: me.pid_start.map(|t| t + 1),
        };
        // Own pid is exempt (in-process worker threads share it)...
        assert!(!owner_verifiably_dead(&recycled));
        // ...so check the start-time comparison against another live pid:
        // pid 1 always exists on Linux.
        let init_start = process_start_ticks(1).expect("pid 1 has a stat file");
        let stale_init = ShardLease {
            worker: "imposter".into(),
            pid: 1,
            pid_start: Some(init_start + 7),
        };
        assert!(
            owner_verifiably_dead(&stale_init),
            "a mismatched start time unmasks a reused pid"
        );
        let honest_init = ShardLease {
            worker: "init".into(),
            pid: 1,
            pid_start: Some(init_start),
        };
        assert!(!owner_verifiably_dead(&honest_init));
        let legacy = ShardLease {
            worker: "legacy".into(),
            pid: 1,
            pid_start: None,
        };
        assert!(
            !owner_verifiably_dead(&legacy),
            "a live pid without identity is presumed to be the owner"
        );
    }
}
