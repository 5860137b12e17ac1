//! The experiment-service daemon: grid queueing, shard leasing over the
//! wire, record absorption and canonical report finalization.
//!
//! The daemon is transport-agnostic — one [`serve_connection`] loop per
//! connected peer (worker or client), all sharing a [`ServiceState`]
//! behind a mutex.  Shard leasing mirrors the lock-file protocol of
//! [`crate::distrib`] and judges staleness by the same rule: a granted
//! shard is leased to one connection, heartbeats refresh the lease, a
//! lease whose heartbeat is at least one TTL old is evicted at the next
//! claim (noting [`RunEvent::WorkerEvicted`] and [`RunEvent::LeaseStolen`]),
//! and a connection that drops releases its leases immediately (noting
//! [`RunEvent::WorkerAbnormalExit`]).  Completed grids are finalized
//! through the exact pipeline of
//! [`crate::distrib` `run_distributed`](crate::experiment::ExperimentSpec::run_distributed)
//! — [`merge_outcome`] then [`ExperimentReport::from_records`] — and the
//! report is rendered to text once, daemon-side, so every client fetches
//! byte-identical output.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::distrib::{
    lease_staleness, merge_outcome, GridManifest, ManifestJob, StaleRule, DEFAULT_HEARTBEAT,
    DEFAULT_LEASE_TTL,
};
use crate::experiment::ExperimentReport;
use crate::faults::{self, RunEvent};
use crate::persist::{decode_line, DecodedLine, JobFailure, JobKey, JobRecord};
use crate::spec::GridSpec;

use super::proto::{GridProgress, Message, ShardGrant, PROTOCOL_VERSION};
use super::transport::FrameLink;

/// How long a connection loop waits for a frame before re-checking state.
const RECV_TICK: Duration = Duration::from_millis(200);

/// Suggested claim-retry delay when the daemon has nothing to grant.
const NO_WORK_RETRY_MS: u64 = 100;

/// Daemon-wide tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shards a submitted grid is split into (clamped to its job count).
    pub shards_per_grid: usize,
    /// Operator override for the shard-lease TTL.  `None` defers to each
    /// spec's `distrib` block (and then to
    /// [`DEFAULT_LEASE_TTL`]).
    pub lease_ttl: Option<Duration>,
    /// Operator override for the worker heartbeat interval, with the same
    /// precedence as `lease_ttl`.
    pub heartbeat: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards_per_grid: 8,
            lease_ttl: None,
            heartbeat: None,
        }
    }
}

/// Where one shard of the active grid stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// Grantable.
    Open,
    /// Granted to connection `conn`, last heard from at `beat`.
    Leased { conn: u64, beat: Instant },
    /// Every job settled and the shard reconciled.
    Done,
}

/// A completed grid retained for `fetch`.
struct CompletedGrid {
    report: String,
}

/// A submitted grid: its manifest, absorbed results and shard states.
/// The queue's front entry is the one being worked.
struct ActiveGrid {
    name: String,
    manifest: GridManifest,
    /// Every job key of the manifest (membership filter for absorbed lines).
    job_keys: HashSet<JobKey>,
    records: Vec<JobRecord>,
    failures: Vec<JobFailure>,
    /// Keys with a decoded success or quarantine line.
    settled: HashSet<JobKey>,
    quarantined: u64,
    shards: Vec<ShardState>,
    /// Decoded-line count per (connection, shard) — the receiver side of
    /// the [`Message::ShardDone`] reconciliation.
    received: HashMap<(u64, usize), u64>,
    lease_ttl: Duration,
    heartbeat: Duration,
}

impl ActiveGrid {
    fn progress(&self) -> GridProgress {
        GridProgress {
            name: self.name.clone(),
            jobs: self.manifest.jobs.len() as u64,
            settled: self.settled.len() as u64,
            quarantined: self.quarantined,
            shards_done: self
                .shards
                .iter()
                .filter(|s| **s == ShardState::Done)
                .count() as u64,
            shard_count: self.manifest.shard_count as u64,
        }
    }

    /// Refresh the lease on `shard` if `conn` holds it.
    fn beat(&mut self, conn: u64, shard: usize, now: Instant) {
        if let Some(ShardState::Leased { conn: holder, beat }) = self.shards.get_mut(shard) {
            if *holder == conn {
                *beat = now;
            }
        }
    }

    /// Reopen `shard` if `conn` holds its lease; true when it did.
    fn release(&mut self, conn: u64, shard: usize) -> bool {
        match self.shards.get(shard) {
            Some(ShardState::Leased { conn: holder, .. }) if *holder == conn => {
                self.shards[shard] = ShardState::Open;
                true
            }
            _ => false,
        }
    }

    fn all_done(&self) -> bool {
        self.shards.iter().all(|s| *s == ShardState::Done)
    }
}

/// Note the events of taking a lease away from its holder by `rule`.
fn note_steal(rule: StaleRule) {
    if rule == StaleRule::Expired {
        faults::note_event(RunEvent::WorkerEvicted);
    }
    faults::note_event(RunEvent::LeaseStolen);
}

/// Shared state of one daemon process.
pub struct ServiceState {
    cfg: ServiceConfig,
    queue: VecDeque<ActiveGrid>,
    completed: Vec<CompletedGrid>,
    next_conn: u64,
    workers: HashMap<u64, String>,
}

/// What a handled message asks the connection loop to do.
enum Reply {
    /// Fire-and-forget message: nothing to send.
    None,
    /// Send the response and keep serving.
    Send(Message),
    /// Send the response, then hang up (handshake rejections).
    Close(Message),
}

impl ServiceState {
    /// Fresh state under the given tuning.
    pub fn new(cfg: ServiceConfig) -> Self {
        ServiceState {
            cfg,
            queue: VecDeque::new(),
            completed: Vec::new(),
            next_conn: 0,
            workers: HashMap::new(),
        }
    }

    /// Fresh state wrapped for sharing across connection threads.
    pub fn shared(cfg: ServiceConfig) -> Arc<Mutex<ServiceState>> {
        Arc::new(Mutex::new(ServiceState::new(cfg)))
    }

    fn allocate_conn(&mut self) -> u64 {
        self.next_conn += 1;
        self.next_conn
    }

    /// The lease tuning a fresh worker should run with: the active grid's
    /// if one exists, otherwise the daemon defaults.
    fn tuning(&self) -> (Duration, Duration) {
        match self.queue.front() {
            Some(grid) => (grid.heartbeat, grid.lease_ttl),
            None => (
                self.cfg.heartbeat.unwrap_or(DEFAULT_HEARTBEAT),
                self.cfg.lease_ttl.unwrap_or(DEFAULT_LEASE_TTL),
            ),
        }
    }

    fn handle(&mut self, conn: u64, msg: Message, now: Instant) -> Reply {
        match msg {
            Message::Hello {
                seq,
                protocol,
                worker,
                threads: _,
                expect_hash,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Reply::Close(Message::Reject {
                        seq,
                        reason: format!(
                            "protocol version {protocol} not supported (daemon speaks {PROTOCOL_VERSION})"
                        ),
                    });
                }
                if let Some(hash) = expect_hash {
                    let active = self.queue.front().map(|g| g.manifest.grid_hash);
                    match active {
                        Some(actual) if actual == hash => {}
                        Some(actual) => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: format!(
                                    "manifest hash mismatch: active grid is {actual:016x}, worker pinned {hash:016x}"
                                ),
                            });
                        }
                        None => {
                            return Reply::Close(Message::Reject {
                                seq,
                                reason: "no active grid to pin a manifest hash against".to_string(),
                            });
                        }
                    }
                }
                self.workers.insert(conn, worker);
                let (heartbeat, lease_ttl) = self.tuning();
                Reply::Send(Message::HelloAck {
                    seq,
                    heartbeat_ms: heartbeat.as_millis() as u64,
                    lease_ttl_ms: lease_ttl.as_millis() as u64,
                })
            }
            Message::Claim { seq } => Reply::Send(self.claim(conn, seq, now)),
            Message::Records { grid, shard, lines } => {
                self.absorb(conn, grid, shard as usize, lines, now);
                Reply::None
            }
            Message::Heartbeat { grid, shard } => {
                if let Some(active) = self.queue.front_mut() {
                    if active.manifest.grid_hash == grid {
                        active.beat(conn, shard as usize, now);
                    }
                }
                Reply::None
            }
            Message::ShardDone {
                seq,
                grid,
                shard,
                sent,
            } => Reply::Send(self.shard_done(conn, seq, grid, shard as usize, sent)),
            Message::Release { seq, grid, shard } => {
                if let Some(active) = self.queue.front_mut() {
                    if active.manifest.grid_hash == grid {
                        active.release(conn, shard as usize);
                    }
                }
                Reply::Send(Message::ReleaseAck { seq })
            }
            Message::Submit {
                seq,
                spec,
                quick,
                seed,
            } => Reply::Send(self.submit(seq, &spec, quick, seed)),
            Message::Status { seq } => Reply::Send(Message::StatusReply {
                seq,
                queued: (self.queue.len() as u64).saturating_sub(1),
                active: self.queue.front().map(ActiveGrid::progress),
                completed: self.completed.len() as u64,
                workers: self.workers.len() as u64,
                events: faults::event_summary(),
            }),
            Message::Fetch { seq } => {
                let report = self.completed.last();
                Reply::Send(Message::FetchReply {
                    seq,
                    ready: report.is_some(),
                    report: report.map(|c| c.report.clone()).unwrap_or_default(),
                })
            }
            // Responses have no business arriving at the daemon; a stray
            // one (reordered loopback frame) is dropped.
            _ => Reply::None,
        }
    }

    fn submit(&mut self, seq: u64, spec_text: &str, quick: bool, seed: u64) -> Message {
        let parsed = match GridSpec::parse(spec_text) {
            Ok(p) => p,
            Err(e) => {
                return Message::SubmitErr {
                    seq,
                    reason: e.to_string(),
                }
            }
        };
        let resolved = match parsed.resolve(seed, quick) {
            Ok(r) => r,
            Err(e) => {
                return Message::SubmitErr {
                    seq,
                    reason: e.to_string(),
                }
            }
        };
        if resolved.sequential.is_some() {
            return Message::SubmitErr {
                seq,
                reason: "sequential stopping is not supported by the service; run the spec locally"
                    .to_string(),
            };
        }
        let job_count = resolved.spec.job_count();
        let shards = self.cfg.shards_per_grid.clamp(1, job_count.max(1));
        let manifest = GridManifest::from_spec(&resolved.spec, shards);
        let name = parsed.name.clone().unwrap_or_else(|| "grid".to_string());
        let grid_hash = manifest.grid_hash;
        let job_keys = manifest.jobs.iter().map(ManifestJob::key).collect();
        let shards = vec![ShardState::Open; manifest.shard_count];
        self.queue.push_back(ActiveGrid {
            name: name.clone(),
            manifest,
            job_keys,
            records: Vec::new(),
            failures: Vec::new(),
            settled: HashSet::new(),
            quarantined: 0,
            shards,
            received: HashMap::new(),
            lease_ttl: self.cfg.lease_ttl.unwrap_or(resolved.distrib.lease_ttl),
            heartbeat: self.cfg.heartbeat.unwrap_or(resolved.distrib.heartbeat),
        });
        Message::SubmitAck {
            seq,
            grid: grid_hash,
            name,
            jobs: job_count as u64,
        }
    }

    fn claim(&mut self, conn: u64, seq: u64, now: Instant) -> Message {
        loop {
            let Some(grid) = self.queue.front_mut() else {
                return Message::NoWork {
                    seq,
                    retry_ms: NO_WORK_RETRY_MS,
                };
            };
            // Evict leases whose worker has gone silent for a TTL so a
            // hung (but still connected) worker can't wedge the grid.  A
            // connected holder is never gone; a dropped one already
            // released its leases.
            for state in &mut grid.shards {
                if let ShardState::Leased { beat, .. } = *state {
                    let age = || now.saturating_duration_since(beat);
                    if let Some(rule) = lease_staleness(false, age, grid.lease_ttl) {
                        *state = ShardState::Open;
                        note_steal(rule);
                    }
                }
            }
            for shard in 0..grid.manifest.shard_count {
                if grid.shards[shard] != ShardState::Open {
                    continue;
                }
                let pending = ShardGrant::new(
                    grid.manifest
                        .shard_jobs(shard)
                        .into_iter()
                        .filter(|job| !grid.settled.contains(&job.key())),
                );
                if pending.jobs().is_empty() {
                    // Every job already settled (a dead worker streamed its
                    // lines before dropping): nothing left to re-run.
                    grid.shards[shard] = ShardState::Done;
                    continue;
                }
                grid.shards[shard] = ShardState::Leased { conn, beat: now };
                return Message::Grant {
                    seq,
                    grid: grid.manifest.grid_hash,
                    shard: shard as u64,
                    grant: pending,
                };
            }
            if grid.all_done() {
                // The auto-marking above may have completed the grid; try
                // to finalize and claim from the next one.
                self.try_finish_active();
                continue;
            }
            return Message::NoWork {
                seq,
                retry_ms: NO_WORK_RETRY_MS,
            };
        }
    }

    fn absorb(
        &mut self,
        conn: u64,
        grid_hash: u64,
        shard: usize,
        lines: Vec<String>,
        now: Instant,
    ) {
        let Some(grid) = self.queue.front_mut() else {
            return;
        };
        if grid.manifest.grid_hash != grid_hash {
            faults::note_event(RunEvent::ForeignRecordIgnored);
            return;
        }
        // A streaming worker is alive by definition.
        grid.beat(conn, shard, now);
        let count = grid.received.entry((conn, shard)).or_insert(0);
        for line in lines {
            match decode_line(&line) {
                Ok(DecodedLine::Record(record)) => {
                    *count += 1;
                    let key = record.key();
                    if grid.job_keys.contains(&key) {
                        if grid.settled.insert(key) {
                            grid.records.push(record);
                        }
                    } else {
                        faults::note_event(RunEvent::ForeignRecordIgnored);
                    }
                }
                Ok(DecodedLine::Failure(failure)) => {
                    *count += 1;
                    let key = failure.key();
                    if grid.job_keys.contains(&key) {
                        if grid.settled.insert(key) {
                            grid.quarantined += 1;
                            grid.failures.push(failure);
                        }
                    } else {
                        faults::note_event(RunEvent::ForeignRecordIgnored);
                    }
                }
                Err(_) => faults::note_event(RunEvent::TornLineSkipped),
            }
        }
    }

    fn shard_done(
        &mut self,
        conn: u64,
        seq: u64,
        grid_hash: u64,
        shard: usize,
        sent: u64,
    ) -> Message {
        let Some(grid) = self.queue.front_mut() else {
            // The grid already finalized (a duplicated late frame).
            return Message::DoneAck { seq };
        };
        if grid.manifest.grid_hash != grid_hash {
            return Message::DoneAck { seq };
        }
        let received = grid.received.get(&(conn, shard)).copied().unwrap_or(0);
        if received < sent {
            // Records frames were lost in flight: ask the worker to resend
            // its retained lines before the shard can complete.
            faults::note_event(RunEvent::FrameRetried);
            return Message::DoneNack { seq, received };
        }
        if shard < grid.shards.len() {
            grid.shards[shard] = ShardState::Done;
        }
        if grid.all_done() {
            self.try_finish_active();
        }
        Message::DoneAck { seq }
    }

    /// Finalize the front grid if every job is settled; otherwise reopen
    /// the shards still holding unsettled jobs so they get re-granted.
    fn try_finish_active(&mut self) {
        let Some(grid) = self.queue.front_mut() else {
            return;
        };
        let open_shards: HashSet<usize> = grid
            .manifest
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| !grid.settled.contains(&job.key()))
            .map(|(index, _)| index % grid.manifest.shard_count)
            .collect();
        if !open_shards.is_empty() {
            for shard in open_shards {
                grid.shards[shard] = ShardState::Open;
            }
            return;
        }
        let grid = self.queue.pop_front().expect("front grid exists");
        // The exact finalization of `run_distributed`, so a fetched report
        // is byte-identical to a single-process run of the same spec.
        let outcome = merge_outcome(&grid.manifest, grid.records, grid.failures);
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = grid.manifest.seeds.clone();
        report.failures = outcome.failures;
        let text =
            serde_json::to_string_pretty(&report.to_json()).expect("report JSON always renders");
        self.completed.push(CompletedGrid { report: text });
    }

    fn drop_connection(&mut self, conn: u64) {
        self.workers.remove(&conn);
        if let Some(grid) = self.queue.front_mut() {
            let mut released = 0;
            for shard in 0..grid.shards.len() {
                if grid.release(conn, shard) {
                    released += 1;
                }
            }
            if released > 0 {
                faults::note_event(RunEvent::WorkerAbnormalExit);
                for _ in 0..released {
                    note_steal(StaleRule::OwnerGone);
                }
            }
        }
    }
}

/// Serve one peer until it hangs up.  Runs the request/response loop with
/// at-most-once semantics: a retransmitted request (same non-zero `seq`)
/// gets the cached response bytes instead of being re-executed, and a
/// malformed frame is skipped (the sender retransmits on timeout) — both
/// noted as [`RunEvent::FrameRetried`].
pub fn serve_connection(link: &mut dyn FrameLink, state: &Arc<Mutex<ServiceState>>) {
    let conn = state.lock().expect("service lock").allocate_conn();
    let mut cache: Option<(u64, Vec<u8>)> = None;
    loop {
        let frame = match link.recv(Some(RECV_TICK)) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => break,
        };
        let msg = match Message::decode(&frame) {
            Ok(msg) => msg,
            Err(_) => {
                faults::note_event(RunEvent::FrameRetried);
                continue;
            }
        };
        let seq = msg.seq();
        if seq != 0 {
            if let Some((cached_seq, bytes)) = &cache {
                if *cached_seq == seq {
                    faults::note_event(RunEvent::FrameRetried);
                    if link.send(bytes).is_err() {
                        break;
                    }
                    continue;
                }
            }
        }
        let reply = state
            .lock()
            .expect("service lock")
            .handle(conn, msg, Instant::now());
        match reply {
            Reply::None => {}
            Reply::Send(response) => {
                let bytes = response.encode();
                if seq != 0 {
                    cache = Some((seq, bytes.clone()));
                }
                if link.send(&bytes).is_err() {
                    break;
                }
            }
            Reply::Close(response) => {
                let _ = link.send(&response.encode());
                break;
            }
        }
    }
    state.lock().expect("service lock").drop_connection(conn);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One scenario, three policies, one seed: a three-job grid.
    const SPEC: &str = r#"{
      "caem_grid_spec": 1,
      "name": "ttl",
      "replicates": 1,
      "duration_s": 1.0,
      "node_count": 4,
      "scenarios": [ { "label": "uniform", "rate_pps": 1.0 } ]
    }"#;

    /// Claim for `conn` at `now`: the granted shard, or `None` on no-work.
    fn claim(state: &mut ServiceState, conn: u64, now: Instant) -> Option<u64> {
        match state.handle(conn, Message::Claim { seq: 1 }, now) {
            Reply::Send(Message::Grant { shard, .. }) => Some(shard),
            Reply::Send(Message::NoWork { .. }) => None,
            _ => panic!("a claim is answered with a grant or no-work"),
        }
    }

    fn holder(state: &ServiceState) -> ShardState {
        state.queue.front().expect("active grid").shards[0]
    }

    #[test]
    fn silent_leases_expire_at_the_ttl_and_heartbeats_defer_it() {
        let ttl = Duration::from_secs(60);
        let ms = Duration::from_millis(1);
        let mut state = ServiceState::new(ServiceConfig {
            shards_per_grid: 1,
            lease_ttl: Some(ttl),
            heartbeat: None,
        });
        let t0 = Instant::now();
        let submit = Message::Submit {
            seq: 1,
            spec: SPEC.to_string(),
            quick: true,
            seed: 7,
        };
        assert!(matches!(
            state.handle(9, submit, t0),
            Reply::Send(Message::SubmitAck { .. })
        ));
        let grid = state.queue.front().expect("submitted").manifest.grid_hash;

        assert_eq!(claim(&mut state, 1, t0), Some(0));
        assert_eq!(
            claim(&mut state, 2, t0 + ttl - ms),
            None,
            "a lease one millisecond short of its TTL is honoured"
        );
        // Only the `Expired` rule evicts a worker; a lost owner does not.
        let evicted = faults::event_count(RunEvent::WorkerEvicted);
        let t1 = t0 + ttl;
        assert_eq!(
            claim(&mut state, 2, t1),
            Some(0),
            "a lease exactly one TTL old is taken over"
        );
        assert_eq!(faults::event_count(RunEvent::WorkerEvicted), evicted + 1);
        assert_eq!(holder(&state), ShardState::Leased { conn: 2, beat: t1 });

        // A heartbeat half-way through the new lease moves its expiry.
        let beat = Message::Heartbeat { grid, shard: 0 };
        assert!(matches!(state.handle(2, beat, t1 + ttl / 2), Reply::None));
        assert_eq!(
            claim(&mut state, 1, t1 + ttl),
            None,
            "the heartbeat kept the lease alive past its first expiry"
        );
        assert_eq!(claim(&mut state, 1, t1 + ttl / 2 + ttl - ms), None);
        assert_eq!(claim(&mut state, 1, t1 + ttl / 2 + ttl), Some(0));
        assert_eq!(faults::event_count(RunEvent::WorkerEvicted), evicted + 2);
    }
}
