//! The socket-transport worker loop: handshake, claim, run, stream,
//! reconcile — the service counterpart of [`crate::distrib::run_worker`].
//!
//! A socket worker needs no shared filesystem: it receives each granted
//! shard's jobs inline with the grant — each scenario's config once, the
//! jobs as coordinates — rebuilds them, runs them through the same
//! retry/quarantine path as a file worker, and streams each job's store
//! line back as the job settles, in [`Message::Records`] batches coalesced
//! up to 64 KiB and flushed at least once per heartbeat.  A Records frame
//! keeps the lease alive; a heartbeat tick with nothing to flush sends a
//! bare [`Message::Heartbeat`] instead.  Shard completion is reconciled by
//! count: if the daemon decoded fewer lines than the worker sent (frames
//! lost to faults), the worker resends every retained line and asks again.
//!
//! **Graceful shutdown** mirrors the file worker: once the worker's stop
//! flag (or the process-wide [`shutdown_requested`]) is raised, unstarted
//! jobs are skipped, buffered lines are flushed, the unfinished shard is
//! released back to the daemon — instantly re-claimable, no TTL wait — and
//! the loop returns cleanly.  The daemon closing the connection is also a
//! clean exit, so draining a fleet is as simple as stopping the daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::distrib::{run_job_guarded, shutdown_requested, ManifestJob, WorkerOutcome};
use crate::persist::{encode_failure_line, encode_line};

use super::proto::{Message, ProtoError, PROTOCOL_VERSION};
use super::transport::{request, FrameLink};

/// Coalesce streamed record lines into frames of at most this many bytes:
/// large enough to amortize per-frame overhead, small enough that a lost
/// frame costs little to resend.
const GATHER_BYTES: usize = 64 * 1024;

/// Cap on ShardDone→DoneNack resend rounds before giving up on a link.
const MAX_DONE_ROUNDS: usize = 10;

/// Tuning and identity of one socket worker.
#[derive(Debug, Clone)]
pub struct SocketWorkerOptions {
    /// Display label reported in the handshake.
    pub label: String,
    /// Protocol version to claim (overridable so version-skew rejection is
    /// testable; defaults to [`PROTOCOL_VERSION`]).
    pub protocol: u64,
    /// Refuse to work unless the daemon's active grid has this manifest
    /// hash.
    pub expect_hash: Option<u64>,
    /// Attempts per job before quarantine (the file worker's default is 2).
    pub job_attempts: u32,
    /// Wall-clock budget per job attempt.
    pub job_wall_budget: Option<Duration>,
    /// Worker-local graceful-stop flag: raised by the embedding test or
    /// signal handler; checked between jobs alongside the process-wide
    /// [`shutdown_requested`].
    pub stop: Arc<AtomicBool>,
}

impl SocketWorkerOptions {
    /// Defaults for a worker labelled `label`.
    pub fn new(label: impl Into<String>) -> Self {
        SocketWorkerOptions {
            label: label.into(),
            protocol: PROTOCOL_VERSION,
            expect_hash: None,
            job_attempts: 2,
            job_wall_budget: None,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// How a socket worker's run ended.
#[derive(Debug)]
pub enum WorkerExit {
    /// Clean exit (work drained, stop requested, or daemon hung up).
    Finished(WorkerOutcome),
    /// The daemon refused the handshake; the reason should reach stderr
    /// and the process should exit 2.
    Rejected(String),
}

/// What one granted shard's execution produced.
struct ShardRun {
    /// Every encoded line, retained for DoneNack resends.
    lines: Vec<String>,
    records: usize,
    quarantined: usize,
    /// All granted jobs settled (false when a stop skipped some).
    complete: bool,
}

/// Run the worker loop over `link` until the work (or the daemon) goes
/// away.  Transport failures surface as [`ProtoError`]; a peer hang-up is
/// **not** an error — it resolves to [`WorkerExit::Finished`].
pub fn run_socket_worker(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
) -> Result<WorkerExit, ProtoError> {
    let mut seq: u64 = 1;
    let hello = Message::Hello {
        seq,
        protocol: opts.protocol,
        worker: opts.label.clone(),
        threads: rayon::process_thread_cap() as u64,
        expect_hash: opts.expect_hash,
    };
    let heartbeat = match request(link, &hello, "hello") {
        Ok(Message::HelloAck { heartbeat_ms, .. }) => Duration::from_millis(heartbeat_ms.max(1)),
        Ok(Message::Reject { reason, .. }) => return Ok(WorkerExit::Rejected(reason)),
        Ok(other) => {
            return Err(ProtoError::Malformed(format!(
                "unexpected {} in response to hello",
                other.kind()
            )))
        }
        Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(WorkerOutcome::default())),
        Err(e) => return Err(e),
    };
    let stopping = || opts.stop.load(Ordering::Relaxed) || shutdown_requested();
    let mut outcome = WorkerOutcome::default();
    loop {
        if stopping() {
            return Ok(WorkerExit::Finished(outcome));
        }
        seq += 1;
        let grant = match request(link, &Message::Claim { seq }, "claim") {
            Ok(msg) => msg,
            Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Err(e) => return Err(e),
        };
        let (grid, shard, jobs) = match grant {
            Message::Grant {
                grid, shard, grant, ..
            } => (grid, shard, grant.rebuild()?),
            Message::NoWork { retry_ms, .. } => {
                // Sleep in short slices so a stop request is honoured
                // promptly even under a long retry hint.
                let mut left = retry_ms.clamp(10, 1_000);
                while left > 0 && !stopping() {
                    let slice = left.min(20);
                    std::thread::sleep(Duration::from_millis(slice));
                    left -= slice;
                }
                continue;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected {} in response to claim",
                    other.kind()
                )))
            }
        };
        let run = match run_shard(link, opts, grid, shard, &jobs, heartbeat) {
            Ok(run) => run,
            Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
            Err(e) => return Err(e),
        };
        outcome.jobs_run += run.records;
        outcome.jobs_quarantined += run.quarantined;
        if run.complete {
            match settle_shard(link, &mut seq, grid, shard, &run) {
                Ok(()) => outcome.shards_completed += 1,
                Err(ProtoError::Closed) => return Ok(WorkerExit::Finished(outcome)),
                Err(e) => return Err(e),
            }
        } else {
            // Stop requested mid-shard: hand the lease back so another
            // worker re-claims it without waiting out the TTL.
            seq += 1;
            match request(link, &Message::Release { seq, grid, shard }, "release") {
                Ok(_) | Err(ProtoError::Closed) => {}
                Err(e) => return Err(e),
            }
            return Ok(WorkerExit::Finished(outcome));
        }
    }
}

/// Lines the shard's fan-out has settled and the link thread has not sent.
#[derive(Default)]
struct Outbox {
    batch: Vec<String>,
    bytes: usize,
    /// The fan-out has ended; nothing more will arrive.
    finished: bool,
}

/// Run one granted shard: rayon fan-out in a scoped thread, each job
/// putting its encoded line in the outbox the moment it settles.  This
/// thread owns the link: it sends the outbox as a [`Message::Records`]
/// frame once it holds [`GATHER_BYTES`], and on every heartbeat tick — a
/// Records frame is a beat — or a bare [`Message::Heartbeat`] when the
/// outbox is empty.  Jobs wake this thread only when a frame fills, not
/// once per line.
fn run_shard(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
    grid: u64,
    shard: u64,
    jobs: &[ManifestJob],
    heartbeat: Duration,
) -> Result<ShardRun, ProtoError> {
    let outbox = Mutex::new(Outbox::default());
    let filled = Condvar::new();
    let mut lines: Vec<String> = Vec::new();
    let mut records = 0usize;
    let mut quarantined = 0usize;
    let mut complete = true;
    let mut link_error: Option<ProtoError> = None;
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let settled: Vec<Option<bool>> = jobs
                .par_iter()
                .map(|job| {
                    if opts.stop.load(Ordering::Relaxed) || shutdown_requested() {
                        return None;
                    }
                    let settled = run_job_guarded(job, opts.job_attempts, opts.job_wall_budget);
                    let encoded = match &settled {
                        Ok(record) => encode_line(record),
                        Err(failure) => encode_failure_line(failure),
                    };
                    if let Ok(bytes) = encoded {
                        let mut text = String::from_utf8(bytes).expect("store lines are UTF-8");
                        if text.ends_with('\n') {
                            text.pop();
                        }
                        let mut out = outbox.lock().expect("outbox holders never panic");
                        out.bytes += text.len();
                        out.batch.push(text);
                        if out.bytes >= GATHER_BYTES {
                            filled.notify_one();
                        }
                    }
                    Some(settled.is_ok())
                })
                .collect();
            outbox.lock().expect("outbox holders never panic").finished = true;
            filled.notify_one();
            settled
        });
        let mut next_beat = Instant::now() + heartbeat;
        loop {
            let (mut batch, finished) = {
                let out = outbox.lock().expect("outbox holders never panic");
                let wait = next_beat.saturating_duration_since(Instant::now());
                let (mut out, _) = filled
                    .wait_timeout_while(out, wait, |o| o.bytes < GATHER_BYTES && !o.finished)
                    .expect("outbox holders never panic");
                out.bytes = 0;
                (std::mem::take(&mut out.batch), out.finished)
            };
            lines.extend(batch.iter().cloned());
            let sent = match (batch.is_empty(), finished) {
                (true, true) => break,
                (true, false) => link.send(&Message::Heartbeat { grid, shard }.encode()),
                (false, _) => flush_batch(link, grid, shard, &mut batch),
            };
            if let Err(e) = sent {
                link_error = Some(e);
                opts.stop.store(true, Ordering::Relaxed);
                break;
            }
            if finished {
                break;
            }
            next_beat = Instant::now() + heartbeat;
        }
        let results = runner.join().expect("shard runner thread never panics");
        for settled in results {
            match settled {
                Some(true) => records += 1,
                Some(false) => quarantined += 1,
                None => complete = false,
            }
        }
    });
    if let Some(e) = link_error {
        return Err(e);
    }
    Ok(ShardRun {
        lines,
        records,
        quarantined,
        complete,
    })
}

/// Send one coalesced Records frame (no-op on an empty batch).
fn flush_batch(
    link: &mut dyn FrameLink,
    grid: u64,
    shard: u64,
    batch: &mut Vec<String>,
) -> Result<(), ProtoError> {
    if batch.is_empty() {
        return Ok(());
    }
    let msg = Message::Records {
        grid,
        shard,
        lines: std::mem::take(batch),
    };
    link.send(&msg.encode())
}

/// Reconcile shard completion: declare the sent-line count, and on a
/// [`Message::DoneNack`] resend every retained line before asking again.
fn settle_shard(
    link: &mut dyn FrameLink,
    seq: &mut u64,
    grid: u64,
    shard: u64,
    run: &ShardRun,
) -> Result<(), ProtoError> {
    for _ in 0..MAX_DONE_ROUNDS {
        *seq += 1;
        let done = Message::ShardDone {
            seq: *seq,
            grid,
            shard,
            sent: run.lines.len() as u64,
        };
        match request(link, &done, "shard_done")? {
            Message::DoneAck { .. } => return Ok(()),
            Message::DoneNack { .. } => {
                let mut batch: Vec<String> = Vec::new();
                let mut batch_bytes = 0usize;
                for line in &run.lines {
                    batch_bytes += line.len();
                    batch.push(line.clone());
                    if batch_bytes >= GATHER_BYTES {
                        flush_batch(link, grid, shard, &mut batch)?;
                        batch_bytes = 0;
                    }
                }
                flush_batch(link, grid, shard, &mut batch)?;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected {} in response to shard_done",
                    other.kind()
                )))
            }
        }
    }
    Err(ProtoError::NoResponse("shard_done"))
}
