//! The socket-transport worker loop: handshake, claim, run, stream,
//! reconcile — the service counterpart of [`crate::distrib::run_worker`].
//!
//! A socket worker needs no shared filesystem: it receives each granted
//! shard's jobs inline with the grant — each scenario's config once, the
//! jobs as coordinates — rebuilds them, runs them through the same
//! [`run_job_guarded`] retry/quarantine path as a file worker, and streams
//! the resulting store lines back in [`Message::Records`] batches coalesced
//! up to 64 KiB.  While the shard's rayon fan-out is running, the
//! connection thread keeps the lease alive with [`Message::Heartbeat`]
//! frames.  Shard completion is reconciled by count:
//! if the daemon decoded fewer lines than the worker sent (frames lost to
//! faults), the worker resends every retained line and asks again.
//!
//! **Graceful shutdown** mirrors the file worker: once the worker's stop
//! flag (or the process-wide [`shutdown_requested`]) is raised, unstarted
//! jobs are skipped, buffered lines are flushed, the unfinished shard is
//! released back to the daemon — instantly re-claimable, no TTL wait — and
//! the loop returns cleanly.  The daemon closing the connection is also a
//! clean exit, so draining a fleet is as simple as stopping the daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use rayon::prelude::*;

use crate::distrib::{run_job_guarded, shutdown_requested, ManifestJob, WorkerOutcome};
use crate::persist::{encode_failure_line, encode_line, JobFailure, JobRecord};

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

/// Run one granted shard: rayon fan-out in a scoped thread, with this
/// thread streaming coalesced record batches and heartbeats over the link.
fn run_shard(
    link: &mut dyn FrameLink,
    opts: &SocketWorkerOptions,
    grid: u64,
    shard: u64,
    jobs: &[ManifestJob],
    heartbeat: Duration,
) -> Result<ShardRun, ProtoError> {
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let stop = opts.stop.clone();
    let attempts = opts.job_attempts;
    let budget = opts.job_wall_budget;
    let mut lines: Vec<String> = Vec::new();
    let mut records = 0usize;
    let mut quarantined = 0usize;
    let mut complete = true;
    let mut link_error: Option<ProtoError> = None;
    std::thread::scope(|scope| {
        let runner = scope.spawn(move || {
            let results: Vec<Option<Result<JobRecord, JobFailure>>> = jobs
                .par_iter()
                .map(|job| {
                    if stop.load(Ordering::Relaxed) || shutdown_requested() {
                        return None;
                    }
                    Some(run_job_guarded(job, attempts, budget))
                })
                .collect();
            for settled in results.iter().flatten() {
                let encoded = match settled {
                    Ok(record) => encode_line(record),
                    Err(failure) => encode_failure_line(failure),
                };
                if let Ok(bytes) = encoded {
                    let mut text = String::from_utf8(bytes).expect("store lines are UTF-8");
                    if text.ends_with('\n') {
                        text.pop();
                    }
                    // A send failure means the streamer bailed on a dead
                    // link; the results still count for the return value.
                    let _ = line_tx.send(text);
                }
            }
            drop(line_tx);
            results
        });
        // This thread owns the link: coalesce lines into Records frames
        // and keep the lease alive while the fan-out runs.
        let mut batch: Vec<String> = Vec::new();
        let mut batch_bytes = 0usize;
        loop {
            match line_rx.recv_timeout(heartbeat) {
                Ok(line) => {
                    batch_bytes += line.len();
                    lines.push(line.clone());
                    batch.push(line);
                    if batch_bytes >= GATHER_BYTES {
                        if let Err(e) = flush_batch(link, grid, shard, &mut batch) {
                            link_error = Some(e);
                            opts.stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        batch_bytes = 0;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let beat = Message::Heartbeat { grid, shard };
                    if let Err(e) = link.send(&beat.encode()) {
                        link_error = Some(e);
                        opts.stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if let Err(e) = flush_batch(link, grid, shard, &mut batch) {
                        link_error = Some(e);
                    }
                    break;
                }
            }
        }
        let results = runner.join().expect("shard runner thread never panics");
        for settled in &results {
            match settled {
                Some(Ok(_)) => records += 1,
                Some(Err(_)) => quarantined += 1,
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
