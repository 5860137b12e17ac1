//! The experiment service: a long-lived daemon that accepts grid-spec
//! submissions and multiplexes their shards across a fleet of workers
//! attached over a pluggable transport.
//!
//! The file-based runner in [`crate::distrib`] coordinates workers through
//! a shared shard directory; this module removes that requirement.  The
//! same shard/lease semantics are spoken over length-prefixed JSON frames
//! ([`proto`]): a worker handshakes (protocol version, optional pinned
//! manifest hash), claims a shard and receives its jobs inline, heartbeats
//! while running, streams record lines back in coalesced batches, and
//! reconciles completion by count so lost frames are detected and resent.
//! Reports are finalized daemon-side through the canonical
//! [`ExperimentReport::from_records`](crate::experiment::ExperimentReport::from_records)
//! pipeline, so a fetched report is **byte-identical** to a single-process
//! [`ExperimentSpec::run`](crate::experiment::ExperimentSpec::run) of the
//! same spec.
//!
//! Transports:
//!
//! | transport | worker attach | filesystem | used by |
//! |---|---|---|---|
//! | file ([`crate::distrib`]) | shard directory | shared | `--workers N` runs |
//! | TCP socket | `--connect ADDR` | none | `caem-serve` fleets |
//! | loopback ([`LoopbackSpawner`]) | in-memory channels | none | deterministic tests |
//!
//! The loopback transport carries the *same* frames as TCP but over
//! channels, and is the only place the chaos plan's frame faults (drop,
//! duplicate, delay, truncate) are injected — the protocol's recovery
//! machinery is exercised deterministically in-process, while CI exercises
//! the real sockets with a mid-grid `kill -9`.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod transport;
pub mod worker;

pub use client::{ServiceClient, ServiceStatus, Submission};
pub use daemon::{serve_connection, ServiceConfig, ServiceState};
pub use proto::{
    GrantJob, GrantScenario, GridProgress, Message, ProtoError, ShardGrant, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use transport::{loopback_pair, FrameLink, LoopbackLink, TcpLink};
pub use worker::{run_socket_worker, SocketWorkerOptions, WorkerExit};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::distrib::{DistribError, WorkerHandle};

/// Start in-process socket workers wired to an in-process daemon over
/// loopback links — the service counterpart of
/// [`crate::distrib::ThreadSpawner`]: no listener, no sockets, fully
/// deterministic.
pub struct LoopbackSpawner {
    state: Arc<Mutex<ServiceState>>,
    stop: Arc<AtomicBool>,
}

impl LoopbackSpawner {
    /// A spawner attaching workers to the given daemon state.
    pub fn new(state: Arc<Mutex<ServiceState>>) -> Self {
        LoopbackSpawner {
            state,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Open a client connection to the daemon (for submit/status/fetch).
    pub fn connect(&self) -> LoopbackLink {
        let (client, mut served) = loopback_pair();
        let state = self.state.clone();
        std::thread::spawn(move || serve_connection(&mut served, &state));
        client
    }

    /// Ask every spawned worker to exit gracefully: finish or release the
    /// shard in hand, then hang up.
    pub fn stop_workers(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Start socket worker `index`: a daemon connection thread and a worker
    /// thread joined by a [`loopback_pair`].
    pub fn spawn_worker(&self, index: usize) -> WorkerHandle {
        let (mut link, mut served) = loopback_pair();
        let state = self.state.clone();
        std::thread::spawn(move || serve_connection(&mut served, &state));
        let mut opts = SocketWorkerOptions::new(format!("loopback_{index:03}"));
        opts.stop = self.stop.clone();
        WorkerHandle::from_thread(std::thread::spawn(move || {
            match run_socket_worker(&mut link, &opts) {
                Ok(WorkerExit::Finished(outcome)) => Ok(outcome),
                Ok(WorkerExit::Rejected(reason)) => Err(DistribError::Format(format!(
                    "worker {index} rejected by daemon: {reason}"
                ))),
                Err(e) => Err(DistribError::Format(format!(
                    "worker {index} transport failure: {e}"
                ))),
            }
        }))
    }
}
