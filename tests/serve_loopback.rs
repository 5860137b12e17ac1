//! End-to-end contracts of the experiment service over the deterministic
//! loopback transport: the daemon, the socket-worker protocol and the
//! client commands, with no listener and no filesystem.
//!
//! The headline property mirrors the distributed runner's: **the service
//! topology is unobservable in the results**.  A grid submitted to the
//! daemon and completed by N loopback workers — cleanly, under injected
//! frame faults (drop / duplicate / delay / truncate), or with a worker
//! dying mid-shard after streaming a partial batch — must fetch a report
//! **byte-identical** to a single-process `ExperimentSpec::run` of the
//! same resolved spec.
//!
//! The fault plan and the recovery-event counters are process-global, so
//! the tests serialize themselves on one mutex (the same reason
//! `tests/chaos.rs` is phase-structured).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use caem_suite::wsnsim::faults::{self, FaultKind, FaultPlanConfig, FaultRole, RunEvent};
use caem_suite::wsnsim::serve::{
    loopback_pair, run_socket_worker, serve_connection, FrameLink, LoopbackLink, LoopbackSpawner,
    Message, ProtoError, ServiceClient, ServiceConfig, ServiceState, SocketWorkerOptions,
    WorkerExit, PROTOCOL_VERSION,
};
use caem_suite::wsnsim::spec::GridSpec;

/// A small but non-degenerate grid: two deployment shapes × the paper's
/// three policies × two seeds = 12 jobs, short horizon, few nodes.
const SPEC_DOC: &str = r#"{
  "caem_grid_spec": 1,
  "name": "serve_loopback",
  "replicates": 2,
  "duration_s": 10.0,
  "node_count": 12,
  "scenarios": [
    { "label": "uniform_8pps", "rate_pps": 8.0 },
    {
      "label": "corridor_8pps",
      "rate_pps": 8.0,
      "topology": { "corridor": { "width_fraction": 0.3 } }
    }
  ]
}"#;

const SEED: u64 = 9_001;

/// Process-global state (fault plan, event counters, shutdown flag) is
/// shared by every test in this binary; take the guard first.
fn exclusive() -> MutexGuard<'static, ()> {
    static GLOBAL: Mutex<()> = Mutex::new(());
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_plan();
    faults::reset_events();
    guard
}

/// The canonical single-process report of [`SPEC_DOC`], rendered exactly
/// as the daemon renders a fetched report.
fn expected_bytes() -> String {
    expected_bytes_of(SPEC_DOC)
}

/// The canonical single-process report of a grid-spec document.
fn expected_bytes_of(doc: &str) -> String {
    let resolved = GridSpec::parse(doc)
        .expect("spec parses")
        .resolve(SEED, true)
        .expect("spec resolves");
    let report = resolved.spec.run();
    serde_json::to_string_pretty(&report.to_json()).expect("report renders")
}

/// Submit [`SPEC_DOC`], complete it with `workers` loopback workers and
/// return the fetched report text.
fn run_fleet(state: &std::sync::Arc<Mutex<ServiceState>>, workers: usize) -> String {
    let spawner = LoopbackSpawner::new(state.clone());
    let mut link = spawner.connect();
    let mut client = ServiceClient::new(&mut link);
    let sub = client
        .submit(SPEC_DOC, true, SEED)
        .expect("daemon accepts the spec");
    assert_eq!(sub.name, "serve_loopback");
    assert_eq!(sub.jobs, 12);

    let handles: Vec<_> = (0..workers).map(|i| spawner.spawn_worker(i)).collect();

    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("grid completes");

    // Graceful fleet shutdown: every worker releases or finishes and
    // joins cleanly.
    spawner.stop_workers();
    for handle in handles {
        handle.join().expect("worker exits cleanly");
    }

    let status = client.status().expect("status");
    assert_eq!(status.completed, 1, "one grid completed");
    assert!(status.active.is_none(), "nothing left active");
    report
}

/// Send a request over a raw link and wait for its seq-matched response
/// (test-side mini client for driving the protocol by hand).
fn rpc(link: &mut LoopbackLink, msg: &Message) -> Message {
    link.send(&msg.encode()).expect("send");
    loop {
        let frame = link
            .recv(Some(Duration::from_secs(10)))
            .expect("recv")
            .expect("response before timeout");
        let reply = Message::decode(&frame).expect("well-formed response");
        if reply.seq() == msg.seq() {
            return reply;
        }
    }
}

fn hello(seq: u64, worker: &str) -> Message {
    Message::Hello {
        seq,
        protocol: PROTOCOL_VERSION,
        worker: worker.to_string(),
        threads: 1,
        expect_hash: None,
    }
}

#[test]
fn fleet_reports_are_byte_identical_clean_under_frame_faults_and_after_a_death() {
    let _guard = exclusive();
    let expected = expected_bytes();

    // Phase 1 — clean: three workers, four shards.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 4,
        ..ServiceConfig::default()
    });
    assert_eq!(run_fleet(&state, 3), expected, "clean fleet equals run()");

    // Phase 2 — frame faults on every loopback link: dropped, duplicated,
    // delayed and truncated frames must all be absorbed by the protocol's
    // retransmission and count-reconciliation machinery.
    faults::install_plan(
        FaultPlanConfig {
            seed: 23,
            kinds: vec![FaultKind::Torn, FaultKind::Transient, FaultKind::Delay],
        },
        FaultRole::Coordinator,
    );
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 4,
        ..ServiceConfig::default()
    });
    assert_eq!(run_fleet(&state, 3), expected, "faulted fleet equals run()");
    assert!(
        faults::event_count(RunEvent::FaultInjected) > 0,
        "the chaos plan actually fired"
    );
    faults::clear_plan();

    // Phase 3 — a worker dies mid-shard: it claims a shard, streams the
    // record of its first job, then vanishes without ShardDone or Release.
    // The daemon must evict it on disconnect, re-grant only the still
    // unsettled jobs, and the surviving fleet must finish byte-identically.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    let mut dying = spawner.connect();
    assert!(matches!(
        rpc(&mut dying, &hello(1, "doomed")),
        Message::HelloAck { .. }
    ));
    let (grid, shard, jobs) = match rpc(&mut dying, &Message::Claim { seq: 2 }) {
        Message::Grant {
            grid, shard, grant, ..
        } => (grid, shard, grant.rebuild().expect("grant rebuilds")),
        other => panic!("expected a grant, got {other:?}"),
    };
    assert!(!jobs.is_empty());
    let first = jobs[0].run();
    let line = serde_json::to_string(&first).expect("record serializes");
    dying
        .send(
            &Message::Records {
                grid,
                shard,
                lines: vec![line],
            }
            .encode(),
        )
        .expect("partial batch lands");
    drop(dying); // mid-shard death: no ShardDone, no Release

    assert_eq!(run_fleet_into(&spawner, &mut client, 2), expected);
}

/// Finish an already-submitted grid with `workers` workers on an existing
/// spawner/client pair (phase-3 helper: the submission happened earlier).
fn run_fleet_into(
    spawner: &LoopbackSpawner,
    client: &mut ServiceClient<'_>,
    workers: usize,
) -> String {
    let handles: Vec<_> = (0..workers).map(|i| spawner.spawn_worker(i)).collect();
    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("grid completes");
    spawner.stop_workers();
    for handle in handles {
        handle.join().expect("worker exits cleanly");
    }
    report
}

#[test]
fn handshakes_reject_version_skew_and_manifest_hash_mismatch() {
    let _guard = exclusive();
    let state = ServiceState::shared(ServiceConfig::default());
    let spawner = LoopbackSpawner::new(state.clone());

    let run_worker_with = |opts: SocketWorkerOptions| {
        let (mut wlink, mut served) = loopback_pair();
        let state = state.clone();
        let server = std::thread::spawn(move || serve_connection(&mut served, &state));
        let exit = run_socket_worker(&mut wlink, &opts).expect("transport survives");
        drop(wlink);
        server.join().expect("server thread");
        exit
    };

    // Version skew, including a worker of the previous protocol version
    // (whose grants carried every job's config).
    for protocol in [1, 99] {
        let mut opts = SocketWorkerOptions::new("skewed".to_string());
        opts.protocol = protocol;
        match run_worker_with(opts) {
            WorkerExit::Rejected(reason) => {
                assert!(
                    reason.contains(&format!("protocol version {protocol}")),
                    "reason names the skew: {reason}"
                )
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    // A pinned hash with no active grid to check it against.
    let mut opts = SocketWorkerOptions::new("early".to_string());
    opts.expect_hash = Some(42);
    match run_worker_with(opts) {
        WorkerExit::Rejected(reason) => {
            assert!(reason.contains("no active grid"), "got: {reason}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // A pinned hash that contradicts the active grid's manifest.
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    let sub = client.submit(SPEC_DOC, true, SEED).expect("accepted");
    let mut opts = SocketWorkerOptions::new("mismatched".to_string());
    opts.expect_hash = Some(sub.grid_hash ^ 1);
    match run_worker_with(opts) {
        WorkerExit::Rejected(reason) => {
            assert!(
                reason.contains("hash"),
                "reason names the mismatch: {reason}"
            )
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // And the matching pin is accepted: the worker runs the whole grid.
    let mut opts = SocketWorkerOptions::new("pinned".to_string());
    opts.expect_hash = Some(sub.grid_hash);
    let stop = opts.stop.clone();
    let (mut wlink, mut served) = loopback_pair();
    let state2 = state.clone();
    std::thread::spawn(move || serve_connection(&mut served, &state2));
    let worker = std::thread::spawn(move || run_socket_worker(&mut wlink, &opts));
    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("pinned worker completes the grid");
    assert_eq!(report, expected_bytes());
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    match worker.join().expect("worker thread") {
        Ok(WorkerExit::Finished(outcome)) => assert!(outcome.jobs_run > 0),
        other => panic!("expected a finished worker, got {other:?}"),
    }
}

#[test]
fn released_shards_are_reclaimable_immediately_without_ttl_wait() {
    let _guard = exclusive();
    // A lease TTL no test could sit out: if re-claiming depended on
    // expiry, the second claim below would see NoWork, not a grant.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        lease_ttl: Some(Duration::from_secs(3600)),
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    // Worker A claims a shard, then gracefully hands it back untouched.
    let mut a = spawner.connect();
    assert!(matches!(
        rpc(&mut a, &hello(1, "a")),
        Message::HelloAck { .. }
    ));
    let (grid, shard) = match rpc(&mut a, &Message::Claim { seq: 2 }) {
        Message::Grant { grid, shard, .. } => (grid, shard),
        other => panic!("expected a grant, got {other:?}"),
    };
    assert!(matches!(
        rpc(
            &mut a,
            &Message::Release {
                seq: 3,
                grid,
                shard
            }
        ),
        Message::ReleaseAck { .. }
    ));

    // Worker B claims twice and must be granted *both* shards — including
    // the one A just released — long before any TTL could expire.
    let start = Instant::now();
    let mut b = spawner.connect();
    assert!(matches!(
        rpc(&mut b, &hello(1, "b")),
        Message::HelloAck { .. }
    ));
    let mut shards = Vec::new();
    for seq in [2, 3] {
        match rpc(&mut b, &Message::Claim { seq }) {
            Message::Grant { shard, .. } => shards.push(shard),
            other => panic!("expected a grant, got {other:?}"),
        }
    }
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1], "both shards grantable, no TTL wait");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "re-claim happened immediately"
    );
}

/// One scenario × three policies × twelve seeds: more jobs than any
/// test host runs at once, so a worker stopped after its first record
/// frame leaves most of its shard unrun.
const STREAM_DOC: &str = r#"{
  "caem_grid_spec": 1,
  "name": "serve_streaming",
  "replicates": 12,
  "duration_s": 100.0,
  "node_count": 12,
  "scenarios": [ { "label": "uniform_8pps", "rate_pps": 8.0 } ]
}"#;

/// A worker's link that raises the worker's stop flag as it sends its
/// first `records` frame.
struct StopOnFirstRecords {
    inner: LoopbackLink,
    stop: Arc<AtomicBool>,
}

impl FrameLink for StopOnFirstRecords {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        if let Ok(Message::Records { .. }) = Message::decode(payload) {
            self.stop.store(true, Ordering::Relaxed);
        }
        self.inner.send(payload)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        self.inner.recv(timeout)
    }
}

#[test]
fn socket_workers_stream_records_while_their_shard_runs() {
    let _guard = exclusive();
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 1,
        heartbeat: Some(Duration::from_millis(1)),
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    let jobs = client
        .submit(STREAM_DOC, true, SEED)
        .expect("accepted")
        .jobs;

    // The first worker is stopped as its first record frame leaves: every
    // job it had not started is skipped and the shard is released.
    let opts = SocketWorkerOptions::new("stopped".to_string());
    let (link, mut served) = loopback_pair();
    let mut link = StopOnFirstRecords {
        inner: link,
        stop: opts.stop.clone(),
    };
    let server_state = state.clone();
    std::thread::spawn(move || serve_connection(&mut served, &server_state));
    match run_socket_worker(&mut link, &opts) {
        Ok(WorkerExit::Finished(outcome)) => assert_eq!(outcome.shards_completed, 0),
        other => panic!("expected a finished worker, got {other:?}"),
    }
    let settled = client
        .status()
        .expect("status")
        .active
        .expect("grid still active")
        .settled;
    assert!(
        settled > 0 && settled < jobs,
        "the daemon holds the lines streamed before the stop ({settled} of {jobs} settled)"
    );

    // A second worker runs only what is left and the report is unchanged.
    assert_eq!(
        run_fleet_into(&spawner, &mut client, 1),
        expected_bytes_of(STREAM_DOC)
    );
}
