//! Contract tests for the multi-process distributed experiment runner.
//!
//! The distribution layer promises exactly one thing on top of the engine:
//! **the execution topology is unobservable in the results**.  One worker,
//! N workers, workers killed mid-grid, a coordinator killed and restarted,
//! shards stolen off stale leases, worker stores merged in any discovery
//! order — every path must reproduce the single-process
//! [`ExperimentSpec::run`] report bit for bit.  These tests drive the real
//! claim protocol (the same lease files and steals worker processes use)
//! through in-process worker threads, which share the filesystem bus with
//! the `--worker-shard` binary mode exercised by the CI smoke job.

use std::path::PathBuf;
use std::time::{Duration as StdDuration, Instant};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::distrib::{
    collect_grid_outcome, merge_grid_report, run_sequential_distributed, run_worker, DistribError,
    DistribOptions, GridManifest, ShardLayout, ThreadSpawner, WorkerConfig, DEFAULT_LEASE_TTL,
};
use caem_suite::wsnsim::experiment::{
    ExperimentReport, ExperimentSpec, ScenarioSpec, SequentialStopping,
};
use caem_suite::wsnsim::persist::ExperimentStore;
use caem_suite::wsnsim::sweep::load_sweep_spec;
use caem_suite::wsnsim::{ScenarioConfig, Topology};

fn temp_grid(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("caem_distrib_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    path
}

/// The report serialized to canonical JSON text: string equality is
/// bit-level equality of every aggregated float.
fn report_bits(report: &ExperimentReport) -> String {
    serde_json::to_string(&report.to_json()).expect("report serializes")
}

fn base(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small(PolicyKind::PureLeach, 8.0, seed).with_duration(Duration::from_secs(10))
}

/// A diverse little grid (18 jobs): two deployment shapes plus the diurnal
/// traffic axis, three policies, two seeds.
fn diverse_spec() -> ExperimentSpec {
    ExperimentSpec::paper_policies(
        vec![
            ScenarioSpec::new("uniform", base(0)),
            ScenarioSpec::new(
                "corridor",
                base(0).with_topology(Topology::Corridor {
                    width_fraction: 0.3,
                }),
            ),
            ScenarioSpec::new("diurnal", base(0).with_diurnal_traffic(7.0, 0.8)),
        ],
        7_300,
        2,
    )
}

fn opts(workers: usize) -> DistribOptions {
    DistribOptions {
        shards_per_worker: 2,
        ..DistribOptions::new(workers)
    }
}

#[test]
fn n_worker_and_single_worker_reports_are_bit_identical_to_run() {
    let spec = diverse_spec();
    let single_process = spec.run();

    for workers in [1, 3] {
        let dir = temp_grid(&format!("identical_{workers}"));
        let report = spec
            .run_distributed(&dir, &opts(workers), &ThreadSpawner::default())
            .expect("distributed run succeeds");
        assert_eq!(
            report, single_process,
            "{workers}-worker report equals ExperimentSpec::run"
        );
        assert_eq!(report_bits(&report), report_bits(&single_process));

        // Every shard is done, and the offline merge of the directory alone
        // reproduces the same cells (its seeds are recovered from records).
        let layout = ShardLayout::new(&dir);
        let manifest = GridManifest::load(&layout).expect("manifest exists");
        assert!(layout.all_done(manifest.shard_count));
        let offline = merge_grid_report(&dir).expect("offline merge");
        assert_eq!(offline.cells, single_process.cells);
        assert_eq!(offline.job_count, spec.job_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn killed_workers_and_coordinator_restart_still_reproduce_the_report() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let dir = temp_grid("kill_restart");

    // Phase 1 — a "crashed" first attempt: every worker dies after one
    // shard, and we model the coordinator dying with them (no inline
    // completion, no merge): the directory is left with done markers for
    // only some shards and leases for nothing (workers exited cleanly after
    // their first shard) — plus one shard we sabotage below.
    let layout = ShardLayout::new(&dir);
    layout.create_dirs().expect("create layout");
    let manifest = GridManifest::from_spec(&spec, 6);
    manifest.write(&layout).expect("write manifest");
    for index in 0..2 {
        let cfg = WorkerConfig {
            max_shards: Some(1),
            ..WorkerConfig::new(
                &dir,
                layout.worker_store_path(&format!("{index:03}")),
                format!("doomed_{index}"),
            )
        };
        let outcome = run_worker(&cfg).expect("partial worker");
        assert_eq!(outcome.shards_completed, 1, "died after one shard");
    }
    assert_eq!(layout.done_count(manifest.shard_count), 2);

    // Sabotage: pretend worker 000 was killed *mid-shard* on shard 2 — a
    // claimed lease from a dead process and no done marker.
    std::fs::write(
        layout.lease_path(2),
        "{\"worker\":\"doomed_000\",\"pid\":4294967294}",
    )
    .expect("forge dead lease");

    // Phase 2 — the coordinator restarts on the same directory (resume
    // semantics: fresh = false).  It must steal the dead lease, finish the
    // remaining shards and merge to the single-process report.  The steal
    // must come from the dead-owner check: waiting out the lease TTL would
    // also finish the grid, but only after a full TTL.
    let restarted = Instant::now();
    let report = spec
        .run_distributed(&dir, &opts(2), &ThreadSpawner::default())
        .expect("restarted run succeeds");
    assert!(
        restarted.elapsed() < DEFAULT_LEASE_TTL / 4,
        "the dead lease was only released by its TTL ({:?})",
        restarted.elapsed()
    );
    assert_eq!(report, single_process);
    assert_eq!(report_bits(&report), report_bits(&single_process));
    assert!(layout.all_done(manifest.shard_count));

    // The phase-1 records were reused, not recomputed: a worker resuming
    // its own store skips every job that is already on disk.
    let resumed = WorkerConfig::new(&dir, layout.worker_store_path("000"), "doomed_000_reborn");
    let outcome = run_worker(&resumed).expect("re-run worker");
    assert_eq!(outcome.jobs_run, 0, "nothing left to simulate");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_lease_is_stolen_and_the_shard_completes() {
    let spec = diverse_spec();
    let dir = temp_grid("stale_steal");
    let layout = ShardLayout::new(&dir);
    layout.create_dirs().expect("create layout");
    GridManifest::from_spec(&spec, 4)
        .write(&layout)
        .expect("write manifest");

    // Shard 0: leased by a verifiably dead process (fresh mtime).
    std::fs::write(
        layout.lease_path(0),
        "{\"worker\":\"ghost\",\"pid\":4294967294,\"pid_start\":null}",
    )
    .expect("forge ghost lease");
    // Shard 1: leased by *this* process (pid alive), so only the TTL can
    // release it.
    std::fs::write(
        layout.lease_path(1),
        format!(
            "{{\"worker\":\"hung_thread\",\"pid\":{},\"pid_start\":null}}",
            std::process::id()
        ),
    )
    .expect("forge hung lease");

    // A worker with a long TTL steals the dead-pid lease immediately but
    // must respect the live one.
    let mut cfg = WorkerConfig::new(&dir, layout.worker_store_path("stealer"), "stealer");
    cfg.lease_ttl = StdDuration::from_secs(3600);
    run_worker(&cfg).expect("worker run");
    assert!(layout.done_path(0).exists(), "dead-pid shard was stolen");
    assert!(
        !layout.done_path(1).exists(),
        "live lease within TTL is honoured"
    );

    // Once the TTL lapses the hung shard is stolen too.
    std::thread::sleep(StdDuration::from_millis(30));
    cfg.lease_ttl = StdDuration::from_millis(10);
    run_worker(&cfg).expect("worker re-run");
    assert!(layout.done_path(1).exists(), "expired lease was stolen");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_is_invariant_under_shuffled_store_discovery_order() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let dir = temp_grid("shuffle");
    spec.run_distributed(&dir, &opts(3), &ThreadSpawner::default())
        .expect("distributed run");

    let layout = ShardLayout::new(&dir);
    let manifest = GridManifest::load(&layout).expect("manifest");
    let mut stores = layout.discover_worker_stores().expect("stores");
    assert!(stores.len() >= 2, "several workers contributed");
    // Duplicate one store under another name: stolen shards legitimately
    // leave the same records in two files.
    let dup = layout.worker_store_path("duplicate");
    std::fs::copy(&stores[0], &dup).expect("copy store");
    stores.push(dup);

    type Permutation = fn(&mut Vec<PathBuf>);
    let orders: [Permutation; 3] = [|_v| {}, |v| v.reverse(), |v| v.rotate_left(1)];
    let mut reports = Vec::new();
    for permute in orders {
        let mut shuffled = stores.clone();
        permute(&mut shuffled);
        let outcome = collect_grid_outcome(&manifest, &shuffled).expect("collect");
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = spec.seeds.clone();
        reports.push(report);
    }
    for report in &reports {
        assert_eq!(report, &single_process);
        assert_eq!(report_bits(report), report_bits(&single_process));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_mismatch_is_rejected_instead_of_contaminating_the_directory() {
    let spec = diverse_spec();
    let dir = temp_grid("mismatch");
    spec.run_distributed(&dir, &opts(1), &ThreadSpawner::default())
        .expect("first grid");

    let mut edited = spec.clone();
    edited.seeds.push(9_999);
    let err = edited
        .run_distributed(&dir, &opts(1), &ThreadSpawner::default())
        .expect_err("a different grid must not reuse the directory");
    assert!(
        matches!(err, DistribError::ManifestMismatch { .. }),
        "{err}"
    );

    // With fresh = true the directory is wiped and the new grid runs.
    let fresh = DistribOptions {
        fresh: true,
        ..opts(1)
    };
    let report = edited
        .run_distributed(&dir, &fresh, &ThreadSpawner::default())
        .expect("fresh rerun");
    assert_eq!(report, edited.run());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_load_sweep_matches_the_resumable_spec_path() {
    let loads = [5.0, 12.0];
    let make = |load: f64| {
        ScenarioConfig::small(PolicyKind::PureLeach, load, 0).with_duration(Duration::from_secs(8))
    };
    let spec = load_sweep_spec(&loads, 41, 2, make);
    let expected = spec.run();
    let dir = temp_grid("sweep");
    let report = spec
        .run_distributed(&dir, &opts(2), &ThreadSpawner::default())
        .expect("distributed sweep");
    assert_eq!(report, expected);
    assert_eq!(report_bits(&report), report_bits(&expected));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_sequential_stopping_matches_the_store_backed_loop() {
    let spec = ExperimentSpec {
        scenarios: vec![ScenarioSpec::new("uniform", base(0))],
        policies: vec![PolicyKind::Scheme1Adaptive],
        seeds: vec![9_100, 9_101],
    };
    let stop = SequentialStopping {
        metric: "delivery_rate".to_string(),
        target_half_width: 1e-9, // unreachable: drives the loop to its cap
        batch: 2,
        max_replicates: 6,
    };

    // Reference: the single-process, store-backed sequential loop.
    let store_path = std::env::temp_dir().join(format!(
        "caem_distrib_{}_seq_reference.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&store_path).ok();
    let mut store = ExperimentStore::open(&store_path).expect("open store");
    let reference = spec.run_sequential(&mut store, &stop);

    let dir = temp_grid("sequential");
    let outcome =
        run_sequential_distributed(&spec, &dir, &opts(2), &ThreadSpawner::default(), &stop)
            .expect("distributed sequential");
    assert_eq!(outcome.converged, reference.converged);
    assert_eq!(outcome.rounds, reference.rounds, "identical CI trajectory");
    assert_eq!(outcome.report, reference.report);
    assert_eq!(report_bits(&outcome.report), report_bits(&reference.report));

    // Re-invocation resumes from the completed round directories: nothing
    // is simulated again and the outcome is unchanged.
    let again = run_sequential_distributed(&spec, &dir, &opts(2), &ThreadSpawner::default(), &stop)
        .expect("resumed sequential");
    assert_eq!(again.rounds, outcome.rounds);
    assert_eq!(again.report, outcome.report);

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_runs_stay_inside_the_process_thread_budget() {
    let spec = diverse_spec();
    let dir = temp_grid("budget");
    spec.run_distributed(&dir, &opts(3), &ThreadSpawner::default())
        .expect("distributed run");
    // In-process workers draw their rayon fan-outs from the shared global
    // budget: however many workers run concurrently, the peak of live
    // spawned simulation threads never exceeds the process cap.
    assert!(rayon::peak_live_workers() <= rayon::process_thread_cap());
    // And the budget arithmetic offered to process workers divides the cap.
    let share = rayon::split_thread_budget(3);
    assert!(share >= 1);
    assert!(share * 3 <= rayon::process_thread_cap().max(3));
    std::fs::remove_dir_all(&dir).ok();
}
