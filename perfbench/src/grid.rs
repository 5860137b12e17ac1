//! `served_small_jobs`: one generated grid of small jobs, run through the
//! TCP service (timed) and, once in the traced run, through the file-bus
//! runner.  Both reports must be byte-identical to the in-process
//! reference rendered before timing.

use std::fs;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use caem_wsnsim::distrib::{DistribOptions, GridManifest, ShardLayout, ThreadSpawner};
use caem_wsnsim::experiment::{ExperimentReport, ExperimentSpec};
use caem_wsnsim::persist::{config_hash, ExperimentStore, JobRecord};
use caem_wsnsim::serve::{
    run_socket_worker, serve_connection, FrameLink, ServiceClient, ServiceConfig, ServiceState,
    SocketWorkerOptions, TcpLink, WorkerExit,
};
use caem_wsnsim::spec::GridSpec;

use crate::link::{CountingLink, FrameSummary, LinkStats};
use crate::{median, sys, trace, Iteration, LayerSamples};

/// Worker threads of the file-bus run.
pub const SHARD_WORKERS: usize = 2;
/// How often the client polls for the finished report.
const FETCH_POLL: Duration = Duration::from_millis(5);
/// A grid still unfinished after this long counts as failed.
const GRID_DEADLINE: Duration = Duration::from_secs(120);

/// Frame kinds reported as `serve.frames.<kind>` and `serve.bytes.<kind>`.
pub const FRAME_KINDS: [&str; 14] = [
    "hello",
    "hello_ack",
    "claim",
    "grant",
    "no_work",
    "records",
    "heartbeat",
    "shard_done",
    "done_ack",
    "done_nack",
    "submit",
    "submit_ack",
    "fetch",
    "fetch_reply",
];

fn render(report: &ExperimentReport) -> String {
    serde_json::to_string_pretty(&report.to_json()).expect("report JSON always renders")
}

fn resolve(text: &str, seed: u64) -> ExperimentSpec {
    GridSpec::parse(text)
        .and_then(|parsed| parsed.resolve(seed, false))
        .expect("generated spec resolves")
        .spec
}

/// Median seconds of three calls of `f`.
fn time3<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub struct SmallJobs {
    spec_text: String,
    seed: u64,
    spec: ExperimentSpec,
    /// The in-process report, rendered once before timing.
    reference: String,
    /// Seconds `ExperimentSpec::run` took to produce it.
    inproc_s: f64,
    scratch: PathBuf,
}

/// A counted or plain TCP link.
fn link(stream: TcpStream, stats: Option<&mut Vec<Arc<Mutex<LinkStats>>>>) -> Box<dyn FrameLink> {
    let tcp = TcpLink::new(stream);
    match stats {
        Some(stats) => {
            let (counted, s) = CountingLink::new(tcp);
            stats.push(s);
            Box::new(counted)
        }
        None => Box::new(tcp),
    }
}

/// Serve one daemon-side connection on its own thread.
fn serve(mut link: Box<dyn FrameLink>, state: &Arc<Mutex<ServiceState>>) -> JoinHandle<()> {
    let state = state.clone();
    std::thread::spawn(move || serve_connection(&mut *link, &state))
}

impl SmallJobs {
    pub fn prepare(spec_text: String, seed: u64, scratch: &Path) -> Self {
        let spec = resolve(&spec_text, seed);
        let t = Instant::now();
        let reference = render(&spec.run());
        let inproc_s = t.elapsed().as_secs_f64();
        SmallJobs {
            spec_text,
            seed,
            spec,
            reference,
            inproc_s,
            scratch: scratch.to_path_buf(),
        }
    }

    fn jobs(&self) -> u64 {
        self.spec.job_count() as u64
    }

    /// Jobs attempted and failed: quarantined jobs fail, and a report that
    /// differs from the reference fails every job.
    fn settle(&self, correct: bool, quarantined: u64) -> (u64, u64) {
        let attempted = self.jobs();
        let failed = if correct { quarantined } else { attempted };
        (attempted, failed.min(attempted))
    }

    /// `served_small_jobs`: submit the grid to an in-process daemon over
    /// TCP on 127.0.0.1, run it with one socket worker, and poll for the
    /// report.  With `layers`, every link is a [`CountingLink`].
    pub fn served(&self, layers: Option<&mut LayerSamples>) -> io::Result<Iteration> {
        let state = ServiceState::shared(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let opts = SocketWorkerOptions::new("perfbench");
        let stop = opts.stop.clone();
        let mut stats = Vec::new();
        let mut counting = layers.is_some().then_some(&mut stats);

        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let root = trace::begin("iteration");
        let mut client_link = link(TcpStream::connect(addr)?, counting.as_deref_mut());
        let daemon_client = serve(link(listener.accept()?.0, counting.as_deref_mut()), &state);
        let mut client = ServiceClient::new(&mut *client_link);
        let ts = Instant::now();
        let submitted = trace::span("serve.submit", || {
            client.submit(&self.spec_text, false, self.seed)
        });
        let setup = ts.elapsed();
        let submitted = submitted.map_err(io::Error::other)?;
        let mut worker_link = link(TcpStream::connect(addr)?, counting.as_deref_mut());
        let daemon_worker = serve(link(listener.accept()?.0, counting), &state);
        let worker = std::thread::spawn(move || run_socket_worker(&mut *worker_link, &opts));
        let report = trace::span("serve.await_report", || loop {
            match client.try_fetch() {
                Ok(Some(report)) => break Some(report),
                Ok(None) if t0.elapsed() < GRID_DEADLINE => std::thread::sleep(FETCH_POLL),
                _ => break None,
            }
        });
        let correct = trace::span("verify", || report.as_deref() == Some(&self.reference));
        trace::end(root);
        let wall = t0.elapsed();
        let cpu = sys::cpu_time() - cpu0;

        // Teardown, untimed: stop the worker (it would otherwise wait for
        // the next grid), then hang up so both daemon threads end.
        stop.store(true, Ordering::Relaxed);
        let quarantined = match worker.join().expect("socket worker thread panicked") {
            Ok(WorkerExit::Finished(outcome)) => outcome.jobs_quarantined as u64,
            Ok(WorkerExit::Rejected(why)) => return Err(io::Error::other(why)),
            Err(e) => return Err(io::Error::other(e)),
        };
        drop(client_link);
        for t in [daemon_client, daemon_worker] {
            t.join().expect("daemon connection thread panicked");
        }
        let (attempted, mut failed) = self.settle(correct, quarantined);
        if submitted.jobs != attempted {
            failed = attempted;
        }

        if let Some(layers) = layers {
            // Links in creation order: client, daemon-for-client, worker,
            // daemon-for-worker.  Only the worker sends record lines.
            let links: Vec<LinkStats> = stats
                .iter()
                .map(|s| s.lock().expect("link stats lock").clone())
                .collect();
            let all = FrameSummary::of(links.iter().flat_map(|l| l.sent.iter().map(Vec::as_slice)));
            for kind in FRAME_KINDS {
                let frames = all.frames.get(kind).copied().unwrap_or(0);
                let bytes = all.bytes.get(kind).copied().unwrap_or(0);
                layers.push(&format!("serve.frames.{kind}"), frames as f64);
                layers.push(&format!("serve.bytes.{kind}"), bytes as f64);
            }
            layers.push("serve.worker_wait_s", links[2].recv_wait.as_secs_f64());
            layers.push("serve.daemon_wait_s", links[3].recv_wait.as_secs_f64());
            let per_frame = all.decoded.max(1) as f64;
            layers.push(
                "serve.decode_us",
                all.decode_time.as_secs_f64() * 1e6 / per_frame,
            );
            layers.push(
                "serve.encode_us",
                all.encode_time.as_secs_f64() * 1e6 / per_frame,
            );
            let unique = if correct { attempted } else { 0 };
            layers.push(
                "serve.records_absorbed_ratio",
                unique as f64 / all.record_lines.max(1) as f64,
            );
        }
        Ok(Iteration {
            wall,
            setup,
            cpu,
            attempted,
            failed,
            steal: Duration::ZERO,
        })
    }

    /// The same grid over the file bus: one `run_distributed` with two
    /// thread workers into a fresh shard directory, for the `distrib.*`
    /// and `persist.store_*` layers.  Returns the jobs it failed.
    fn file_bus_layers(&self, layers: &mut LayerSamples) -> io::Result<u64> {
        let dir = self.scratch.join("shards");
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        let opts = DistribOptions::new(SHARD_WORKERS);
        let t = Instant::now();
        let report = self
            .spec
            .run_distributed(&dir, &opts, &ThreadSpawner::default())
            .map_err(|e| io::Error::other(e.to_string()))?;
        layers.push("distrib.run_s", t.elapsed().as_secs_f64());
        let correct = render(&report) == self.reference;
        store_layers(&dir, self.jobs(), layers)?;
        fs::remove_dir_all(&dir)?;
        Ok(self.settle(correct, report.failures.len() as u64).1)
    }

    /// Per-layer figures measured outside the iterations: the in-process
    /// baseline, spec / manifest / hashing costs, the file-bus run,
    /// aggregation, rendering and store appends over this grid's records.
    /// Returns the jobs the file-bus run failed.
    pub fn offline_layers(&self, layers: &mut LayerSamples) -> io::Result<u64> {
        layers.push("experiment.inproc_s", self.inproc_s);
        layers.push("spec.parse_s", time3(|| GridSpec::parse(&self.spec_text)));
        let parsed = GridSpec::parse(&self.spec_text).expect("generated spec parses");
        layers.push("spec.resolve_s", time3(|| parsed.resolve(self.seed, false)));
        let shards = (SHARD_WORKERS * DistribOptions::new(SHARD_WORKERS).shards_per_worker)
            .min(self.spec.job_count());
        layers.push(
            "distrib.manifest_s",
            time3(|| GridManifest::from_spec(&self.spec, shards)),
        );
        let jobs = self.spec.enumerate_jobs();
        let t = Instant::now();
        for job in &jobs {
            std::hint::black_box(config_hash(&job.config));
        }
        layers.push(
            "persist.config_hash_us",
            t.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64,
        );

        // This grid's records, via a resumable run into a scratch store.
        let path = self.scratch.join("records.jsonl");
        let _ = fs::remove_file(&path);
        let mut store =
            ExperimentStore::open(&path).map_err(|e| io::Error::other(e.to_string()))?;
        self.spec.run_with_store(&mut store);
        let records: Vec<JobRecord> = store.records().to_vec();
        drop(store);
        fs::remove_file(&path)?;
        layers.push(
            "experiment.aggregate_s",
            time3(|| ExperimentReport::from_records(records.iter().cloned())),
        );
        let report = ExperimentReport::from_records(records.iter().cloned());
        layers.push("experiment.render_s", time3(|| render(&report)));

        let mut store =
            ExperimentStore::open(&path).map_err(|e| io::Error::other(e.to_string()))?;
        let t = Instant::now();
        for r in &records {
            store
                .append(r.clone())
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        let append_s = t.elapsed().as_secs_f64();
        drop(store);
        fs::remove_file(&path)?;
        layers.push(
            "persist.append_us",
            append_s * 1e6 / records.len().max(1) as f64,
        );
        self.file_bus_layers(layers)
    }
}

/// What a finished shard directory holds: store bytes and lines, files,
/// and the time to load every worker store back.
fn store_layers(dir: &Path, jobs: u64, layers: &mut LayerSamples) -> io::Result<()> {
    let layout = ShardLayout::new(dir);
    let stores = layout
        .discover_worker_stores()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut bytes = 0u64;
    let mut lines = 0u64;
    for path in &stores {
        let text = fs::read(path)?;
        bytes += text.len() as u64;
        lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
    }
    let t = Instant::now();
    for path in &stores {
        let store = ExperimentStore::load(path).map_err(|e| io::Error::other(e.to_string()))?;
        std::hint::black_box(store.len());
    }
    layers.push("persist.store_load_s", t.elapsed().as_secs_f64());
    layers.push("persist.store_bytes", bytes as f64);
    layers.push("distrib.jobs_run_ratio", lines as f64 / jobs as f64);
    layers.push("distrib.shard_files", count_files(dir)? as f64);
    Ok(())
}

fn count_files(dir: &Path) -> io::Result<u64> {
    let mut n = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        n += if entry.file_type()?.is_dir() {
            count_files(&entry.path())?
        } else {
            1
        };
    }
    Ok(n)
}
