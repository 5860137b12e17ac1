//! `perfbench`: run one workload of the caem-suite benchmark in this
//! process and print its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --scratch <dir> --out <dir> [--rev <git rev>]
//! ```
//!
//! With `--trace 0` the workload is timed with tracing off and the line
//! carries the end-to-end metrics.  With `--trace 1` half the time runs
//! untraced, half traced (spans around every call into a layer, counting
//! wrappers on every service link), followed by one-off layer
//! measurements; the line carries the per-layer metrics.  A ledger record
//! with provenance goes to `--out`; shard directories and stores live under
//! `--scratch`.  `run.py` builds this binary and drives it.

mod grid;
mod inputs;
mod link;
mod micro;
mod runs;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use caem_metrics::prof;
use caem_wsnsim::faults::{self, RunEvent};
use serde_json::{json, Value};

use grid::{SmallJobs, FRAME_KINDS};
use runs::Runs;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|large_field|served_small_jobs> \
--seed <n> --seconds <s> --trace <0|1> --scratch <dir> --out <dir> [--rev <rev>]";

/// The end-to-end metrics, with units, in the order they are printed.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in the order they are printed.
/// A workload that does not exercise a layer reports 0 for it.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("runner.deploy_s", "s"),
        ("runner.run_s", "s"),
        ("runner.finish_s", "s"),
        ("runner.events", "count"),
        ("runner.ns_per_event", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for key in prof::PROF_KEYS.into_iter().filter(|k| !k.is_subsystem()) {
        m.push((format!("runner.events.{}", key.label()), "count"));
    }
    for (n, u) in [
        ("cluster.formation_s", "s"),
        ("cluster.rounds", "count"),
        ("cluster.heads", "count"),
        ("simcore.queue_hwm", "count"),
        ("simcore.push_pop_ns.1k", "ns"),
        ("simcore.push_pop_ns.1m", "ns"),
        ("channel.link_measure_ns", "ns"),
        ("phy.mode_select_ns", "ns"),
        ("phy.per_ns", "ns"),
        ("mac.tone_classify_ns", "ns"),
        ("spec.parse_s", "s"),
        ("spec.resolve_s", "s"),
        ("distrib.manifest_s", "s"),
        ("persist.config_hash_us", "us"),
        ("serve.submit_s", "s"),
        ("serve.await_report_s", "s"),
    ] {
        m.push((n.to_string(), u));
    }
    for kind in FRAME_KINDS {
        m.push((format!("serve.frames.{kind}"), "count"));
        m.push((format!("serve.bytes.{kind}"), "bytes"));
    }
    for (n, u) in [
        ("serve.worker_wait_s", "s"),
        ("serve.daemon_wait_s", "s"),
        ("serve.encode_us", "us"),
        ("serve.decode_us", "us"),
        ("serve.records_absorbed_ratio", "ratio"),
        ("persist.store_bytes", "bytes"),
        ("persist.store_load_s", "s"),
        ("persist.append_us", "us"),
        ("distrib.shard_files", "count"),
        ("distrib.jobs_run_ratio", "ratio"),
        ("distrib.run_s", "s"),
        ("experiment.aggregate_s", "s"),
        ("experiment.render_s", "s"),
        ("experiment.inproc_s", "s"),
    ] {
        m.push((n.to_string(), u));
    }
    for event in faults::RUN_EVENTS {
        m.push((fault_metric(event), "count"));
    }
    for (n, u) in [
        ("trace.overhead_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// `faults.<event>` in snake case, e.g. `faults.lease_stolen`.
fn fault_metric(event: RunEvent) -> String {
    let mut name = String::from("faults.");
    for (i, c) in format!("{event:?}").chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                name.push('_');
            }
            name.push(c.to_ascii_lowercase());
        } else {
            name.push(c);
        }
    }
    name
}

/// Span names whose per-iteration totals are per-layer metrics.
const SPAN_METRICS: [(&str, &str); 5] = [
    ("runner.new", "runner.deploy_s"),
    ("runner.run_until", "runner.run_s"),
    ("runner.finish", "runner.finish_s"),
    ("serve.submit", "serve.submit_s"),
    ("serve.await_report", "serve.await_report_s"),
];

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One timed pass over a workload.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    pub wall: Duration,
    pub setup: Duration,
    pub cpu: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// CPU time the hypervisor took from the machine meanwhile (set by
    /// [`timed_loop`]).
    pub steal: Duration,
}

/// Per-layer samples by metric name; each reported value is a median.
#[derive(Debug, Default)]
pub struct LayerSamples(BTreeMap<String, Vec<f64>>);

impl LayerSamples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    fn median_of(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    PaperSweep,
    LargeField,
    ServedSmallJobs,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "paper_sweep" => Workload::PaperSweep,
            "large_field" => Workload::LargeField,
            "served_small_jobs" => Workload::ServedSmallJobs,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    out: PathBuf,
    rev: String,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if flags.insert(flag.clone(), value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
        let name = take("--workload")?;
        let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
        let seed = take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let scratch = PathBuf::from(take("--scratch")?);
        let out = PathBuf::from(take("--out")?);
        let rev = take("--rev").unwrap_or_else(|_| "unknown".into());
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        Ok(Args {
            workload,
            name,
            seed,
            seconds,
            trace,
            scratch,
            out,
            rev,
        })
    }
}

enum Bench {
    Runs(Runs),
    Served(SmallJobs),
}

impl Bench {
    fn prepare(args: &Args) -> Bench {
        match args.workload {
            Workload::PaperSweep => Bench::Runs(Runs::new(inputs::paper_sweep_configs(args.seed))),
            Workload::LargeField => {
                Bench::Runs(Runs::new(vec![inputs::large_field_config(args.seed)]))
            }
            Workload::ServedSmallJobs => Bench::Served(SmallJobs::prepare(
                inputs::small_jobs_spec(args.seed),
                args.seed,
                &args.scratch,
            )),
        }
    }

    fn iterate(&mut self, layers: Option<&mut LayerSamples>) -> io::Result<Iteration> {
        match self {
            Bench::Runs(runs) => Ok(runs.iterate(layers)),
            Bench::Served(jobs) => jobs.served(layers),
        }
    }

    /// Layer measurements made once, after the traced iterations.  Returns
    /// the number of failed operations they found.
    fn one_off_layers(&mut self, layers: &mut LayerSamples) -> io::Result<u64> {
        match self {
            Bench::Runs(runs) => {
                runs.formation(layers);
                Ok(runs.profiled_pass(layers))
            }
            Bench::Served(jobs) => jobs.offline_layers(layers),
        }
    }
}

/// Iterate for about `seconds` (at least `min` iterations): no new
/// iteration starts once less than half the last one's wall time remains.
fn timed_loop(
    bench: &mut Bench,
    seconds: f64,
    min: usize,
    mut layers: Option<&mut LayerSamples>,
) -> io::Result<Vec<Iteration>> {
    let start = Instant::now();
    let mut out: Vec<Iteration> = Vec::new();
    loop {
        let last = out.last().map_or(0.0, |it| it.wall.as_secs_f64());
        if out.len() >= min && start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return Ok(out);
        }
        trace::set_run(out.len() as u32);
        let steal = sys::steal_time();
        let mut it = bench.iterate(layers.as_deref_mut())?;
        it.steal = sys::steal_time() - steal;
        out.push(it);
    }
}

/// Iterations during which the hypervisor took more than this share of the
/// machine's CPU time are left out of the medians: that time went to
/// other guests, not to the program.  Every iteration still counts in
/// `attempted` and `failed` and is written to the ledger with its steal.
const STEAL_LIMIT: f64 = 0.05;

fn undisturbed(it: &Iteration) -> bool {
    it.steal.as_secs_f64() <= STEAL_LIMIT * sys::nproc() as f64 * it.wall.as_secs_f64()
}

/// `f` in seconds over the undisturbed iterations, or over all of them
/// when none was undisturbed.
fn secs(its: &[Iteration], f: impl Fn(&Iteration) -> Duration) -> Vec<f64> {
    let any = its.iter().any(undisturbed);
    its.iter()
        .filter(|it| !any || undisturbed(it))
        .map(|it| f(it).as_secs_f64())
        .collect()
}

/// Per-iteration span totals (see [`SPAN_METRICS`]) and the iteration
/// spans' self time, which no layer span covers.
fn span_layers(spans: &[trace::Span], layers: &mut LayerSamples) {
    let runs: Vec<u32> = {
        let mut r: Vec<u32> = spans.iter().map(|s| s.run).collect();
        r.dedup();
        r
    };
    let self_ns = trace::self_times(spans);
    for run in runs {
        let of_run: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].run == run).collect();
        for (span_name, metric) in SPAN_METRICS {
            let total: u64 = of_run
                .iter()
                .filter(|&&i| spans[i].name == span_name)
                .map(|&i| spans[i].duration_ns())
                .sum();
            if of_run.iter().any(|&i| spans[i].name == span_name) {
                layers.push(metric, total as f64 / 1e9);
            }
        }
        let unattributed: u64 = of_run
            .iter()
            .filter(|&&i| spans[i].name == "iteration")
            .map(|&i| self_ns[i])
            .sum();
        layers.push("trace.unattributed_s", unattributed as f64 / 1e9);
    }
}

struct Outcome {
    iterations: usize,
    undisturbed: usize,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    ledger: Value,
}

fn run(args: &Args) -> io::Result<Outcome> {
    fs::create_dir_all(&args.scratch)?;
    fs::create_dir_all(&args.out)?;
    let mut bench = Bench::prepare(args);
    let min_iters = 2;
    if !args.trace {
        let its = timed_loop(&mut bench, args.seconds, min_iters, None)?;
        let metrics = vec![
            ("wall_s".into(), "s", median(&secs(&its, |it| it.wall))),
            ("setup_s".into(), "s", median(&secs(&its, |it| it.setup))),
            ("cpu_s".into(), "s", median(&secs(&its, |it| it.cpu))),
            ("peak_rss_mb".into(), "MB", sys::peak_rss_mb()),
        ];
        debug_assert_eq!(metrics.len(), END_TO_END.len());
        let ledger = json!({
            "iterations": samples_json(&its),
        });
        return Ok(outcome(&its, 0, metrics, ledger));
    }

    let untraced = timed_loop(&mut bench, args.seconds / 2.0, min_iters, None)?;
    trace::install();
    let mut layers = LayerSamples::default();
    let traced = timed_loop(&mut bench, args.seconds / 2.0, min_iters, Some(&mut layers))?;
    let spans = trace::take();
    span_layers(&spans, &mut layers);
    let extra_failed = bench.one_off_layers(&mut layers)?;
    layers.push(
        "simcore.push_pop_ns.1k",
        micro::push_pop_ns(1_000, args.seed),
    );
    layers.push(
        "simcore.push_pop_ns.1m",
        micro::push_pop_ns(1_000_000, args.seed),
    );
    layers.push("channel.link_measure_ns", micro::link_measure_ns(args.seed));
    layers.push("phy.mode_select_ns", micro::mode_select_ns());
    layers.push("phy.per_ns", micro::per_ns());
    layers.push("mac.tone_classify_ns", micro::tone_classify_ns());
    for (event, count) in faults::event_counters() {
        layers.push(&fault_metric(event), count as f64);
    }
    let traced_wall = median(&secs(&traced, |it| it.wall));
    let untraced_wall = median(&secs(&untraced, |it| it.wall));
    layers.push("trace.traced_wall_s", traced_wall);
    layers.push("trace.untraced_wall_s", untraced_wall);
    layers.push("trace.overhead_s", traced_wall - untraced_wall);
    layers.push("trace.spans", spans.len() as f64);
    if let (Some(run_s), Some(events)) = (
        layers.median_of("runner.run_s"),
        layers.median_of("runner.events"),
    ) {
        layers.push("runner.ns_per_event", run_s * 1e9 / events.max(1.0));
    }

    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.median_of(&name).unwrap_or(0.0);
            (name, unit, value)
        })
        .collect();
    let spans_path = args
        .out
        .join(format!("{}-seed{}-spans.json", args.name, args.seed));
    fs::write(
        &spans_path,
        serde_json::to_string(&trace::to_json(&spans)).expect("spans render"),
    )?;
    let by_name: Vec<Value> = trace::totals_by_name(&spans)
        .into_iter()
        .map(|(name, t)| {
            json!({
                "name": name,
                "count": t.count,
                "total_s": t.total_ns as f64 / 1e9,
                "self_s": t.self_ns as f64 / 1e9,
            })
        })
        .collect();
    let ledger = json!({
        "untraced_iterations": samples_json(&untraced),
        "traced_iterations": samples_json(&traced),
        "span_totals": by_name,
        "spans_file": spans_path.display().to_string(),
    });
    let all: Vec<Iteration> = untraced.into_iter().chain(traced).collect();
    Ok(outcome(&all, extra_failed, metrics, ledger))
}

fn samples_json(its: &[Iteration]) -> Value {
    Value::Seq(
        its.iter()
            .map(|it| {
                json!({
                    "wall_s": it.wall.as_secs_f64(),
                    "setup_s": it.setup.as_secs_f64(),
                    "cpu_s": it.cpu.as_secs_f64(),
                    "steal_s": it.steal.as_secs_f64(),
                    "attempted": it.attempted,
                    "failed": it.failed,
                })
            })
            .collect(),
    )
}

fn outcome(
    its: &[Iteration],
    extra_failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    ledger: Value,
) -> Outcome {
    Outcome {
        iterations: its.len(),
        undisturbed: its.iter().filter(|it| undisturbed(it)).count(),
        attempted: its.iter().map(|it| it.attempted).sum(),
        failed: its.iter().map(|it| it.failed).sum::<u64>() + extra_failed,
        metrics,
        ledger,
    }
}

fn metrics_json(metrics: &[(String, &'static str, f64)]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(name, unit, value)| (name.clone(), json!({ "value": value, "unit": unit })))
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    prof::install_from_env();
    if !args.trace && prof::enabled() {
        eprintln!(
            "perfbench: refusing to record timed figures with the profiler enabled \
             (unset {})",
            prof::PROFILE_ENV
        );
        return ExitCode::from(2);
    }
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.name);
            return ExitCode::from(1);
        }
    };
    let metrics = metrics_json(&outcome.metrics);
    let record = json!({
        "workload": args.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": json!({
            "git_rev": args.rev,
            "machine_cpus": sys::machine_cpus(),
            "cpus_available": sys::nproc(),
            "rayon_thread_cap": rayon::process_thread_cap(),
            "profiler": if args.trace { "on for the event-count pass only" } else { "off" },
            "started_unix_s": started,
            "iterations": outcome.iterations,
            "undisturbed_iterations": outcome.undisturbed,
            "steal_limit": STEAL_LIMIT,
        }),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "samples": outcome.ledger,
    });
    let ledger_path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.name, args.seed, args.trace as u8
    ));
    if let Err(e) = fs::write(
        &ledger_path,
        serde_json::to_string_pretty(&record).expect("ledger renders"),
    ) {
        eprintln!("perfbench: cannot write {}: {e}", ledger_path.display());
        return ExitCode::from(1);
    }
    let line = json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&line).expect("result renders"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let names: Vec<String> = per_layer_metrics()
            .into_iter()
            .map(|(n, _)| n)
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(names.len() <= 4 + 128);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(fault_metric(RunEvent::LeaseStolen), "faults.lease_stolen");
    }

    /// The metric lists in `BENCHMARK.json` are the ones this binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Seq(items)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer_metrics()));
    }

    #[test]
    fn args_reject_unknown_and_missing_flags() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = "--workload paper_sweep --seed 1 --seconds 2 --trace 0 --scratch a --out b";
        assert!(parse(ok).is_ok());
        assert!(parse(&format!("{ok} --bogus 1")).is_err());
        assert!(parse("--workload paper_sweep --seed 1").is_err());
        assert!(parse(&ok.replace("paper_sweep", "nope")).is_err());
        assert!(parse(&ok.replace("--trace 0", "--trace 2")).is_err());
    }
}
