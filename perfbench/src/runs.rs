//! `paper_sweep` and `large_field`: single simulations driven one after
//! another on the calling thread through `SimulationRun`'s public API.

use std::time::{Duration, Instant};

use caem_cluster::election::{ElectionConfig, LeachElection};
use caem_cluster::formation::ClusterFormation;
use caem_metrics::prof::{self, ProfKey, PROF_KEYS};
use caem_simcore::rng::{components, RngStream};
use caem_simcore::time::SimTime;
use caem_wsnsim::config::ScenarioConfig;
use caem_wsnsim::result::SimulationResult;
use caem_wsnsim::runner::SimulationRun;

use crate::{median, sys, trace, Iteration, LayerSamples};

/// What a run must reproduce exactly every time: events processed, queue
/// high-water mark and a digest of the per-node outcome.
pub type Fingerprint = [u64; 3];

pub fn fingerprint(r: &SimulationResult) -> Fingerprint {
    let mut h = Fnv::new();
    for v in [
        r.collisions,
        r.bursts,
        r.node_failures,
        r.perf.generated(),
        r.perf.delivered(),
        r.end_time.as_nanos(),
    ] {
        h.add(v);
    }
    for n in &r.nodes {
        for v in [
            n.remaining_energy_j.to_bits(),
            n.generated,
            n.delivered,
            n.dropped,
            n.head_terms,
        ] {
            h.add(v);
        }
    }
    [r.events_processed, r.queue_high_watermark as u64, h.0]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A plausible result: traffic was generated and no more was delivered
/// than generated.
fn plausible(r: &SimulationResult) -> bool {
    r.events_processed > 0 && r.perf.generated() > 0 && r.perf.delivered() <= r.perf.generated()
}

pub struct Runs {
    configs: Vec<ScenarioConfig>,
    /// Fingerprints of the first iteration; every later one must match.
    expected: Option<Vec<Fingerprint>>,
}

impl Runs {
    pub fn new(configs: Vec<ScenarioConfig>) -> Self {
        Runs {
            configs,
            expected: None,
        }
    }

    /// Deploy, run and finish every configured simulation in turn.
    pub fn iterate(&mut self, layers: Option<&mut LayerSamples>) -> Iteration {
        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let mut setup = Duration::ZERO;
        let mut prints = Vec::with_capacity(self.configs.len());
        let mut plausible_runs = 0;
        let mut events = 0u64;
        let mut hwm = 0u64;
        trace::span("iteration", || {
            for cfg in &self.configs {
                let ts = Instant::now();
                let mut run = trace::span("runner.new", || SimulationRun::new(cfg.clone()));
                setup += ts.elapsed();
                let horizon = SimTime::ZERO + cfg.duration;
                trace::span("runner.run_until", || run.run_until(horizon));
                let result = trace::span("runner.finish", || run.finish());
                let print = trace::span("verify", || fingerprint(&result));
                plausible_runs += plausible(&result) as u64;
                events += result.events_processed;
                hwm = hwm.max(result.queue_high_watermark as u64);
                prints.push(print);
                trace::span("runner.drop", || drop(result));
            }
        });
        let expected = self.expected.get_or_insert_with(|| prints.clone());
        let matching = prints
            .iter()
            .zip(expected.iter())
            .filter(|(a, b)| a == b)
            .count() as u64;
        let wall = t0.elapsed();
        let cpu = sys::cpu_time() - cpu0;
        let attempted = self.configs.len() as u64;
        let good = matching.min(plausible_runs);
        if let Some(layers) = layers {
            layers.push("runner.events", events as f64);
            layers.push("simcore.queue_hwm", hwm as f64);
        }
        Iteration {
            wall,
            setup,
            cpu,
            attempted,
            failed: attempted - good,
            steal: Duration::ZERO,
        }
    }

    /// One extra pass with the program's profiler on, for the per-kind
    /// event counts; its results must match the timed runs' fingerprints.
    /// Returns the number of mismatching runs.
    pub fn profiled_pass(&mut self, layers: &mut LayerSamples) -> u64 {
        prof::set_enabled(true);
        let mut counts = [0u64; PROF_KEYS.len()];
        let mut mismatches = 0;
        for (i, cfg) in self.configs.iter().enumerate() {
            let result = SimulationRun::new(cfg.clone()).run();
            for key in PROF_KEYS {
                counts[key.index()] += result.profile.count(key);
            }
            let expected = self.expected.as_ref().map(|e| e[i]);
            mismatches += (expected != Some(fingerprint(&result))) as u64;
        }
        prof::set_enabled(false);
        let rounds = counts[ProfKey::EvRoundStart.index()];
        layers.push("cluster.rounds", rounds as f64);
        for key in PROF_KEYS.into_iter().filter(|k| !k.is_subsystem()) {
            layers.push(
                &format!("runner.events.{}", key.label()),
                counts[key.index()] as f64,
            );
        }
        mismatches
    }

    /// `cluster.formation_s`: one LEACH election plus nearest-head cluster
    /// formation over the largest configured deployment.
    pub fn formation(&self, layers: &mut LayerSamples) {
        let cfg = self
            .configs
            .iter()
            .max_by_key(|c| c.node_count)
            .expect("at least one config");
        let run = SimulationRun::new(cfg.clone());
        let table = run.table();
        let mut election = LeachElection::new(
            cfg.node_count,
            ElectionConfig {
                ch_probability: cfg.ch_probability,
            },
        );
        let mut rng = RngStream::new(cfg.seed).derive(components::ELECTION, 0);
        let heads = election.elect_round(table.alive_slice(), &mut rng);
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let formed =
                    ClusterFormation::nearest_head(table.positions(), &heads, table.alive_slice());
                let s = t.elapsed().as_secs_f64();
                std::hint::black_box(formed.cluster_count());
                s
            })
            .collect();
        layers.push("cluster.formation_s", median(&samples));
        layers.push("cluster.heads", heads.len() as f64);
    }
}
