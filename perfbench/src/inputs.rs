//! Every input the benchmark hands the program, generated from the
//! workload seed.  The same seed gives the same inputs; the sizes are fixed,
//! so only random streams (and the seed-dependent job seeds) vary.

use caem::policy::PolicyKind;
use caem_simcore::time::Duration;
use caem_wsnsim::config::ScenarioConfig;
use serde_json::json;

/// The paper's three protocols.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::PureLeach,
    PolicyKind::Scheme1Adaptive,
    PolicyKind::Scheme2Fixed,
];

/// Traffic loads of the paper sweep (packets per second per node).
pub const PAPER_LOADS_PPS: [f64; 4] = [2.0, 5.0, 10.0, 20.0];

/// Nodes of the `large_field` deployment.
pub const LARGE_FIELD_NODES: usize = 1_000_000;
/// Simulated horizon of the `large_field` run.
pub const LARGE_FIELD_HORIZON_MS: u64 = 100;

/// Shape of the small-job grid: 2 deployments × 3 policies × this many seeds.
pub const SMALL_JOB_REPLICATES: usize = 2_000;
pub const SMALL_JOB_NODES: usize = 5;
pub const SMALL_JOB_DURATION_S: f64 = 4.0;

/// Per-workload stream tags, so the workloads of one seed draw unrelated
/// numbers.
const LARGE_FIELD_STREAM: u64 = 0x1a29_e5f1_e1d0_0001;
const SMALL_JOBS_STREAM: u64 = 0x5a11_0b5e_ed00_0002;

/// SplitMix64: the benchmark's own generator, independent of the program's.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seed the program's configs accept (kept below 2^53 so it survives
    /// a JSON round trip exactly).
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// `paper_sweep`: Table II (100 nodes, uniform field, 600 s) under every
/// policy at every load, each run with its own seed.
pub fn paper_sweep_configs(seed: u64) -> Vec<ScenarioConfig> {
    let mut rng = SplitMix64::new(seed);
    let mut configs = Vec::new();
    for policy in POLICIES {
        for load in PAPER_LOADS_PPS {
            configs.push(ScenarioConfig::paper_default(policy, load, rng.next_seed()));
        }
    }
    configs
}

/// `large_field`: one constant-density deployment of about 1M nodes for a
/// short horizon.
pub fn large_field_config(seed: u64) -> ScenarioConfig {
    let mut rng = SplitMix64::new(seed ^ LARGE_FIELD_STREAM);
    ScenarioConfig::scaled(
        LARGE_FIELD_NODES,
        PolicyKind::Scheme1Adaptive,
        5.0,
        rng.next_seed(),
    )
    .with_duration(Duration::from_millis(LARGE_FIELD_HORIZON_MS))
}

/// The small-job grid `served_small_jobs` runs (and its traced run also
/// sends over the file bus), as the spec document a user would submit.
pub fn small_jobs_spec(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed ^ SMALL_JOBS_STREAM);
    let base_seed = rng.next_seed();
    let doc = json!({
        "caem_grid_spec": 1,
        "name": "perfbench_small_jobs",
        "base_seed": base_seed,
        "replicates": SMALL_JOB_REPLICATES,
        "node_count": SMALL_JOB_NODES,
        "duration_s": SMALL_JOB_DURATION_S,
        "scenarios": vec![
            json!({ "label": "uniform_5pps", "rate_pps": 5.0 }),
            json!({
                "label": "grid_5pps",
                "rate_pps": 5.0,
                "topology": json!({ "grid": json!({ "jitter_m": 3.0 }) }),
            }),
        ],
    });
    serde_json::to_string_pretty(&doc).expect("spec document renders")
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_wsnsim::persist::config_hash;

    fn hashes(configs: &[ScenarioConfig]) -> Vec<u64> {
        configs.iter().map(config_hash).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            hashes(&paper_sweep_configs(11)),
            hashes(&paper_sweep_configs(11))
        );
        assert_eq!(
            config_hash(&large_field_config(11)),
            config_hash(&large_field_config(11))
        );
        assert_eq!(small_jobs_spec(11), small_jobs_spec(11));
    }

    #[test]
    fn other_seed_other_inputs_same_shape() {
        let (a, b) = (paper_sweep_configs(1), paper_sweep_configs(2));
        assert_ne!(hashes(&a), hashes(&b));
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node_count, y.node_count);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.traffic.mean_rate_pps(), y.traffic.mean_rate_pps());
        }
        let (fa, fb) = (large_field_config(1), large_field_config(2));
        assert_ne!(fa.seed, fb.seed);
        assert_eq!(fa.node_count, LARGE_FIELD_NODES);
        assert_ne!(small_jobs_spec(1), small_jobs_spec(2));
    }

    #[test]
    fn small_job_spec_resolves_to_the_stated_grid() {
        let spec = caem_wsnsim::spec::GridSpec::parse(&small_jobs_spec(5))
            .expect("generated spec parses")
            .resolve(5, false)
            .expect("generated spec resolves")
            .spec;
        assert_eq!(spec.job_count(), 2 * 3 * SMALL_JOB_REPLICATES);
        assert!(spec
            .scenarios
            .iter()
            .all(|s| s.base.node_count == SMALL_JOB_NODES));
    }
}
