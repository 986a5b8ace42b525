//! The workloads: what each builds, how its inputs and fault point
//! follow from the seed, and how its outputs are checked.

use std::path::Path;
use std::time::Duration;

use streammine::common::event::Value;
use streammine::common::rng::DetRng;
use streammine::operators::RandomTagger;

use crate::system::{self, System};
use crate::trial::{Check, Plan};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chain3Floor,
    Fig6Skew,
    Cluster3Kill,
    SketchCrashApprox,
}

pub const ALL: [Workload; 4] = [
    Workload::Chain3Floor,
    Workload::Fig6Skew,
    Workload::Cluster3Kill,
    Workload::SketchCrashApprox,
];

/// fig6-skew's keys: Zipf with YCSB's default constant 0.99 (Cooper et
/// al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010) over
/// twice the sketch width, so the hottest key carries ~14% of the events.
const ZIPF_KEYS: usize = 512;
const ZIPF_S: f64 = 0.99;
/// Length of the edge partitions of chain3-floor and fig6-skew.
const PARTITION: Duration = Duration::from_millis(20);
/// Events cluster3-kill pushes after the kill before its steady phase.
const CLUSTER_SETTLE: usize = 400;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain3Floor => "chain3-floor",
            Workload::Fig6Skew => "fig6-skew",
            Workload::Cluster3Kill => "cluster3-kill",
            Workload::SketchCrashApprox => "sketch-crash-approx",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one trial takes, roughly; sets how many trials fit a run.
    fn trial_secs(self) -> f64 {
        match self {
            Workload::Chain3Floor => 0.55,
            Workload::Fig6Skew => 1.0,
            Workload::Cluster3Kill => 1.8,
            Workload::SketchCrashApprox => 1.8,
        }
    }

    /// Systems a run starts only to time their set-up, on top of one per
    /// trial.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Cluster3Kill => 16,
            _ => 200,
        }
    }

    /// Trials in a run of `seconds`.
    pub fn trials(self, seconds: f64) -> usize {
        ((seconds / self.trial_secs()).round() as usize).max(3)
    }

    /// Trial `t` of `trials`: rate, seeded fault point, post-fault tail.
    /// The fault points of a run are stratified over the fault window, so
    /// every run covers it evenly and only the spot within each stratum
    /// follows the seed.
    pub fn plan(self, rng: &mut DetRng, t: usize, trials: usize) -> Plan {
        // The fault lands in `lo..hi`; every trial pushes `hi + tail`
        // events, so each does the same work. The steady-state samples come
        // from before the fault, after `warmup` events, except on
        // cluster3-kill: a worker killed with more than ~64 events of
        // history never finishes recovering (see CHANGES.md), so its kill
        // comes early and its steady phase runs after the recovery.
        let (rate, lo, hi, tail, warmup, window) = match self {
            Workload::Chain3Floor => (4000.0, 1200, 1600, 200, 200, PARTITION),
            Workload::Fig6Skew => (1500.0, 700, 1100, 75, 150, PARTITION),
            Workload::Cluster3Kill => (1000.0, 20, 60, 1200, 0, Duration::ZERO),
            // Checkpoint every 32: the crash lands anywhere in a window.
            Workload::SketchCrashApprox => (100.0, 120, 150, 40, 10, Duration::ZERO),
        };
        let stratum = (t as f64 + rng.next_f64()) / trials as f64;
        let fault_at = lo + ((hi - lo) as f64 * stratum) as usize;
        let post = hi + tail - fault_at;
        let steady = match self {
            Workload::Cluster3Kill => fault_at + CLUSTER_SETTLE..fault_at + post,
            _ => warmup..fault_at,
        };
        Plan { rate, fault_at, post, window, steady }
    }

    /// Payloads for `n` events.
    pub fn inputs(self, rng: &mut DetRng, n: usize) -> Vec<Value> {
        match self {
            Workload::Chain3Floor | Workload::Cluster3Kill => {
                (0..n).map(|_| Value::Int((rng.next_u64() >> 1) as i64)).collect()
            }
            Workload::Fig6Skew => {
                let zipf = Zipf::new(ZIPF_KEYS, ZIPF_S);
                (0..n).map(|_| Value::Int(zipf.sample(rng) as i64)).collect()
            }
            // One key per trial, drawn from the seed: every estimate is
            // then the count of all events so far, so a recovery that loses
            // more than the ⌊ε·N⌋ updates the bound allows shows as a
            // deviation beyond it. Spread over k keys, a loss of up to
            // k·⌊ε·N⌋ updates could hide below the per-estimate bound.
            Workload::SketchCrashApprox => {
                let key = Value::Int((rng.next_u64() >> 1) as i64);
                vec![key; n]
            }
        }
    }

    /// Final outputs of a failure-free in-process run on `inputs`.
    pub fn reference(self, inputs: &[Value]) -> Vec<Vec<u8>> {
        match self {
            Workload::Chain3Floor => system::chain3_reference(inputs),
            Workload::Fig6Skew => system::fig6_reference(inputs),
            Workload::Cluster3Kill => system::cluster3_reference(inputs),
            Workload::SketchCrashApprox => system::count_min_reference(inputs),
        }
    }

    pub fn check(self, reference: &[Vec<u8>]) -> Check<'_> {
        match self {
            Workload::SketchCrashApprox => Check::Bounded(reference),
            _ => Check::Identical(reference),
        }
    }

    /// Operator names by graph index, for naming an operator at its cap.
    pub fn operator_names(self) -> Vec<&'static str> {
        match self {
            Workload::Chain3Floor => vec!["stamped-relay"; system::CHAIN_HOPS],
            Workload::Fig6Skew => vec!["union", "count-sketch"],
            Workload::Cluster3Kill => vec![RandomTagger::NAME; system::CLUSTER_HOPS],
            Workload::SketchCrashApprox => vec!["count-min"],
        }
    }

    /// Starts the system under test.
    pub fn build(self, worker_bin: &Path) -> System {
        match self {
            Workload::Chain3Floor => system::chain3(),
            Workload::Fig6Skew => system::fig6(),
            Workload::Cluster3Kill => system::cluster3(worker_bin.to_path_buf())
                .unwrap_or_else(|e| crate::fail(&format!("cluster launch failed: {e}"))),
            Workload::SketchCrashApprox => system::count_min(),
        }
    }
}

/// Zipf sampler over `[0, n)` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for w in ALL {
            let a = w.inputs(&mut DetRng::seed_from(5), 50);
            let b = w.inputs(&mut DetRng::seed_from(5), 50);
            let c = w.inputs(&mut DetRng::seed_from(6), 50);
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(ZIPF_KEYS, ZIPF_S);
        let mut rng = DetRng::seed_from(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let hot = draws.iter().filter(|&&k| k == 0).count();
        assert!(hot > 1000, "key 0 drawn {hot} times");
        assert!(draws.iter().all(|&k| k < ZIPF_KEYS));
    }
}
