//! The search driver: seeds first, then random exploration mixed with a
//! greedy neighborhood walk, under a wall-clock budget.

use crate::objective::{measure_candidate, prescreen, Gate, Screened, StaticScreen};
use crate::space::{Candidate, TuningSpace};
use fgfft::planner::PlanKey;
use fgfft::wisdom::{version_to_string, Wisdom, WisdomEntry};
use fgsupport::json::Value;
use fgsupport::rng::Rng64;
use std::time::{Duration, Instant};

/// Search parameters.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Wall-clock budget for the whole search (seeds included).
    pub budget: Duration,
    /// RNG seed: same seed + same budget class ⇒ same candidate sequence.
    pub seed: u64,
    /// Wall-clock samples per candidate (median-of-k).
    pub reps: usize,
    /// Hard cap on candidates considered (safety net for huge budgets).
    pub max_candidates: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            budget: Duration::from_secs(10),
            seed: 0x5EED_F617,
            reps: 5,
            max_candidates: 10_000,
        }
    }
}

/// One measured candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The candidate itself.
    pub candidate: Candidate,
    /// Median wall time per transform, nanoseconds.
    pub median_ns: u64,
    /// Its static pre-screen costs.
    pub screen: StaticScreen,
    /// True when this was a version's untuned baseline.
    pub is_seed: bool,
}

/// What one `tune` run found, beyond the wisdom itself.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Problem size exponent.
    pub n_log2: u32,
    /// Codelet radix exponent.
    pub radix_log2: u32,
    /// Candidates actually measured (incl. seeds).
    pub evaluated: usize,
    /// Candidates rejected or pruned by the static pre-screen.
    pub pruned: usize,
    /// Wall-clock the search spent.
    pub elapsed: Duration,
    /// Fastest measured candidate.
    pub best: Measured,
    /// Slowest measured candidate — with `best`, the paper's
    /// best-vs-worst schedule spread, now measured on the host.
    pub worst: Measured,
    /// The untuned per-version baselines.
    pub seeds: Vec<Measured>,
}

impl TuneReport {
    /// Median of the fastest untuned baseline.
    pub fn seed_median_ns(&self) -> u64 {
        self.seeds
            .iter()
            .map(|m| m.median_ns)
            .min()
            .unwrap_or(self.best.median_ns)
    }

    /// `seed_median / best_median` — ≥ 1.0 means tuning did not lose.
    pub fn speedup_vs_seed(&self) -> f64 {
        self.seed_median_ns() as f64 / self.best.median_ns.max(1) as f64
    }

    /// `worst_median / best_median` — the measured schedule spread.
    pub fn best_worst_spread(&self) -> f64 {
        self.worst.median_ns as f64 / self.best.median_ns.max(1) as f64
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Value {
        let measured = |m: &Measured| {
            Value::obj(vec![
                ("candidate", Value::Str(m.candidate.describe())),
                (
                    "version",
                    Value::Str(version_to_string(m.candidate.version)),
                ),
                ("median_ns", Value::Num(m.median_ns as f64)),
                (
                    "sim_makespan_cycles",
                    Value::Num(m.screen.makespan_cycles as f64),
                ),
                ("sim_bank_imbalance", Value::Num(m.screen.bank_imbalance)),
                ("is_seed", Value::Bool(m.is_seed)),
            ])
        };
        Value::obj(vec![
            ("n_log2", Value::Num(self.n_log2 as f64)),
            ("radix_log2", Value::Num(self.radix_log2 as f64)),
            ("evaluated", Value::Num(self.evaluated as f64)),
            ("pruned", Value::Num(self.pruned as f64)),
            ("elapsed_ms", Value::Num(self.elapsed.as_millis() as f64)),
            ("best", measured(&self.best)),
            ("worst", measured(&self.worst)),
            (
                "seeds",
                Value::Arr(self.seeds.iter().map(measured).collect()),
            ),
            ("seed_median_ns", Value::Num(self.seed_median_ns() as f64)),
            ("speedup_vs_seed", Value::Num(self.speedup_vs_seed())),
            ("best_worst_spread", Value::Num(self.best_worst_spread())),
        ])
    }

    /// One-paragraph text summary.
    pub fn render_text(&self) -> String {
        format!(
            "fgtune: N = 2^{} — {} measured, {} pruned, {:?} elapsed\n\
             best:  {:>10} ns  {}\n\
             seed:  {:>10} ns  (fastest untuned baseline)\n\
             worst: {:>10} ns  {}\n\
             speedup vs seed {:.2}×, best-vs-worst spread {:.2}×\n",
            self.n_log2,
            self.evaluated,
            self.pruned,
            self.elapsed,
            self.best.median_ns,
            self.best.candidate.describe(),
            self.seed_median_ns(),
            self.worst.median_ns,
            self.worst.candidate.describe(),
            self.speedup_vs_seed(),
            self.best_worst_spread(),
        )
    }
}

/// Wisdom plus report.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Per-key winners, ready to save and load into a planner.
    pub wisdom: Wisdom,
    /// What the search saw.
    pub report: TuneReport,
}

/// Run the search over `space` under `config`.
///
/// Seeds (each version's untuned schedule) are always measured first —
/// they are the baselines every claim in the report is relative to, and
/// they calibrate the pre-screen gate. The remaining budget alternates
/// random exploration with greedy swap/nudge moves around the best
/// candidate so far. Every candidate passes the `fgcheck` static passes
/// before it is measured, so the emitted wisdom can never contain an
/// invalid schedule.
pub fn tune(space: &TuningSpace, config: &TuneConfig) -> TuneOutcome {
    assert!(!space.versions.is_empty(), "tuning space has no versions");
    let start = Instant::now();
    let mut rng = Rng64::seed_from_u64(config.seed);
    let mut gate = Gate::new();
    let mut all: Vec<Measured> = Vec::new();
    let mut pruned = 0usize;

    for &version in &space.versions {
        let candidate = space.seed_candidate(version);
        match prescreen(space, &candidate) {
            Screened::Passed(screen) => {
                gate.observe_seed(&screen);
                let median_ns = measure_candidate(space, &candidate, config.reps);
                all.push(Measured {
                    candidate,
                    median_ns,
                    screen,
                    is_seed: true,
                });
            }
            Screened::Rejected(why) => {
                // A seed schedule failing its own static checks is a bug in
                // the codebase, not a tuning outcome.
                panic!("seed schedule {} rejected: {why}", candidate.describe());
            }
        }
    }

    let mut center = best_of(&all).clone();
    while start.elapsed() < config.budget && all.len() + pruned < config.max_candidates {
        let candidate = if rng.gen_bool() {
            space.random_candidate(&mut rng)
        } else {
            space.neighbor(&center.candidate, &mut rng)
        };
        if all.iter().any(|m| m.candidate == candidate) {
            continue; // already measured this exact point
        }
        match prescreen(space, &candidate) {
            Screened::Rejected(_) => pruned += 1,
            Screened::Passed(screen) => {
                if gate.admit(&screen).is_err() {
                    pruned += 1;
                    continue;
                }
                let median_ns = measure_candidate(space, &candidate, config.reps);
                let measured = Measured {
                    candidate,
                    median_ns,
                    screen,
                    is_seed: false,
                };
                if measured.median_ns < center.median_ns {
                    center = measured.clone();
                }
                all.push(measured);
            }
        }
    }

    let best = best_of(&all).clone();
    let worst = all
        .iter()
        .max_by_key(|m| m.median_ns)
        .expect("seeds were measured")
        .clone();
    let seeds: Vec<Measured> = all.iter().filter(|m| m.is_seed).cloned().collect();

    // Wisdom: for every plan key touched, keep the fastest measured
    // candidate — but only when it actually beats that key's baseline
    // (the version's seed when measured, else the best seed overall).
    let mut wisdom = Wisdom::new();
    let fallback_seed = seeds.iter().map(|m| m.median_ns).min().unwrap_or(u64::MAX);
    let mut keys: Vec<PlanKey> = Vec::new();
    for m in &all {
        let key = m.candidate.key(space.kind, space.n_log2, space.radix_log2);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for key in keys {
        let best_for_key = all
            .iter()
            .filter(|m| m.candidate.key(space.kind, space.n_log2, space.radix_log2) == key)
            .min_by_key(|m| m.median_ns)
            .expect("key came from this list");
        let seed_for_key = seeds
            .iter()
            .find(|m| m.candidate.key(space.kind, space.n_log2, space.radix_log2) == key)
            .map(|m| m.median_ns)
            .unwrap_or(fallback_seed);
        if best_for_key.is_seed || best_for_key.median_ns <= seed_for_key {
            // Certify the winner: the full four-pass run (pass 4 included,
            // which the in-loop prescreen skips) sealed into the entry, so
            // a verifying planner will accept it. A winner failing here
            // would mean the prescreen passed an unsound schedule — treat
            // it as the bug it is rather than emit uncertified wisdom.
            let mut opts = fgcheck::FftCheckOptions::new(key.n_log2, key.version);
            opts.radix_log2 = key.radix_log2;
            opts.kind = key.kind;
            opts.layout = Some(key.layout);
            let cert = fgcheck::certify(&opts, Some(&best_for_key.candidate.tuning))
                .unwrap_or_else(|diags| {
                    panic!(
                        "measured winner {} fails certification: {diags:?}",
                        best_for_key.candidate.describe()
                    )
                });
            wisdom.insert(WisdomEntry {
                key,
                tuning: best_for_key.candidate.tuning.clone(),
                backend: best_for_key.candidate.backend,
                median_ns: best_for_key.median_ns,
                seed_median_ns: seed_for_key,
                cert: Some(cert),
            });
        }
    }

    TuneOutcome {
        wisdom,
        report: TuneReport {
            n_log2: space.n_log2,
            radix_log2: space.radix_log2,
            evaluated: all.len(),
            pruned,
            elapsed: start.elapsed(),
            best,
            worst,
            seeds,
        },
    }
}

fn best_of(all: &[Measured]) -> &Measured {
    all.iter()
        .min_by_key(|m| m.median_ns)
        .expect("at least the seeds were measured")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcheck::FftCheckOptions;

    fn smoke_outcome() -> TuneOutcome {
        let space = TuningSpace::new(9, 6);
        let config = TuneConfig {
            budget: Duration::from_millis(400),
            seed: 11,
            reps: 2,
            max_candidates: 64,
        };
        tune(&space, &config)
    }

    #[test]
    fn tune_emits_valid_wisdom_and_coherent_report() {
        let outcome = smoke_outcome();
        let report = &outcome.report;
        assert!(report.evaluated >= report.seeds.len());
        assert_eq!(report.seeds.len(), 3, "one baseline per version");
        assert!(report.best.median_ns <= report.seed_median_ns());
        assert!(report.best.median_ns <= report.worst.median_ns);
        assert!(report.speedup_vs_seed() >= 1.0);
        assert!(!outcome.wisdom.is_empty());
        // Every emitted tuning passes all three static passes.
        for entry in outcome.wisdom.entries() {
            let mut opts = FftCheckOptions::new(entry.key.n_log2, entry.key.version);
            opts.radix_log2 = entry.key.radix_log2;
            opts.kind = entry.key.kind;
            opts.layout = Some(entry.key.layout);
            let check = fgcheck::check_fft_tuned(&opts, Some(&entry.tuning));
            assert!(!check.has_errors(), "wisdom entry fails static checks");
            assert!(entry.median_ns <= entry.seed_median_ns);
            // And carries a certificate that verifies against its tuning
            // and the plan it builds.
            let cert = entry.cert.as_ref().expect("tuner certifies every entry");
            cert.verify_static(entry.key, Some(&entry.tuning))
                .expect("certificate verifies statically");
            cert.verify_plan(&fgfft::Plan::build_tuned(entry.key, Some(&entry.tuning)))
                .expect("certificate verifies against the built plan");
            assert_ne!(cert.hb_witness, 0, "full certificate, not structural");
        }
    }

    #[test]
    fn search_is_deterministic_in_candidate_order() {
        // Wall-clock budgets make the *count* nondeterministic, but the
        // candidate sequence for a fixed seed must be stable: rerun and
        // check the shorter run is a prefix-consistent subset.
        let a = smoke_outcome();
        let b = smoke_outcome();
        let pairs = a.report.evaluated.min(b.report.evaluated);
        assert!(pairs >= 3);
        // Seeds are deterministic and first.
        for (x, y) in a.report.seeds.iter().zip(&b.report.seeds) {
            assert_eq!(x.candidate, y.candidate);
        }
    }
}
