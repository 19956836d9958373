//! The tuning search space: what a candidate is and how to sample or
//! mutate one.

use fgfft::exec::{SeedOrder, Version};
use fgfft::planner::PlanKey;
use fgfft::workload::SCRATCHPAD_RADIX_LOG2;
use fgfft::{BackendSel, FftPlan, ScheduleTuning, TransformKind, TwiddleLayout};
use fgsupport::rng::Rng64;

/// One point in the search space: a complete recipe the service could run.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Algorithm version (coarse/fine/guided family).
    pub version: Version,
    /// Twiddle-table layout.
    pub layout: TwiddleLayout,
    /// Schedule overrides applied on top of the version's seed schedule.
    pub tuning: ScheduleTuning,
    /// Runtime worker count used when measuring (and recorded in wisdom).
    pub workers: usize,
    /// Batch size used when measuring (and recorded in wisdom).
    pub batch: usize,
    /// Execution backend used when measuring (and recorded in wisdom).
    pub backend: BackendSel,
}

impl Candidate {
    /// The plan-cache key this candidate tunes.
    pub fn key(&self, kind: TransformKind, n_log2: u32, radix_log2: u32) -> PlanKey {
        PlanKey::with_kind(kind, 1 << n_log2, self.version, self.layout, radix_log2)
    }

    /// Short human label for logs and reports.
    pub fn describe(&self) -> String {
        let order = match &self.tuning.pool_order {
            None => "seed-order".to_string(),
            Some(order) => format!("perm[{}]", order.len()),
        };
        let split = match self.tuning.last_early {
            None => String::new(),
            Some(s) => format!(" split@{s}"),
        };
        let block = match self.tuning.transpose_block_log2 {
            None => String::new(),
            Some(b) => format!(" tb{b}"),
        };
        format!(
            "{}/{} {}{}{} w{} b{} {}",
            fgfft::wisdom::version_to_string(self.version),
            fgfft::wisdom::layout_to_string(self.layout),
            order,
            split,
            block,
            self.workers,
            self.batch,
            self.backend
        )
    }
}

/// The dimensions the tuner may vary for one `(N, radix)` problem.
///
/// Defaults cover the interesting region of the paper: the fine-grain
/// versions (whose pool order is the paper's "fine worst vs fine best"
/// spread), all three twiddle layouts, and worker/batch counts up to the
/// host's parallelism.
#[derive(Debug, Clone)]
pub struct TuningSpace {
    /// Transform size exponent.
    pub n_log2: u32,
    /// Codelet radix exponent.
    pub radix_log2: u32,
    /// Transform kind the space tunes. Composite kinds tune the *inner*
    /// complex schedule (plus, for 2D, the transpose tile edge).
    pub kind: TransformKind,
    /// Versions to tune over.
    pub versions: Vec<Version>,
    /// Layouts to tune over.
    pub layouts: Vec<TwiddleLayout>,
    /// Worker counts to tune over.
    pub workers: Vec<usize>,
    /// Batch sizes to tune over.
    pub batches: Vec<usize>,
    /// Execution backends to tune over.
    pub backends: Vec<BackendSel>,
}

impl TuningSpace {
    /// Default space for an `N = 2^n_log2` transform with `2^radix_log2`
    /// point codelets.
    pub fn new(n_log2: u32, radix_log2: u32) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let mut workers: Vec<usize> = vec![1, 2, 4, host];
        workers.retain(|&w| w <= host || w <= 4);
        workers.sort_unstable();
        workers.dedup();
        Self {
            n_log2,
            radix_log2,
            kind: TransformKind::C2C,
            versions: vec![
                Version::Fine(SeedOrder::Natural),
                Version::FineHash(SeedOrder::Natural),
                Version::FineGuided,
            ],
            layouts: vec![
                TwiddleLayout::Linear,
                TwiddleLayout::BitReversedHash,
                TwiddleLayout::MultiplicativeHash,
            ],
            workers,
            batches: vec![1, 4, 8],
            backends: vec![BackendSel::SCALAR, BackendSel::SIMD],
        }
    }

    /// As [`TuningSpace::new`] for a non-C2C transform kind. Panics when
    /// the kind does not fit the size.
    pub fn with_kind(mut self, kind: TransformKind) -> Self {
        if let Err(why) = kind.validate(self.n_log2) {
            panic!("invalid transform kind: {why}");
        }
        self.kind = kind;
        self
    }

    /// The index-algebra plan the schedule axes range over: the transform
    /// itself for C2C, the packed/row inner complex plan for composite
    /// kinds (with the composite radix clamp applied, mirroring
    /// [`PlanKey::with_kind`]).
    pub fn plan(&self) -> FftPlan {
        let inner = self.kind.inner_n_log2(self.n_log2);
        let mut radix = self.radix_log2.min(inner);
        if !self.kind.is_c2c() {
            radix = radix.min(SCRATCHPAD_RADIX_LOG2);
        }
        FftPlan::new(inner, radix)
    }

    /// Codelets per stage — the length of a pool-order permutation.
    pub fn codelets_per_stage(&self) -> usize {
        self.plan().codelets_per_stage()
    }

    /// The untuned baseline for `version`: its own seed schedule, its own
    /// layout, full host parallelism, single transforms.
    pub fn seed_candidate(&self, version: Version) -> Candidate {
        Candidate {
            version,
            layout: version.layout(),
            tuning: ScheduleTuning::identity(),
            workers: *self.workers.last().expect("worker list is non-empty"),
            batch: 1,
            backend: BackendSel::SCALAR,
        }
    }

    /// A uniformly random candidate (exploration move).
    pub fn random_candidate(&self, rng: &mut Rng64) -> Candidate {
        let version = self.versions[rng.gen_range(0..self.versions.len())];
        Candidate {
            version,
            layout: self.layouts[rng.gen_range(0..self.layouts.len())],
            tuning: ScheduleTuning {
                pool_order: self.random_pool_order(rng),
                last_early: self.random_split(version, rng),
                transpose_block_log2: self.random_block(rng),
            },
            workers: self.workers[rng.gen_range(0..self.workers.len())],
            batch: self.batches[rng.gen_range(0..self.batches.len())],
            backend: self.backends[rng.gen_range(0..self.backends.len())],
        }
    }

    /// A small mutation of `base` (exploitation move): swap two pool-order
    /// positions, nudge the guided split, or step a runtime parameter.
    pub fn neighbor(&self, base: &Candidate, rng: &mut Rng64) -> Candidate {
        let mut c = base.clone();
        let stages = self.plan().stages();
        // Move kinds: 0‒1 swap (most of the space lives in the pool order,
        // so it gets double weight), 2 split nudge, 3 workers, 4 batch,
        // 5 backend, 6 transpose-block nudge (2D only; swap otherwise).
        match rng.gen_range(0..7) {
            0 | 1 => self.swap_move(&mut c, rng),
            2 if c.version == Version::FineGuided && stages >= 3 => {
                let cur = c.tuning.last_early.unwrap_or(stages.saturating_sub(3));
                let next = if rng.gen_bool() {
                    cur.saturating_sub(1)
                } else {
                    (cur + 1).min(stages - 2)
                };
                c.tuning.last_early = Some(next);
            }
            2 => self.swap_move(&mut c, rng),
            3 => c.workers = self.workers[rng.gen_range(0..self.workers.len())],
            4 => c.batch = self.batches[rng.gen_range(0..self.batches.len())],
            5 => c.backend = self.backends[rng.gen_range(0..self.backends.len())],
            _ => match self.block_choices() {
                Some(blocks) => {
                    c.tuning.transpose_block_log2 = blocks[rng.gen_range(0..blocks.len())];
                }
                None => self.swap_move(&mut c, rng),
            },
        }
        c
    }

    /// The transpose tile-edge exponents worth trying: `None` = the
    /// planner's default, plus every power of two from 2^2 up to the 2D
    /// plane's smaller axis (capped at 2^6 — past that a tile no longer
    /// fits any plausible cache). Empty for non-2D kinds.
    fn block_choices(&self) -> Option<Vec<Option<u32>>> {
        let TransformKind::C2C2D {
            rows_log2,
            cols_log2,
        } = self.kind
        else {
            return None;
        };
        let max = rows_log2.min(cols_log2).min(6);
        let mut out = vec![None];
        out.extend((2..=max).map(Some));
        Some(out)
    }

    fn random_block(&self, rng: &mut Rng64) -> Option<u32> {
        let blocks = self.block_choices()?;
        blocks[rng.gen_range(0..blocks.len())]
    }

    fn swap_move(&self, c: &mut Candidate, rng: &mut Rng64) {
        let cps = self.codelets_per_stage();
        if cps < 2 {
            return;
        }
        let mut order = c
            .tuning
            .pool_order
            .take()
            .unwrap_or_else(|| (0..cps).collect());
        let i = rng.gen_range(0..cps);
        let mut j = rng.gen_range(0..cps);
        if i == j {
            j = (j + 1) % cps;
        }
        order.swap(i, j);
        c.tuning.pool_order = Some(order);
    }

    fn random_pool_order(&self, rng: &mut Rng64) -> Option<Vec<usize>> {
        let cps = self.codelets_per_stage();
        if cps < 2 {
            return None;
        }
        match rng.gen_range(0..5) {
            0 => None,
            1 => Some(SeedOrder::Reversed.order(cps)),
            2 => Some(SeedOrder::EvenOdd.order(cps)),
            3 => Some(SeedOrder::Random(rng.gen_u64()).order(cps)),
            _ => {
                // Fresh Fisher–Yates driven by the search rng.
                let mut order: Vec<usize> = (0..cps).collect();
                for i in (1..cps).rev() {
                    let j = rng.gen_range(0..i + 1);
                    order.swap(i, j);
                }
                Some(order)
            }
        }
    }

    fn random_split(&self, version: Version, rng: &mut Rng64) -> Option<usize> {
        if version != Version::FineGuided {
            return None;
        }
        let stages = self.plan().stages();
        if stages < 3 || rng.gen_bool() {
            return None;
        }
        // Any split with a non-empty late phase: last_early ∈ 0..=stages−2.
        Some(rng.gen_range(0..stages - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_candidates_always_validate() {
        for n_log2 in [8u32, 12, 18] {
            let space = TuningSpace::new(n_log2, 6);
            let plan = space.plan();
            let mut rng = Rng64::seed_from_u64(7);
            let mut c = space.random_candidate(&mut rng);
            for step in 0..200 {
                c.tuning
                    .validate(&plan)
                    .unwrap_or_else(|e| panic!("n=2^{n_log2} step {step}: {e}"));
                c = if step % 3 == 0 {
                    space.random_candidate(&mut rng)
                } else {
                    space.neighbor(&c, &mut rng)
                };
            }
        }
    }

    #[test]
    fn kind_spaces_sample_valid_candidates() {
        let two_d = TransformKind::C2C2D {
            rows_log2: 5,
            cols_log2: 7,
        };
        for kind in [TransformKind::R2C, two_d] {
            let space = TuningSpace::new(12, 6).with_kind(kind);
            let plan = space.plan();
            assert_eq!(plan.n_log2(), kind.inner_n_log2(12));
            let mut rng = Rng64::seed_from_u64(11);
            let mut c = space.random_candidate(&mut rng);
            let mut saw_block = false;
            for step in 0..200 {
                c.tuning
                    .validate(&plan)
                    .unwrap_or_else(|e| panic!("{kind:?} step {step}: {e}"));
                saw_block |= c.tuning.transpose_block_log2.is_some();
                assert_eq!(c.key(kind, space.n_log2, space.radix_log2).kind, kind);
                c = if step % 3 == 0 {
                    space.random_candidate(&mut rng)
                } else {
                    space.neighbor(&c, &mut rng)
                };
            }
            assert_eq!(
                saw_block,
                matches!(kind, TransformKind::C2C2D { .. }),
                "{kind:?}: only 2D walks explore the transpose-block axis"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let space = TuningSpace::new(12, 6);
        let walk = |seed| {
            let mut rng = Rng64::seed_from_u64(seed);
            (0..50)
                .map(|_| space.random_candidate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(42), walk(42));
        assert_ne!(walk(42), walk(43));
    }

    #[test]
    fn seed_candidate_is_identity() {
        let space = TuningSpace::new(12, 6);
        for &v in &space.versions {
            let c = space.seed_candidate(v);
            assert_eq!(c.tuning, ScheduleTuning::identity());
            assert_eq!(c.layout, v.layout());
        }
    }
}
