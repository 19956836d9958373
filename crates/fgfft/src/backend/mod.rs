//! Pluggable butterfly kernels for plans.
//!
//! A [`crate::planner::Plan`] fixes *what* to compute — the certified
//! codelet schedule and the flattened per-stage gather/butterfly/twiddle
//! tables — and the one scheduler, [`Runtime`], fires that schedule
//! exactly as certified on `runtime.workers()` workers (the calling thread
//! is worker 0). A [`Backend`] only chooses the innermost loop, the
//! [`CodeletKernel`] every codelet runs:
//!
//! * [`HostScalar`] — the historical tables-driven path: the same
//!   [`ScalarKernel`] that `Plan::execute_batch` itself runs.
//! * [`HostSimd`] — f64x4 complex butterflies (two complex lanes per
//!   vector) over the same tables, via `core::arch` AVX2 on `x86_64` with
//!   a portable four-lane fallback everywhere else. Radix-4 or radix-8
//!   register-fused passes over each codelet's local buffer; the SIMD
//!   module's source documents why the FG40x-verified table shape is the
//!   aliasing precondition for the vector loads.
//!
//! Threading is not a backend: it is the runtime's worker count, so every
//! kernel runs the coarse, fine or guided schedule on any number of
//! workers.
//!
//! The split keeps the certificate story intact: a backend never builds
//! tables of its own, it only consumes the plan's — so a certificate over
//! the plan covers execution under every backend, and the cross-backend
//! exactness suite pins all of them to identical bits.
//!
//! Selection is a plain value, [`BackendSel`], that serializes into wisdom
//! so the autotuner can learn scalar-vs-SIMD and kernel radix per
//! `(N, machine)`.

mod scalar;
mod simd;

pub use scalar::{HostScalar, ScalarKernel};
pub use simd::HostSimd;

use crate::complex::Complex64;
use crate::exec::shared::SharedData;
use crate::exec::ExecStats;
use crate::planner::Plan;
use codelet::runtime::Runtime;
use std::sync::Arc;

/// The butterfly arithmetic of one codelet, abstracted over the engine.
///
/// A kernel receives exactly the per-codelet table slices the scalar hot
/// path streams — the gather run (global element indices), the stage's
/// butterfly pair pattern over the local buffer, the stage's slot pattern
/// (per butterfly, the position of its twiddle in the run), and the
/// codelet's class run (the distinct twiddles its class consumes,
/// [`crate::workload::append_class_run`]) — and must leave the same bits
/// behind as [`crate::exec::shared::execute_codelet_tabled`] would:
/// butterfly `i` multiplies by `run[slots[i]]`. Schedules, tables, and
/// certificates are backend-independent; only this innermost loop varies.
pub trait CodeletKernel: Send + Sync + std::fmt::Debug {
    /// Short human-readable identity (used in fingerprints and stats).
    fn label(&self) -> &'static str;

    /// Execute one codelet over `view`.
    ///
    /// # Safety
    /// The caller upholds the dataflow discipline documented in
    /// [`crate::exec::shared`]: this codelet owns the elements named by
    /// `gather` for the duration of the call, every `gather` index is in
    /// bounds for `view`, every pair is in bounds for the codelet's
    /// `gather.len()` slots, and every slot is in bounds for `run`.
    unsafe fn run_codelet(
        &self,
        gather: &[u32],
        pairs: &[(u32, u32)],
        slots: &[u8],
        run: &[Complex64],
        view: &SharedData<'_>,
    );
}

/// What an execution backend can do, for fingerprinting and tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Vector instruction set the butterfly kernel uses: `"scalar"`,
    /// `"portable"` (four-lane fallback) or `"avx2"`.
    pub vector_isa: &'static str,
    /// Complex values processed per vector operation (1 for scalar).
    pub complex_lanes: usize,
}

/// An execution engine for certified plans.
///
/// `prepare` binds a plan to the backend's kernel (verifying any
/// preconditions the kernel needs, e.g. the canonical butterfly pattern
/// for vector loads) and returns a [`PreparedPlan`] that executes batches.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Stable identity of the backend family (e.g. `"host-scalar"`).
    fn name(&self) -> &'static str;

    /// Capability report for this instance on this machine.
    fn capabilities(&self) -> Capabilities;

    /// Machine-facing identity string: which engine, which ISA, how many
    /// lanes. Two equal fingerprints execute plans identically.
    fn fingerprint(&self) -> String {
        let caps = self.capabilities();
        format!("{}:{}x{}", self.name(), caps.vector_isa, caps.complex_lanes)
    }

    /// Bind `plan` to this backend's execution strategy.
    fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan;
}

/// A plan bound to a backend, ready to execute batches.
///
/// Holds the `Arc<Plan>` (tables, schedule, certificate scope) plus the
/// backend's chosen kernel; nothing about the plan itself is copied or
/// re-lowered, so a certificate verified against the plan covers every
/// prepared form of it.
#[derive(Debug)]
pub struct PreparedPlan {
    plan: Arc<Plan>,
    kernel: Arc<dyn CodeletKernel>,
    fingerprint: String,
}

impl PreparedPlan {
    /// The plan this preparation wraps.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Fingerprint of the backend that prepared this plan.
    pub fn backend_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// In-place forward transform of one buffer; bit-identical to
    /// [`Plan::execute`] for every backend.
    pub fn execute(&self, data: &mut [Complex64], runtime: &Runtime) -> ExecStats {
        self.plan.execute_with(&*self.kernel, data, runtime)
    }

    /// In-place forward transform of a batch of same-plan buffers;
    /// bit-identical to [`Plan::execute_batch`] for every backend.
    pub fn execute_batch(&self, buffers: &mut [&mut [Complex64]], runtime: &Runtime) -> ExecStats {
        self.plan
            .execute_batch_with(&*self.kernel, buffers, runtime)
    }

    fn new(plan: &Arc<Plan>, kernel: Arc<dyn CodeletKernel>, backend: &dyn Backend) -> Self {
        Self {
            plan: Arc::clone(plan),
            kernel,
            fingerprint: backend.fingerprint(),
        }
    }
}

/// Backend family, the coarse axis of [`BackendSel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// [`HostScalar`]: the historical scalar hot path.
    #[default]
    Scalar,
    /// [`HostSimd`]: vectorized butterflies over the same schedule.
    Simd,
}

/// A serializable backend choice: which engine runs the plan, and the
/// register-fusion radix of the SIMD kernel (log2: 2 = radix-4 passes,
/// 3 = radix-8 passes). This is the value wisdom learns per
/// `(N, machine)` and `ServeConfig`/`TuningSpace` select on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackendSel {
    /// Engine family.
    pub kind: BackendKind,
    /// SIMD kernel fusion radix exponent (2 or 3); ignored by scalar kinds.
    pub simd_radix_log2: u32,
}

impl Default for BackendSel {
    fn default() -> Self {
        Self::SCALAR
    }
}

impl BackendSel {
    /// The historical scalar path (the default, and the safe fallback).
    pub const SCALAR: Self = Self {
        kind: BackendKind::Scalar,
        simd_radix_log2: 3,
    };

    /// SIMD backend with radix-8 register fusion.
    pub const SIMD: Self = Self {
        kind: BackendKind::Simd,
        simd_radix_log2: 3,
    };

    /// Instantiate the selected backend.
    pub fn build(&self) -> Arc<dyn Backend> {
        match self.kind {
            BackendKind::Scalar => Arc::new(HostScalar),
            BackendKind::Simd => Arc::new(HostSimd::new(self.simd_radix_log2)),
        }
    }

    /// Canonical name of the engine family (stable; stored in wisdom).
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Parse a selection: an engine name (`scalar` or `simd`) with an
    /// optional `-r4`/`-r8` fusion-radix suffix on the SIMD kind (default
    /// radix-8).
    pub fn parse(s: &str) -> Option<Self> {
        let (base, radix) = match s.strip_suffix("-r4") {
            Some(b) => (b, 2),
            None => match s.strip_suffix("-r8") {
                Some(b) => (b, 3),
                None => (s, 3),
            },
        };
        let kind = match base {
            "scalar" => BackendKind::Scalar,
            "simd" => BackendKind::Simd,
            _ => return None,
        };
        Some(Self {
            kind,
            simd_radix_log2: radix,
        })
    }

    /// Parse an engine-family name alone (no radix suffix); used by the
    /// wisdom decoder where the radix travels in its own field.
    pub fn kind_from_str(s: &str) -> Option<BackendKind> {
        Some(match s {
            "scalar" => BackendKind::Scalar,
            "simd" => BackendKind::Simd,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BackendSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BackendKind::Scalar => write!(f, "{}", self.kind_str()),
            BackendKind::Simd => {
                write!(f, "{}-r{}", self.kind_str(), 1u32 << self.simd_radix_log2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};
    use crate::planner::PlanKey;

    #[test]
    fn selection_round_trips_through_strings() {
        for sel in [
            BackendSel::SCALAR,
            BackendSel::SIMD,
            BackendSel {
                kind: BackendKind::Simd,
                simd_radix_log2: 2,
            },
        ] {
            let shown = sel.to_string();
            let parsed = BackendSel::parse(&shown).unwrap();
            // Scalar kinds drop the radix on display; normalize before
            // comparing.
            assert_eq!(parsed.kind, sel.kind, "{shown}");
            assert_eq!(BackendSel::kind_from_str(sel.kind_str()), Some(sel.kind));
        }
        // Threading is the runtime's worker count, not an engine name.
        assert_eq!(BackendSel::parse("threaded"), None);
        assert_eq!(
            BackendSel::parse("simd-r4").map(|s| s.simd_radix_log2),
            Some(2)
        );
        assert_eq!(BackendSel::parse("gpu"), None);
    }

    #[test]
    fn fingerprints_distinguish_backends() {
        let plan = std::sync::Arc::new(crate::planner::Plan::build(PlanKey::new(
            1 << 8,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Natural).layout(),
        )));
        let mut prints = std::collections::HashSet::new();
        for sel in [BackendSel::SCALAR, BackendSel::SIMD] {
            let backend = sel.build();
            let prepared = backend.prepare(&plan);
            assert_eq!(prepared.backend_fingerprint(), backend.fingerprint());
            prints.insert(backend.fingerprint());
        }
        assert_eq!(prints.len(), 2, "{prints:?}");
    }

    /// A panicking kernel must poison the run, not hang the phased barrier
    /// or the dataflow completion count, and the panic must resurface on
    /// the caller's thread — for the caller alone and for a worker pool.
    #[test]
    fn poisoned_kernel_propagates_the_panic() {
        #[derive(Debug)]
        struct Grenade;
        impl CodeletKernel for Grenade {
            fn label(&self) -> &'static str {
                "grenade"
            }
            unsafe fn run_codelet(
                &self,
                _gather: &[u32],
                _pairs: &[(u32, u32)],
                _slots: &[u8],
                _run: &[Complex64],
                _view: &SharedData<'_>,
            ) {
                panic!("boom");
            }
        }
        for version in [Version::Coarse, Version::FineGuided] {
            let plan = Plan::build(PlanKey::new(1 << 8, version, version.layout()));
            for workers in [1, 4] {
                let runtime = Runtime::with_workers(workers);
                let mut bufs = vec![vec![Complex64::ZERO; 1 << 8]; 2];
                let mut views: Vec<&mut [Complex64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    plan.execute_batch_with(&Grenade, &mut views, &runtime);
                }));
                let msg = caught.expect_err("panic must propagate");
                assert_eq!(
                    msg.downcast_ref::<&str>(),
                    Some(&"boom"),
                    "{version:?} @ {workers}w"
                );
            }
        }
    }
}

/// Multi-worker execution of prepared plans. Threading is the runtime's
/// worker count, so these run every kernel through the one [`Runtime`]
/// on several workers and pin the bits to the single-worker scalar path.
#[cfg(test)]
mod threaded {
    mod tests {
        use crate::backend::{BackendSel, HostScalar, HostSimd};
        use crate::exec::{SeedOrder, Version};
        use crate::planner::PlanKey;
        use crate::{Backend, Complex64, Plan};
        use codelet::runtime::Runtime;
        use fgsupport::rng::Rng64;
        use std::sync::Arc;

        fn signal(n: usize, seed: u64) -> Vec<Complex64> {
            let mut rng = Rng64::seed_from_u64(seed);
            (0..n)
                .map(|_| Complex64::new(rng.gen_f64() - 0.5, rng.gen_f64() - 0.5))
                .collect()
        }

        fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
            data.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect()
        }

        #[test]
        fn threaded_matches_scalar_for_every_version_and_worker_count() {
            for version in Version::paper_set(SeedOrder::Natural) {
                let key = PlanKey::new(1 << 10, version, version.layout());
                let plan = Arc::new(Plan::build(key));
                let input = signal(1 << 10, 42);
                let mut want = input.clone();
                plan.execute(&mut want, &Runtime::with_workers(1));
                for workers in [1, 2, 4] {
                    let runtime = Runtime::with_workers(workers);
                    for sel in [BackendSel::SCALAR, BackendSel::SIMD] {
                        let mut got = input.clone();
                        let stats = sel.build().prepare(&plan).execute(&mut got, &runtime);
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "{version:?} {sel} workers={workers}"
                        );
                        assert_eq!(stats.codelets, plan.fft_plan().total_codelets() as u64);
                    }
                }
            }
        }

        #[test]
        fn threaded_batch_matches_per_buffer_execution() {
            let key = PlanKey::new(
                1 << 9,
                Version::Fine(SeedOrder::Natural),
                Version::Fine(SeedOrder::Natural).layout(),
            );
            let plan = Arc::new(Plan::build(key));
            let runtime = Runtime::with_workers(3);
            let prepared = HostSimd::new(3).prepare(&plan);
            let inputs: Vec<Vec<Complex64>> = (0..4).map(|i| signal(1 << 9, 100 + i)).collect();
            let mut want = inputs.clone();
            for buf in want.iter_mut() {
                plan.execute(buf, &Runtime::with_workers(1));
            }
            let mut got = inputs.clone();
            let mut refs: Vec<&mut [Complex64]> =
                got.iter_mut().map(|b| b.as_mut_slice()).collect();
            prepared.execute_batch(&mut refs, &runtime);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(bits(w), bits(g));
            }
        }

        /// Repeated batched runs of the phased (coarse) schedule under a
        /// contended pool, checked for bit-exactness: a missing
        /// happens-before edge across the runtime's stage barrier is a data
        /// race tsan flags, and a premature release corrupts the bits.
        #[test]
        fn threaded_stage_barrier_smoke() {
            let key = PlanKey::new(1 << 8, Version::Coarse, Version::Coarse.layout());
            let plan = Arc::new(Plan::build(key));
            let runtime = Runtime::with_workers(4);
            let prepared = HostScalar.prepare(&plan);
            let input = signal(1 << 8, 9);
            let mut want = input.clone();
            plan.execute(&mut want, &Runtime::with_workers(1));
            for _ in 0..16 {
                let mut bufs: Vec<Vec<Complex64>> = (0..3).map(|_| input.clone()).collect();
                let mut refs: Vec<&mut [Complex64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                let stats = prepared.execute_batch(&mut refs, &runtime);
                assert!(stats.barriers > 0, "coarse runs behind stage barriers");
                for b in &bufs {
                    assert_eq!(bits(&want), bits(b));
                }
            }
        }
    }
}
