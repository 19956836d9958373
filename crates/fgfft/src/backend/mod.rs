//! Pluggable butterfly kernels for plans.
//!
//! A [`crate::planner::Plan`] fixes *what* to compute — the certified
//! codelet schedule, each stage's address generator and its
//! butterfly/twiddle tables — and the one scheduler, [`Runtime`], fires
//! that schedule exactly as certified on `runtime.workers()` workers (the
//! calling thread is worker 0), one tile of consecutive codelets per
//! call. A [`Backend`] only chooses the innermost loop, the
//! [`CodeletKernel`] every tile runs:
//!
//! * [`HostScalar`] — the per-codelet reference: the same
//!   [`ScalarKernel`] that `Plan::execute_batch` itself runs, gathering
//!   each codelet into a local buffer by the address generator; every
//!   other kernel is compared against it.
//! * [`HostSimd`] — the host's **default**: the lane kernel, f64x4
//!   complex butterflies (two complex lanes per vector) via `core::arch`
//!   AVX2 on `x86_64` with a portable four-lane fallback everywhere else.
//!   Each stage's levels run in radix-4/radix-8 register passes split by
//!   the stage's level count alone. Stage 0 runs them in place on
//!   each codelet's contiguous elements; stages ≥ 1 run consecutive
//!   sub-transforms in the two lanes, loaded straight from the data at
//!   the generator's addresses. The SIMD module's source documents why
//!   the verified generator partition and table shape make those vector
//!   loads sound and the bits identical.
//!
//! Threading is not a backend: it is the runtime's worker count, so every
//! kernel runs the coarse, fine or guided schedule on any number of
//! workers.
//!
//! The split keeps the certificate story intact: a backend never builds
//! tables or addresses of its own, it only consumes the plan's tables and
//! the workload layer's generator — so a certificate over the plan covers
//! execution under every backend, and the cross-backend exactness suite
//! pins all of them to identical bits.
//!
//! Selection is a plain two-valued choice, [`BackendSel`], that serializes
//! into wisdom so the autotuner can learn scalar-vs-SIMD per
//! `(N, machine)`. Its default is the vector kernel, which is what library
//! transforms ([`crate::Fft`], `rfft`, `Fft2d`) and serving without a
//! wisdom entry run (`default_kernel`). The kernel is chosen once: the
//! AVX2-or-portable decision once per process, the plan's table check once
//! per plan at build, so `prepare` only picks a static kernel.

mod scalar;
mod simd;

pub use scalar::{HostScalar, ScalarKernel};
pub(crate) use simd::vector_ready;
pub use simd::HostSimd;

use crate::complex::Complex64;
use crate::exec::shared::SharedData;
use crate::exec::ExecStats;
use crate::planner::{Plan, StageTables};
use codelet::runtime::Runtime;
use std::ops::Range;
use std::sync::Arc;

/// The butterfly arithmetic of a tile of codelets, abstracted over the
/// engine.
///
/// A kernel receives one tile — consecutive codelets of one stage — with
/// the stage's tables: its address generator
/// ([`crate::workload::StageAddressing`]), butterfly pair pattern, slot
/// pattern (per butterfly, the position of its twiddle in the run) and
/// class runs (the distinct twiddles each class consumes,
/// [`crate::workload::append_class_run`]). It must leave the same bits
/// behind as [`crate::exec::shared::execute_codelet_tabled`] run on each
/// codelet of the tile would: butterfly `i` of codelet `idx` multiplies by
/// `run(idx)[slots[i]]`. Schedules, tables, and certificates are
/// backend-independent; only this innermost loop varies.
pub trait CodeletKernel: Send + Sync + std::fmt::Debug {
    /// Short human-readable identity (used in stats).
    fn label(&self) -> &'static str;

    /// Identity of the engine this kernel is, in [`Backend::fingerprint`]'s
    /// `name:isa×lanes` form: what a prepared plan reports as having
    /// served it.
    fn fingerprint(&self) -> &'static str;

    /// Execute codelets `codelets` (consecutive indices of one stage) over
    /// `view`, in any order among them: they are independent.
    ///
    /// # Safety
    /// The caller upholds the dataflow discipline documented in
    /// [`crate::exec::shared`]: the tile owns, for the duration of the
    /// call, exactly the elements `tables.addressing` assigns its codelets.
    /// That ownership rests on the generator partitioning `0..2^n` in
    /// every stage (so every computed address is in bounds for `view`,
    /// which spans the stage's `2^n` elements, and no two codelets share
    /// one) — proved by `fgcheck`'s FG401/FG404/FG406 over the generator
    /// itself. Every pair is in bounds for a codelet's `2^p` slots, every
    /// slot for a class run, and every codelet's class for `tables`.
    unsafe fn run_tile(
        &self,
        tables: &StageTables<'_>,
        codelets: Range<usize>,
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
/// backend's chosen kernel, a process-wide static; nothing about the plan
/// itself is copied or re-lowered, so a certificate verified against the
/// plan covers every prepared form of it.
#[derive(Debug)]
pub struct PreparedPlan {
    plan: Arc<Plan>,
    kernel: &'static dyn CodeletKernel,
}

impl PreparedPlan {
    /// The plan this preparation wraps.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Fingerprint of the kernel that runs this plan — the backend's own
    /// unless it degraded to the scalar kernel (radix-2 codelets or
    /// non-canonical tables), in which case it names the scalar engine.
    pub fn backend_fingerprint(&self) -> &'static str {
        self.kernel.fingerprint()
    }

    /// In-place forward transform of one buffer; bit-identical to
    /// [`Plan::execute`] for every backend.
    pub fn execute(&self, data: &mut [Complex64], runtime: &Runtime) -> ExecStats {
        self.plan.execute_with(self.kernel, data, runtime)
    }

    /// In-place forward transform of a batch of same-plan buffers;
    /// bit-identical to [`Plan::execute_batch`] for every backend.
    pub fn execute_batch(&self, buffers: &mut [&mut [Complex64]], runtime: &Runtime) -> ExecStats {
        self.plan.execute_batch_with(self.kernel, buffers, runtime)
    }

    /// Run stage `stage` of the inner complex transform over `data` on
    /// the calling thread, tile by tile in id order, through this
    /// preparation's kernel — a harness for timing one stage of the layer
    /// the kernel owns. `data` must hold [`crate::FftPlan::n`] elements;
    /// stages run in order `0..stages()` after [`crate::bitrev`]'s
    /// permutation reproduce [`Plan::execute`]'s inner wave bit for bit.
    pub fn run_stage(&self, data: &mut [Complex64], stage: usize) {
        self.plan.run_stage_with(self.kernel, data, stage);
    }

    fn new(plan: &Arc<Plan>, kernel: &'static dyn CodeletKernel) -> Self {
        Self {
            plan: Arc::clone(plan),
            kernel,
        }
    }
}

/// The kernel the host runs `plan` with by default — what
/// [`BackendSel::default`] prepares: the vector kernel (AVX2 or portable,
/// decided once per process) when the plan's tables passed the vector
/// kernel's shape check at build ([`Plan::vector_ready`]), the
/// scalar kernel otherwise. Bit-identical to [`Plan::execute`] either way.
pub(crate) fn default_kernel(plan: &Plan) -> &'static dyn CodeletKernel {
    HostSimd::new().kernel_for(plan)
}

/// A serializable backend choice: which engine runs the plan. This is the
/// value wisdom learns per `(N, machine)` and `ServeConfig`/`TuningSpace`
/// select on. The default is the vector kernel: measured fastest on every
/// size from 2^10 to 2^20 and bit-identical to the scalar reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSel {
    /// [`HostScalar`]: the scalar reference path.
    Scalar,
    /// [`HostSimd`]: the lane kernel over the same schedule.
    #[default]
    Simd,
}

impl BackendSel {
    /// The scalar reference path.
    pub const SCALAR: Self = Self::Scalar;

    /// The vector kernel (the default).
    pub const SIMD: Self = Self::Simd;

    /// Instantiate the selected backend.
    pub fn build(&self) -> Arc<dyn Backend> {
        match self {
            Self::Scalar => Arc::new(HostScalar),
            Self::Simd => Arc::new(HostSimd::new()),
        }
    }

    /// Bind `plan` to the selected backend without instantiating it behind
    /// an `Arc`: what [`BackendSel::build`] then [`Backend::prepare`] do,
    /// minus the allocation — the per-batch step of the serving path.
    pub fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan {
        match self {
            Self::Scalar => HostScalar.prepare(plan),
            Self::Simd => HostSimd::new().prepare(plan),
        }
    }

    /// Canonical name of the engine (stable; stored in wisdom).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
        }
    }

    /// Parse a selection: `scalar` or `simd`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "simd" => Some(Self::Simd),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};
    use crate::planner::PlanKey;

    #[test]
    fn selection_round_trips_through_strings() {
        for sel in [BackendSel::SCALAR, BackendSel::SIMD] {
            assert_eq!(BackendSel::parse(&sel.to_string()), Some(sel));
        }
        // Threading is the runtime's worker count and the vector kernel has
        // one form per ISA, chosen by the host: none is an engine name.
        for name in ["threaded", "threaded-simd", "simd-portable", "gpu"] {
            assert_eq!(BackendSel::parse(name), None, "{name}");
        }
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
            fn fingerprint(&self) -> &'static str {
                "grenade:scalarx1"
            }
            unsafe fn run_tile(
                &self,
                _tables: &StageTables<'_>,
                _codelets: Range<usize>,
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
            let prepared = HostSimd::new().prepare(&plan);
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
