//! The historical scalar hot path, extracted behind [`Backend`].

use super::{Backend, Capabilities, CodeletKernel, PreparedPlan};
use crate::complex::Complex64;
use crate::exec::shared::{execute_codelet_tabled, SharedData};
use crate::planner::Plan;
use std::sync::Arc;

/// The scalar butterfly kernel: a direct call into
/// [`execute_codelet_tabled`], exactly what `Plan::execute` has always
/// run. Zero-sized, so the generic execute paths monomorphize it away.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl CodeletKernel for ScalarKernel {
    fn label(&self) -> &'static str {
        "scalar"
    }

    fn fingerprint(&self) -> &'static str {
        "host-scalar:scalarx1"
    }

    #[inline(always)]
    unsafe fn run_codelet(
        &self,
        gather: &[u32],
        pairs: &[(u32, u32)],
        slots: &[u8],
        run: &[Complex64],
        view: &SharedData<'_>,
    ) {
        // SAFETY: forwarded from the trait contract, which matches
        // `execute_codelet_tabled`'s documented requirements verbatim.
        unsafe { execute_codelet_tabled(gather, pairs, slots, run, view) }
    }
}

/// The tables-driven scalar path as a [`Backend`]: `prepare` hands over
/// [`ScalarKernel`], the kernel [`Plan::execute_batch`] runs directly, so
/// a plan prepared by `HostScalar` produces exactly the reference bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostScalar;

impl Backend for HostScalar {
    fn name(&self) -> &'static str {
        "host-scalar"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vector_isa: "scalar",
            complex_lanes: 1,
        }
    }

    fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan {
        PreparedPlan::new(plan, &ScalarKernel)
    }
}
