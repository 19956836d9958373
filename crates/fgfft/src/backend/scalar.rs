//! The scalar reference kernel, behind [`Backend`].

use super::{Backend, Capabilities, CodeletKernel, PreparedPlan};
use crate::exec::shared::{execute_codelet_tabled, SharedData};
use crate::planner::{Plan, StageTables};
use std::ops::Range;
use std::sync::Arc;

/// The scalar butterfly kernel: [`execute_codelet_tabled`] on each codelet
/// of the tile in index order, exactly what `Plan::execute` runs.
/// Zero-sized, so the generic execute paths monomorphize it away.
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
    unsafe fn run_tile(
        &self,
        tables: &StageTables<'_>,
        codelets: Range<usize>,
        view: &SharedData<'_>,
    ) {
        for idx in codelets {
            // SAFETY: forwarded from the trait contract, which covers
            // `execute_codelet_tabled`'s requirements for each codelet.
            unsafe { execute_codelet_tabled(tables, idx, view) }
        }
    }
}

/// The scalar reference path as a [`Backend`]: `prepare` hands over
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
