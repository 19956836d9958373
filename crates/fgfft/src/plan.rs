//! The stage/codelet index algebra of the radix-2^p iterative FFT.
//!
//! After the bit-reversal permutation, an `N = 2^n`-point FFT is computed in
//! `⌈n/p⌉` stages of `N/2^p` codelets (the paper uses `p = 6`, 64-point
//! codelets). Stage `j` applies global butterfly levels `p·j .. p·j+q_j`
//! where `q_j = min(p, n − p·j)` — every stage applies `p` levels except
//! possibly the last.
//!
//! ## The uniform "group" formulation
//!
//! Let `q = q_j`. At stage `j`, element indices that participate in one
//! independent `2^q`-point sub-transform differ only in bits
//! `[p·j, p·j + q)`. Collapsing those bits yields the element's **group**
//!
//! ```text
//! group(e) = (e >> (p·j + q)) << (p·j)  |  (e & (2^{p·j} − 1))
//! ```
//!
//! There are `N/2^q` groups; each codelet processes `2^{p−q}` *consecutive*
//! groups (exactly 1 for a full stage), so the codelet owning element `e` is
//!
//! ```text
//! owner_j(e) = group(e) >> (p − q)
//! ```
//!
//! For full stages this reduces to the paper's gather formula
//! `data_k = D[P^{j+1}·⌊i/P^j⌋ + i mod P^j + k·P^j]`, and the parent/child
//! relations below reduce to the paper's closed forms (Sec. IV-A2),
//! including the fact that **every `P` children share the same `P` parents**
//! — the shared-counter optimization. The group formulation additionally
//! covers the partial last stage (when `n mod p ≠ 0`) that the paper
//! handles with its special `FFT_last_stage_kernel`.

use codelet::graph::{CodeletId, SharedGroup};

/// Maximum supported codelet radix exponent (128-point codelets). Bounded so
/// kernels can use a fixed-size local buffer (the "scratchpad").
pub const MAX_RADIX_LOG2: u32 = 7;

/// The decomposition of one FFT problem into stages and codelets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftPlan {
    n_log2: u32,
    radix_log2: u32,
}

impl FftPlan {
    /// Plan a `2^n_log2`-point FFT with `2^radix_log2`-point codelets.
    /// The radix is clamped to the transform size.
    pub fn new(n_log2: u32, radix_log2: u32) -> Self {
        assert!(n_log2 >= 1, "need at least a 2-point transform");
        assert!(
            (1..=MAX_RADIX_LOG2).contains(&radix_log2),
            "radix_log2 must be in 1..={MAX_RADIX_LOG2}"
        );
        Self {
            n_log2,
            radix_log2: radix_log2.min(n_log2),
        }
    }

    /// Transform size exponent `n`.
    pub fn n_log2(&self) -> u32 {
        self.n_log2
    }

    /// Transform size `N`.
    pub fn n(&self) -> usize {
        1 << self.n_log2
    }

    /// Codelet radix exponent `p`.
    pub fn radix_log2(&self) -> u32 {
        self.radix_log2
    }

    /// Codelet size `P = 2^p` in points.
    pub fn radix(&self) -> usize {
        1 << self.radix_log2
    }

    /// Number of stages `⌈n/p⌉`.
    pub fn stages(&self) -> usize {
        self.n_log2.div_ceil(self.radix_log2) as usize
    }

    /// Butterfly levels applied by stage `j` (`p`, except possibly fewer in
    /// the last stage).
    pub fn levels(&self, stage: usize) -> u32 {
        assert!(stage < self.stages(), "stage out of range");
        (self.n_log2 - self.radix_log2 * stage as u32).min(self.radix_log2)
    }

    /// True when stage `j` applies the full `p` levels.
    pub fn is_full_stage(&self, stage: usize) -> bool {
        self.levels(stage) == self.radix_log2
    }

    /// Codelets per stage: `N / P`.
    pub fn codelets_per_stage(&self) -> usize {
        self.n() >> self.radix_log2
    }

    /// Total codelets over all stages.
    pub fn total_codelets(&self) -> usize {
        self.stages() * self.codelets_per_stage()
    }

    /// Global codelet id of `(stage, idx)`.
    pub fn codelet_id(&self, stage: usize, idx: usize) -> CodeletId {
        debug_assert!(stage < self.stages());
        debug_assert!(idx < self.codelets_per_stage());
        stage * self.codelets_per_stage() + idx
    }

    /// Stage of a global codelet id.
    pub fn stage_of(&self, id: CodeletId) -> usize {
        id / self.codelets_per_stage()
    }

    /// Within-stage index of a global codelet id.
    pub fn idx_of(&self, id: CodeletId) -> usize {
        id % self.codelets_per_stage()
    }

    /// The codelet (within-stage index) owning element `e` at stage `j`.
    #[inline]
    pub fn owner(&self, stage: usize, e: usize) -> usize {
        let p = self.radix_log2;
        let pj = p * stage as u32;
        let q = self.levels(stage);
        let group = ((e >> (pj + q)) << pj) | (e & mask(pj));
        group >> (p - q)
    }

    /// Visit the elements of codelet `(stage, idx)` in gather order: local
    /// slot `s` (in `0..P`) holds global element `visit(s)`. Elements of one
    /// `2^q`-point sub-transform occupy `2^q` consecutive local slots.
    #[inline]
    pub fn for_each_element(&self, stage: usize, idx: usize, mut f: impl FnMut(usize, usize)) {
        let p = self.radix_log2;
        let pj = p * stage as u32;
        let q = self.levels(stage);
        let groups = 1usize << (p - q);
        let first_group = idx << (p - q);
        let mut slot = 0;
        for g_rel in 0..groups {
            let g = first_group + g_rel;
            let g_high = g >> pj;
            let g_low = g & mask(pj);
            for x in 0..1usize << q {
                let e = (g_high << (pj + q)) | (x << pj) | g_low;
                f(slot, e);
                slot += 1;
            }
        }
    }

    /// The elements of a codelet, materialized (test/diagnostic helper; hot
    /// paths use [`FftPlan::for_each_element`]).
    pub fn elements(&self, stage: usize, idx: usize) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.radix());
        self.for_each_element(stage, idx, |_, e| v.push(e));
        v
    }

    /// Append the global ids of the children (stage `j+1` codelets that read
    /// what `(stage, idx)` writes) to `out`, deduplicated.
    pub fn children_of(&self, stage: usize, idx: usize, out: &mut Vec<CodeletId>) {
        if stage + 1 >= self.stages() {
            return;
        }
        let next = stage + 1;
        let base = next * self.codelets_per_stage();
        let mut last = usize::MAX;
        // Owners are non-decreasing along the gather order, so consecutive
        // deduplication suffices.
        self.for_each_element(stage, idx, |_, e| {
            let child = self.owner(next, e);
            if child != last {
                out.push(base + child);
                last = child;
            }
        });
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "children must be strictly increasing for consecutive dedup to be exact"
        );
    }

    /// Number of distinct parents of codelet `(stage, idx)` — its dependence
    /// count. Full-stage codelets (with a full-stage predecessor) have
    /// exactly `P` parents; the partial last stage is computed generically.
    pub fn parent_count(&self, stage: usize, idx: usize) -> u32 {
        if stage == 0 {
            return 0;
        }
        if self.is_full_stage(stage) {
            return self.radix() as u32;
        }
        let mut parents = [usize::MAX; 1 << MAX_RADIX_LOG2];
        let mut count = 0u32;
        let prev = stage - 1;
        self.for_each_element(stage, idx, |_, e| {
            let o = self.owner(prev, e);
            if !parents[..count as usize].contains(&o) {
                parents[count as usize] = o;
                count += 1;
            }
        });
        count
    }

    /// Append the global ids of the parents of `(stage, idx)` to `out`,
    /// deduplicated (diagnostic / verification helper).
    pub fn parents_of(&self, stage: usize, idx: usize, out: &mut Vec<CodeletId>) {
        if stage == 0 {
            return;
        }
        let prev = stage - 1;
        let base = prev * self.codelets_per_stage();
        let start = out.len();
        self.for_each_element(stage, idx, |_, e| {
            let parent = base + self.owner(prev, e);
            if !out[start..].contains(&parent) {
                out.push(parent);
            }
        });
    }

    // ---- Shared dependence-counter groups (paper Sec. IV-A2) ----
    //
    // In a full stage s ≥ 1, the parent set of codelet `c` is determined by
    // the key (c >> p·s, c mod 2^{p·(s−1)}): all `P` codelets sharing the
    // key share the same `P` parents and can share one counter.

    /// Shared-counter groups per eligible stage (`N/P / P`), or 0 when the
    /// stage is too small for sharing.
    pub fn groups_per_stage(&self) -> usize {
        self.codelets_per_stage() >> self.radix_log2
    }

    /// Stages whose codelets participate in shared counters: every stage
    /// except stage 0 — including a partial last stage, whose children also
    /// share parent sets in runs of `P`, at shifted key bits — except the
    /// degenerate case of a partial stage 1 (2-stage plans), where the key
    /// bits don't exist.
    fn stage_has_groups(&self, stage: usize) -> bool {
        stage >= 1 && self.groups_per_stage() > 0 && (self.is_full_stage(stage) || stage >= 2)
    }

    /// Bit positions of a stage's shared-group key: returns
    /// `(low_bits, high_shift)` — members share `idx >> high_shift` and
    /// `idx & mask(low_bits)` and differ only in the `p` bits between.
    /// For a full stage this is `(p(s−1), p·s)`; a partial stage with `q`
    /// levels shifts both down by `p − q`.
    fn group_key_bits(&self, stage: usize) -> (u32, u32) {
        let p = self.radix_log2;
        let q = self.levels(stage);
        let shift_down = p - q;
        let high = p * stage as u32 - shift_down;
        let low = p * (stage as u32 - 1) - shift_down;
        (low, high)
    }

    /// Total shared groups in the program.
    pub fn num_shared_groups(&self) -> usize {
        (1..self.stages())
            .filter(|&s| self.stage_has_groups(s))
            .count()
            * self.groups_per_stage()
    }

    /// The shared group of a codelet, if its stage supports sharing.
    ///
    /// For a full stage `s ≥ 1`, the parent set of codelet `c` is determined
    /// by `(c >> p·s, c mod 2^{p(s−1)})`; the `P` codelets that differ only
    /// in bits `[p(s−1), p·s)` share it. (This is the paper's observation
    /// that every 64 children share the same 64 parents.)
    pub fn shared_group_of(&self, id: CodeletId) -> Option<SharedGroup> {
        let stage = self.stage_of(id);
        if !self.stage_has_groups(stage) {
            return None;
        }
        let idx = self.idx_of(id);
        let (low_bits, high_shift) = self.group_key_bits(stage);
        let h = idx >> high_shift;
        let l = idx & mask(low_bits);
        let local = (h << low_bits) | l;
        // Groups are numbered densely: eligible stage s occupies block s-1.
        Some(SharedGroup {
            group: (stage - 1) * self.groups_per_stage() + local,
            target: self.radix() as u32,
        })
    }

    /// Append the members of shared group `group` to `out`.
    pub fn shared_group_members(&self, group: usize, out: &mut Vec<CodeletId>) {
        let gps = self.groups_per_stage();
        let stage = group / gps + 1;
        let local = group % gps;
        let (low_bits, high_shift) = self.group_key_bits(stage);
        let h = local >> low_bits;
        let l = local & mask(low_bits);
        for mid in 0..self.radix() {
            let idx = (h << high_shift) | (mid << low_bits) | l;
            out.push(self.codelet_id(stage, idx));
        }
    }

    /// Length of one child-sharing run in [`FftPlan::grouped_stage_order`]:
    /// the number of stage-`j` codelets that feed exactly the same set of
    /// stage-`j+1` codelets (`P` in the common case, fewer in deep stages of
    /// small transforms).
    pub fn grouped_run_len(&self, stage: usize) -> usize {
        assert!(stage + 1 < self.stages(), "stage has no children");
        let p = self.radix_log2;
        let pj = p * stage as u32;
        let avail = (self.n_log2 - p) - pj;
        1usize << avail.min(p)
    }

    /// Within-stage codelet order grouped by child-sharing key: codelets
    /// that feed the same children appear consecutively, in runs of
    /// [`FftPlan::grouped_run_len`]. This is the seeding order of the guided
    /// algorithm's second phase (Alg. 3): completing one run immediately
    /// enables a batch of next-stage codelets.
    pub fn grouped_stage_order(&self, stage: usize) -> Vec<usize> {
        assert!(stage + 1 < self.stages(), "stage has no children");
        let p = self.radix_log2;
        let cps = self.codelets_per_stage();
        let pj = p * stage as u32;
        // For stage j with children, p·(j+1) ≤ n so pj ≤ n−p: the idx bits
        // split as [0,pj) = key-low, [pj, pj+run) = run, rest = key-high.
        let avail = (self.n_log2 - p) - pj;
        let run_bits = avail.min(p);
        let mut order = Vec::with_capacity(cps);
        for h in 0..1usize << (avail - run_bits) {
            for l in 0..1usize << pj {
                for mid in 0..1usize << run_bits {
                    order.push((h << (pj + run_bits)) | (mid << pj) | l);
                }
            }
        }
        debug_assert_eq!(order.len(), cps, "grouped order must be a permutation");
        order
    }

    /// [`FftPlan::grouped_stage_order`] with the child-sharing runs
    /// themselves re-sequenced so that consecutive runs enable children
    /// whose *data* lands on different DRAM banks.
    ///
    /// The children of one run share the low `p·j` index bits (`l`), and on
    /// C64 (16-byte elements, 64-byte interleave units, 4 banks) the data
    /// bank of a next-stage codelet's gather is selected by bits `2..4` of
    /// those shared low bits. Enabling runs in plain `l` order therefore
    /// releases four same-bank bursts in a row; rotating bits `2..4` makes
    /// consecutive bursts target different banks. Falls back to the plain
    /// order when `p·j < 4` (no bank bits in the key).
    pub fn grouped_stage_order_bank_rotated(&self, stage: usize) -> Vec<usize> {
        assert!(stage + 1 < self.stages(), "stage has no children");
        let p = self.radix_log2;
        let pj = p * stage as u32;
        if pj < 4 {
            return self.grouped_stage_order(stage);
        }
        let cps = self.codelets_per_stage();
        let avail = (self.n_log2 - p) - pj;
        let run_bits = avail.min(p);
        let mut order = Vec::with_capacity(cps);
        for h in 0..1usize << (avail - run_bits) {
            for i in 0..1usize << pj {
                // Re-index l so its bank bits (2..4) cycle fastest.
                let class = i & 3;
                let rest = i >> 2;
                let l = ((rest >> 2) << 4) | (class << 2) | (rest & 3);
                for mid in 0..1usize << run_bits {
                    order.push((h << (pj + run_bits)) | (mid << pj) | l);
                }
            }
        }
        debug_assert_eq!(order.len(), cps, "rotated order must be a permutation");
        order
    }
}

/// Low-bit mask helper: `2^bits − 1` (saturating for large shifts).
#[inline]
fn mask(bits: u32) -> usize {
    if bits as usize >= usize::BITS as usize {
        usize::MAX
    } else {
        (1usize << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stage_counts() {
        let p = FftPlan::new(19, 6);
        assert_eq!(p.stages(), 4);
        assert_eq!(p.levels(0), 6);
        assert_eq!(p.levels(2), 6);
        assert_eq!(p.levels(3), 1, "19 = 3*6 + 1");
        assert!(!p.is_full_stage(3));
        let p = FftPlan::new(18, 6);
        assert_eq!(p.stages(), 3);
        assert!(p.is_full_stage(2));
        assert_eq!(p.codelets_per_stage(), 1 << 12);
        assert_eq!(p.total_codelets(), 3 << 12);
    }

    #[test]
    fn radix_clamped_to_size() {
        let p = FftPlan::new(3, 6);
        assert_eq!(p.radix_log2(), 3);
        assert_eq!(p.stages(), 1);
    }

    #[test]
    fn id_roundtrip() {
        let p = FftPlan::new(12, 6);
        for stage in 0..p.stages() {
            for idx in [0, 1, p.codelets_per_stage() - 1] {
                let id = p.codelet_id(stage, idx);
                assert_eq!(p.stage_of(id), stage);
                assert_eq!(p.idx_of(id), idx);
            }
        }
    }

    /// Every stage's codelets partition the element set.
    #[test]
    fn elements_partition_every_stage() {
        for (n_log2, p_log2) in [(8u32, 3u32), (9, 3), (10, 4), (13, 6), (7, 6)] {
            let plan = FftPlan::new(n_log2, p_log2);
            for stage in 0..plan.stages() {
                let mut seen = vec![false; plan.n()];
                for idx in 0..plan.codelets_per_stage() {
                    plan.for_each_element(stage, idx, |_, e| {
                        assert!(e < plan.n(), "element out of range");
                        assert!(!seen[e], "element {e} owned twice in stage {stage}");
                        seen[e] = true;
                        assert_eq!(
                            plan.owner(stage, e),
                            idx,
                            "owner() disagrees with for_each_element (n={n_log2}, p={p_log2}, stage={stage})"
                        );
                    });
                }
                assert!(seen.iter().all(|&s| s), "stage {stage} missed elements");
            }
        }
    }

    /// Gather order puts each sub-transform in contiguous local slots and
    /// matches the paper's stride-P^j formula on full stages.
    #[test]
    fn full_stage_gather_matches_paper_formula() {
        let plan = FftPlan::new(18, 6); // all stages full
        let pp = 64usize;
        for stage in 0..plan.stages() {
            let stride = pp.pow(stage as u32);
            for idx in [0usize, 1, 17, plan.codelets_per_stage() - 1] {
                let base = (idx / stride) * stride * pp + idx % stride;
                let expect: Vec<usize> = (0..pp).map(|k| base + k * stride).collect();
                assert_eq!(plan.elements(stage, idx), expect, "stage {stage} idx {idx}");
            }
        }
    }

    /// Children/parent relations are mutually consistent and the full-stage
    /// counts match the paper (64 children, 64 parents).
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn children_and_parents_are_consistent() {
        for (n_log2, p_log2) in [(9u32, 3u32), (10, 3), (13, 6), (14, 6)] {
            let plan = FftPlan::new(n_log2, p_log2);
            let cps = plan.codelets_per_stage();
            for stage in 0..plan.stages() - 1 {
                let mut child_sets: Vec<HashSet<usize>> = vec![HashSet::new(); cps];
                let (mut kids, mut parents) = (Vec::new(), Vec::new());
                for idx in 0..cps {
                    kids.clear();
                    plan.children_of(stage, idx, &mut kids);
                    for &k in &kids {
                        assert_eq!(plan.stage_of(k), stage + 1);
                        child_sets[idx].insert(plan.idx_of(k));
                        // Symmetric: every child lists `idx` among its parents.
                        parents.clear();
                        plan.parents_of(stage + 1, plan.idx_of(k), &mut parents);
                        assert!(parents.contains(&plan.codelet_id(stage, idx)));
                    }
                }
                // Invert: parent counts derived from children must equal
                // parent_count() and the length of the parent list.
                let mut derived = vec![0u32; cps];
                for set in &child_sets {
                    for &c in set {
                        derived[c] += 1;
                    }
                }
                for idx in 0..cps {
                    parents.clear();
                    plan.parents_of(stage + 1, idx, &mut parents);
                    assert_eq!(parents.len() as u32, plan.parent_count(stage + 1, idx));
                    assert_eq!(
                        derived[idx],
                        plan.parent_count(stage + 1, idx),
                        "n={n_log2} p={p_log2} stage {} idx {idx}",
                        stage + 1
                    );
                }
            }
        }
    }

    #[test]
    fn full_stages_have_exactly_p_parents_and_children() {
        let plan = FftPlan::new(18, 6);
        let mut kids = Vec::new();
        for stage in 0..plan.stages() - 1 {
            for idx in [0usize, 5, 4095] {
                kids.clear();
                plan.children_of(stage, idx, &mut kids);
                assert_eq!(kids.len(), 64);
            }
        }
        for stage in 1..plan.stages() {
            assert_eq!(plan.parent_count(stage, 7), 64);
        }
    }

    /// The paper's worked example: for N with 64^3 codelets per stage, the
    /// 80th codelet of stage 3 has parents 80 + 4096·m in stage 2.
    #[test]
    fn paper_worked_example() {
        // Need cps >= 64^3 = 2^18 → n_log2 = 24, all stages full.
        let plan = FftPlan::new(24, 6);
        let mut parents = Vec::new();
        plan.parents_of(3, 80, &mut parents);
        let base = 2 * plan.codelets_per_stage();
        let expect: Vec<usize> = (0..64).map(|m| base + 80 + 4096 * m).collect();
        let got: HashSet<usize> = parents.iter().copied().collect();
        assert_eq!(got, expect.iter().copied().collect::<HashSet<_>>());
        // And codelet 4176 = 80 + 4096 of stage 3 shares those parents.
        let mut parents2 = Vec::new();
        plan.parents_of(3, 4176, &mut parents2);
        assert_eq!(
            parents.iter().copied().collect::<HashSet<_>>(),
            parents2.iter().copied().collect::<HashSet<_>>()
        );
    }

    /// Shared groups: members share exactly the same parent set, groups
    /// partition the eligible stages, target = P.
    #[test]
    fn shared_groups_are_sound() {
        for (n_log2, p_log2) in [(13u32, 3u32), (12, 3), (14, 6)] {
            let plan = FftPlan::new(n_log2, p_log2);
            let mut members = Vec::new();
            let mut covered: HashSet<usize> = HashSet::new();
            for g in 0..plan.num_shared_groups() {
                members.clear();
                plan.shared_group_members(g, &mut members);
                assert_eq!(members.len(), plan.radix());
                let mut parent_sets: Vec<HashSet<usize>> = Vec::new();
                for &m in &members {
                    assert!(covered.insert(m), "codelet {m} in two groups");
                    assert_eq!(
                        plan.shared_group_of(m).expect("member must map back").group,
                        g,
                        "n={n_log2} p={p_log2} member {m}"
                    );
                    let mut ps = Vec::new();
                    plan.parents_of(plan.stage_of(m), plan.idx_of(m), &mut ps);
                    parent_sets.push(ps.into_iter().collect());
                }
                for w in parent_sets.windows(2) {
                    assert_eq!(w[0], w[1], "group {g} members disagree on parents");
                }
            }
            // Every codelet of an eligible stage is covered.
            for id in 0..plan.total_codelets() {
                if let Some(g) = plan.shared_group_of(id) {
                    assert!(covered.contains(&id));
                    assert_eq!(g.target, plan.radix() as u32);
                }
            }
        }
    }

    #[test]
    fn partial_last_stage_shares_counters_too() {
        // Children of a partial last stage also share parent sets in runs
        // of P, at shifted key bits.
        let plan = FftPlan::new(13, 6); // last stage: 1 level
        let last = plan.stages() - 1;
        for idx in 0..plan.codelets_per_stage() {
            let g = plan
                .shared_group_of(plan.codelet_id(last, idx))
                .expect("partial last stage must have groups");
            assert_eq!(g.target, 64);
            assert_eq!(plan.parent_count(last, idx), 64);
        }
        assert!(plan.shared_group_of(plan.codelet_id(1, 0)).is_some());
    }

    #[test]
    fn two_stage_partial_plan_has_no_groups_in_stage_one() {
        // stages = 2 with a partial last stage: the key bits don't exist.
        let plan = FftPlan::new(10, 6); // stages: q=6, q=4
        assert_eq!(plan.stages(), 2);
        assert!(!plan.is_full_stage(1));
        for idx in 0..plan.codelets_per_stage() {
            assert!(plan.shared_group_of(plan.codelet_id(1, idx)).is_none());
        }
        assert_eq!(plan.num_shared_groups(), 0);
    }

    #[test]
    fn grouped_stage_order_is_permutation() {
        for (n_log2, p_log2) in [(13u32, 3u32), (14, 6), (19, 6)] {
            let plan = FftPlan::new(n_log2, p_log2);
            for stage in 0..plan.stages() - 1 {
                let order = plan.grouped_stage_order(stage);
                let set: HashSet<usize> = order.iter().copied().collect();
                assert_eq!(set.len(), plan.codelets_per_stage(), "stage {stage}");
                assert_eq!(order.len(), plan.codelets_per_stage());
            }
        }
    }

    /// In the grouped order, each consecutive run shares its children.
    #[test]
    fn grouped_order_runs_share_children() {
        for (n_log2, p_log2, stage) in [(14u32, 6u32, 1usize), (13, 6, 0), (12, 3, 2)] {
            let plan = FftPlan::new(n_log2, p_log2);
            let order = plan.grouped_stage_order(stage);
            let run_len = plan.grouped_run_len(stage);
            assert_eq!(order.len() % run_len, 0);
            let mut kids = Vec::new();
            for run in order.chunks(run_len) {
                let mut sets: Vec<HashSet<usize>> = Vec::new();
                for &idx in run {
                    kids.clear();
                    plan.children_of(stage, idx, &mut kids);
                    sets.push(kids.iter().copied().collect());
                }
                for w in sets.windows(2) {
                    assert_eq!(
                        w[0], w[1],
                        "n={n_log2} p={p_log2} stage {stage}: run does not share children"
                    );
                }
            }
        }
    }

    #[test]
    fn dep_counts_cover_whole_program() {
        // Total signals = total child edges; verify sum(dep) == sum(children).
        for (n_log2, p_log2) in [(9u32, 3u32), (13, 6)] {
            let plan = FftPlan::new(n_log2, p_log2);
            let cps = plan.codelets_per_stage();
            let mut kids = Vec::new();
            let mut total_edges = 0usize;
            for stage in 0..plan.stages() {
                for idx in 0..cps {
                    kids.clear();
                    plan.children_of(stage, idx, &mut kids);
                    total_edges += kids.len();
                }
            }
            let mut total_deps = 0usize;
            for stage in 0..plan.stages() {
                for idx in 0..cps {
                    total_deps += plan.parent_count(stage, idx) as usize;
                }
            }
            assert_eq!(total_edges, total_deps, "n={n_log2} p={p_log2}");
        }
    }

    #[test]
    #[should_panic(expected = "stage out of range")]
    fn levels_checks_range() {
        FftPlan::new(12, 6).levels(2);
    }
}
