//! Codelet graph descriptions.
//!
//! The codelet model groups codelets into *codelet graphs* (CDGs). A CDG may
//! be given **explicitly** (every node and arc materialized, see
//! [`ExplicitGraph`]) or **implicitly** (arcs computed by formula, see
//! [`CodeletProgram`]); the FFT programs of the paper are implicit — the
//! parent/child relation of a stage-`j` codelet is closed-form index algebra,
//! so materializing the arcs would waste memory and bandwidth.

/// Identifier of a codelet within one program: a dense index in
/// `0..program.num_codelets()`.
pub type CodeletId = usize;

/// An implicitly-described codelet graph plus the work each codelet performs.
///
/// This is the interface consumed by [`crate::runtime::Runtime`] (host
/// execution) and by the Cyclops-64 simulator (simulated execution). The
/// graph must be **well-behaved**: acyclic, with `dep_count(c)` equal to the
/// number of distinct codelets that list `c` among their dependents. Under
/// that contract execution is *determinate* regardless of firing order.
pub trait CodeletProgram: Sync {
    /// Total number of codelets in the graph.
    fn num_codelets(&self) -> usize;

    /// Number of dependencies codelet `id` must see satisfied before it can
    /// fire. Codelets with `dep_count == 0` are ready at program start.
    fn dep_count(&self, id: CodeletId) -> u32;

    /// Append the dependents (children) of `id` to `out`. `out` is a scratch
    /// buffer owned by the calling worker; implementations must not assume it
    /// is empty-capacity and should only `push`.
    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>);

    /// The codelets that are ready at program start, in the order they should
    /// be seeded into the ready pool. The default scans every codelet for a
    /// zero dependence count; programs with structure (e.g. "all of stage 0")
    /// should override this.
    fn initial_ready(&self) -> Vec<CodeletId> {
        (0..self.num_codelets())
            .filter(|&c| self.dep_count(c) == 0)
            .collect()
    }

    /// Optional *shared-counter group* of a codelet, the paper's Sec. IV-A2
    /// optimization: codelets mapped to the same `(group, target)` share one
    /// synchronization slot — when the shared slot reaches `target`, **all**
    /// members of the group become ready simultaneously. Return `None` to use
    /// a private counter (the default).
    fn shared_group(&self, _id: CodeletId) -> Option<SharedGroup> {
        None
    }

    /// Number of shared-counter groups (upper bound on `SharedGroup::group`).
    fn num_shared_groups(&self) -> usize {
        0
    }

    /// Members of shared-counter group `group`. Must be consistent with
    /// [`CodeletProgram::shared_group`]. Only called when shared groups are
    /// in use.
    fn shared_group_members(&self, _group: usize, _out: &mut Vec<CodeletId>) {}
}

/// Identifies the shared synchronization slot of a codelet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedGroup {
    /// Dense group index in `0..num_shared_groups()`.
    pub group: usize,
    /// Count the slot must reach for the whole group to fire.
    pub target: u32,
}

/// A small, explicitly materialized codelet DAG. Useful for tests, for
/// irregular graphs, and as a reference implementation of the
/// [`CodeletProgram`] contract.
#[derive(Debug, Clone, Default)]
pub struct ExplicitGraph {
    children: Vec<Vec<CodeletId>>,
    dep_counts: Vec<u32>,
}

impl ExplicitGraph {
    /// Create a graph with `n` codelets and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            children: vec![Vec::new(); n],
            dep_counts: vec![0; n],
        }
    }

    /// Number of codelets.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the graph has no codelets.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Add a dependence arc `from -> to` (codelet `to` cannot fire before
    /// `from` completes). Parallel arcs are allowed and each counts as one
    /// dependency, mirroring dataflow token semantics.
    pub fn add_edge(&mut self, from: CodeletId, to: CodeletId) {
        assert!(from < self.len() && to < self.len(), "edge out of range");
        self.children[from].push(to);
        self.dep_counts[to] += 1;
    }

    /// Append a new codelet, returning its id.
    pub fn add_codelet(&mut self) -> CodeletId {
        self.children.push(Vec::new());
        self.dep_counts.push(0);
        self.children.len() - 1
    }

    /// Children of `id`.
    pub fn children(&self, id: CodeletId) -> &[CodeletId] {
        &self.children[id]
    }

    /// Check well-behavedness: the graph must be acyclic. Returns a
    /// topological order if so, `None` when a cycle exists (a *structural
    /// deadlock* in codelet-model terms: the program would hang).
    pub fn topological_order(&self) -> Option<Vec<CodeletId>> {
        let n = self.len();
        let mut indegree = self.dep_counts.clone();
        let mut order = Vec::with_capacity(n);
        let mut frontier: Vec<CodeletId> = (0..n).filter(|&c| indegree[c] == 0).collect();
        while let Some(c) = frontier.pop() {
            order.push(c);
            for &child in &self.children[c] {
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    frontier.push(child);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Longest path length (in arcs) through the DAG — the *critical path*,
    /// i.e. the minimum number of sequential firing steps any schedule needs.
    /// Returns `None` for cyclic graphs.
    pub fn critical_path_len(&self) -> Option<usize> {
        let order = self.topological_order()?;
        let mut depth = vec![0usize; self.len()];
        let mut longest = 0;
        for &c in &order {
            for &child in &self.children[c] {
                depth[child] = depth[child].max(depth[c] + 1);
                longest = longest.max(depth[child]);
            }
        }
        Some(longest)
    }
}

impl CodeletProgram for ExplicitGraph {
    fn num_codelets(&self) -> usize {
        self.len()
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        self.dep_counts[id]
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        out.extend_from_slice(&self.children[id]);
    }
}

/// Adapter that hides a program's shared-counter groups, forcing private
/// per-codelet dependence counters. Used by the shared-counter ablation
/// (paper Sec. IV-A2 claims sharing reduces synchronization overhead; this
/// adapter lets the same program run both ways).
#[derive(Debug, Clone, Copy)]
pub struct WithoutSharedGroups<P>(pub P);

impl<P: CodeletProgram> CodeletProgram for WithoutSharedGroups<P> {
    fn num_codelets(&self) -> usize {
        self.0.num_codelets()
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        self.0.dep_count(id)
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        self.0.dependents(id, out);
    }

    fn initial_ready(&self) -> Vec<CodeletId> {
        self.0.initial_ready()
    }
}

/// A materialized (CSR) quotient of any [`CodeletProgram`].
///
/// Implicit programs recompute their arcs by index algebra on every
/// `dependents` call — cheap once, but a measurable cost when the same graph
/// is dispatched over and over (a *serving* workload). `CsrProgram` stores
/// children, dependence counts and the initial ready order in flat arrays
/// once, trading memory for a branch-free hot dispatch path. It is built as
/// a quotient ([`CsrProgram::quotient`]): blocks of consecutive codelets
/// become single nodes, and a block of one keeps the program's own arcs.
/// This is the "codelet-graph metadata" a cached plan holds.
#[derive(Debug, Clone, Default)]
pub struct CsrProgram {
    dep_counts: Vec<u32>,
    child_offsets: Vec<u32>,
    child_data: Vec<u32>,
    seeds: Vec<CodeletId>,
}

impl CsrProgram {
    /// The quotient of `program` under blocks of `2^block_log2` consecutive
    /// ids: node `t` stands for codelets `t·2^block_log2 ..
    /// (t+1)·2^block_log2`, which must be mutually independent. Its
    /// children are the deduplicated images of its members' children, in
    /// first-appearance order; its dependence count is its number of
    /// distinct parent blocks; its seeds are the images of the program's
    /// initial-ready order ([`quotient_order`]). Shared groups do not
    /// survive: every node has a private counter.
    ///
    /// Firing the quotient fires each member after all of its parents,
    /// because every codelet edge `a → b` has an image edge from `a`'s
    /// block to `b`'s. O(V + E) time; only the quotient's edges are stored.
    ///
    /// # Panics
    /// When the block size does not divide the codelet count, or an edge
    /// joins two members of one block (the block could never fire).
    pub fn quotient<P: CodeletProgram + ?Sized>(program: &P, block_log2: u32) -> Self {
        let n = program.num_codelets();
        assert!(
            n.is_multiple_of(1 << block_log2),
            "blocks of 2^{block_log2} must divide the {n} codelets"
        );
        let nodes = n >> block_log2;
        let mut dep_counts = vec![0u32; nodes];
        let mut child_offsets = Vec::with_capacity(nodes + 1);
        let mut child_data = Vec::new();
        // `last_parent[c]` is the last node that emitted an edge to `c`:
        // one stamp per target deduplicates without sorting.
        let mut last_parent = vec![usize::MAX; nodes];
        let mut scratch = Vec::new();
        child_offsets.push(0);
        for node in 0..nodes {
            for id in node << block_log2..(node + 1) << block_log2 {
                scratch.clear();
                program.dependents(id, &mut scratch);
                for &child in &scratch {
                    let to = child >> block_log2;
                    assert_ne!(to, node, "edge {id} -> {child} stays inside block {node}");
                    if last_parent[to] != node {
                        last_parent[to] = node;
                        dep_counts[to] += 1;
                        child_data.push(to as u32);
                    }
                }
            }
            child_offsets.push(child_data.len() as u32);
        }
        Self {
            dep_counts,
            child_offsets,
            child_data,
            seeds: quotient_order(&program.initial_ready(), block_log2),
        }
    }

    /// The materialized initial-ready order, borrowed (no clone).
    pub fn seeds(&self) -> &[CodeletId] {
        &self.seeds
    }

    /// Children of `id` as a slice (no per-call recomputation).
    pub fn children(&self, id: CodeletId) -> &[u32] {
        let lo = self.child_offsets[id] as usize;
        let hi = self.child_offsets[id + 1] as usize;
        &self.child_data[lo..hi]
    }

    /// Approximate resident size in bytes (for cache accounting).
    pub fn resident_bytes(&self) -> u64 {
        (self.dep_counts.len() * 4
            + self.child_offsets.len() * 4
            + self.child_data.len() * 4
            + self.seeds.len() * std::mem::size_of::<CodeletId>()) as u64
    }
}

impl CodeletProgram for CsrProgram {
    fn num_codelets(&self) -> usize {
        self.dep_counts.len()
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        self.dep_counts[id]
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        out.extend(self.children(id).iter().map(|&c| c as CodeletId));
    }

    fn initial_ready(&self) -> Vec<CodeletId> {
        self.seeds.clone()
    }
}

/// The blocks of `2^block_log2` consecutive ids that `ids` touch, in order
/// of first appearance: the image of a seed list or a phase under
/// [`CsrProgram::quotient`]. The identity when `block_log2` is 0.
pub fn quotient_order(ids: &[CodeletId], block_log2: u32) -> Vec<CodeletId> {
    let bound = ids.iter().max().map_or(0, |&m| (m >> block_log2) + 1);
    let mut seen = vec![false; bound];
    let mut out = Vec::with_capacity(ids.len() >> block_log2);
    for &id in ids {
        let node = id >> block_log2;
        if !std::mem::replace(&mut seen[node], true) {
            out.push(node);
        }
    }
    out
}

/// `copies` disjoint instances of one program, addressed as a single graph —
/// copy `k` of codelet `c` has id `k · inner_len + c`. A batch of
/// independent same-shape problems (e.g. same-size FFTs over different
/// buffers) can then be fired through **one** runtime dispatch, amortizing
/// worker-scope setup and counter allocation over the whole batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchProgram<'a, P: ?Sized> {
    inner: &'a P,
    inner_len: usize,
    inner_groups: usize,
    copies: usize,
}

impl<'a, P: CodeletProgram + ?Sized> BatchProgram<'a, P> {
    /// View `copies` disjoint instances of `inner` as one program.
    pub fn new(inner: &'a P, copies: usize) -> Self {
        assert!(copies >= 1, "need at least one copy");
        Self {
            inner,
            inner_len: inner.num_codelets(),
            inner_groups: inner.num_shared_groups(),
            copies,
        }
    }

    /// Which copy an id belongs to.
    #[inline]
    pub fn copy_of(&self, id: CodeletId) -> usize {
        id / self.inner_len
    }

    /// The id within its copy.
    #[inline]
    pub fn local_id(&self, id: CodeletId) -> CodeletId {
        id % self.inner_len
    }

    /// Offset `local` seed ids into every copy, preserving per-copy order.
    pub fn batched_seeds(&self, local: &[CodeletId]) -> Vec<CodeletId> {
        let mut out = Vec::with_capacity(local.len() * self.copies);
        for k in 0..self.copies {
            let base = k * self.inner_len;
            out.extend(local.iter().map(|&s| base + s));
        }
        out
    }
}

impl<P: CodeletProgram + ?Sized> CodeletProgram for BatchProgram<'_, P> {
    fn num_codelets(&self) -> usize {
        self.copies * self.inner_len
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        self.inner.dep_count(self.local_id(id))
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        let base = self.copy_of(id) * self.inner_len;
        let start = out.len();
        self.inner.dependents(self.local_id(id), out);
        for c in &mut out[start..] {
            *c += base;
        }
    }

    fn initial_ready(&self) -> Vec<CodeletId> {
        self.batched_seeds(&self.inner.initial_ready())
    }

    fn shared_group(&self, id: CodeletId) -> Option<SharedGroup> {
        let copy = self.copy_of(id);
        self.inner
            .shared_group(self.local_id(id))
            .map(|g| SharedGroup {
                group: copy * self.inner_groups + g.group,
                target: g.target,
            })
    }

    fn num_shared_groups(&self) -> usize {
        self.copies * self.inner_groups
    }

    fn shared_group_members(&self, group: usize, out: &mut Vec<CodeletId>) {
        let copy = group / self.inner_groups;
        let base = copy * self.inner_len;
        let start = out.len();
        self.inner
            .shared_group_members(group % self.inner_groups, out);
        for c in &mut out[start..] {
            *c += base;
        }
    }
}

/// Sequential reference executor: fires codelets in dataflow order, one at a
/// time, using a caller-supplied tie-break (`pop` from the end = LIFO).
/// Returns the firing order. This is the semantic yardstick the parallel
/// runtime is tested against.
pub fn execute_sequential<P: CodeletProgram + ?Sized>(
    program: &P,
    mut body: impl FnMut(CodeletId),
) -> Vec<CodeletId> {
    let n = program.num_codelets();
    let mut remaining: Vec<u32> = (0..n).map(|c| program.dep_count(c)).collect();
    let mut ready = program.initial_ready();
    let mut fired = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    while let Some(c) = ready.pop() {
        body(c);
        fired.push(c);
        scratch.clear();
        program.dependents(c, &mut scratch);
        for &child in &scratch {
            remaining[child] -= 1;
            if remaining[child] == 0 {
                ready.push(child);
            }
        }
    }
    assert_eq!(
        fired.len(),
        n,
        "codelet graph is not well-behaved: {} of {} codelets never fired (structural deadlock)",
        n - fired.len(),
        n
    );
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ExplicitGraph {
        let mut g = ExplicitGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn diamond_dep_counts() {
        let g = diamond();
        assert_eq!(g.dep_count(0), 0);
        assert_eq!(g.dep_count(1), 1);
        assert_eq!(g.dep_count(2), 1);
        assert_eq!(g.dep_count(3), 2);
    }

    #[test]
    fn diamond_initial_ready() {
        let g = diamond();
        assert_eq!(g.initial_ready(), vec![0]);
    }

    #[test]
    fn diamond_topological_order_is_valid() {
        let g = diamond();
        let order = g.topological_order().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &c) in order.iter().enumerate() {
                p[c] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(g.topological_order().is_none());
        assert!(g.critical_path_len().is_none());
    }

    #[test]
    fn critical_path_of_diamond_is_two() {
        assert_eq!(diamond().critical_path_len(), Some(2));
    }

    #[test]
    fn critical_path_of_chain() {
        let mut g = ExplicitGraph::new(5);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(g.critical_path_len(), Some(4));
    }

    #[test]
    fn sequential_execution_respects_dependencies() {
        let g = diamond();
        let order = execute_sequential(&g, |_| {});
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    #[should_panic(expected = "structural deadlock")]
    fn sequential_execution_panics_on_cycle() {
        let mut g = ExplicitGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        execute_sequential(&g, |_| {});
    }

    #[test]
    fn parallel_arcs_count_twice() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.dep_count(1), 2);
        // Still executes: completing codelet 0 delivers both tokens.
        let order = execute_sequential(&g, |_| {});
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn add_codelet_grows_graph() {
        let mut g = ExplicitGraph::new(1);
        let c = g.add_codelet();
        assert_eq!(c, 1);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn without_shared_groups_hides_groups() {
        struct P;
        impl CodeletProgram for P {
            fn num_codelets(&self) -> usize {
                4
            }
            fn dep_count(&self, id: CodeletId) -> u32 {
                (id >= 2) as u32 * 2
            }
            fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
                if id < 2 {
                    out.extend([2, 3]);
                }
            }
            fn shared_group(&self, id: CodeletId) -> Option<SharedGroup> {
                (id >= 2).then_some(SharedGroup {
                    group: 0,
                    target: 2,
                })
            }
            fn num_shared_groups(&self) -> usize {
                1
            }
        }
        let wrapped = WithoutSharedGroups(P);
        assert_eq!(wrapped.num_codelets(), 4);
        assert_eq!(wrapped.dep_count(3), 2);
        assert_eq!(wrapped.num_shared_groups(), 0);
        assert!(wrapped.shared_group(3).is_none());
        // Still executes to completion on private counters.
        let order = execute_sequential(&wrapped, |_| {});
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn empty_graph_executes_nothing() {
        let g = ExplicitGraph::new(0);
        assert!(g.is_empty());
        let order = execute_sequential(&g, |_| {});
        assert!(order.is_empty());
    }

    /// A small program with shared groups, for quotient tests.
    struct GroupedProg;
    impl CodeletProgram for GroupedProg {
        fn num_codelets(&self) -> usize {
            6
        }
        fn dep_count(&self, id: CodeletId) -> u32 {
            if id < 2 {
                0
            } else {
                2
            }
        }
        fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
            if id < 2 {
                out.extend(2..6);
            }
        }
        fn initial_ready(&self) -> Vec<CodeletId> {
            vec![1, 0]
        }
        fn shared_group(&self, id: CodeletId) -> Option<SharedGroup> {
            (id >= 2).then(|| SharedGroup {
                group: (id - 2) / 2,
                target: 2,
            })
        }
        fn num_shared_groups(&self) -> usize {
            2
        }
        fn shared_group_members(&self, g: usize, out: &mut Vec<CodeletId>) {
            out.extend([2 + 2 * g, 3 + 2 * g]);
        }
    }

    #[test]
    fn csr_matches_source_program() {
        // Blocks of one keep every arc; the shared groups become private
        // counters over the same parents.
        let csr = CsrProgram::quotient(&GroupedProg, 0);
        assert_eq!(csr.num_codelets(), 6);
        assert_eq!(csr.initial_ready(), vec![1, 0]);
        assert!(csr.resident_bytes() > 0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for id in 0..6 {
            assert_eq!(csr.dep_count(id), GroupedProg.dep_count(id));
            assert!(csr.shared_group(id).is_none());
            a.clear();
            b.clear();
            csr.dependents(id, &mut a);
            GroupedProg.dependents(id, &mut b);
            assert_eq!(a, b, "children of {id}");
        }
        assert_eq!(csr.num_shared_groups(), 0);
        let order = execute_sequential(&csr, |_| {});
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn csr_of_explicit_graph_fires_identically() {
        let mut g = ExplicitGraph::new(5);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(2, 4);
        let csr = CsrProgram::quotient(&g, 0);
        assert_eq!(
            execute_sequential(&csr, |_| {}),
            execute_sequential(&g, |_| {})
        );
    }

    #[test]
    fn quotient_merges_blocks_and_deduplicates_edges() {
        // Two layers of four: 0..4 feed 4..8 pairwise (i -> 4 + i) and
        // codelet 0 also feeds 7. Blocks of two: {0,1} {2,3} {4,5} {6,7}.
        let mut g = ExplicitGraph::new(8);
        for i in 0..4 {
            g.add_edge(i, 4 + i);
        }
        g.add_edge(0, 7);
        let q = CsrProgram::quotient(&g, 1);
        assert_eq!(q.num_codelets(), 4);
        assert_eq!(q.children(0), &[2, 3], "0->4, 1->5 merge; 0->7 adds 3");
        assert_eq!(q.children(1), &[3]);
        assert_eq!((q.dep_count(2), q.dep_count(3)), (1, 2));
        assert_eq!(q.initial_ready(), vec![0, 1]);
        assert_eq!(q.num_shared_groups(), 0);
        assert!(q.shared_group(3).is_none());
        assert_eq!(execute_sequential(&q, |_| {}).len(), 4);
        // Blocks of one keep every distinct edge.
        let unit = CsrProgram::quotient(&g, 0);
        assert_eq!(unit.children(0), &[4, 7]);
        assert_eq!(unit.dep_count(7), 2);
    }

    #[test]
    fn quotient_drops_groups_but_keeps_the_order() {
        // Every grouped child is ordered after every parent through a
        // private counter on the quotient.
        let q = CsrProgram::quotient(&GroupedProg, 1);
        assert_eq!(q.initial_ready(), vec![0], "seeds [1, 0] share block 0");
        assert_eq!(q.children(0), &[1, 2]);
        assert_eq!((q.dep_count(1), q.dep_count(2)), (1, 1));
    }

    #[test]
    #[should_panic(expected = "stays inside block")]
    fn quotient_rejects_edges_inside_a_block() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(0, 1);
        CsrProgram::quotient(&g, 1);
    }

    #[test]
    fn quotient_order_keeps_first_appearance() {
        assert_eq!(quotient_order(&[5, 0, 4, 1, 7], 1), vec![2, 0, 3]);
        assert_eq!(quotient_order(&[3, 1, 2], 0), vec![3, 1, 2]);
        assert!(quotient_order(&[], 2).is_empty());
    }

    #[test]
    fn batch_program_offsets_everything() {
        let b = BatchProgram::new(&GroupedProg, 3);
        assert_eq!(b.num_codelets(), 18);
        assert_eq!(b.num_shared_groups(), 6);
        assert_eq!(b.copy_of(13), 2);
        assert_eq!(b.local_id(13), 1);
        // Copy 1's sources feed copy 1's sinks only.
        let mut kids = Vec::new();
        b.dependents(6, &mut kids);
        assert_eq!(kids, vec![8, 9, 10, 11]);
        // Shared groups stay within their copy.
        let g = b.shared_group(6 + 3).expect("grouped codelet");
        assert_eq!(g.group, 2);
        let mut members = Vec::new();
        b.shared_group_members(g.group, &mut members);
        assert_eq!(members, vec![8, 9]);
        // Seeds replicate per copy in order.
        assert_eq!(b.initial_ready(), vec![1, 0, 7, 6, 13, 12]);
        // The whole batch executes: every copy's codelets fire once.
        let order = execute_sequential(&b, |_| {});
        assert_eq!(order.len(), 18);
    }

    #[test]
    fn batch_of_one_is_the_inner_program() {
        let b = BatchProgram::new(&GroupedProg, 1);
        assert_eq!(b.num_codelets(), 6);
        assert_eq!(b.initial_ready(), GroupedProg.initial_ready());
        assert_eq!(execute_sequential(&b, |_| {}).len(), 6);
    }
}
