//! Critical Path Method over a [`Dag`].
//!
//! Implements §V-B: given the DAG and the execution time selected for each
//! node, compute for every node the window `w_t = [T_MIN_t, T_MAX_t]` where
//! `T_MIN` is the earliest start and `T_MAX` the latest completion that does
//! not delay the schedule, the overall makespan (length of the critical
//! path), and the critical flag (zero slack).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prfpga_model::{Time, TimeWindow};

use crate::csr::{CsrView, GraphRead};
use crate::graph::{Dag, NodeId, TopoScratch};

/// Reusable buffers for [`CpmAnalysis::recompute`] and the incremental
/// updates ([`CpmAnalysis::apply_arc`], [`CpmAnalysis::apply_duration`]
/// and their deferred-backward twins).
///
/// The schedulers fold every duration or dependency mutation into the
/// analysis — the single hottest path of the whole pipeline. One warm
/// scratch makes each update allocation-free, and it carries the
/// topological order the incremental updates propagate along. That order
/// is maintained dynamically: an arc inserted against it is absorbed by a
/// Pearce–Kelly repair that re-positions only affected nodes between its
/// endpoints instead of forcing a full recompute. A scratch is paired
/// with the analysis it last recomputed: the incremental methods require
/// that the same scratch was used for the previous `recompute`/`apply_*`
/// call on the same analysis.
#[derive(Debug, Clone, Default)]
pub struct CpmScratch {
    topo: TopoScratch,
    order: Vec<NodeId>,
    t_min: Vec<Time>,
    t_max: Vec<Time>,
    /// `pos[v]` = index of `v` in `order`; valid alongside `order`.
    pos: Vec<usize>,
    /// Min-heap worklist for forward (earliest-start) propagation.
    fwd: BinaryHeap<Reverse<(usize, NodeId)>>,
    /// Max-heap worklist for backward (latest-completion) propagation.
    bwd: BinaryHeap<(usize, NodeId)>,
    /// Epoch marks deduplicating worklist pushes (and the order repair's
    /// depth-first searches) without an `O(V)` clear.
    stamp: Vec<u32>,
    epoch: u32,
    /// Nodes whose window changed; their critical flags need refreshing.
    dirty: Vec<NodeId>,
    /// Order repair: the affected descendants of the new arc's head, the
    /// affected ancestors of its tail, their pooled positions, and the
    /// depth-first stack.
    repair_fwd: Vec<NodeId>,
    repair_bwd: Vec<NodeId>,
    repair_slots: Vec<usize>,
    repair_stack: Vec<NodeId>,
    counters: CpmCounters,
}

/// Work done through one [`CpmScratch`], cumulative over its lifetime.
/// Diff two snapshots with [`CpmCounters::since`] to attribute the work of
/// a stretch of updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpmCounters {
    /// Arc insertions folded in incrementally.
    pub arcs_applied: u64,
    /// Arc insertions that found the cached order stale and repaired it.
    pub order_repairs: u64,
    /// Nodes those repairs moved to a new position.
    pub nodes_repositioned: u64,
    /// Node re-evaluations of the forward (earliest-start) worklist.
    pub forward_relaxations: u64,
    /// Node re-evaluations of the backward (latest-completion) worklist
    /// and of the whole-order backward sweeps (after a makespan move, and
    /// at a settle).
    pub backward_relaxations: u64,
    /// Full recomputes: topological sort plus both passes.
    pub full_recomputes: u64,
}

impl CpmCounters {
    /// The work done since the `earlier` snapshot of the same scratch.
    pub fn since(&self, earlier: &CpmCounters) -> CpmCounters {
        CpmCounters {
            arcs_applied: self.arcs_applied - earlier.arcs_applied,
            order_repairs: self.order_repairs - earlier.order_repairs,
            nodes_repositioned: self.nodes_repositioned - earlier.nodes_repositioned,
            forward_relaxations: self.forward_relaxations - earlier.forward_relaxations,
            backward_relaxations: self.backward_relaxations - earlier.backward_relaxations,
            full_recomputes: self.full_recomputes - earlier.full_recomputes,
        }
    }
}

impl CpmScratch {
    /// Starts a worklist pass over `n` nodes: a node is enqueued iff its
    /// stamp differs from the current epoch.
    fn begin_epoch(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// The topological order the incremental updates propagate along (valid
    /// for the graph of the last `recompute`/`apply_*` call).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Work counters accumulated so far.
    pub fn counters(&self) -> CpmCounters {
        self.counters
    }

    /// Pearce–Kelly repair (*A Dynamic Topological Sort Algorithm for
    /// Directed Acyclic Graphs*, JEA 2006) after `dag` gained `from -> to`
    /// with `pos[from] > pos[to]`. Only nodes positioned between the two
    /// endpoints can be out of order: the descendants of `to` placed before
    /// `from` (forward set) and the ancestors of `from` placed after `to`
    /// (backward set). The two sets are disjoint (a common node would close
    /// a cycle), so pooling their positions and handing them out backward
    /// set first, each set in its old relative order, orders every arc
    /// again while leaving every other node where it was.
    fn reorder(&mut self, dag: &Dag, from: NodeId, to: NodeId) {
        self.begin_epoch(dag.len());
        let CpmScratch {
            order,
            pos,
            stamp,
            epoch,
            repair_fwd,
            repair_bwd,
            repair_slots,
            repair_stack,
            counters,
            ..
        } = self;
        let (lower, upper) = (pos[to as usize], pos[from as usize]);
        collect_affected(
            to,
            |v| dag.succs(v),
            |w| pos[w as usize] < upper,
            stamp,
            *epoch,
            repair_stack,
            repair_fwd,
        );
        collect_affected(
            from,
            |v| dag.preds(v),
            |w| pos[w as usize] > lower,
            stamp,
            *epoch,
            repair_stack,
            repair_bwd,
        );
        repair_fwd.sort_unstable_by_key(|&v| pos[v as usize]);
        repair_bwd.sort_unstable_by_key(|&v| pos[v as usize]);
        repair_slots.clear();
        repair_slots.extend(
            repair_bwd
                .iter()
                .chain(repair_fwd.iter())
                .map(|&v| pos[v as usize]),
        );
        repair_slots.sort_unstable();
        for (&slot, &v) in repair_slots
            .iter()
            .zip(repair_bwd.iter().chain(repair_fwd.iter()))
        {
            order[slot] = v;
            pos[v as usize] = slot;
        }
        counters.order_repairs += 1;
        counters.nodes_repositioned += repair_slots.len() as u64;
    }
}

/// Depth-first collection into `out` of `start` and every node reachable
/// from it through `next` that satisfies `in_range`, marking each in the
/// current `epoch` so no node is collected twice.
fn collect_affected<'g>(
    start: NodeId,
    next: impl Fn(NodeId) -> &'g [NodeId],
    in_range: impl Fn(NodeId) -> bool,
    stamp: &mut [u32],
    epoch: u32,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    stack.clear();
    stamp[start as usize] = epoch;
    stack.push(start);
    while let Some(v) = stack.pop() {
        out.push(v);
        for &w in next(v) {
            if stamp[w as usize] != epoch && in_range(w) {
                stamp[w as usize] = epoch;
                stack.push(w);
            }
        }
    }
}

/// How an incremental update treats the backward half of the analysis
/// (latest completions, makespan, critical flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backward {
    /// Brought up to date with the forward half: the analysis stays fully
    /// consistent.
    Eager,
    /// Left stale until [`CpmAnalysis::settle`]; only earliest starts are
    /// maintained.
    Deferred,
}

/// Result of a CPM pass.
///
/// ```
/// use prfpga_dag::{CpmAnalysis, Dag};
///
/// // 0 -> 1 -> 2 with durations 5, 3, 2: makespan 10, all critical.
/// let mut dag = Dag::with_nodes(3);
/// dag.add_edge(0, 1).unwrap();
/// dag.add_edge(1, 2).unwrap();
/// let cpm = CpmAnalysis::run(&dag, &[5, 3, 2]);
/// assert_eq!(cpm.makespan, 10);
/// assert_eq!(cpm.windows[1].min, 5);
/// assert!(cpm.critical.iter().all(|&c| c));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpmAnalysis {
    /// Per-node execution window `[T_MIN, T_MAX]`.
    pub windows: Vec<TimeWindow>,
    /// Length of the critical path (the ideal unlimited-resource makespan).
    pub makespan: Time,
    /// `critical[v]` iff node `v` has zero slack.
    pub critical: Vec<bool>,
    /// Set by a deferred-backward update: `windows[..].max`, `makespan`
    /// and `critical` are stale until [`CpmAnalysis::settle`].
    backward_stale: bool,
}

impl CpmAnalysis {
    /// Runs CPM assuming every node may start at tick 0.
    pub fn run(dag: &Dag, durations: &[Time]) -> CpmAnalysis {
        Self::run_with_release(dag, durations, None)
    }

    /// Runs CPM with optional per-node release times (lower bounds on the
    /// start tick). Schedulers use release times to model decisions already
    /// fixed: a task whose start has been committed gets its start as
    /// release, and the windows of everything downstream follow.
    pub fn run_with_release(
        dag: &Dag,
        durations: &[Time],
        release: Option<&[Time]>,
    ) -> CpmAnalysis {
        let mut out = CpmAnalysis::default();
        let mut scratch = CpmScratch::default();
        out.recompute(dag, durations, release, &mut scratch);
        out
    }

    /// [`CpmAnalysis::run_with_release`] into `self`, reusing both this
    /// analysis' buffers and the caller-owned `scratch` — no allocation
    /// once the buffers are warm, byte-identical results.
    pub fn recompute(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        release: Option<&[Time]>,
        scratch: &mut CpmScratch,
    ) {
        dag.topo_order_into(&mut scratch.topo, &mut scratch.order);
        self.recompute_over(dag, durations, release, scratch);
    }

    /// [`CpmAnalysis::recompute`] over a current [`CsrView`]: the cached
    /// topological order replaces the Kahn pass and the forward/backward
    /// sweeps iterate the packed adjacency. Byte-identical results (the
    /// view preserves per-node edge order and the cached order is the same
    /// deterministic Kahn order), and the scratch is left in the same
    /// state, so the incremental `apply_*` methods remain usable against
    /// the underlying `Dag` afterwards.
    pub fn recompute_csr(
        &mut self,
        csr: &CsrView,
        durations: &[Time],
        release: Option<&[Time]>,
        scratch: &mut CpmScratch,
    ) {
        scratch.order.clear();
        scratch.order.extend_from_slice(csr.topo_order());
        self.recompute_over(csr, durations, release, scratch);
    }

    /// The CPM passes over any adjacency layout; `scratch.order` must
    /// already hold the deterministic topological order.
    fn recompute_over<G: GraphRead>(
        &mut self,
        graph: &G,
        durations: &[Time],
        release: Option<&[Time]>,
        scratch: &mut CpmScratch,
    ) {
        let n = graph.num_nodes();
        assert_eq!(durations.len(), n, "one duration per node required");
        if let Some(r) = release {
            assert_eq!(r.len(), n, "one release time per node required");
        }
        let CpmScratch {
            order,
            t_min,
            t_max,
            pos,
            counters,
            ..
        } = scratch;
        counters.full_recomputes += 1;
        pos.clear();
        pos.resize(n, 0);
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }

        // Forward pass: earliest start.
        t_min.clear();
        t_min.resize(n, 0);
        for &v in order.iter() {
            let mut es = release.map_or(0, |r| r[v as usize]);
            for &p in graph.preds_of(v) {
                es = es.max(t_min[p as usize] + durations[p as usize]);
            }
            t_min[v as usize] = es;
        }
        let makespan = (0..n).map(|v| t_min[v] + durations[v]).max().unwrap_or(0);

        // Backward pass: latest completion.
        t_max.clear();
        t_max.resize(n, makespan);
        for &v in order.iter().rev() {
            let mut lc = makespan;
            for &s in graph.succs_of(v) {
                lc = lc.min(t_max[s as usize] - durations[s as usize]);
            }
            t_max[v as usize] = lc;
        }

        self.windows.clear();
        self.windows.reserve(n);
        self.critical.clear();
        self.critical.reserve(n);
        for v in 0..n {
            self.windows.push(TimeWindow::new(t_min[v], t_max[v]));
            self.critical.push(t_max[v] - t_min[v] == durations[v]);
        }
        self.makespan = makespan;
        self.backward_stale = false;
    }

    /// Incremental update after `dag.add_edge(from, to)` succeeded: the
    /// earliest starts downstream of `to` and the latest completions
    /// upstream of `from` are re-propagated along the cached topological
    /// order, touching only the nodes whose values actually move. An arc
    /// against the cached order first repairs the order (Pearce–Kelly, see
    /// [`CpmScratch`]); a moved makespan shifts every horizon-clamped
    /// latest completion, so it redoes the backward half along the order.
    ///
    /// `scratch` must be the one used for the previous
    /// `recompute`/`apply_*` call on this analysis, with `dag` unchanged
    /// since except for arcs already applied through these methods (and arc
    /// removals via rollback, which never invalidate the order). Results
    /// are byte-identical to a full recompute — earliest/latest times are
    /// the unique fixed point of the window equations, whatever valid
    /// order they are propagated along.
    pub fn apply_arc(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        from: NodeId,
        to: NodeId,
        scratch: &mut CpmScratch,
    ) {
        self.update_arc(dag, durations, from, to, Backward::Eager, scratch);
    }

    /// [`CpmAnalysis::apply_arc`] maintaining the earliest starts only:
    /// latest completions, the makespan and the critical flags are left
    /// stale (see [`CpmAnalysis::is_settled`]) until
    /// [`CpmAnalysis::settle`] brings them up to date in one pass. For
    /// stretches of updates that read only `windows[..].min`.
    pub fn apply_arc_deferred(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        from: NodeId,
        to: NodeId,
        scratch: &mut CpmScratch,
    ) {
        self.update_arc(dag, durations, from, to, Backward::Deferred, scratch);
    }

    /// Incremental update after `durations[v]` changed (in either
    /// direction): earliest starts are re-propagated from `v`'s successors
    /// and latest completions from its predecessors. Same scratch-pairing
    /// contract and byte-identity guarantee as [`CpmAnalysis::apply_arc`];
    /// the cached order is always still valid here since the graph itself
    /// did not change.
    pub fn apply_duration(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        v: NodeId,
        scratch: &mut CpmScratch,
    ) {
        self.update_duration(dag, durations, v, Backward::Eager, scratch);
    }

    /// [`CpmAnalysis::apply_duration`] maintaining the earliest starts
    /// only, like [`CpmAnalysis::apply_arc_deferred`].
    pub fn apply_duration_deferred(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        v: NodeId,
        scratch: &mut CpmScratch,
    ) {
        self.update_duration(dag, durations, v, Backward::Deferred, scratch);
    }

    /// False while a deferred update has left the latest completions, the
    /// makespan and the critical flags stale.
    pub fn is_settled(&self) -> bool {
        !self.backward_stale
    }

    /// Brings the backward half up to date after deferred updates: the
    /// makespan is rescanned and one backward sweep along the maintained
    /// order recomputes every latest completion and critical flag — `O(V +
    /// E)`, no topological sort. A no-op on a settled analysis. Same
    /// scratch-pairing contract as the incremental updates.
    pub fn settle(&mut self, dag: &Dag, durations: &[Time], scratch: &mut CpmScratch) {
        if self.backward_stale {
            self.makespan = self.scan_makespan(durations);
            self.backward_sweep(dag, durations, scratch);
        }
    }

    /// True when `scratch` still holds this analysis' order for `dag`; a
    /// mismatch (first use, or a different graph) takes a full recompute.
    fn paired(&self, dag: &Dag, scratch: &CpmScratch) -> bool {
        let n = dag.len();
        scratch.order.len() == n && self.windows.len() == n
    }

    fn update_arc(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        from: NodeId,
        to: NodeId,
        backward: Backward,
        scratch: &mut CpmScratch,
    ) {
        scratch.counters.arcs_applied += 1;
        if !self.paired(dag, scratch) {
            self.recompute(dag, durations, None, scratch);
            return;
        }
        if scratch.pos[from as usize] > scratch.pos[to as usize] {
            scratch.reorder(dag, from, to);
        }
        debug_assert!(order_is_valid(dag, &scratch.pos));
        scratch.dirty.clear();
        self.propagate_forward(dag, durations, [to], scratch);
        if backward == Backward::Deferred {
            // Even an arc that moves no earliest start tightens `from`'s
            // latest completion.
            self.backward_stale = true;
            return;
        }
        let makespan = if self.backward_stale {
            self.scan_makespan(durations)
        } else {
            // An arc only lengthens paths: the makespan can only grow, and
            // only through a node the forward pass moved.
            scratch
                .dirty
                .iter()
                .map(|&x| self.windows[x as usize].min + durations[x as usize])
                .fold(self.makespan, Time::max)
        };
        self.update_backward(dag, durations, makespan, [from], scratch);
    }

    fn update_duration(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        v: NodeId,
        backward: Backward,
        scratch: &mut CpmScratch,
    ) {
        if !self.paired(dag, scratch) {
            self.recompute(dag, durations, None, scratch);
            return;
        }
        debug_assert!(order_is_valid(dag, &scratch.pos));
        scratch.dirty.clear();
        scratch.dirty.push(v); // own slack uses the new duration
        self.propagate_forward(dag, durations, dag.succs(v).iter().copied(), scratch);
        if backward == Backward::Deferred {
            self.backward_stale = true;
            return;
        }
        // A shorter duration can shrink the makespan: rescan.
        let makespan = self.scan_makespan(durations);
        self.update_backward(
            dag,
            durations,
            makespan,
            dag.preds(v).iter().copied(),
            scratch,
        );
    }

    /// The eager backward half of an update whose forward pass left the
    /// new `makespan`: latest completions re-propagate from `seeds` while
    /// the horizon holds still; a moved horizon (or a stale backward half)
    /// takes the whole-order sweep instead.
    fn update_backward(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        makespan: Time,
        seeds: impl IntoIterator<Item = NodeId>,
        scratch: &mut CpmScratch,
    ) {
        if self.backward_stale || makespan != self.makespan {
            self.makespan = makespan;
            self.backward_sweep(dag, durations, scratch);
        } else {
            self.propagate_backward(dag, durations, seeds, scratch);
            self.refresh_dirty_critical(durations, scratch);
        }
    }

    /// Worklist pass in ascending topological position: each popped node
    /// gets its earliest start recomputed exactly from its predecessors
    /// (all of which are already final), propagating to successors only on
    /// change.
    fn propagate_forward(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        seeds: impl IntoIterator<Item = NodeId>,
        scratch: &mut CpmScratch,
    ) {
        scratch.begin_epoch(dag.len());
        for s in seeds {
            scratch.stamp[s as usize] = scratch.epoch;
            scratch.fwd.push(Reverse((scratch.pos[s as usize], s)));
        }
        while let Some(Reverse((_, x))) = scratch.fwd.pop() {
            scratch.counters.forward_relaxations += 1;
            let es = dag
                .preds(x)
                .iter()
                .map(|&p| self.windows[p as usize].min + durations[p as usize])
                .max()
                .unwrap_or(0);
            if es != self.windows[x as usize].min {
                self.windows[x as usize].min = es;
                scratch.dirty.push(x);
                for &s in dag.succs(x) {
                    if scratch.stamp[s as usize] != scratch.epoch {
                        scratch.stamp[s as usize] = scratch.epoch;
                        scratch.fwd.push(Reverse((scratch.pos[s as usize], s)));
                    }
                }
            }
        }
    }

    /// Worklist pass in descending topological position: each popped node
    /// gets its latest completion recomputed exactly from its successors,
    /// propagating to predecessors only on change. Only valid while the
    /// makespan is unchanged.
    fn propagate_backward(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        seeds: impl IntoIterator<Item = NodeId>,
        scratch: &mut CpmScratch,
    ) {
        scratch.begin_epoch(dag.len());
        for s in seeds {
            scratch.stamp[s as usize] = scratch.epoch;
            scratch.bwd.push((scratch.pos[s as usize], s));
        }
        while let Some((_, x)) = scratch.bwd.pop() {
            scratch.counters.backward_relaxations += 1;
            let lc = dag
                .succs(x)
                .iter()
                .map(|&s| self.windows[s as usize].max - durations[s as usize])
                .min()
                .unwrap_or(self.makespan);
            if lc != self.windows[x as usize].max {
                self.windows[x as usize].max = lc;
                scratch.dirty.push(x);
                for &p in dag.preds(x) {
                    if scratch.stamp[p as usize] != scratch.epoch {
                        scratch.stamp[p as usize] = scratch.epoch;
                        scratch.bwd.push((scratch.pos[p as usize], p));
                    }
                }
            }
        }
    }

    /// Length of the longest path under the current earliest starts.
    fn scan_makespan(&self, durations: &[Time]) -> Time {
        self.windows
            .iter()
            .zip(durations)
            .map(|(w, &d)| w.min + d)
            .max()
            .unwrap_or(0)
    }

    /// Recomputes every latest completion against `self.makespan` in one
    /// sweep down the cached order, then every critical flag; leaves the
    /// analysis settled.
    fn backward_sweep(&mut self, dag: &Dag, durations: &[Time], scratch: &mut CpmScratch) {
        for &x in scratch.order.iter().rev() {
            let lc = dag
                .succs(x)
                .iter()
                .map(|&s| self.windows[s as usize].max - durations[s as usize])
                .min()
                .unwrap_or(self.makespan);
            self.windows[x as usize].max = lc;
        }
        scratch.counters.backward_relaxations += scratch.order.len() as u64;
        for (v, w) in self.windows.iter().enumerate() {
            self.critical[v] = w.max - w.min == durations[v];
        }
        self.backward_stale = false;
    }

    /// Refreshes the critical flag of every node whose window (or own
    /// duration) changed during the incremental passes.
    fn refresh_dirty_critical(&mut self, durations: &[Time], scratch: &mut CpmScratch) {
        for &x in &scratch.dirty {
            let w = self.windows[x as usize];
            self.critical[x as usize] = w.max - w.min == durations[x as usize];
        }
    }

    /// Extracts one critical path (source to sink through zero-slack nodes),
    /// deterministically preferring smaller node ids.
    pub fn critical_path(&self, dag: &Dag, durations: &[Time]) -> Vec<NodeId> {
        debug_assert!(self.is_settled(), "critical flags read before settle");
        let n = dag.len();
        if n == 0 {
            return Vec::new();
        }
        // Start at the critical source with T_MIN == 0.
        let mut cur = match (0..n as NodeId)
            .filter(|&v| {
                self.critical[v as usize]
                    && self.windows[v as usize].min == 0
                    && dag.preds(v).iter().all(|&p| {
                        !self.critical[p as usize]
                            || self.windows[p as usize].min + durations[p as usize]
                                != self.windows[v as usize].min
                    })
            })
            .min()
        {
            Some(v) => v,
            None => return Vec::new(),
        };
        let mut path = vec![cur];
        loop {
            let end = self.windows[cur as usize].min + durations[cur as usize];
            let next = dag
                .succs(cur)
                .iter()
                .copied()
                .filter(|&s| self.critical[s as usize] && self.windows[s as usize].min == end)
                .min();
            match next {
                Some(s) => {
                    path.push(s);
                    cur = s;
                }
                None => break,
            }
        }
        path
    }
}

/// True when `pos` topologically orders every arc of `dag` (debug check
/// for the incremental updates' order-validity contract).
fn order_is_valid(dag: &Dag, pos: &[usize]) -> bool {
    (0..dag.len() as NodeId).all(|v| {
        dag.succs(v)
            .iter()
            .all(|&s| pos[v as usize] < pos[s as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 -> {1, 2} -> 3, durations 2, 5, 3, 1.
    fn diamond() -> (Dag, Vec<Time>) {
        let mut d = Dag::with_nodes(4);
        d.add_edge(0, 1).unwrap();
        d.add_edge(0, 2).unwrap();
        d.add_edge(1, 3).unwrap();
        d.add_edge(2, 3).unwrap();
        (d, vec![2, 5, 3, 1])
    }

    #[test]
    fn diamond_windows() {
        let (d, dur) = diamond();
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 8); // 2 + 5 + 1
        assert_eq!(cpm.windows[0], TimeWindow::new(0, 2));
        assert_eq!(cpm.windows[1], TimeWindow::new(2, 7));
        assert_eq!(cpm.windows[2], TimeWindow::new(2, 7));
        assert_eq!(cpm.windows[3], TimeWindow::new(7, 8));
        assert_eq!(cpm.critical, vec![true, true, false, true]);
    }

    #[test]
    fn diamond_critical_path() {
        let (d, dur) = diamond();
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.critical_path(&d, &dur), vec![0, 1, 3]);
    }

    #[test]
    fn release_times_shift_windows() {
        let (d, dur) = diamond();
        let release = vec![0, 10, 0, 0];
        let cpm = CpmAnalysis::run_with_release(&d, &dur, Some(&release));
        assert_eq!(cpm.makespan, 16); // node 1 starts at 10, ends 15, node 3 ends 16
        assert_eq!(cpm.windows[1].min, 10);
        assert_eq!(cpm.windows[3].min, 15);
        // Node 2's latest completion stretches with the new horizon.
        assert_eq!(cpm.windows[2].max, 15);
    }

    #[test]
    fn independent_nodes_all_critical_iff_longest() {
        let mut d = Dag::with_nodes(3);
        let _ = &mut d; // no edges
        let dur = vec![5, 9, 9];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 9);
        assert_eq!(cpm.critical, vec![false, true, true]);
        assert_eq!(cpm.windows[0], TimeWindow::new(0, 9));
    }

    #[test]
    fn zero_duration_nodes() {
        let mut d = Dag::with_nodes(2);
        d.add_edge(0, 1).unwrap();
        let dur = vec![0, 0];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 0);
        assert!(cpm.critical.iter().all(|&c| c));
    }

    #[test]
    fn empty_graph() {
        let d = Dag::with_nodes(0);
        let cpm = CpmAnalysis::run(&d, &[]);
        assert_eq!(cpm.makespan, 0);
        assert!(cpm.windows.is_empty());
    }

    #[test]
    fn recompute_matches_run_across_reuses() {
        // One scratch + one analysis reused across graphs of different
        // sizes and shapes must reproduce `run_with_release` exactly.
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        let (d1, dur1) = diamond();
        let release = vec![0, 10, 0, 0];
        let cases: Vec<(Dag, Vec<Time>, Option<Vec<Time>>)> = vec![
            (d1.clone(), dur1.clone(), None),
            (d1, dur1, Some(release)),
            (Dag::with_nodes(0), vec![], None),
            (
                {
                    let mut c = Dag::with_nodes(6);
                    for i in 0..5 {
                        c.add_edge(i, i + 1).unwrap();
                    }
                    c
                },
                vec![1, 2, 3, 4, 5, 6],
                None,
            ),
        ];
        for (dag, dur, rel) in cases {
            cpm.recompute(&dag, &dur, rel.as_deref(), &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run_with_release(&dag, &dur, rel.as_deref())
            );
        }
    }

    #[test]
    fn recompute_csr_matches_dag_recompute() {
        use crate::csr::CsrView;
        let (dag, dur) = diamond();
        let mut csr = CsrView::new();
        csr.build(&dag);
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        let release = [0, 10, 0, 0];
        for rel in [None, Some(&release[..])] {
            cpm.recompute_csr(&csr, &dur, rel, &mut scratch);
            assert_eq!(cpm, CpmAnalysis::run_with_release(&dag, &dur, rel));
        }
        // The scratch is left valid for the incremental path on the Dag.
        let mut dag = dag;
        cpm.recompute_csr(&csr, &dur, None, &mut scratch);
        dag.add_edge(1, 2).unwrap();
        cpm.apply_arc(&dag, &dur, 1, 2, &mut scratch);
        assert_eq!(cpm, CpmAnalysis::run(&dag, &dur));
    }

    #[test]
    fn apply_arc_matches_full_recompute() {
        // Start from two parallel chains 0->1 and 2->3, then cross-link
        // them arc by arc; after every insertion the incremental analysis
        // must equal a from-scratch run.
        let mut dag = Dag::with_nodes(6);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(2, 3).unwrap();
        let durations = vec![4, 2, 7, 1, 3, 5];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        for (u, v) in [(1, 3), (0, 2), (3, 4), (4, 5), (1, 5)] {
            dag.add_edge(u, v).unwrap();
            cpm.apply_arc(&dag, &durations, u, v, &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run(&dag, &durations),
                "after arc {u}->{v}"
            );
        }
    }

    #[test]
    fn apply_arc_against_stale_order_repairs_order() {
        // Node ids against topological direction: the cached order (by id)
        // cannot order the new arc 2 -> 0, so the Pearce–Kelly repair moves
        // the ancestors of 2 ahead of 0 — no full recompute — and the
        // analysis must still be exact.
        let mut dag = Dag::with_nodes(3);
        dag.add_edge(1, 2).unwrap();
        let durations = vec![5, 3, 2];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        let before = scratch.counters();
        dag.add_edge(2, 0).unwrap();
        cpm.apply_arc(&dag, &durations, 2, 0, &mut scratch);
        assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
        assert_eq!(scratch.order(), &[1, 2, 0]);
        let work = scratch.counters().since(&before);
        assert_eq!((work.order_repairs, work.nodes_repositioned), (1, 3));
        assert_eq!(work.full_recomputes, 0);
    }

    #[test]
    fn order_repair_moves_only_the_affected_span() {
        // Chain 1 -> 2 -> 3 plus free nodes 0 and 4, ordered by id. The arc
        // 4 -> 1 moves the backward set {4} ahead of the forward set
        // {1, 2, 3} within their pooled positions; 0 keeps its place.
        let mut dag = Dag::with_nodes(5);
        dag.add_edge(1, 2).unwrap();
        dag.add_edge(2, 3).unwrap();
        let durations = vec![1, 1, 1, 1, 9];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        assert_eq!(scratch.order(), &[0, 1, 2, 3, 4]);
        dag.add_edge(4, 1).unwrap();
        cpm.apply_arc(&dag, &durations, 4, 1, &mut scratch);
        assert_eq!(scratch.order(), &[0, 4, 1, 2, 3]);
        assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
    }

    #[test]
    fn eager_update_after_deferred_ones_is_consistent() {
        // An eager update on a stale analysis must settle it, not patch
        // stale latest completions.
        let (mut dag, durations) = diamond();
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        dag.add_edge(1, 2).unwrap();
        cpm.apply_arc_deferred(&dag, &durations, 1, 2, &mut scratch);
        assert!(!cpm.is_settled());
        dag.add_edge(0, 3).unwrap();
        cpm.apply_arc(&dag, &durations, 0, 3, &mut scratch);
        assert!(cpm.is_settled());
        assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
    }

    #[test]
    fn apply_duration_matches_full_recompute() {
        // Diamond with duration changes in both directions, including ones
        // that raise and then lower the makespan.
        let (dag, mut durations) = diamond();
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        for (v, d) in [(2usize, 50), (1, 1), (2, 3), (0, 9), (3, 0)] {
            durations[v] = d;
            cpm.apply_duration(&dag, &durations, v as NodeId, &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run(&dag, &durations),
                "after durations[{v}] = {d}"
            );
        }
    }

    #[test]
    fn chain_is_fully_critical() {
        let mut d = Dag::with_nodes(4);
        for i in 0..3 {
            d.add_edge(i, i + 1).unwrap();
        }
        let dur = vec![1, 2, 3, 4];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 10);
        assert!(cpm.critical.iter().all(|&c| c));
        assert_eq!(cpm.critical_path(&d, &dur), vec![0, 1, 2, 3]);
        // Windows tile the horizon exactly.
        assert_eq!(cpm.windows[2], TimeWindow::new(3, 6));
    }
}
