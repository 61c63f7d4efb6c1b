//! Arena-backed streaming assembly of route allocation instances.
//!
//! The per-slot P2 instance has a fixed canonical layout (one variable
//! per route edge in stream order; packing constraints for touched nodes
//! in first-touch order, then touched edges in first-touch order, then an
//! optional budget over all variables). [`RouteAssembler`] builds that
//! layout directly into the [`AllocationInstance`] CSR arrays — no
//! per-constraint member `Vec`s, no hashing — and owns an arena of
//! recycled instances so steady-state assembly performs **zero heap
//! allocations**: callers hand solved instances back via
//! [`RouteAssembler::recycle`] and the next build reuses their capacity.
//!
//! This is the **single** definition of the layout. Both the
//! full-rebuild path (`qdn-core`'s `PerSlotContext::build_instance`) and
//! the incremental profile evaluator (per-component sub-instances) stream
//! through it, which — together with the component-wise solvers in
//! [`crate::relaxed`] — is what makes their results bit-identical: a
//! coupling component's sub-instance is structurally the joint instance
//! restricted to it, in the same relative order.

use crate::instance::{AllocationInstance, Variable};
use crate::SolveError;

/// Streaming builder for the canonical route-instance layout, with an
/// instance arena. See the module docs.
#[derive(Debug)]
pub struct RouteAssembler {
    nodes: usize,
    edges: usize,
    /// First-touch slot maps with epoch stamping (never cleared).
    node_slot: Vec<u32>,
    node_mark: Vec<u64>,
    edge_slot: Vec<u32>,
    edge_mark: Vec<u64>,
    epoch: u64,
    /// Staged per-build state (cleared by [`RouteAssembler::begin`],
    /// capacity retained).
    vars: Vec<Variable>,
    /// Per variable: `[node_slot_u, node_slot_v, edge_slot]`.
    var_touch: Vec<[u32; 3]>,
    node_caps: Vec<u32>,
    edge_caps: Vec<u32>,
    /// Per-constraint write cursors for the CSR fill pass.
    cursor: Vec<u32>,
    /// Recycled instances whose buffers the next build reuses.
    arena: Vec<AllocationInstance>,
}

impl RouteAssembler {
    /// An assembler for a network with the given node/edge counts.
    pub fn sized(nodes: usize, edges: usize) -> Self {
        RouteAssembler {
            nodes,
            edges,
            node_slot: vec![0; nodes],
            node_mark: vec![0; nodes],
            edge_slot: vec![0; edges],
            edge_mark: vec![0; edges],
            epoch: 0,
            vars: Vec::new(),
            var_touch: Vec::new(),
            node_caps: Vec::new(),
            edge_caps: Vec::new(),
            cursor: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Node/edge counts this assembler was sized for.
    pub fn network_shape(&self) -> (usize, usize) {
        (self.nodes, self.edges)
    }

    /// Starts a new build, discarding any staged edges.
    pub fn begin(&mut self) {
        self.epoch += 1;
        self.vars.clear();
        self.var_touch.clear();
        self.node_caps.clear();
        self.edge_caps.clear();
    }

    /// Stages one route edge as the next variable: edge `edge` with
    /// endpoints `u`/`v`, channel success `p`, and this slot's remaining
    /// capacities (node qubits and edge channels). Capacities are
    /// recorded on first touch only.
    ///
    /// # Panics
    ///
    /// Debug-asserts `u`, `v`, and `edge` are within the sized network.
    #[allow(clippy::too_many_arguments)]
    pub fn push_edge(
        &mut self,
        edge: usize,
        u: usize,
        v: usize,
        p: f64,
        cap_u: u32,
        cap_v: u32,
        cap_edge: u32,
    ) {
        debug_assert!(u < self.nodes && v < self.nodes && edge < self.edges);
        self.vars.push(Variable::new(p));
        let mut touch = [0u32; 3];
        for (slot, (node, cap)) in touch.iter_mut().zip([(u, cap_u), (v, cap_v)]) {
            if self.node_mark[node] != self.epoch {
                self.node_mark[node] = self.epoch;
                self.node_slot[node] = self.node_caps.len() as u32;
                self.node_caps.push(cap);
            }
            *slot = self.node_slot[node];
        }
        if self.edge_mark[edge] != self.epoch {
            self.edge_mark[edge] = self.epoch;
            self.edge_slot[edge] = self.edge_caps.len() as u32;
            self.edge_caps.push(cap_edge);
        }
        touch[2] = self.edge_slot[edge];
        self.var_touch.push(touch);
    }

    /// Finishes the build into a validated instance (reusing recycled
    /// storage when available).
    ///
    /// # Errors
    ///
    /// [`SolveError::InfeasibleAtLowerBound`] when some touched node,
    /// edge, or the budget cannot hold one channel per staged variable.
    pub fn finish(
        &mut self,
        budget: Option<u32>,
        v_weight: f64,
        unit_price: f64,
    ) -> Result<AllocationInstance, SolveError> {
        let n = self.vars.len();
        let n_node = self.node_caps.len();
        let n_edge = self.edge_caps.len();
        let m = n_node + n_edge + usize::from(budget.is_some());

        let mut husk = self.arena.pop().unwrap_or_else(AllocationInstance::husk);
        husk.v_weight = v_weight;
        husk.unit_price = unit_price;
        std::mem::swap(&mut husk.vars, &mut self.vars);

        husk.caps.clear();
        husk.caps.extend_from_slice(&self.node_caps);
        husk.caps.extend_from_slice(&self.edge_caps);
        if let Some(b) = budget {
            husk.caps.push(b);
        }

        // Counting pass → offsets. Each variable contributes one member
        // to each endpoint's node constraint and to its edge constraint;
        // the budget row (last) sums every variable.
        husk.con_off.clear();
        husk.con_off.resize(m + 1, 0);
        for touch in &self.var_touch {
            husk.con_off[touch[0] as usize + 1] += 1;
            husk.con_off[touch[1] as usize + 1] += 1;
            husk.con_off[n_node + touch[2] as usize + 1] += 1;
        }
        if budget.is_some() {
            husk.con_off[m] += n as u32;
        }
        for c in 0..m {
            husk.con_off[c + 1] += husk.con_off[c];
        }

        // Fill pass in variable order: every constraint's member list
        // comes out ascending, exactly the historical first-touch-push
        // order.
        husk.con_idx.clear();
        husk.con_idx.resize(husk.con_off[m] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&husk.con_off[..m]);
        for (j, touch) in self.var_touch.iter().enumerate() {
            for c in [
                touch[0] as usize,
                touch[1] as usize,
                n_node + touch[2] as usize,
            ] {
                let cur = &mut self.cursor[c];
                husk.con_idx[*cur as usize] = j as u32;
                *cur += 1;
            }
            if budget.is_some() {
                let cur = &mut self.cursor[m - 1];
                husk.con_idx[*cur as usize] = j as u32;
                *cur += 1;
            }
        }

        husk.finalize()
    }

    /// Returns a solved instance's storage to the arena for reuse by the
    /// next [`RouteAssembler::finish`].
    pub fn recycle(&mut self, instance: AllocationInstance) {
        self.arena.push(instance.into_husk());
    }
}

/// Scatters one sub-instance's flat allocation back into the enclosing
/// instance's variable order.
///
/// `src` is the allocation of a sub-instance whose variables are a
/// subset of the parent's, **in the parent's relative order** (the only
/// order [`RouteAssembler`] and
/// [`AllocationInstance::sub_instance`](crate::AllocationInstance::sub_instance)
/// ever produce). `spans` lists, per member of the subset in that same
/// order, the `(offset, len)` range its variables occupy in `out`. The
/// profile evaluator uses this to assemble a static coupling component's
/// allocation from its dynamic groups' member sets — see
/// `qdn-core::profile_eval`.
///
/// # Panics
///
/// Panics (in debug builds) when the spans do not consume `src`
/// exactly, and always when a span reaches outside `src` or `out`.
pub fn scatter_segments(
    src: &[u32],
    spans: impl IntoIterator<Item = (usize, usize)>,
    out: &mut [u32],
) {
    let mut cursor = 0;
    for (offset, len) in spans {
        out[offset..offset + len].copy_from_slice(&src[cursor..cursor + len]);
        cursor += len;
    }
    debug_assert_eq!(cursor, src.len(), "spans must consume src exactly");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PackingConstraint;

    /// Two 2-hop routes sharing the middle node 1: the classic diamond
    /// restricted to its upper path, twice.
    fn reference(budget: Option<u32>) -> AllocationInstance {
        // Stream: edge 0 = (0,1), edge 1 = (1,3), edge 0 again, edge 1
        // again (second route reuses both edges).
        let vars = vec![Variable::new(0.5); 4];
        let mut cons = vec![
            PackingConstraint::new(10, vec![0, 2]),       // node 0
            PackingConstraint::new(10, vec![0, 1, 2, 3]), // node 1
            PackingConstraint::new(10, vec![1, 3]),       // node 3
            PackingConstraint::new(6, vec![0, 2]),        // edge 0
            PackingConstraint::new(6, vec![1, 3]),        // edge 1
        ];
        if let Some(b) = budget {
            cons.push(PackingConstraint::new(b, vec![0, 1, 2, 3]));
        }
        AllocationInstance::new(vars, cons, 100.0, 2.0).unwrap()
    }

    fn assemble(asm: &mut RouteAssembler, budget: Option<u32>) -> AllocationInstance {
        asm.begin();
        for _ in 0..2 {
            asm.push_edge(0, 0, 1, 0.5, 10, 10, 6);
            asm.push_edge(1, 1, 3, 0.5, 10, 10, 6);
        }
        asm.finish(budget, 100.0, 2.0).unwrap()
    }

    #[test]
    fn matches_generic_constructor() {
        let mut asm = RouteAssembler::sized(4, 2);
        for budget in [None, Some(9)] {
            let built = assemble(&mut asm, budget);
            assert_eq!(built, reference(budget));
        }
    }

    #[test]
    fn recycling_reuses_storage_and_stays_identical() {
        let mut asm = RouteAssembler::sized(4, 2);
        let first = assemble(&mut asm, Some(9));
        let expected = first.clone();
        asm.recycle(first);
        let second = assemble(&mut asm, Some(9));
        assert_eq!(second, expected);
    }

    #[test]
    fn infeasible_budget_detected() {
        let mut asm = RouteAssembler::sized(4, 2);
        asm.begin();
        asm.push_edge(0, 0, 1, 0.5, 10, 10, 6);
        asm.push_edge(1, 1, 3, 0.5, 10, 10, 6);
        let err = asm.finish(Some(1), 100.0, 2.0);
        assert!(matches!(
            err,
            Err(SolveError::InfeasibleAtLowerBound { .. })
        ));
    }

    #[test]
    fn scatter_segments_reassembles_interleaved_members() {
        // Parent variable order: member0 (2 vars), member1 (1 var),
        // member2 (3 vars). A "group" of members 0 and 2 scatters its
        // flat allocation around member1's slot.
        let mut out = vec![0u32; 6];
        scatter_segments(&[7, 8, 4, 5, 6], [(0, 2), (3, 3)], &mut out);
        assert_eq!(out, vec![7, 8, 0, 4, 5, 6]);
        // The complementary singleton group fills the hole.
        scatter_segments(&[9], [(2, 1)], &mut out);
        assert_eq!(out, vec![7, 8, 9, 4, 5, 6]);
    }
}
