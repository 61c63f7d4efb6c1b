//! The per-slot problem P2: instance construction and profile evaluation.
//!
//! With routes fixed, P2 is
//!
//! ```text
//! max   V · Σ_φ log P(r(φ), N(r(φ)))  −  q_t · Σ_φ Σ_e n_e(r(φ))
//! s.t.  qubit capacities (Eq. 4), channel capacities (Eq. 5), n_e ≥ 1
//! ```
//!
//! [`PerSlotContext`] translates a route profile into a
//! [`qdn_solve::AllocationInstance`]: one variable per (pair, route-edge),
//! a packing constraint per touched node (capacity `Q_v^t`, members = all
//! variables whose edge is incident to `v` — note `n_e` consumes a qubit
//! at *both* endpoints) and per touched edge (capacity `W_e^t`). An
//! optional per-slot budget (used by the myopic baselines) becomes one
//! more packing constraint over all variables.

use qdn_graph::Path;
use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
use qdn_solve::{AllocationInstance, RouteAssembler, SolveError};

use crate::allocation::AllocationMethod;

/// Per-slot problem parameters shared across route-profile evaluations.
#[derive(Debug, Clone, Copy)]
pub struct PerSlotContext<'a> {
    /// The installed network (graph + link models).
    pub network: &'a QdnNetwork,
    /// This slot's available capacities.
    pub snapshot: &'a CapacitySnapshot,
    /// The Lyapunov weight `V` (1.0 for the plain myopic objective).
    pub v_weight: f64,
    /// The per-unit price: the virtual queue `q_t` for OSCAR, 0 for the
    /// baselines.
    pub unit_price: f64,
    /// Optional per-slot budget `b_t` (myopic baselines): total units this
    /// slot must not exceed.
    pub slot_budget: Option<u64>,
}

/// A route profile: for each served pair, which route it uses.
pub type RouteProfile<'a> = [(SdPair, &'a Path)];

/// The evaluation of one route profile: per-route allocations and the P2
/// objective value `f(r, N*(r))`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEvaluation {
    /// `allocations[i]` matches the `i`-th profile entry (channels per
    /// route edge).
    pub allocations: Vec<Vec<u32>>,
    /// The drift-plus-penalty objective value.
    pub objective: f64,
}

impl<'a> PerSlotContext<'a> {
    /// Context for OSCAR's P2 (no slot budget).
    pub fn oscar(
        network: &'a QdnNetwork,
        snapshot: &'a CapacitySnapshot,
        v_weight: f64,
        queue: f64,
    ) -> Self {
        PerSlotContext {
            network,
            snapshot,
            v_weight,
            unit_price: queue,
            slot_budget: None,
        }
    }

    /// Context for the myopic baselines: pure log-utility objective under
    /// a per-slot budget.
    pub fn myopic(
        network: &'a QdnNetwork,
        snapshot: &'a CapacitySnapshot,
        slot_budget: u64,
    ) -> Self {
        PerSlotContext {
            network,
            snapshot,
            v_weight: 1.0,
            unit_price: 0.0,
            slot_budget: Some(slot_budget),
        }
    }

    /// Builds the allocation instance for a fixed route profile.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InfeasibleAtLowerBound`] when the profile
    /// cannot even hold one channel per edge — route selection must treat
    /// such profiles as invalid (objective `−∞`).
    pub fn build_instance(
        &self,
        profile: &RouteProfile<'_>,
    ) -> Result<AllocationInstance, SolveError> {
        let mut asm = RouteAssembler::sized(self.network.node_count(), self.network.edge_count());
        let edges = profile.iter().flat_map(|(_, route)| {
            route.edges().iter().map(|&edge| {
                let (u, v) = self.network.graph().endpoints(edge);
                (edge, u, v, self.network.link(edge).channel_success())
            })
        });
        assemble_instance(
            &mut asm,
            self.snapshot,
            edges,
            self.slot_budget.map(|b| b.min(u32::MAX as u64) as u32),
            self.v_weight,
            self.unit_price,
        )
    }

    /// Evaluates a route profile: solves the allocation sub-problem with
    /// `method` and returns per-route allocations plus the objective.
    ///
    /// The objective includes the swapping factor of every chosen route —
    /// the paper's "product term in Equation 2" for imperfect swapping.
    /// It is allocation-independent (`swaps(r) · ln q` per route), so it
    /// does not perturb Algorithm 2, but it makes route selection prefer
    /// fewer swaps when swapping is lossy; with the paper's perfect
    /// swapping (`q = 1`) the term vanishes.
    ///
    /// Returns `None` when the profile is infeasible (cannot hold one
    /// channel per edge under this slot's capacities/budget).
    pub fn evaluate(
        &self,
        profile: &RouteProfile<'_>,
        method: &AllocationMethod,
    ) -> Option<ProfileEvaluation> {
        if profile.is_empty() {
            return Some(ProfileEvaluation {
                allocations: Vec::new(),
                objective: 0.0,
            });
        }
        let instance = self.build_instance(profile).ok()?;
        let flat = method.allocate(&instance)?;
        let objective = instance.objective_int(&flat) + self.v_weight * self.swap_ln(profile);

        // Un-flatten per route.
        let mut allocations = Vec::with_capacity(profile.len());
        let mut cursor = 0;
        for (_, route) in profile {
            let hops = route.hops();
            allocations.push(flat[cursor..cursor + hops].to_vec());
            cursor += hops;
        }
        Some(ProfileEvaluation {
            allocations,
            objective,
        })
    }

    /// Evaluates only the objective of a route profile, skipping the
    /// per-route un-flattening (and its `Vec` copies) that
    /// [`PerSlotContext::evaluate`] performs.
    ///
    /// Search loops that merely compare profiles (Gibbs proposals, greedy
    /// coordinate steps, exhaustive enumeration) should prefer this — or,
    /// better, the memoizing [`crate::profile_eval::ProfileEvaluator`].
    ///
    /// Returns `None` exactly when [`PerSlotContext::evaluate`] does.
    pub fn evaluate_objective(
        &self,
        profile: &RouteProfile<'_>,
        method: &AllocationMethod,
    ) -> Option<f64> {
        if profile.is_empty() {
            return Some(0.0);
        }
        let instance = self.build_instance(profile).ok()?;
        let flat = method.allocate(&instance)?;
        Some(instance.objective_int(&flat) + self.v_weight * self.swap_ln(profile))
    }

    /// Total log swap factor of a profile:
    /// `Σ_φ swaps(r(φ)) · ln(swap_success)` (0 under perfect swapping).
    fn swap_ln(&self, profile: &RouteProfile<'_>) -> f64 {
        let q = self.network.swap().success();
        if q >= 1.0 {
            return 0.0;
        }
        let swaps: u64 = profile
            .iter()
            .map(|(_, route)| qdn_physics::swap::SwapModel::swaps_for_hops(route.hops()) as u64)
            .sum();
        swaps as f64 * q.ln()
    }
}

/// Assembles the canonical P2 instance layout from a stream of route
/// edges `(edge, u, v, p)`: variables in stream order, node constraints
/// in first-touch order, then edge constraints in first-touch order,
/// then the optional budget over all variables.
///
/// Since PR 2 this is a thin adapter over the arena-backed
/// [`qdn_solve::RouteAssembler`], which owns the **single** definition
/// of the layout. Both the full-rebuild path
/// ([`PerSlotContext::build_instance`], fresh assembler) and the
/// incremental [`crate::profile_eval::ProfileEvaluator`] (one recycled
/// assembler per slot, per-component sub-instances) stream through it,
/// which — together with the component-wise solvers in `qdn_solve` — is
/// what makes their results bit-identical: a coupling component's
/// sub-instance is structurally the joint instance restricted to it, in
/// the same relative order.
pub(crate) fn assemble_instance(
    asm: &mut RouteAssembler,
    snapshot: &CapacitySnapshot,
    edges: impl Iterator<Item = (qdn_graph::EdgeId, qdn_graph::NodeId, qdn_graph::NodeId, f64)>,
    budget: Option<u32>,
    v_weight: f64,
    unit_price: f64,
) -> Result<AllocationInstance, SolveError> {
    asm.begin();
    for (edge, u, v, p) in edges {
        asm.push_edge(
            edge.index(),
            u.index(),
            v.index(),
            p,
            snapshot.qubits(u),
            snapshot.qubits(v),
            snapshot.channels(edge),
        );
    }
    asm.finish(budget, v_weight, unit_price)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_graph::NodeId;
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_physics::link::LinkModel;

    /// Diamond network: 0-1-3 and 0-2-3, all p=0.5.
    fn diamond(qubits: u32, channels: u32) -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(qubits)).collect();
        let l = LinkModel::new(0.5).unwrap();
        b.add_edge(n[0], n[1], channels, l).unwrap();
        b.add_edge(n[1], n[3], channels, l).unwrap();
        b.add_edge(n[0], n[2], channels, l).unwrap();
        b.add_edge(n[2], n[3], channels, l).unwrap();
        b.build()
    }

    fn top_route(net: &QdnNetwork) -> Path {
        Path::from_nodes(net.graph(), vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap()
    }

    #[test]
    fn instance_structure() {
        let net = diamond(10, 5);
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 100.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        let profile = vec![(pair, &route)];
        let inst = ctx.build_instance(&profile).unwrap();
        // Two variables (two edges), constraints: nodes 0,1,3 + edges 0,1.
        assert_eq!(inst.num_vars(), 2);
        assert_eq!(inst.num_constraints(), 5);
        assert_eq!(inst.v_weight(), 100.0);
        assert_eq!(inst.unit_price(), 1.0);
    }

    #[test]
    fn shared_node_capacity_couples_routes() {
        // Two pairs both routed through node 1 with tiny qubit capacity.
        let net = diamond(2, 5);
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 100.0, 0.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        // Same route twice: node 1 must hold 2 qubits per variable pair...
        // each route needs >= 2 qubits at node 1 (two incident edges), so
        // two copies need 4 > 2 -> infeasible.
        let profile = vec![(pair, &route), (pair, &route)];
        assert!(ctx.build_instance(&profile).is_err());
        assert!(ctx
            .evaluate(&profile, &AllocationMethod::default())
            .is_none());
    }

    #[test]
    fn evaluate_empty_profile() {
        let net = diamond(10, 5);
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 100.0, 1.0);
        let ev = ctx.evaluate(&[], &AllocationMethod::default()).unwrap();
        assert!(ev.allocations.is_empty());
        assert_eq!(ev.objective, 0.0);
    }

    #[test]
    fn evaluate_allocates_every_edge() {
        let net = diamond(10, 5);
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 1000.0, 1.0);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        let profile = vec![(pair, &route)];
        let ev = ctx
            .evaluate(&profile, &AllocationMethod::default())
            .unwrap();
        assert_eq!(ev.allocations.len(), 1);
        assert_eq!(ev.allocations[0].len(), 2);
        assert!(ev.allocations[0].iter().all(|&n| n >= 1));
        assert!(ev.objective.is_finite());
    }

    #[test]
    fn budget_constraint_limits_total() {
        let net = diamond(100, 100);
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::myopic(&net, &snap, 3);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        let profile = vec![(pair, &route)];
        let ev = ctx.evaluate(&profile, &AllocationMethod::Greedy).unwrap();
        let total: u32 = ev.allocations[0].iter().sum();
        assert!(total <= 3, "budget 3 exceeded: {total}");
        assert!(total >= 2, "route needs at least one channel per edge");
    }

    #[test]
    fn infeasible_budget_detected() {
        let net = diamond(100, 100);
        let snap = CapacitySnapshot::full(&net);
        // Budget 1 < 2 route edges -> infeasible at all-ones.
        let ctx = PerSlotContext::myopic(&net, &snap, 1);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        let profile = vec![(pair, &route)];
        assert!(ctx.evaluate(&profile, &AllocationMethod::Greedy).is_none());
    }

    #[test]
    fn lossy_swap_penalizes_profile_objective() {
        use qdn_physics::swap::SwapModel;
        // Same diamond but with a lossy swap model.
        let lossy = {
            let mut b = QdnNetworkBuilder::new();
            let n: Vec<_> = (0..4).map(|_| b.add_node(10)).collect();
            let l = LinkModel::new(0.5).unwrap();
            b.add_edge(n[0], n[1], 5, l).unwrap();
            b.add_edge(n[1], n[3], 5, l).unwrap();
            b.add_edge(n[0], n[2], 5, l).unwrap();
            b.add_edge(n[2], n[3], 5, l).unwrap();
            b.set_swap(SwapModel::new(0.5).unwrap());
            b.build()
        };
        let perfect = diamond(10, 5);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let v = 800.0;
        let objective_of = |net: &QdnNetwork| {
            let snap = CapacitySnapshot::full(net);
            let ctx = PerSlotContext::oscar(net, &snap, v, 1.0);
            let route = top_route(net);
            let profile = vec![(pair, &route)];
            ctx.evaluate(&profile, &AllocationMethod::default())
                .unwrap()
                .objective
        };
        // A 2-hop route has one swap: the objectives differ by exactly
        // V · ln(0.5).
        let gap = objective_of(&perfect) - objective_of(&lossy);
        assert!(
            (gap - v * (2.0f64).ln()).abs() < 1e-9,
            "swap term should shift the objective by V·ln(1/q), got {gap}"
        );
    }

    #[test]
    fn higher_queue_price_reduces_allocation() {
        let net = diamond(12, 8);
        let snap = CapacitySnapshot::full(&net);
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let route = top_route(&net);
        let profile = vec![(pair, &route)];
        let cheap = PerSlotContext::oscar(&net, &snap, 1000.0, 0.5)
            .evaluate(&profile, &AllocationMethod::default())
            .unwrap();
        let dear = PerSlotContext::oscar(&net, &snap, 1000.0, 500.0)
            .evaluate(&profile, &AllocationMethod::default())
            .unwrap();
        let cheap_total: u32 = cheap.allocations[0].iter().sum();
        let dear_total: u32 = dear.allocations[0].iter().sum();
        assert!(
            dear_total <= cheap_total,
            "higher price should not allocate more ({dear_total} vs {cheap_total})"
        );
        assert_eq!(dear_total, 2, "huge price pins to the minimum");
    }
}
