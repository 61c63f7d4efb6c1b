//! The slack closed form (invariant 4 of the module docs): a group whose
//! capacities cannot bind is not solved at all.
//!
//! Its allocation is the per-edge slack closed form
//! ([`qdn_solve::relaxed::slack_point`], computed once per distinct
//! candidate edge per slot), which equals what relax-and-round would
//! return. A group this check sends on to relax-and-round is assembled
//! and handed to invariant 2's entry point, which runs its own check on
//! the instance: it takes the greedy path when exactly one constraint
//! fails, and FISTA otherwise. If this check passes where the entry
//! point's would find exactly one failing constraint (the two sum in
//! different orders), both give the slack points: with every `Σn ≤ cap`,
//! greedy stops each variable at its own first non-positive gain.
//!
//! The closed form is on only for [`AllocationMethod::RelaxAndRound`]
//! with at least one dual iteration, at a positive price `κ = q_t`, with
//! no slot budget. A group takes it only if every node and edge it
//! touches passes [`slack_fits`]: `Σx* ≤ cap − 1e-9·(1 + cap)` and
//! `Σn ≤ cap` over the slack points of its variables. The real sum makes
//! the dual loop's first residual `≤ 0`, so `λ` stays 0, the feasibility
//! repair leaves the argmax unchanged, and the gap is certified at
//! iteration 1 with the per-variable `x*`; the `1e-9` margin covers the
//! solver summing members in a different order. The integer sum means
//! the surplus fill is never blocked, so each variable stops at its own
//! first non-positive marginal gain, which is the slack point's `n`.
//! `EvalStats::closed_form` counts these groups (they also count in
//! `EvalStats::components_solved`).

use qdn_graph::{EdgeId, NodeId};
use qdn_net::CapacitySnapshot;
use qdn_solve::relaxed::{slack_fits, slack_point, SlackPoint};

use super::{EdgeVar, RouteData};
use crate::allocation::AllocationMethod;
use crate::problem::PerSlotContext;

/// Per edge index: the edge's relax-and-round result if no constraint
/// binds. The outer `None` marks an edge no candidate route uses; the
/// table is empty when the closed form is off for the slot.
#[derive(Debug)]
pub(super) struct SlackTable(Vec<Option<Option<SlackPoint>>>);

impl SlackTable {
    /// The slot's table over every candidate edge of `routes`, or an
    /// empty one outside the closed form's preconditions: it reproduces
    /// a cold relax-and-round solve that runs at least one dual
    /// iteration at a positive price with no budget row.
    pub(super) fn new(
        ctx: &PerSlotContext<'_>,
        method: &AllocationMethod,
        routes: &[Vec<RouteData>],
    ) -> Self {
        let on = ctx.unit_price > 0.0
            && ctx.slot_budget.is_none()
            && matches!(method, AllocationMethod::RelaxAndRound(o) if o.max_iterations > 0);
        if !on {
            return SlackTable(Vec::new());
        }
        let mut points = vec![None; ctx.network.edge_count()];
        for ev in routes.iter().flatten().flat_map(|r| &r.edges) {
            points[ev.edge.index()].get_or_insert_with(|| {
                slack_point(ev.p, ctx.v_weight, ctx.unit_price, ev.cap(ctx.snapshot))
            });
        }
        SlackTable(points)
    }

    fn point(&self, edge: EdgeId) -> Option<SlackPoint> {
        self.0.get(edge.index()).copied().flatten().flatten()
    }

    /// The allocation of the group whose variables are `group`, by the
    /// closed form, or `None` when some variable has no slack point or
    /// some node or edge the group touches fails [`slack_fits`].
    pub(super) fn closed_form<'r>(
        &self,
        sums: &mut Sums,
        snapshot: &CapacitySnapshot,
        group: impl Iterator<Item = &'r EdgeVar> + Clone,
    ) -> Option<Box<[u32]>> {
        sums.begin();
        for ev in group.clone() {
            let sp = self.point(ev.edge)?;
            sums.add(ev, sp.x, sp.n);
        }
        sums.all_fit(snapshot, |sum, cap| slack_fits(sum.x, sum.n, cap))
            .then(|| {
                group
                    .map(|ev| self.point(ev.edge).expect("checked by the sum pass").n)
                    .collect()
            })
    }
}

/// One node's or edge's running sums in [`Sums`].
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Sum {
    epoch: u64,
    pub(super) x: f64,
    pub(super) n: u64,
}

/// Running sums of one pass over a set of route edges, per node and
/// edge the pass touches: slack points for the closed-form check, one
/// channel per variable for the objective bounds. Dense by index,
/// epoch-stamped (never cleared), with the touched indices listed.
#[derive(Debug)]
pub(super) struct Sums {
    epoch: u64,
    node: Vec<Sum>,
    edge: Vec<Sum>,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Sums {
    pub(super) fn sized(nodes: usize, edges: usize) -> Self {
        Sums {
            epoch: 0,
            node: vec![Sum::default(); nodes],
            edge: vec![Sum::default(); edges],
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Starts a new pass: every sum reads zero until added to.
    pub(super) fn begin(&mut self) {
        self.epoch += 1;
        self.nodes.clear();
        self.edges.clear();
    }

    /// Adds one variable's `(x, n)` to its endpoints' and its edge's
    /// sums.
    pub(super) fn add(&mut self, ev: &EdgeVar, x: f64, n: u32) {
        let epoch = self.epoch;
        let add = |sum: &mut Sum| {
            let first = sum.epoch != epoch;
            if first {
                *sum = Sum {
                    epoch,
                    ..Sum::default()
                };
            }
            sum.x += x;
            sum.n += u64::from(n);
            first
        };
        for node in [ev.u, ev.v] {
            if add(&mut self.node[node.index()]) {
                self.nodes.push(node);
            }
        }
        if add(&mut self.edge[ev.edge.index()]) {
            self.edges.push(ev.edge);
        }
    }

    /// Whether `fits(sum, cap)` holds for every node the pass touched,
    /// against its qubits, and every edge, against its channels.
    pub(super) fn all_fit(
        &self,
        snapshot: &CapacitySnapshot,
        fits: impl Fn(&Sum, u32) -> bool,
    ) -> bool {
        self.nodes
            .iter()
            .all(|&n| fits(&self.node[n.index()], snapshot.qubits(n)))
            && self
                .edges
                .iter()
                .all(|&e| fits(&self.edge[e.index()], snapshot.channels(e)))
    }
}
