//! Incremental, component-decomposed route-profile evaluation with a
//! two-level coupling partition and slot-spanning selection sessions.
//!
//! Route selection (Algorithm 3 / Eq. 13) evaluates thousands of route
//! profiles per slot, and the naive path — [`PerSlotContext::evaluate`] —
//! rebuilds a fresh [`AllocationInstance`] and re-solves the *joint*
//! allocation problem for every proposal, even when only one SD pair's
//! route changed. [`ProfileEvaluator`] is the engine the selectors use
//! instead:
//!
//! * **Arena-backed instance assembly** — sub-instances are built by one
//!   [`RouteAssembler`] per evaluator (dense first-touch maps with epoch
//!   stamping, CSR constraint arrays written in place) and recycled after
//!   each solve, so steady-state component solves allocate no instance
//!   storage at all; repeat evaluations of a profile build no instances
//!   and solve nothing.
//! * **Two-level coupling partition** (`partition.rs`) — pairs are split
//!   into *static* components by their candidate routes, and each static
//!   component into *dynamic groups* by the node sharing of the routes a
//!   profile selects; each dynamic group is solved as its own
//!   sub-instance.
//! * **Evaluation memos** — one per partition level; see below.
//! * **The slack closed form** (`slack.rs`, invariant 4 below).
//! * **Objective bounds** (`bounds.rs`) —
//!   [`ProfileEvaluator::objective_bounds`] and
//!   [`ProfileEvaluator::evaluate_objective_unless`] let Gibbs selection
//!   reject a proposal before, or while, paying for its solve.
//! * **Selection sessions** (`session.rs`) — a [`SelectorSession`]
//!   carries the recycled buffers and the previous selected profile from
//!   one slot's evaluator to the next.
//!
//! # The two memo levels
//!
//! * **Level 1 (static tuple memo)** — per static component, the
//!   *assembled* allocation is cached under the tuple of that
//!   component's route indices. Profiles revisited by Gibbs, and
//!   unchanged components of any proposal, are answered here without
//!   touching the partition at all.
//! * **Level 2 (dynamic group memo)** — per static component, each
//!   dynamic group's solve is cached under the group's sub-key: the
//!   interleaved `(member position, route index)` pairs of its members.
//!   The sub-key identifies both the member set and its routes, so a
//!   group outlives any particular partition: after a merge or split the
//!   groups that kept their membership and routes are level-2 hits, and
//!   only genuinely new groups are solved. A level-1 miss assembles its
//!   entry by scattering the level-2 allocations back into component
//!   variable order ([`qdn_solve::assemble::scatter_segments`]).
//!
//! # Bit-identical results
//!
//! The evaluator returns *exactly* the objective and allocations of the
//! full-rebuild path, bit for bit. Four invariants make this hold:
//!
//! 1. [`PerSlotContext::build_instance`] and the evaluator stream through
//!    the same [`RouteAssembler`] layout (variables in profile order,
//!    constraints in first-touch order), so the sub-instance of a
//!    static component — or of a dynamic group — equals the joint
//!    instance restricted to it;
//! 2. relax-and-round ([`qdn_solve::rounding::relax_and_round_until`])
//!    allocates each constraint-coupled component on its own, and the
//!    dynamic groups *are* the constraint-coupled components of the
//!    profile's instance, so solving a group stand-alone, inside its
//!    static component, or inside the joint instance follows the same
//!    floating-point trajectory (the greedy allocator is
//!    interleaving-invariant across components by construction, and
//!    `Minimal` trivially so). That holds for both of its paths: a
//!    component in which exactly one constraint fails
//!    [`qdn_solve::relaxed::slack_fits`] at its members' slack points is
//!    allocated by `greedy_allocate` (its exact integer optimum), every
//!    other by FISTA plus `round_down_and_fill`. The rule is decided
//!    inside `qdn_solve` from the component alone, so the evaluator's
//!    groups and [`PerSlotContext::evaluate`] apply it identically;
//!    [`EvalStats::one_binding`] counts the groups it allocated;
//! 3. the final objective is re-accumulated over the gathered joint
//!    allocation in variable order with the same
//!    [`qdn_solve::ln_success`] terms [`AllocationInstance::objective_int`]
//!    uses, rather than by summing cached per-component objectives (which
//!    would associate the additions differently);
//! 4. a group whose capacities cannot bind is not solved at all: its
//!    allocation is the per-edge slack closed form
//!    ([`qdn_solve::relaxed::slack_point`]), which equals what
//!    relax-and-round would return. `slack.rs` states when it applies
//!    and why it agrees with invariant 2's entry point.
//!
//! The repository's differential harness (`tests/differential.rs`)
//! enforces this equivalence: its reference decision evaluates every
//! profile by full rebuild, and every production path, which evaluates
//! through this evaluator, must make the same decisions bit for bit on
//! random topologies, churn and request traces for every allocation
//! method.
//!
//! [`AllocationInstance`]: qdn_solve::AllocationInstance
//! [`AllocationInstance::objective_int`]: qdn_solve::AllocationInstance::objective_int

mod bounds;
mod partition;
mod session;
mod slack;

use std::collections::HashMap;

use qdn_graph::{EdgeId, NodeId, Path};
use qdn_net::CapacitySnapshot;
use qdn_physics::swap::SwapModel;
use qdn_solve::assemble::scatter_segments;
use qdn_solve::{ln_success, RouteAssembler};
use serde::{Deserialize, Serialize};

use self::bounds::{Screen, TermRanges};
use self::partition::{Partition, PartitionScratch};
use self::slack::{SlackTable, Sums};
use crate::allocation::{Abandoned, AllocationMethod};
use crate::problem::{assemble_instance, PerSlotContext, ProfileEvaluation};
use crate::route_selection::Candidates;

pub use self::session::{SelectorSession, SessionSnapshot, SESSION_SNAPSHOT_VERSION};

/// Selector-facing evaluator options, carried by every route-selection
/// config that drives a [`ProfileEvaluator`].
///
/// `GibbsConfig::paper_default()`, and so every default selector, carries
/// [`EvalOptions::warm_seeded`]. [`EvalOptions::default`] is the cold
/// configuration with seeding off.
///
/// `warm_profile_seed` is a required field, and unknown keys (such as
/// the removed `partition`) are rejected, so stale JSON configs fail
/// loudly. See MIGRATION.md for the one-line edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EvalOptions {
    /// Seed the selector's starting profile from the previous slot's
    /// selected routes when a [`SelectorSession`] carries them (pairs
    /// present in consecutive slots start on last slot's route; new
    /// pairs fall back to their shortest candidate). `false` keeps the
    /// session path bit-identical to the fresh-per-slot path; `true`
    /// changes the search trajectory (not the per-evaluation results).
    /// **Required** (no serde default) — see MIGRATION.md.
    pub warm_profile_seed: bool,
}

impl EvalOptions {
    /// Cross-slot profile seeding enabled: the options of every default
    /// Gibbs config.
    pub fn warm_seeded() -> Self {
        EvalOptions {
            warm_profile_seed: true,
        }
    }
}

impl Default for EvalOptions {
    /// No cross-slot profile seeding — the fresh-per-slot-identical cold
    /// configuration. Default selector configs use
    /// [`EvalOptions::warm_seeded`] instead.
    fn default() -> Self {
        EvalOptions {
            warm_profile_seed: false,
        }
    }
}

/// One candidate route, pre-resolved against the network.
#[derive(Debug, Clone)]
struct RouteData {
    /// Per edge: identity, endpoints, and channel success probability.
    edges: Vec<EdgeVar>,
    /// Number of hops (= variables this route contributes).
    hops: usize,
    /// Swap count of the route (`hops − 1` surviving swaps).
    swaps: u64,
}

#[derive(Debug, Clone, Copy)]
struct EdgeVar {
    edge: EdgeId,
    u: NodeId,
    v: NodeId,
    p: f64,
}

impl EdgeVar {
    /// The variable's capacity: the smallest of its edge's channels and
    /// its endpoints' qubits.
    fn cap(&self, snapshot: &CapacitySnapshot) -> u32 {
        snapshot
            .qubits(self.u)
            .min(snapshot.qubits(self.v))
            .min(snapshot.channels(self.edge))
    }
}

/// Reusable dense buffers for sub-instance construction, carried from
/// slot to slot by a [`SelectorSession`].
#[derive(Debug)]
struct Scratch {
    /// Network dimensions the dense buffers are sized for (recycle
    /// check).
    nodes: usize,
    edges: usize,
    /// Arena-backed instance assembler shared with
    /// [`PerSlotContext::build_instance`]'s layout.
    asm: RouteAssembler,
    /// All components' keys for the profile under evaluation,
    /// concatenated in [`Partition::span`] layout — resolved once by
    /// `ensure_components`, reused by `accumulate_objective`.
    joint_key: Vec<u32>,
    /// Per-component read cursors for the accumulation pass.
    cursors: Vec<usize>,
    part: PartitionScratch,
    /// `(offset, len)` spans of one dynamic group (gather pass).
    spans: Vec<(usize, usize)>,
    /// Assembled component allocation (gather pass).
    gathered: Vec<u32>,
    sums: Sums,
    ranges: TermRanges,
}

impl Scratch {
    /// Recycles a session-carried scratch for a new slot: same network
    /// dimensions keep every buffer (the arena, the husks, the dense
    /// partition maps), a topology change rebuilds from scratch.
    fn recycled(prev: Option<Scratch>, nodes: usize, edges: usize, components: usize) -> Self {
        let mut s = match prev {
            Some(s) if s.nodes == nodes && s.edges == edges => s,
            _ => Scratch {
                nodes,
                edges,
                asm: RouteAssembler::sized(nodes, edges),
                joint_key: Vec::new(),
                cursors: Vec::new(),
                part: PartitionScratch::sized(nodes),
                spans: Vec::new(),
                gathered: Vec::new(),
                sums: Sums::sized(nodes, edges),
                ranges: TermRanges::default(),
            },
        };
        s.cursors.clear();
        s.cursors.resize(components, 0);
        s.ranges.reset(edges);
        s
    }
}

/// A route-index-keyed memo: key → flat allocation (`None` = that
/// combination is infeasible). Level 1 keys by a static component's
/// route tuple; level 2 by a dynamic group's `(position, route)` pairs.
/// Memos live and die with one [`ProfileEvaluator`], so every entry was
/// solved under the current slot's context.
type Memo = HashMap<Box<[u32]>, Option<Box<[u32]>>>;

/// Counters describing how much work the evaluator actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Profile evaluations served (objective-only or full).
    pub evaluations: u64,
    /// Static components answered from the level-1 (route tuple) memo.
    pub memo_hits: u64,
    /// Sub-instances built and solved. Under the dynamic partition each
    /// freshly solved dynamic group counts individually.
    pub components_solved: u64,
    /// Of [`EvalStats::components_solved`], those answered by the slack
    /// closed form (invariant 4 in the module docs): nothing assembled,
    /// nothing solved.
    pub closed_form: u64,
    /// Of [`EvalStats::components_solved`], those relax-and-round
    /// allocated by its one-binding rule (invariant 2 in the module
    /// docs): assembled, then allocated greedily with no dual iteration.
    /// A work item is one coupling component of the profile's instance,
    /// so this counts work items.
    pub one_binding: u64,
    /// Dual solves abandoned by the rejection test of
    /// [`ProfileEvaluator::evaluate_objective_unless`]: not rounded, not
    /// memoized, and not counted in [`EvalStats::components_solved`].
    pub abandoned: u64,
}

/// The incremental profile-evaluation engine. See the module docs.
#[derive(Debug)]
pub struct ProfileEvaluator<'a> {
    ctx: PerSlotContext<'a>,
    method: AllocationMethod,
    options: EvalOptions,
    /// `routes[i][r]` describes candidate `r` of pair `i`.
    routes: Vec<Vec<RouteData>>,
    partition: Partition,
    slack: SlackTable,
    /// `ln(swap_success)` when swaps are lossy.
    ln_q: Option<f64>,
    budget: Option<u32>,
    scratch: Scratch,
    /// Level-1 memos (per static component, keyed by route tuple).
    memos: Vec<Memo>,
    /// Level-2 memos (per static component, keyed by dynamic sub-key).
    dyn_memos: Vec<Memo>,
    /// Sub-key under construction (kept outside `Scratch` so it can be
    /// borrowed across `solve` calls).
    group_key: Vec<u32>,
    /// Pair ids of the dynamic group being solved.
    group_members: Vec<usize>,
    stats: EvalStats,
}

impl<'a> ProfileEvaluator<'a> {
    /// Builds the evaluator for one slot: resolves candidate routes
    /// against the network, partitions pairs into static coupling
    /// components, and sizes the scratch buffers. The dynamic
    /// sub-partitions are computed lazily, per component, on the first
    /// evaluation that needs them.
    pub fn new(
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
    ) -> Self {
        Self::build(ctx, candidates, method, options, None)
    }

    /// [`ProfileEvaluator::new`] backed by a [`SelectorSession`]: the
    /// arena and scratch buffers are borrowed from the session instead
    /// of freshly allocated; the memos start empty. Call
    /// [`ProfileEvaluator::retire`] when the slot's selection is done to
    /// hand the buffers back; dropping the evaluator instead merely
    /// forfeits the reuse (the session rebuilds fresh buffers next
    /// slot).
    pub fn new_in(
        session: &mut SelectorSession,
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
    ) -> Self {
        Self::build(ctx, candidates, method, options, session.take_scratch())
    }

    /// Returns the recycled buffers to `session` for the next slot. The
    /// memos are dropped with the evaluator.
    pub fn retire(self, session: &mut SelectorSession) {
        session.keep_scratch(self.scratch);
    }

    fn build(
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
        scratch: Option<Scratch>,
    ) -> Self {
        let routes: Vec<Vec<RouteData>> = candidates
            .iter()
            .map(|c| c.routes.iter().map(|r| resolve_route(ctx, r)).collect())
            .collect();
        let (nodes, edges) = (ctx.network.node_count(), ctx.network.edge_count());
        let partition = Partition::new(&routes, nodes, ctx.slot_budget.is_some());
        let n_comps = partition.len();
        let q = ctx.network.swap().success();
        ProfileEvaluator {
            ctx: *ctx,
            method: *method,
            options,
            slack: SlackTable::new(ctx, method, &routes),
            routes,
            partition,
            ln_q: (q < 1.0).then(|| q.ln()),
            budget: ctx.slot_budget.map(|b| b.min(u32::MAX as u64) as u32),
            scratch: Scratch::recycled(scratch, nodes, edges, n_comps),
            memos: std::iter::repeat_with(Memo::new).take(n_comps).collect(),
            dyn_memos: std::iter::repeat_with(Memo::new).take(n_comps).collect(),
            group_key: Vec::new(),
            group_members: Vec::new(),
            stats: EvalStats::default(),
        }
    }

    /// Number of coupling components in the static partition.
    pub fn component_count(&self) -> usize {
        self.partition.len()
    }

    /// The evaluator options this engine was built with.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Evaluates only the objective of the profile `indices`, re-solving
    /// just the dynamic groups (or static components) whose keys have
    /// not been seen before. Returns `None` when the profile is
    /// infeasible.
    ///
    /// Bit-identical to
    /// [`PerSlotContext::evaluate_objective`] on the equivalent profile.
    pub fn evaluate_objective(&mut self, indices: &[usize]) -> Option<f64> {
        self.screened_objective(indices, None).unwrap_or(None)
    }

    /// [`ProfileEvaluator::evaluate_objective`] that gives up as soon as
    /// the objective is certified low enough for `reject`. `upper` must
    /// be the upper bound [`ProfileEvaluator::objective_bounds`] returns
    /// for `indices`. Each dual solve the evaluation runs calls `reject`
    /// after every decrease of its own dual bound, with a certified
    /// upper bound on the objective; when `reject` returns `true` the
    /// solve stops and the evaluation returns `Err(Abandoned)`. An
    /// abandoned solve is neither rounded nor memoized, so the memos
    /// stay exact; solves that finished before it are memoized as usual.
    /// `bounds.rs` derives the bound.
    pub fn evaluate_objective_unless(
        &mut self,
        indices: &[usize],
        upper: f64,
        reject: &(dyn Fn(f64) -> bool + Sync),
    ) -> Result<Option<f64>, Abandoned> {
        debug_assert!(self
            .objective_bounds(indices)
            .is_some_and(|(_, u)| u.to_bits() == upper.to_bits()));
        self.screened_objective(indices, Some(Screen { upper, reject }))
    }

    fn screened_objective(
        &mut self,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<Option<f64>, Abandoned> {
        self.stats.evaluations += 1;
        if self.routes.is_empty() {
            return Ok(Some(0.0));
        }
        if !self.ensure_components(indices, screen)? {
            return Ok(None);
        }
        Ok(Some(self.accumulate_objective(indices, None)))
    }

    /// Fully evaluates the profile `indices`, returning per-route
    /// allocations plus the objective. Returns `None` when infeasible.
    ///
    /// Bit-identical to [`PerSlotContext::evaluate`] on the equivalent
    /// profile.
    pub fn evaluate(&mut self, indices: &[usize]) -> Option<ProfileEvaluation> {
        self.stats.evaluations += 1;
        if self.routes.is_empty() {
            return Some(ProfileEvaluation {
                allocations: Vec::new(),
                objective: 0.0,
            });
        }
        if self.ensure_components(indices, None) != Ok(true) {
            return None;
        }
        let mut allocations: Vec<Vec<u32>> = Vec::with_capacity(self.routes.len());
        let objective = self.accumulate_objective(indices, Some(&mut allocations));
        Some(ProfileEvaluation {
            allocations,
            objective,
        })
    }

    /// Certified bounds `(lower, upper)` on the objective `f` that
    /// [`ProfileEvaluator::evaluate_objective`] returns for `indices`,
    /// from one pass over the profile's route edges: nothing is
    /// assembled, solved or memoized. `bounds.rs` derives them.
    ///
    /// Returns `None` exactly when `evaluate_objective` would: some node,
    /// edge or the slot budget cannot hold one channel per route edge, or
    /// some edge has `p ∉ (0, 1)`. Also returns `None` outside the
    /// bounds' preconditions, `V > 0` and `κ ≥ 0`.
    pub fn objective_bounds(&mut self, indices: &[usize]) -> Option<(f64, f64)> {
        debug_assert_eq!(indices.len(), self.routes.len());
        let Scratch { ranges, sums, .. } = &mut self.scratch;
        let routes = self.routes.iter().zip(indices).map(|(set, &r)| &set[r]);
        bounds::objective_bounds(ranges, sums, &self.ctx, self.budget, self.ln_q, routes)
    }

    /// Ensures every component's allocation for `indices` is in the
    /// level-1 memo and resolves all component keys into
    /// `Scratch::joint_key` so the accumulation pass does not rebuild
    /// them.
    ///
    /// A level-1 hit touches neither the partition nor the level-2 memo.
    /// On a miss the component's sub-partition is refreshed and only the
    /// dynamic groups with unseen sub-keys are solved. Returns
    /// feasibility, or `Err` when `screen` abandoned a solve.
    fn ensure_components(
        &mut self,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<bool, Abandoned> {
        debug_assert_eq!(indices.len(), self.routes.len());
        self.scratch.joint_key.clear();
        self.scratch
            .joint_key
            .extend(self.partition.members().iter().map(|&i| indices[i] as u32));

        for comp in 0..self.partition.len() {
            let span = self.partition.span(comp);
            if let Some(entry) = self.memos[comp].get(&self.scratch.joint_key[span.clone()]) {
                self.stats.memo_hits += 1;
                if entry.is_none() {
                    return Ok(false);
                }
                continue;
            }
            let Scratch {
                part, joint_key, ..
            } = &mut self.scratch;
            let groups = self
                .partition
                .refresh(part, comp, &joint_key[span], &self.routes);
            let feasible = if groups > 1 {
                self.solve_groups(comp, groups, indices, screen)?
            } else {
                self.solve_whole(comp, indices, screen)?
            };
            if !feasible {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Solves static component `comp` as one sub-instance and memoizes
    /// the result at level 1. Returns feasibility, or `Err` (nothing
    /// memoized) when `screen` abandoned the solve.
    fn solve_whole(
        &mut self,
        comp: usize,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<bool, Abandoned> {
        let span = self.partition.span(comp);
        self.group_members.clear();
        self.group_members
            .extend_from_slice(&self.partition.members()[span.clone()]);
        let alloc = self.solve(indices, screen)?;
        let feasible = alloc.is_some();
        self.memos[comp].insert(self.scratch.joint_key[span].into(), alloc);
        Ok(feasible)
    }

    /// Allocates the sub-instance of the pairs in `group_members`
    /// (ascending): by the slack closed form when it applies, otherwise
    /// by assembling and solving the instance, recycling its storage
    /// afterwards. Counts the work in the stats; `Err` when `screen`
    /// abandoned the solve.
    fn solve(
        &mut self,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<Option<Box<[u32]>>, Abandoned> {
        let group = || {
            self.group_members
                .iter()
                .flat_map(|&i| &self.routes[i][indices[i]].edges)
        };
        let (scratch, stats) = (&mut self.scratch, &mut self.stats);
        let ctx = &self.ctx;
        let alloc = if let Some(flat) =
            self.slack
                .closed_form(&mut scratch.sums, ctx.snapshot, group())
        {
            stats.closed_form += 1;
            Some(flat)
        } else {
            let edges = group().map(|ev| (ev.edge, ev.u, ev.v, ev.p));
            let asm = &mut scratch.asm;
            match assemble_instance(
                asm,
                ctx.snapshot,
                edges,
                self.budget,
                ctx.v_weight,
                ctx.unit_price,
            ) {
                Err(_) => None,
                Ok(instance) => {
                    let allocated = self
                        .method
                        .allocate_unless(&instance, |drop| screen.is_some_and(|s| s.rejects(drop)));
                    asm.recycle(instance);
                    let Ok(allocated) = allocated else {
                        stats.abandoned += 1;
                        return Err(Abandoned);
                    };
                    allocated.map(|a| {
                        stats.one_binding += a.one_binding as u64;
                        a.n.into_boxed_slice()
                    })
                }
            }
        };
        stats.components_solved += 1;
        Ok(alloc)
    }

    /// Allocates component `comp`, refreshed into `groups` dynamic
    /// groups, group by group: each group's level-2 entry, solved on a
    /// miss, is scattered straight into the component's variable order,
    /// and the result is memoized at level 1. Returns feasibility, or
    /// `Err` when `screen` abandoned a group's solve (that group and the
    /// component stay unmemoized).
    fn solve_groups(
        &mut self,
        comp: usize,
        groups: u32,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<bool, Abandoned> {
        let span = self.partition.span(comp);
        self.scratch.gathered.clear();
        for g in 0..groups {
            // One scan builds the group's sub-key, members, and spans in
            // component variable order.
            self.group_key.clear();
            self.group_members.clear();
            let Scratch {
                joint_key,
                spans,
                gathered,
                ..
            } = &mut self.scratch;
            spans.clear();
            let mut offset = 0;
            let members = &self.partition.members()[span.clone()];
            let labels = self.partition.groups(comp).iter().zip(members);
            for (pos, ((&label, &pair), &r)) in labels.zip(&joint_key[span.clone()]).enumerate() {
                let hops = self.routes[pair][r as usize].hops;
                if label == g {
                    self.group_key.extend([pos as u32, r]);
                    self.group_members.push(pair);
                    spans.push((offset, hops));
                }
                offset += hops;
            }
            gathered.resize(offset, 0);
            let mut fresh = None;
            let alloc = match self.dyn_memos[comp].get(self.group_key.as_slice()) {
                Some(entry) => entry.as_deref(),
                None => fresh.insert(self.solve(indices, screen)?).as_deref(),
            };
            let Scratch {
                spans, gathered, ..
            } = &mut self.scratch;
            let feasible = alloc
                .inspect(|a| scatter_segments(a, spans.iter().copied(), gathered))
                .is_some();
            if let Some(solved) = fresh {
                self.dyn_memos[comp].insert(self.group_key.as_slice().into(), solved);
            }
            if !feasible {
                self.memos[comp].insert(self.scratch.joint_key[span].into(), None);
                return Ok(false);
            }
        }
        let Scratch {
            joint_key,
            gathered,
            ..
        } = &self.scratch;
        self.memos[comp].insert(joint_key[span].into(), Some(gathered.as_slice().into()));
        Ok(true)
    }

    /// Gathers the memoized component allocations in joint variable order
    /// and accumulates the objective exactly as
    /// `AllocationInstance::objective_int` would on the joint instance
    /// (same terms, same order), plus the profile's swap term. Optionally
    /// copies out per-route allocations.
    ///
    /// All referenced components must already be memoized feasible at
    /// level 1, and `Scratch::joint_key` must hold the profile's
    /// resolved keys (both established by `ensure_components`).
    fn accumulate_objective(
        &mut self,
        indices: &[usize],
        mut allocations: Option<&mut Vec<Vec<u32>>>,
    ) -> f64 {
        self.scratch.cursors.iter_mut().for_each(|c| *c = 0);
        // One memo lookup per component over the pre-resolved keys,
        // hoisted out of the pair loop — rebuilding the key per *pair*
        // would make the memo-hit path quadratic in component size.
        let flats: Vec<&[u32]> = (0..self.partition.len())
            .map(|comp| {
                self.memos[comp]
                    .get(&self.scratch.joint_key[self.partition.span(comp)])
                    .expect("component memoized by ensure_components")
                    .as_deref()
                    .expect("component feasible by ensure_components")
            })
            .collect();
        let mut objective = 0.0;
        let mut total_swaps = 0u64;
        for (i, &route_idx) in indices.iter().enumerate() {
            let comp = self.partition.component_of(i);
            let route = &self.routes[i][route_idx];
            let cursor = &mut self.scratch.cursors[comp];
            let seg = &flats[comp][*cursor..*cursor + route.hops];
            *cursor += route.hops;
            for (ev, &n) in route.edges.iter().zip(seg) {
                objective +=
                    self.ctx.v_weight * ln_success(ev.p, n as f64) - self.ctx.unit_price * n as f64;
            }
            total_swaps += route.swaps;
            if let Some(out) = allocations.as_deref_mut() {
                out.push(seg.to_vec());
            }
        }
        if let Some(ln_q) = self.ln_q {
            objective += self.ctx.v_weight * (total_swaps as f64 * ln_q);
        }
        objective
    }
}

/// Resolves one candidate [`Path`] into per-edge data.
fn resolve_route(ctx: &PerSlotContext<'_>, route: &Path) -> RouteData {
    let edges: Vec<EdgeVar> = route
        .edges()
        .iter()
        .map(|&edge| {
            let (u, v) = ctx.network.graph().endpoints(edge);
            let p = ctx.network.link(edge).channel_success();
            EdgeVar { edge, u, v, p }
        })
        .collect();
    RouteData {
        hops: edges.len(),
        swaps: SwapModel::swaps_for_hops(route.hops()) as u64,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_selection::Candidates;
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{QdnNetwork, SdPair};
    use qdn_physics::link::LinkModel;
    use qdn_solve::relaxed::{slack_point, RelaxedOptions};

    /// Two disjoint diamonds plus one extra pair inside the first.
    pub(super) fn two_diamonds() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..8).map(|_| b.add_node(10)).collect();
        let good = LinkModel::new(0.85).unwrap();
        let bad = LinkModel::new(0.25).unwrap();
        b.add_edge(n[0], n[1], 5, good).unwrap();
        b.add_edge(n[1], n[3], 5, good).unwrap();
        b.add_edge(n[0], n[2], 5, bad).unwrap();
        b.add_edge(n[2], n[3], 5, bad).unwrap();
        b.add_edge(n[4], n[5], 5, good).unwrap();
        b.add_edge(n[5], n[7], 5, good).unwrap();
        b.add_edge(n[4], n[6], 5, bad).unwrap();
        b.add_edge(n[6], n[7], 5, bad).unwrap();
        b.build()
    }

    /// Two single-route corridors (A: 0-1-3, B: 4-5-7) bridged by a pair
    /// C (8↔9) whose two routes pass through A's node 1 or B's node 5 —
    /// so C's *choice* decides which corridor it couples to, while the
    /// candidate union chains all three pairs into one static component.
    fn bridged_corridors() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..10).map(|_| b.add_node(10)).collect();
        let l = LinkModel::new(0.8).unwrap();
        b.add_edge(n[0], n[1], 5, l).unwrap();
        b.add_edge(n[1], n[3], 5, l).unwrap();
        b.add_edge(n[4], n[5], 5, l).unwrap();
        b.add_edge(n[5], n[7], 5, l).unwrap();
        b.add_edge(n[8], n[1], 5, l).unwrap();
        b.add_edge(n[1], n[9], 5, l).unwrap();
        b.add_edge(n[8], n[5], 5, l).unwrap();
        b.add_edge(n[5], n[9], 5, l).unwrap();
        b.build()
    }

    pub(super) fn owned_candidates(net: &QdnNetwork, pairs: &[SdPair]) -> Vec<(SdPair, Vec<Path>)> {
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        pairs
            .iter()
            .map(|&p| (p, cr.routes(net, p).to_vec()))
            .collect()
    }

    pub(super) fn to_cands(owned: &[(SdPair, Vec<Path>)]) -> Vec<Candidates<'_>> {
        owned
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect()
    }

    fn profile_of<'a>(cands: &[Candidates<'a>], indices: &[usize]) -> Vec<(SdPair, &'a Path)> {
        cands
            .iter()
            .zip(indices)
            .map(|(c, &i)| (c.pair, &c.routes[i]))
            .collect()
    }

    #[test]
    fn disjoint_pairs_form_two_components() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        // Two pairs in two components: each is alone in its own.
        assert_eq!(eval.component_count(), 2);
        assert_eq!(eval.options(), EvalOptions::default());
    }

    #[test]
    fn overlapping_pairs_share_a_component() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(2)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let components = |subset: &[usize]| {
            let sub: Vec<SdPair> = subset.iter().map(|&i| pairs[i]).collect();
            let owned = owned_candidates(&net, &sub);
            let cands = to_cands(&owned);
            ProfileEvaluator::new(
                &ctx,
                &cands,
                &AllocationMethod::default(),
                EvalOptions::default(),
            )
            .component_count()
        };
        // The partition is {0, 1} | {2}: pairs 0 and 1 share a component,
        // and pair 2 is alone in its own.
        assert_eq!(components(&[0, 1, 2]), 2);
        assert_eq!(components(&[0, 1]), 1);
        assert_eq!(components(&[0, 2]), 2);
        assert_eq!(components(&[1, 2]), 2);
    }

    #[test]
    fn budget_couples_all_pairs() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::myopic(&net, &snap, 20);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::Greedy,
            EvalOptions::default(),
        );
        assert_eq!(eval.component_count(), 1);
        // A budget couples everything unconditionally, so the dynamic
        // mode skips refinement outright: even spatially disjoint
        // routes stay one group, solved once.
        eval.evaluate_objective(&[0, 0]);
        assert_eq!(eval.stats().components_solved, 1);
    }

    /// Evaluates every profile in the (small) product space with one
    /// evaluator and asserts each equals the full-rebuild path bit for
    /// bit; returns the evaluator's counters.
    fn assert_matches_rebuild(
        ctx: &PerSlotContext<'_>,
        cands: &[Candidates<'_>],
        method: &AllocationMethod,
    ) -> EvalStats {
        let mut eval = ProfileEvaluator::new(ctx, cands, method, EvalOptions::default());
        let radix: Vec<usize> = cands.iter().map(|c| c.routes.len()).collect();
        let mut indices = vec![0usize; cands.len()];
        loop {
            let profile = profile_of(cands, &indices);
            let reference = ctx.evaluate(&profile, method);
            let incremental = eval.evaluate(&indices);
            match (&reference, &incremental) {
                (None, None) => {}
                (Some(r), Some(x)) => {
                    assert_eq!(r.objective.to_bits(), x.objective.to_bits());
                    assert_eq!(r.allocations, x.allocations, "at {indices:?}");
                }
                _ => panic!("feasibility mismatch at {indices:?}"),
            }
            assert_eq!(
                ctx.evaluate_objective(&profile, method).map(f64::to_bits),
                eval.evaluate_objective(&indices).map(f64::to_bits)
            );
            // Odometer step; wrapping past the last digit ends the walk.
            let mut pos = 0;
            loop {
                if pos == indices.len() {
                    return eval.stats();
                }
                indices[pos] += 1;
                if indices[pos] < radix[pos] {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn matches_full_rebuild_everywhere() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        for (v, price) in [(800.0, 1.0), (100.0, 0.0), (2500.0, 25.0)] {
            let ctx = PerSlotContext::oscar(&net, &snap, v, price);
            let pairs = [
                SdPair::new(NodeId(0), NodeId(3)).unwrap(),
                SdPair::new(NodeId(1), NodeId(2)).unwrap(),
                SdPair::new(NodeId(4), NodeId(7)).unwrap(),
            ];
            let owned = owned_candidates(&net, &pairs);
            let cands = to_cands(&owned);
            for method in [
                AllocationMethod::RelaxAndRound(RelaxedOptions::default()),
                AllocationMethod::Greedy,
                AllocationMethod::Minimal,
            ] {
                assert_matches_rebuild(&ctx, &cands, &method);
            }
        }
    }

    fn diamond_pairs() -> [SdPair; 3] {
        [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(2)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ]
    }

    #[test]
    fn slack_groups_take_the_closed_form() {
        // At price 25 the good links' x* ≈ 2.2 sits well inside every
        // capacity, so those groups skip assembly; the bad links'
        // x* ≈ 8 exceeds their 5 channels and is solved.
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 25.0);
        let owned = owned_candidates(&net, &diamond_pairs());
        let cands = to_cands(&owned);
        let stats = assert_matches_rebuild(&ctx, &cands, &AllocationMethod::default());
        assert!(stats.closed_form > 0, "{stats:?}");
        assert!(stats.closed_form < stats.components_solved, "{stats:?}");
    }

    #[test]
    fn one_binding_groups_take_greedy() {
        // Nodes 1 and 5, the middles of the good routes, hold 3 qubits.
        // At price 25 a good link's x* ≈ 2.2 fits every capacity alone,
        // but a good route's two edges need about 4.4 at its middle node:
        // exactly that one constraint binds, so relax-and-round allocates
        // the group greedily. Groups with a bad link (x* ≈ 8 > 5
        // channels) have no slack point and are solved.
        let net = two_diamonds();
        let snap = CapacitySnapshot::clamped(&net, vec![10, 3, 10, 10, 10, 3, 10, 10], vec![5; 8]);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 25.0);
        let owned = owned_candidates(&net, &diamond_pairs());
        let cands = to_cands(&owned);
        let stats = assert_matches_rebuild(&ctx, &cands, &AllocationMethod::default());
        assert!(stats.one_binding > 0, "{stats:?}");
        assert!(
            stats.one_binding + stats.closed_form < stats.components_solved,
            "{stats:?}"
        );
    }

    #[test]
    fn integer_overflow_falls_back_to_the_solver() {
        // Two requests for one pair share a single 5-channel edge. Each
        // variable's x* ≈ 2.49 (the reals fit: 4.97 ≤ 5), but each
        // rounds up to 3 and 6 > 5: the fill is blocked, so the closed
        // form would be wrong and the check must send the group to the
        // solver.
        let (p, v, price) = (0.1, 1000.0, 352.0);
        let sp = slack_point(p, v, price, 5).unwrap();
        assert!(sp.x > 2.4 && sp.x < 2.5 && sp.n == 3, "{sp:?}");
        let mut b = QdnNetworkBuilder::new();
        let a = b.add_node(10);
        let z = b.add_node(10);
        b.add_edge(a, z, 5, LinkModel::new(p).unwrap()).unwrap();
        let net = b.build();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, v, price);
        let pair = SdPair::new(a, z).unwrap();
        let owned = owned_candidates(&net, &[pair, pair]);
        let cands = to_cands(&owned);
        let stats = assert_matches_rebuild(&ctx, &cands, &AllocationMethod::default());
        assert_eq!(stats.components_solved, 1);
        assert_eq!(stats.closed_form, 0);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert_eq!(eval.evaluate(&[0, 0]).unwrap().allocations, [[3], [2]]);
    }

    #[test]
    fn closed_form_stays_off_outside_its_preconditions() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let owned = owned_candidates(&net, &diamond_pairs());
        let cands = to_cands(&owned);
        let rr = AllocationMethod::default();
        let no_iterations = AllocationMethod::RelaxAndRound(RelaxedOptions {
            max_iterations: 0,
            ..RelaxedOptions::default()
        });
        // A budget row at a positive price: the closed form does not
        // check it. At price 100 every link's slack point fits its
        // capacities (good links n = 2, bad links n = 4), and a budget
        // of 13 binds on every profile.
        let budgeted = PerSlotContext {
            slot_budget: Some(13),
            ..PerSlotContext::oscar(&net, &snap, 800.0, 100.0)
        };
        let priced = PerSlotContext::oscar(&net, &snap, 800.0, 25.0);
        let myopic = PerSlotContext::myopic(&net, &snap, 20);
        // The last field: whether the one-binding rule must stay off too.
        // It needs relax-and-round and a slack point, so a positive price;
        // the budget row and a zero iteration budget do not stop it.
        let cases = [
            // κ = 0: the λ = 0 argmax is the upper bound, not x*.
            (PerSlotContext::oscar(&net, &snap, 800.0, 0.0), rr, true),
            (myopic, rr, true),
            (myopic, AllocationMethod::Greedy, true),
            (budgeted, rr, false),
            // No dual iteration: the solver returns the all-ones point.
            (priced, no_iterations, false),
            (priced, AllocationMethod::Greedy, true),
            (priced, AllocationMethod::Minimal, true),
        ];
        for (ctx, method, one_binding_off) in cases {
            let stats = assert_matches_rebuild(&ctx, &cands, &method);
            assert!(stats.components_solved > 0);
            assert_eq!(stats.closed_form, 0, "{method:?} {:?}", ctx.slot_budget);
            if one_binding_off {
                assert_eq!(stats.one_binding, 0, "{method:?} {:?}", ctx.unit_price);
            }
        }
    }

    #[test]
    fn memo_hits_accumulate_on_revisits() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        let a = eval.evaluate_objective(&[0, 0]).unwrap();
        let solved_once = eval.stats().components_solved;
        let b = eval.evaluate_objective(&[0, 0]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(eval.stats().components_solved, solved_once);
        assert!(eval.stats().memo_hits >= 2);
        // Moving only pair 1 must not re-solve pair 0's component.
        eval.evaluate_objective(&[0, 1]);
        assert_eq!(eval.stats().components_solved, solved_once + 1);
    }

    #[test]
    fn dynamic_partition_stats_track_moves() {
        // Candidate union chains A–C–B into one static component, but a
        // concrete profile couples C to exactly one corridor: moving C
        // splits it out of one group and merges it into the other.
        let net = bridged_corridors();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(), // A, single route 0-1-3
            SdPair::new(NodeId(4), NodeId(7)).unwrap(), // B, single route 4-5-7
            SdPair::new(NodeId(8), NodeId(9)).unwrap(), // C, routes via 1 or 5
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        assert_eq!(cands[0].routes.len(), 1);
        assert_eq!(cands[1].routes.len(), 1);
        assert_eq!(cands[2].routes.len(), 2);
        let via_a = cands[2]
            .routes
            .iter()
            .position(|r| r.contains_node(NodeId(1)))
            .expect("one C route crosses corridor A");
        let via_b = 1 - via_a;

        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert_eq!(eval.component_count(), 1, "candidate union chains all");

        // First evaluation: C rides corridor A → groups {A,C} and {B}.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        assert_eq!(eval.stats().components_solved, 2);

        // Re-evaluation: level-1 hit, nothing re-solved.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        assert_eq!(eval.stats().components_solved, 2);
        assert_eq!(eval.stats().memo_hits, 1);

        // Move C to corridor B: {A,C},{B} → {A},{B,C}. C splits out of
        // A's group and merges into B's, and every group key is new, so
        // both groups re-solve.
        eval.evaluate_objective(&[0, 0, via_b]).unwrap();
        assert_eq!(eval.stats().components_solved, 4);

        // Move back: the tuple was seen → level-1 hit, nothing re-solved.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        assert_eq!(eval.stats().components_solved, 4);
        assert_eq!(eval.stats().memo_hits, 2);

        // The dynamic path is bit-identical to the full rebuild on the
        // same walk.
        let method = AllocationMethod::default();
        for indices in [[0, 0, via_a], [0, 0, via_b]] {
            assert_eq!(
                ctx.evaluate_objective(&profile_of(&cands, &indices), &method)
                    .map(f64::to_bits),
                eval.evaluate_objective(&indices).map(f64::to_bits),
            );
        }
    }

    #[test]
    fn infeasible_profile_is_none_and_cached() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::clamped(&net, vec![10; 8], vec![0; 8]);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [SdPair::new(NodeId(0), NodeId(3)).unwrap()];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert!(eval.evaluate_objective(&[0]).is_none());
        let solved = eval.stats().components_solved;
        assert!(eval.evaluate(&[0]).is_none());
        assert_eq!(eval.stats().components_solved, solved);
    }

    #[test]
    fn infeasible_multi_pair_group_is_cached() {
        // Zero channel capacity makes every group infeasible; the
        // dynamic path must cache the verdict at level 1 so the retry
        // does not re-solve.
        let net = bridged_corridors();
        let snap = CapacitySnapshot::clamped(&net, vec![10; 10], vec![0; 8]);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
            SdPair::new(NodeId(8), NodeId(9)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert!(eval.evaluate_objective(&[0, 0, 0]).is_none());
        let solved = eval.stats().components_solved;
        assert!(eval.evaluate_objective(&[0, 0, 0]).is_none());
        assert_eq!(eval.stats().components_solved, solved);
    }

    #[test]
    fn empty_profile_is_zero() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new(
            &ctx,
            &[],
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert_eq!(eval.evaluate_objective(&[]), Some(0.0));
        let ev = eval.evaluate(&[]).unwrap();
        assert!(ev.allocations.is_empty());
        assert_eq!(ev.objective, 0.0);
    }

    #[test]
    fn eval_options_serde_round_trip() {
        for options in [EvalOptions::default(), EvalOptions::warm_seeded()] {
            let json = serde_json::to_string(&options).unwrap();
            assert_eq!(
                json,
                format!(r#"{{"warm_profile_seed":{}}}"#, options.warm_profile_seed)
            );
            let back: EvalOptions = serde_json::from_str(&json).unwrap();
            assert_eq!(options, back);
        }
        // Loud compat break: the field is required.
        let err = serde_json::from_str::<EvalOptions>("{}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field `warm_profile_seed`"), "{err}");
    }

    /// Removed fields are rejected by name rather than silently
    /// ignored, so a stale config cannot run with semantics it did not
    /// ask for.
    #[test]
    fn removed_fields_fail_with_unknown_field_error() {
        let json = r#"{"partition":"Dynamic","warm_profile_seed":false}"#;
        let err = serde_json::from_str::<EvalOptions>(json)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown field `partition`"), "{err}");
    }
}
