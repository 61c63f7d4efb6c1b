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
//! * **Two-level coupling partition** — see below.
//! * **Evaluation memos** — one per partition level; see below.
//!
//! # The two-level partition
//!
//! **Static envelope.** Pairs are first partitioned by the *candidate*
//! coupling closure: two pairs share a static component iff some
//! candidate route of one shares a node with some candidate route of the
//! other (a per-slot budget constraint couples everything). This is the
//! coarsest partition that is valid for *every* profile, so everything
//! below it can never leak coupling across static components.
//!
//! **Dynamic refinement.** Within each static component, the *currently
//! selected* routes of a profile usually touch far fewer shared nodes
//! than the candidate union: at paper scale (20-node Waxman, 10 pairs) the static closure
//! collapses into one 10-pair component, while a concrete profile
//! typically splits into several 2–4-pair groups. The evaluator
//! therefore re-partitions each static component by the node sharing of
//! the profile's *selected* routes (the budget rule is inherited: a slot
//! budget keeps everything in one group) and solves each **dynamic
//! group** as its own sub-instance. The sub-partition is refreshed
//! per component exactly when that component's route tuple changes — a
//! single-pair Gibbs/greedy move refreshes one component and re-solves
//! only the groups whose membership-and-routes key is new, which is the
//! mover's group(s), not the whole static component. A move can both
//! *split* the mover out of its old group and *merge* it into the groups
//! its new route touches; [`EvalStats::component_merges`] /
//! [`EvalStats::component_splits`] count exactly those transitions
//! (relative to the last profile whose partition was computed).
//!
//! # The two memo levels
//!
//! * **Level 1 (static tuple memo)** — per static component, the
//!   *assembled* allocation is cached under the tuple of that
//!   component's route indices, exactly as in the single-level engine.
//!   Profiles revisited by Gibbs, and unchanged components of any
//!   proposal, are answered here without touching the partition at all —
//!   the memoized re-evaluation path is byte-for-byte the old one.
//! * **Level 2 (dynamic group memo)** — per static component, each
//!   dynamic group's solve is cached under the group's sub-key: the
//!   interleaved `(member position, route index)` pairs of its members.
//!   The sub-key identifies both the member set and its routes, so a
//!   group outlives any particular partition: after a merge or split the
//!   groups that kept their membership and routes are level-2 hits, and
//!   only genuinely new groups are solved. A level-1 miss assembles its
//!   entry by gathering the level-2 allocations back into component
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
//! 2. `qdn_solve::solve_relaxed` itself decomposes by constraint
//!    coupling, and the dynamic groups *are* the constraint-coupled
//!    components of the profile's instance, so solving a group
//!    stand-alone, inside its static component, or inside the joint
//!    instance follows the same floating-point trajectory (the greedy
//!    allocator is interleaving-invariant across components by
//!    construction, and `Minimal` trivially so);
//! 3. the final objective is re-accumulated over the gathered joint
//!    allocation in variable order with the same
//!    [`qdn_solve::ln_success`] terms [`AllocationInstance::objective_int`]
//!    uses, rather than by summing cached per-component objectives (which
//!    would associate the additions differently);
//! 4. a group whose capacities cannot bind is not solved at all: its
//!    allocation is the per-edge slack closed form
//!    ([`qdn_solve::relaxed::slack_point`], computed once per distinct
//!    candidate edge per slot), which equals what relax-and-round would
//!    return. The closed form is on only for
//!    [`AllocationMethod::RelaxAndRound`] with at least one dual
//!    iteration, at a positive price `κ = q_t`, with no slot budget. A
//!    group takes it only if every node and edge it touches passes
//!    [`qdn_solve::relaxed::slack_fits`]: `Σx* ≤ cap − 1e-9·(1 + cap)`
//!    and `Σn ≤ cap` over the slack points of its variables. The real
//!    sum makes the dual loop's first residual `≤ 0`, so `λ` stays 0,
//!    the feasibility repair leaves the argmax unchanged, and the gap is
//!    certified at iteration 1 with the per-variable `x*`; the `1e-9`
//!    margin covers the solver summing members in a different order.
//!    The integer sum means the surplus fill is never blocked, so each
//!    variable stops at its own first non-positive marginal gain, which
//!    is the slack point's `n`. [`EvalStats::closed_form`] counts these
//!    groups (they also count in [`EvalStats::components_solved`]).
//!
//! The property test `incremental_matches_full_rebuild` in
//! `crates/core/tests/proptests.rs` enforces this equivalence on random
//! topologies, profiles, and move sequences for every allocation
//! method.
//!
//! # Objective bounds
//!
//! [`ProfileEvaluator::objective_bounds`] brackets the objective a
//! profile would evaluate to without assembling or solving anything, so
//! Gibbs selection can reject a proposal before paying for its solve
//! (see "Early rejection" in [`crate::route_selection::gibbs`]). Each
//! variable's term is `g(x) = V·ln P(x) − κ·x` at an integer `x` in
//! `[1, cap]`, with `cap` the smallest capacity of the edge and its
//! endpoints; with `V > 0`, `g` is concave, so:
//!
//! * **upper** sums each edge's largest relaxed term, at the clamped
//!   stationary point
//!   ([`qdn_solve::scalar::argmax_edge_utility`]): the `λ = 0` dual
//!   value, which no allocation can beat;
//! * **lower** sums `min(g(1), g(cap))`, which no feasible allocation can
//!   fall below.
//!
//! Both add the profile's swap term, then a margin of
//! `1e-9·(1 + |sum|)`. With `κ ≥ 0` every term is `≤ 0`, so the
//! rounding of any summation order is relative to `|sum|` and the margin
//! covers the evaluator adding the same terms in another order. Each
//! edge's `(min, max)` is computed once per slot, on first use, and kept
//! in the recycled scratch with the per-node and per-edge channel
//! counters. The bounds are `None` exactly when the evaluation is: some
//! node, edge or the slot budget cannot hold one channel per route edge,
//! or some `p ∉ (0, 1)` — the checks of `RouteAssembler::finish` and
//! `AllocationInstance::finalize`, over the whole profile. The
//! `objective_bounds_bracket_the_objective` proptest checks both claims.
//!
//! **In-solve bounds.** [`ProfileEvaluator::evaluate_objective_unless`]
//! tightens `upper` while the evaluation's dual solves run. Each solve's
//! running dual bound is an anytime certificate (see
//! [`qdn_solve::relaxed::solve_relaxed_until`]): the work item's
//! objective is at most `D(0) − drop`. Its variables' ranges `[1, ub]`
//! lie inside the `[1, cap]` that `upper` maximises over, so `D(0)` is
//! at most the item's share of `upper`, and every other item contributes
//! at most its own share. So `f ≤ upper − drop`, and the evaluator hands
//! `upper − drop` plus a margin of `1e-9·(1 + |bound|)` to the caller's
//! rejection test after every decrease of the bound. Each item is
//! screened on its own drop only, so whether it is abandoned depends on
//! the item alone, not on which items were solved before it. A solve
//! the test stops is neither rounded nor memoized
//! ([`EvalStats::abandoned`] counts it), so the memos stay exact.
//!
//! # Selection sessions
//!
//! A [`ProfileEvaluator`] — with both memo levels and the single-pair
//! memo — lives for one slot. The paper's drift-plus-penalty step
//! solves each slot from the current system state alone, and OSCAR's
//! queue price `q_t` enters every sub-instance and moves almost every
//! slot, so memos are never carried from one slot to the next. A
//! [`SelectorSession`] lives for a run: each policy owns one and threads
//! it through [`crate::route_selection::RouteSelector::select_in`]; the
//! evaluator is then built with [`ProfileEvaluator::new_in`] and handed
//! back with [`ProfileEvaluator::retire`]. The session carries exactly
//! two things (see its docs):
//!
//! * **the recycled buffers** (arena, husks, dense scratch) — pure
//!   allocation reuse, no semantic state;
//! * **the previous selected profile** (used when
//!   [`EvalOptions::warm_profile_seed`] is on, as in every default
//!   selector config) — seeds the next slot's chain start, changing the
//!   search trajectory but never a profile's value.
//!
//! With seeding off ([`EvalOptions::default`]), a session-built
//! evaluator is bit-identical to a fresh one every slot
//! (`session_matches_fresh_per_slot` proptest).

use std::collections::{BTreeMap, HashMap};

use qdn_graph::{EdgeId, NodeId, Path};
use qdn_net::SdPair;
use qdn_physics::swap::SwapModel;
use qdn_solve::assemble::scatter_segments;
use qdn_solve::relaxed::{slack_fits, slack_point, SlackPoint};
use qdn_solve::scalar::{argmax_edge_utility, edge_utility};
use qdn_solve::{ln_success, AllocationInstance, RouteAssembler};
use serde::{Deserialize, Serialize};

use crate::allocation::{Abandoned, AllocationMethod};
use crate::problem::{assemble_instance, PerSlotContext, ProfileEvaluation};
use crate::route_selection::Candidates;

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
    /// **Required since PR 5** — see MIGRATION.md.
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
    /// The edge's relax-and-round result if no constraint binds
    /// (invariant 4); `None` when the closed form is off for the slot
    /// or the edge cannot hold it.
    slack: Option<SlackPoint>,
}

/// Scratch for the dynamic sub-partition refresh.
#[derive(Debug)]
struct PartitionScratch {
    /// Node → member position of the route that last touched it,
    /// epoch-stamped (never cleared).
    owner: Vec<u32>,
    owner_mark: Vec<u64>,
    epoch: u64,
    /// Union-find over member positions, reset per refresh (the
    /// smallest-root-wins invariant is what makes group numbering
    /// deterministic).
    dsu: qdn_solve::Dsu,
    /// Root → normalized group id.
    group_map: Vec<u32>,
    /// Previous group labels (merge/split accounting).
    old_groups: Vec<u32>,
    /// Distinct-label scratch for the churn counters.
    labels: Vec<u32>,
}

/// One node's or edge's running sums in [`SlackSums`].
#[derive(Debug, Clone, Copy, Default)]
struct SlackSum {
    epoch: u64,
    x: f64,
    n: u64,
}

impl SlackSum {
    /// Adds `sp`, restarting from zero on the first add of `epoch`;
    /// returns whether this was that first add.
    fn add(&mut self, epoch: u64, sp: SlackPoint) -> bool {
        let first = self.epoch != epoch;
        if first {
            *self = SlackSum {
                epoch,
                ..SlackSum::default()
            };
        }
        self.x += sp.x;
        self.n += u64::from(sp.n);
        first
    }
}

/// The slack-point sums of one group per node and edge it touches, for
/// the closed-form check (invariant 4): dense by index, epoch-stamped
/// (never cleared), with the touched indices listed.
#[derive(Debug)]
struct SlackSums {
    epoch: u64,
    node: Vec<SlackSum>,
    edge: Vec<SlackSum>,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl SlackSums {
    fn sized(nodes: usize, edges: usize) -> Self {
        SlackSums {
            epoch: 0,
            node: vec![SlackSum::default(); nodes],
            edge: vec![SlackSum::default(); edges],
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds one variable's slack point to its endpoints' and its edge's
    /// sums.
    fn add(&mut self, ev: &EdgeVar, sp: SlackPoint) {
        for node in [ev.u, ev.v] {
            if self.node[node.index()].add(self.epoch, sp) {
                self.nodes.push(node);
            }
        }
        if self.edge[ev.edge.index()].add(self.epoch, sp) {
            self.edges.push(ev.edge);
        }
    }
}

/// Reusable dense buffers for sub-instance construction.
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
    /// concatenated at [`ProfileEvaluator::comp_key_off`] offsets —
    /// resolved once by `ensure_components`, reused by
    /// `accumulate_objective` (ROADMAP item f).
    joint_key: Vec<u32>,
    /// Per-component read cursors for the gather pass.
    cursors: Vec<usize>,
    /// Dynamic sub-partition scratch.
    part: PartitionScratch,
    /// Per-member variable offsets within one component (gather pass).
    pos_off: Vec<usize>,
    /// `(offset, len)` spans of one dynamic group (gather pass).
    spans: Vec<(usize, usize)>,
    /// Assembled component allocation (gather pass).
    gathered: Vec<u32>,
    /// Closed-form check sums; [`ProfileEvaluator::objective_bounds`]
    /// reuses them as per-node and per-edge channel counters.
    sums: SlackSums,
    /// Per edge index: the `(min, max)` of one variable's objective term
    /// on that edge this slot (`None` = not yet computed), for
    /// [`ProfileEvaluator::objective_bounds`]. Reset per evaluator.
    term_bounds: Vec<Option<(f64, f64)>>,
}

impl Scratch {
    fn sized(nodes: usize, edges: usize, components: usize) -> Self {
        Scratch {
            asm: RouteAssembler::sized(nodes, edges),
            joint_key: Vec::new(),
            cursors: vec![0; components],
            part: PartitionScratch {
                owner: vec![0; nodes],
                owner_mark: vec![0; nodes],
                epoch: 0,
                dsu: qdn_solve::Dsu::new(0),
                group_map: Vec::new(),
                old_groups: Vec::new(),
                labels: Vec::new(),
            },
            pos_off: Vec::new(),
            spans: Vec::new(),
            gathered: Vec::new(),
            sums: SlackSums::sized(nodes, edges),
            term_bounds: Vec::new(),
            nodes,
            edges,
        }
    }

    /// Recycles a session-carried scratch for a new slot: same network
    /// dimensions keep every buffer (the arena, the husks, the dense
    /// partition maps), a topology change rebuilds from scratch.
    fn recycled(prev: Option<Scratch>, nodes: usize, edges: usize, components: usize) -> Self {
        match prev {
            Some(mut s) if s.nodes == nodes && s.edges == edges => {
                s.cursors.clear();
                s.cursors.resize(components, 0);
                s
            }
            _ => Scratch::sized(nodes, edges, components),
        }
    }
}

/// A route-index-keyed memo: key → flat allocation (`None` = that
/// combination is infeasible). Level 1 keys by a static component's
/// route tuple; level 2 by a dynamic group's `(position, route)` pairs.
/// Memos live and die with one [`ProfileEvaluator`], so every entry was
/// solved under the current slot's context.
type Memo = HashMap<Box<[u32]>, Option<Box<[u32]>>>;

/// Route-selection state spanning slots — the slot-lifetime counterpart
/// of the per-slot [`ProfileEvaluator`].
///
/// A session is owned by a policy (or any other driver that makes one
/// selection per slot) for the lifetime of a run and threaded through
/// [`crate::route_selection::RouteSelector::select_in`]. It carries:
///
/// * the recycled [`RouteAssembler`] arena, instance husks, and every
///   dense scratch buffer (epoch-stamped node maps, union-find, CSR
///   staging) — steady-state slots allocate no evaluator storage;
/// * the previous slot's selected route per [`SdPair`], which seeds the
///   next slot's Gibbs chain / greedy start for pairs present in
///   consecutive slots when [`EvalOptions::warm_profile_seed`] is set
///   (the default Gibbs configuration sets it).
///
/// Evaluation memos are *not* carried: they belong to one slot's
/// evaluator. OSCAR's queue price `q_t` enters every sub-instance and
/// moves almost every slot, so an entry solved in one slot is almost
/// never valid in the next.
///
/// # Lifetime invariants
///
/// * The scratch arena carries no semantic state: every buffer is
///   resized to the slot's network and written before it is read, so a
///   recycled arena and a fresh one give the same bits.
/// * Policies reset their session whenever
///   [`crate::policy::RoutingPolicy::reset`] runs, so fresh trials share
///   nothing.
/// * The remembered previous-slot profile is validated by route
///   *identity* (edge list), not by index: a recompute that reshuffles a
///   pair's candidate list relocates the remembered route, and a route
///   that no longer exists is simply forgotten — a stale index can
///   never leak into a seed.
/// * With `warm_profile_seed` off, a session-built evaluator is
///   **bit-identical** to a fresh [`ProfileEvaluator::new`] per slot
///   (enforced by the `session_matches_fresh_per_slot` proptest, which
///   also runs link cuts and repairs).
#[derive(Debug, Default)]
pub struct SelectorSession {
    scratch: Option<Scratch>,
    /// Previous slot's selected route per pair, by identity.
    prev_selected: BTreeMap<SdPair, PrevRoute>,
}

/// A remembered previous-slot selection: the route's index in last
/// slot's candidate list plus its identity (edge sequence), so the next
/// slot can detect that a churn recompute removed or relocated the route.
#[derive(Debug, Clone)]
struct PrevRoute {
    index: u32,
    edges: Box<[EdgeId]>,
}

impl PrevRoute {
    /// Finds this route in `routes`: the stored index when it still
    /// holds the identical route (the steady-state fast path), else a
    /// linear scan by edge-list identity, else `None` (the route was
    /// dropped by a candidate recompute).
    fn locate(&self, routes: &[Path]) -> Option<usize> {
        let idx = self.index as usize;
        if routes
            .get(idx)
            .is_some_and(|r| r.edges() == &self.edges[..])
        {
            return Some(idx);
        }
        routes.iter().position(|r| r.edges() == &self.edges[..])
    }
}

impl SelectorSession {
    /// An empty session (no cross-slot state yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the previous selected profile for a fresh trial. Recycled
    /// buffer capacity is kept — it carries no semantic state.
    pub fn reset(&mut self) {
        self.prev_selected.clear();
    }

    /// The route index this session remembers for `pair` from the
    /// previous slot's selection, if any.
    pub fn previous_route(&self, pair: SdPair) -> Option<usize> {
        self.prev_selected.get(&pair).map(|r| r.index as usize)
    }

    /// Number of pairs with a remembered previous-slot route.
    pub fn remembered_pairs(&self) -> usize {
        self.prev_selected.len()
    }

    /// The warm starting profile for `candidates`, or `None` unless a
    /// strict *majority* (more than half) of the candidate pairs carry
    /// a remembered previous-slot route — a seed dominated by fallback
    /// entries is not a warm start, and selectors shrink their search
    /// budget on seeded slots (see `GibbsConfig::warm_iterations`), so
    /// low-coverage slots must run the full cold search instead.
    /// Remembered pairs start on last slot's route, located by edge-list
    /// identity (so a candidate list reshuffled by a churn recompute still
    /// seeds the same physical route, and a removed route falls back
    /// instead of aliasing whatever now sits at its old index); the
    /// remaining pairs fall back to their shortest candidate (index 0).
    /// Pairs repeated in the request set (multi-EC) all seed from the
    /// one remembered route of that pair.
    pub fn seed_indices(&self, candidates: &[Candidates<'_>]) -> Option<Vec<usize>> {
        let mut remembered = 0usize;
        let seed: Vec<usize> = candidates
            .iter()
            .map(|c| {
                match self
                    .prev_selected
                    .get(&c.pair)
                    .and_then(|p| p.locate(c.routes))
                {
                    Some(idx) => {
                        remembered += 1;
                        idx
                    }
                    None => 0,
                }
            })
            .collect();
        (remembered * 2 > candidates.len()).then_some(seed)
    }

    /// Records this slot's selection as the seed source for the next
    /// slot. Replaces the previous record wholesale: only pairs served
    /// in the *immediately* preceding slot seed the next one.
    pub fn record_selection(&mut self, candidates: &[Candidates<'_>], indices: &[usize]) {
        debug_assert_eq!(candidates.len(), indices.len());
        self.prev_selected.clear();
        for (c, &i) in candidates.iter().zip(indices) {
            self.prev_selected.insert(
                c.pair,
                PrevRoute {
                    index: i as u32,
                    edges: c.routes[i].edges().into(),
                },
            );
        }
    }

    /// Serializes the session's cross-slot state — the previous
    /// selected profile, in pair order — into a [`SessionSnapshot`], so
    /// equal sessions produce byte-identical snapshots. The recycled
    /// scratch arena is *not* captured (it carries no semantic state and
    /// is rebuilt lazily).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            version: SESSION_SNAPSHOT_VERSION,
            prev_selected: self
                .prev_selected
                .iter()
                .map(|(&pair, r)| PrevSelectedSnapshot {
                    pair,
                    index: r.index,
                    edges: r.edges.to_vec(),
                })
                .collect(),
        }
    }

    /// Rebuilds a session from a snapshot taken by
    /// [`SelectorSession::snapshot`]. The restored session is
    /// behaviorally indistinguishable from the original: every decision
    /// it participates in is bit-identical to what the uninterrupted
    /// session would have produced (pinned by the
    /// `restored_session_matches_uninterrupted` proptest).
    pub fn restore(snapshot: &SessionSnapshot) -> Result<Self, String> {
        if snapshot.version != SESSION_SNAPSHOT_VERSION {
            return Err(format!(
                "session snapshot version {} (expected {SESSION_SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        Ok(SelectorSession {
            scratch: None,
            prev_selected: snapshot
                .prev_selected
                .iter()
                .map(|p| {
                    (
                        p.pair,
                        PrevRoute {
                            index: p.index,
                            edges: p.edges.clone().into_boxed_slice(),
                        },
                    )
                })
                .collect(),
        })
    }
}

/// Version tag of [`SessionSnapshot`]; bump on layout changes.
pub const SESSION_SNAPSHOT_VERSION: u32 = 4;

/// Serializable image of a [`SelectorSession`] (see
/// [`SelectorSession::snapshot`]). Entries are sorted by pair, so equal
/// sessions snapshot byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Layout version ([`SESSION_SNAPSHOT_VERSION`]).
    pub version: u32,
    prev_selected: Vec<PrevSelectedSnapshot>,
}

/// One remembered previous-slot route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PrevSelectedSnapshot {
    pair: SdPair,
    index: u32,
    edges: Vec<EdgeId>,
}

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
    /// Gauge: dynamic components across the whole profile, as of the
    /// last partition refresh. Static components whose sub-partition has
    /// not been computed yet (or never is: singletons and budgeted
    /// slots) count as one each.
    pub dynamic_components: u64,
    /// Dynamic groups that merged: each recomputed sub-partition adds,
    /// per new group, the number of distinct previous groups it spans
    /// minus one (relative to the last profile whose partition was
    /// computed for that component).
    pub component_merges: u64,
    /// Dynamic groups that split: the mirror image of
    /// [`EvalStats::component_merges`] — per previous group, the number
    /// of distinct new groups its members landed in, minus one.
    pub component_splits: u64,
    /// Gauge: pairs whose dynamic group (or whole static component) was
    /// freshly solved by the most recent evaluation; 0 when it was
    /// served entirely from the memos.
    pub pairs_resolved_last_move: u64,
    /// Dual solves abandoned by the rejection test of
    /// [`ProfileEvaluator::evaluate_objective_unless`]: not rounded, not
    /// memoized, and not counted in [`EvalStats::components_solved`].
    pub abandoned: u64,
}

/// The rejection test of one screened evaluation: `reject` applied to
/// certified upper bounds on the profile's objective (see "Objective
/// bounds" in the module docs).
#[derive(Clone, Copy)]
struct Screen<'r> {
    /// The profile's `λ = 0` bound, from
    /// [`ProfileEvaluator::objective_bounds`].
    upper: f64,
    reject: &'r (dyn Fn(f64) -> bool + Sync),
}

impl Screen<'_> {
    /// Whether one work item's dual bound, `drop` below its `λ = 0`
    /// value, rejects the profile: the objective is at most
    /// `upper − drop`, plus a margin of `1e-9·(1 + |bound|)` for the
    /// different summation orders.
    fn rejects(&self, drop: f64) -> bool {
        let bound = self.upper - drop;
        (self.reject)(bound + 1e-9 * (1.0 + bound.abs()))
    }
}

/// The incremental profile-evaluation engine. See the module docs.
#[derive(Debug)]
pub struct ProfileEvaluator<'a> {
    ctx: PerSlotContext<'a>,
    method: AllocationMethod,
    options: EvalOptions,
    pairs: Vec<SdPair>,
    /// `routes[i][r]` describes candidate `r` of pair `i`.
    routes: Vec<Vec<RouteData>>,
    /// Static partition: `comp_of_pair[i]` and the ascending pair lists.
    comp_of_pair: Vec<usize>,
    comp_pairs: Vec<Vec<usize>>,
    /// `comp_key_off[c]..comp_key_off[c+1]` slices component `c`'s route
    /// indices out of `Scratch::joint_key` (and its member positions out
    /// of the flat dynamic-partition state below).
    comp_key_off: Vec<usize>,
    /// Dynamic sub-partition state, flat in `comp_key_off` layout:
    /// per member position, its group id within the static component.
    dyn_group_of: Vec<u32>,
    /// The route tuple each component's sub-partition corresponds to.
    dyn_state_key: Vec<u32>,
    /// Whether a component's sub-partition has ever been computed.
    dyn_state_valid: Vec<bool>,
    /// Per component: number of dynamic groups in its sub-partition.
    dyn_group_count: Vec<u32>,
    /// `ln(swap_success)`; only meaningful when `lossy_swap`.
    ln_q: f64,
    lossy_swap: bool,
    budget: Option<u32>,
    scratch: Scratch,
    /// Level-1 memos (per static component, keyed by route tuple).
    memos: Vec<Memo>,
    /// Level-2 memos (per static component, keyed by dynamic sub-key).
    dyn_memos: Vec<Memo>,
    /// Sub-key under construction (kept outside `Scratch` so it can be
    /// borrowed across `solve_component` calls).
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
        Self::build(ctx, candidates, method, options, session.scratch.take())
    }

    /// Returns the recycled buffers to `session` for the next slot. The
    /// memos are dropped with the evaluator.
    pub fn retire(self, session: &mut SelectorSession) {
        session.scratch = Some(self.scratch);
    }

    fn build(
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
        scratch: Option<Scratch>,
    ) -> Self {
        let k = candidates.len();
        let pairs: Vec<SdPair> = candidates.iter().map(|c| c.pair).collect();
        // Slack points per distinct candidate edge (invariant 4). The
        // closed form reproduces a cold relax-and-round solve that runs
        // at least one dual iteration at a positive price with no budget
        // row; anywhere else the table stays empty and every group is
        // solved.
        let closed_form = ctx.unit_price > 0.0
            && ctx.slot_budget.is_none()
            && matches!(method, AllocationMethod::RelaxAndRound(o) if o.max_iterations > 0);
        let mut slack = if closed_form {
            vec![None; ctx.network.edge_count()]
        } else {
            Vec::new()
        };
        let routes: Vec<Vec<RouteData>> = candidates
            .iter()
            .map(|c| {
                c.routes
                    .iter()
                    .map(|r| resolve_route(ctx, r, &mut slack))
                    .collect()
            })
            .collect();

        // Static partition by candidate-route node sharing (edge sharing
        // implies node sharing). A slot budget couples everything.
        let mut dsu = qdn_solve::Dsu::new(k);
        if ctx.slot_budget.is_some() {
            for i in 1..k {
                dsu.union(0, i);
            }
        } else {
            let mut node_owner = vec![usize::MAX; ctx.network.node_count()];
            for (i, cand) in routes.iter().enumerate() {
                for route in cand {
                    for ev in &route.edges {
                        for node in [ev.u, ev.v] {
                            let owner = node_owner[node.index()];
                            if owner == usize::MAX {
                                node_owner[node.index()] = i;
                            } else if owner != i {
                                dsu.union(owner, i);
                            }
                        }
                    }
                }
            }
        }
        let mut comp_of_pair = vec![usize::MAX; k];
        let mut comp_pairs: Vec<Vec<usize>> = Vec::new();
        for i in 0..k {
            let root = dsu.find(i);
            let comp = if comp_of_pair[root] == usize::MAX {
                comp_pairs.push(Vec::new());
                let id = comp_pairs.len() - 1;
                comp_of_pair[root] = id;
                id
            } else {
                comp_of_pair[root]
            };
            comp_of_pair[i] = comp;
            comp_pairs[comp].push(i);
        }
        let mut comp_key_off = Vec::with_capacity(comp_pairs.len() + 1);
        comp_key_off.push(0);
        for pairs in &comp_pairs {
            comp_key_off.push(comp_key_off.last().unwrap() + pairs.len());
        }

        let q = ctx.network.swap().success();
        let n_comps = comp_pairs.len();
        let mut scratch = Scratch::recycled(
            scratch,
            ctx.network.node_count(),
            ctx.network.edge_count(),
            n_comps,
        );
        scratch.term_bounds.clear();
        scratch.term_bounds.resize(ctx.network.edge_count(), None);
        let stats = EvalStats {
            // Unrefined components count as one dynamic group each.
            dynamic_components: n_comps as u64,
            ..EvalStats::default()
        };
        ProfileEvaluator {
            ctx: *ctx,
            method: *method,
            options,
            pairs,
            routes,
            comp_of_pair,
            dyn_group_of: vec![0; k],
            dyn_state_key: vec![0; k],
            dyn_state_valid: vec![false; n_comps],
            dyn_group_count: vec![1; n_comps],
            comp_pairs,
            comp_key_off,
            ln_q: if q < 1.0 { q.ln() } else { 0.0 },
            lossy_swap: q < 1.0,
            budget: ctx.slot_budget.map(|b| b.min(u32::MAX as u64) as u32),
            scratch,
            memos: std::iter::repeat_with(Memo::new).take(n_comps).collect(),
            dyn_memos: std::iter::repeat_with(Memo::new).take(n_comps).collect(),
            group_key: Vec::new(),
            group_members: Vec::new(),
            stats,
        }
    }

    /// Number of SD pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of coupling components in the static partition.
    pub fn component_count(&self) -> usize {
        self.comp_pairs.len()
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
    /// See "Objective bounds" in the module docs.
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
        self.stats.pairs_resolved_last_move = 0;
        if self.pairs.is_empty() {
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
        self.stats.pairs_resolved_last_move = 0;
        if self.pairs.is_empty() {
            return Some(ProfileEvaluation {
                allocations: Vec::new(),
                objective: 0.0,
            });
        }
        if self.ensure_components(indices, None) != Ok(true) {
            return None;
        }
        let mut allocations: Vec<Vec<u32>> = Vec::with_capacity(self.pairs.len());
        let objective = self.accumulate_objective(indices, Some(&mut allocations));
        Some(ProfileEvaluation {
            allocations,
            objective,
        })
    }

    /// Certified bounds `(lower, upper)` on the objective `f` that
    /// [`ProfileEvaluator::evaluate_objective`] returns for `indices`,
    /// from one pass over the profile's route edges: nothing is
    /// assembled, solved or memoized. See "Objective bounds" in the
    /// module docs.
    ///
    /// Returns `None` exactly when `evaluate_objective` would: some node,
    /// edge or the slot budget cannot hold one channel per route edge, or
    /// some edge has `p ∉ (0, 1)`. Also returns `None` outside the
    /// bounds' preconditions, `V > 0` and `κ ≥ 0`.
    pub fn objective_bounds(&mut self, indices: &[usize]) -> Option<(f64, f64)> {
        debug_assert_eq!(indices.len(), self.pairs.len());
        let ctx = &self.ctx;
        let (v, kappa) = (ctx.v_weight, ctx.unit_price);
        if !(v > 0.0 && kappa >= 0.0) {
            return None;
        }
        let Scratch {
            sums, term_bounds, ..
        } = &mut self.scratch;
        sums.epoch += 1;
        sums.nodes.clear();
        sums.edges.clear();
        let (mut lower, mut upper) = (0.0, 0.0);
        let (mut vars, mut swaps) = (0u64, 0u64);
        for (route_set, &r) in self.routes.iter().zip(indices) {
            let route = &route_set[r];
            for ev in &route.edges {
                if !(ev.p > 0.0 && ev.p < 1.0) {
                    return None;
                }
                // One channel per route edge on both endpoints and the edge.
                sums.add(ev, SlackPoint { x: 0.0, n: 1 });
                let (lo, hi) = match term_bounds[ev.edge.index()] {
                    Some(b) => b,
                    None => {
                        let cap = ctx
                            .snapshot
                            .qubits(ev.u)
                            .min(ctx.snapshot.qubits(ev.v))
                            .min(ctx.snapshot.channels(ev.edge));
                        if cap == 0 {
                            return None;
                        }
                        let b = term_range(ev.p, v, kappa, cap);
                        term_bounds[ev.edge.index()] = Some(b);
                        b
                    }
                };
                lower += lo;
                upper += hi;
            }
            vars += route.hops as u64;
            swaps += route.swaps;
        }
        let fits = self.budget.is_none_or(|b| vars <= u64::from(b))
            && sums
                .nodes
                .iter()
                .all(|&n| sums.node[n.index()].n <= u64::from(ctx.snapshot.qubits(n)))
            && sums
                .edges
                .iter()
                .all(|&e| sums.edge[e.index()].n <= u64::from(ctx.snapshot.channels(e)));
        if !fits {
            return None;
        }
        if self.lossy_swap {
            let swap_term = v * (swaps as f64 * self.ln_q);
            lower += swap_term;
            upper += swap_term;
        }
        Some((
            lower - 1e-9 * (1.0 + lower.abs()),
            upper + 1e-9 * (1.0 + upper.abs()),
        ))
    }

    /// Whether component `comp` is evaluated through the dynamic
    /// sub-partition. Singleton components have nothing to refine, and
    /// a slot budget couples every pair unconditionally (the same rule
    /// the static partition applies), so budgeted contexts skip the
    /// refresh machinery entirely instead of recomputing a
    /// known-trivial partition on every cold move.
    fn use_dynamic(&self, comp: usize) -> bool {
        self.budget.is_none() && self.comp_pairs[comp].len() > 1
    }

    /// Recomputes component `comp`'s dynamic sub-partition for the route
    /// tuple currently in `Scratch::joint_key`, if it differs from the
    /// tuple the stored sub-partition corresponds to. Updates the
    /// partition gauges and the merge/split churn counters.
    fn refresh_partition(&mut self, comp: usize) {
        let off = self.comp_key_off[comp];
        let end = self.comp_key_off[comp + 1];
        let m = end - off;
        if self.dyn_state_valid[comp]
            && self.dyn_state_key[off..end] == self.scratch.joint_key[off..end]
        {
            return;
        }
        // Budgeted contexts never reach here: the budget row couples
        // every member, so `use_dynamic` routes them straight to
        // `solve_whole` (the refinement would always be one group).
        debug_assert!(self.budget.is_none());
        let Scratch {
            part, joint_key, ..
        } = &mut self.scratch;
        let key = &joint_key[off..end];

        part.dsu.reset(m);
        part.epoch += 1;
        for (pos, &pair) in self.comp_pairs[comp].iter().enumerate() {
            let route = &self.routes[pair][key[pos] as usize];
            for ev in &route.edges {
                for node in [ev.u, ev.v] {
                    let ni = node.index();
                    if part.owner_mark[ni] == part.epoch {
                        let other = part.owner[ni] as usize;
                        part.dsu.union(other, pos);
                    } else {
                        part.owner_mark[ni] = part.epoch;
                        part.owner[ni] = pos as u32;
                    }
                }
            }
        }

        // Normalize group ids by smallest member position and stash the
        // previous labels for the churn counters.
        part.old_groups.clear();
        part.old_groups
            .extend_from_slice(&self.dyn_group_of[off..end]);
        part.group_map.clear();
        part.group_map.resize(m, u32::MAX);
        let mut count = 0u32;
        for pos in 0..m {
            let root = part.dsu.find(pos);
            let g = if part.group_map[root] == u32::MAX {
                part.group_map[root] = count;
                count += 1;
                count - 1
            } else {
                part.group_map[root]
            };
            self.dyn_group_of[off + pos] = g;
        }

        if self.dyn_state_valid[comp] {
            let new = &self.dyn_group_of[off..end];
            self.stats.component_merges +=
                distinct_excess(new, &part.old_groups, count, &mut part.labels);
            self.stats.component_splits += distinct_excess(
                &part.old_groups,
                new,
                self.dyn_group_count[comp],
                &mut part.labels,
            );
        }
        self.stats.dynamic_components += count as u64;
        self.stats.dynamic_components -= self.dyn_group_count[comp] as u64;
        self.dyn_group_count[comp] = count;
        self.dyn_state_key[off..end].copy_from_slice(key);
        self.dyn_state_valid[comp] = true;
    }

    /// Ensures every component's allocation for `indices` is in the
    /// level-1 memo and resolves all component keys into
    /// `Scratch::joint_key` (sliced by
    /// [`ProfileEvaluator::comp_key_off`]) so the accumulation pass does
    /// not rebuild them; `None` if any component is infeasible.
    ///
    /// A level-1 hit touches neither the partition nor the level-2 memo
    /// — the memoized re-evaluation path is exactly the single-level
    /// engine's. On a miss the component's sub-partition is refreshed
    /// and only the dynamic groups with unseen sub-keys are solved.
    /// Returns feasibility, or `Err` when `screen` abandoned a solve.
    fn ensure_components(
        &mut self,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<bool, Abandoned> {
        debug_assert_eq!(indices.len(), self.pairs.len());
        // Resolve every component's key once, up front.
        self.scratch.joint_key.clear();
        for comp_pairs in &self.comp_pairs {
            self.scratch
                .joint_key
                .extend(comp_pairs.iter().map(|&i| indices[i] as u32));
        }

        for comp in 0..self.comp_pairs.len() {
            let key = &self.scratch.joint_key[self.comp_key_off[comp]..self.comp_key_off[comp + 1]];
            if let Some(entry) = self.memos[comp].get(key) {
                self.stats.memo_hits += 1;
                if entry.is_none() {
                    return Ok(false);
                }
                continue;
            }
            let feasible = if self.use_dynamic(comp) {
                self.refresh_partition(comp);
                if self.dyn_group_count[comp] > 1 {
                    self.solve_groups(comp, indices, screen)?
                } else {
                    self.solve_whole(comp, indices, screen)?
                }
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
        let solved = solve_component(
            &mut self.scratch,
            &self.ctx,
            self.budget,
            &self.method,
            &self.routes,
            &self.comp_pairs[comp],
            indices,
            screen,
        );
        let (alloc, _) = self.count_solve(solved, self.comp_pairs[comp].len())?;
        let feasible = alloc.is_some();
        let key = self.scratch.joint_key[self.comp_key_off[comp]..self.comp_key_off[comp + 1]]
            .to_vec()
            .into_boxed_slice();
        self.memos[comp].insert(key, alloc);
        Ok(feasible)
    }

    /// Counts one work item's solve of `n_pairs` pairs in the stats and
    /// passes its result through.
    fn count_solve(
        &mut self,
        solved: Result<GroupSolve, Abandoned>,
        n_pairs: usize,
    ) -> Result<GroupSolve, Abandoned> {
        match &solved {
            Ok((_, closed)) => {
                self.stats.components_solved += 1;
                self.stats.closed_form += u64::from(*closed);
                self.stats.pairs_resolved_last_move += n_pairs as u64;
            }
            Err(Abandoned) => self.stats.abandoned += 1,
        }
        solved
    }

    /// Solves the unseen dynamic groups of component `comp` (level-2
    /// memo), then gathers the group allocations into the component's
    /// level-1 entry. Returns feasibility, or `Err` when `screen`
    /// abandoned a group's solve (that group and the component stay
    /// unmemoized).
    fn solve_groups(
        &mut self,
        comp: usize,
        indices: &[usize],
        screen: Option<Screen<'_>>,
    ) -> Result<bool, Abandoned> {
        let off = self.comp_key_off[comp];
        let end = self.comp_key_off[comp + 1];
        let mut feasible = true;
        for g in 0..self.dyn_group_count[comp] {
            self.group_key.clear();
            self.group_members.clear();
            for pos in 0..(end - off) {
                if self.dyn_group_of[off + pos] == g {
                    self.group_key.push(pos as u32);
                    self.group_key.push(self.scratch.joint_key[off + pos]);
                    self.group_members.push(self.comp_pairs[comp][pos]);
                }
            }
            if let Some(entry) = self.dyn_memos[comp].get(self.group_key.as_slice()) {
                if entry.is_none() {
                    feasible = false;
                    break;
                }
                continue;
            }
            let solved = solve_component(
                &mut self.scratch,
                &self.ctx,
                self.budget,
                &self.method,
                &self.routes,
                &self.group_members,
                indices,
                screen,
            );
            let (alloc, _) = self.count_solve(solved, self.group_members.len())?;
            let ok = alloc.is_some();
            self.dyn_memos[comp].insert(self.group_key.as_slice().into(), alloc);
            if !ok {
                feasible = false;
                break;
            }
        }
        if !feasible {
            let key: Box<[u32]> = self.scratch.joint_key[off..end].into();
            self.memos[comp].insert(key, None);
            return Ok(false);
        }
        self.gather_groups(comp);
        Ok(true)
    }

    /// Assembles component `comp`'s level-1 allocation by scattering its
    /// dynamic groups' level-2 allocations back into component variable
    /// order. Every group must be memoized feasible.
    fn gather_groups(&mut self, comp: usize) {
        let off = self.comp_key_off[comp];
        let end = self.comp_key_off[comp + 1];
        let m = end - off;
        // Per-member variable offsets within the component.
        let Scratch {
            pos_off,
            gathered,
            spans,
            joint_key,
            ..
        } = &mut self.scratch;
        pos_off.clear();
        let mut total = 0usize;
        for pos in 0..m {
            pos_off.push(total);
            let pair = self.comp_pairs[comp][pos];
            total += self.routes[pair][joint_key[off + pos] as usize].hops;
        }
        gathered.clear();
        gathered.resize(total, 0);
        for g in 0..self.dyn_group_count[comp] {
            self.group_key.clear();
            spans.clear();
            for pos in 0..m {
                if self.dyn_group_of[off + pos] == g {
                    self.group_key.push(pos as u32);
                    self.group_key.push(joint_key[off + pos]);
                    let pair = self.comp_pairs[comp][pos];
                    let hops = self.routes[pair][joint_key[off + pos] as usize].hops;
                    spans.push((pos_off[pos], hops));
                }
            }
            let alloc = self.dyn_memos[comp]
                .get(self.group_key.as_slice())
                .expect("group memoized by solve_groups")
                .as_deref()
                .expect("group feasible by solve_groups");
            scatter_segments(alloc, spans.iter().copied(), gathered);
        }
        let key: Box<[u32]> = joint_key[off..end].into();
        self.memos[comp].insert(key, Some(gathered.as_slice().into()));
    }

    /// Gathers the memoized component allocations in joint variable order
    /// and accumulates the objective exactly as
    /// [`AllocationInstance::objective_int`] would on the joint instance
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
        let flats: Vec<&[u32]> = (0..self.comp_pairs.len())
            .map(|comp| {
                let key =
                    &self.scratch.joint_key[self.comp_key_off[comp]..self.comp_key_off[comp + 1]];
                self.memos[comp]
                    .get(key)
                    .expect("component memoized by ensure_components")
                    .as_deref()
                    .expect("component feasible by ensure_components")
            })
            .collect();
        let mut objective = 0.0;
        let mut total_swaps = 0u64;
        for (i, &route_idx) in indices.iter().enumerate() {
            let comp = self.comp_of_pair[i];
            let flat = flats[comp];
            let route = &self.routes[i][route_idx];
            let seg = &flat[self.scratch.cursors[comp]..self.scratch.cursors[comp] + route.hops];
            self.scratch.cursors[comp] += route.hops;
            for (ev, &n) in route.edges.iter().zip(seg) {
                objective +=
                    self.ctx.v_weight * ln_success(ev.p, n as f64) - self.ctx.unit_price * n as f64;
            }
            total_swaps += route.swaps;
            if let Some(out) = allocations.as_deref_mut() {
                out.push(seg.to_vec());
            }
        }
        if self.lossy_swap {
            objective += self.ctx.v_weight * (total_swaps as f64 * self.ln_q);
        }
        objective
    }
}

/// For each group `0..n_groups` of `groups`, counts the distinct values
/// `labels` assigns to that group's positions, and returns the summed
/// excess over one. With `groups` = the new partition and `labels` = the
/// old labels this counts merges; swapped, it counts splits.
fn distinct_excess(groups: &[u32], labels: &[u32], n_groups: u32, seen: &mut Vec<u32>) -> u64 {
    debug_assert_eq!(groups.len(), labels.len());
    let mut excess = 0u64;
    for g in 0..n_groups {
        seen.clear();
        for (&pg, &label) in groups.iter().zip(labels) {
            if pg == g && !seen.contains(&label) {
                seen.push(label);
            }
        }
        excess += (seen.len() as u64).saturating_sub(1);
    }
    excess
}

/// Resolves one candidate [`Path`] into per-edge data. `slack` memoizes
/// each edge's [`slack_point`] by edge index (outer `None` = not yet
/// computed); an empty table turns the closed form off.
fn resolve_route(
    ctx: &PerSlotContext<'_>,
    route: &Path,
    slack: &mut [Option<Option<SlackPoint>>],
) -> RouteData {
    let edges: Vec<EdgeVar> = route
        .edges()
        .iter()
        .map(|&edge| {
            let (u, v) = ctx.network.graph().endpoints(edge);
            let p = ctx.network.link(edge).channel_success();
            let slack = slack.get_mut(edge.index()).and_then(|memo| {
                *memo.get_or_insert_with(|| {
                    let cap = ctx
                        .snapshot
                        .qubits(u)
                        .min(ctx.snapshot.qubits(v))
                        .min(ctx.snapshot.channels(edge));
                    slack_point(p, ctx.v_weight, ctx.unit_price, cap)
                })
            });
            EdgeVar {
                edge,
                u,
                v,
                p,
                slack,
            }
        })
        .collect();
    RouteData {
        hops: edges.len(),
        swaps: SwapModel::swaps_for_hops(route.hops()) as u64,
        edges,
    }
}

/// The `(min, max)` of one variable's objective term
/// `g(x) = V·ln P(x) − κ·x` over `x ∈ [1, cap]`: `g` is concave, so its
/// minimum is at an end point and its maximum at the clamped stationary
/// point (the variable's `λ = 0` dual term). Needs `p ∈ (0, 1)`, `V > 0`
/// and `cap ≥ 1`.
fn term_range(p: f64, v: f64, kappa: f64, cap: u32) -> (f64, f64) {
    let cap = f64::from(cap);
    let g = |x| edge_utility(p, v, kappa, x);
    (
        g(1.0).min(g(cap)),
        g(argmax_edge_utility(p, v, kappa, 1.0, cap)),
    )
}

/// Builds the [`AllocationInstance`] for the given routes via the shared
/// [`assemble_instance`] layout routine — the same code path
/// [`PerSlotContext::build_instance`] uses, so a component's (or dynamic
/// group's) sub-instance is structurally the joint instance restricted
/// to it.
fn build_instance_for<'r>(
    scratch: &mut Scratch,
    ctx: &PerSlotContext<'_>,
    budget: Option<u32>,
    routes: impl Iterator<Item = &'r RouteData>,
) -> Result<AllocationInstance, qdn_solve::SolveError> {
    let edges = routes.flat_map(|route| route.edges.iter().map(|ev| (ev.edge, ev.u, ev.v, ev.p)));
    assemble_instance(
        &mut scratch.asm,
        ctx.snapshot,
        edges,
        budget,
        ctx.v_weight,
        ctx.unit_price,
    )
}

/// One sub-instance's allocation (`None` = the route combination is
/// infeasible) and whether the slack closed form produced it.
type GroupSolve = (Option<Box<[u32]>>, bool);

/// Allocates one sub-instance (a whole static component or a single
/// dynamic group, `members` = its pair ids ascending): by the slack
/// closed form when it applies, otherwise by building and solving the
/// instance, recycling its storage afterwards. `Err` when `screen`
/// abandoned the solve.
#[allow(clippy::too_many_arguments)]
fn solve_component(
    scratch: &mut Scratch,
    ctx: &PerSlotContext<'_>,
    budget: Option<u32>,
    method: &AllocationMethod,
    routes: &[Vec<RouteData>],
    members: &[usize],
    indices: &[usize],
    screen: Option<Screen<'_>>,
) -> Result<GroupSolve, Abandoned> {
    if let Some(flat) = closed_form(&mut scratch.sums, ctx, routes, members, indices) {
        return Ok((Some(flat), true));
    }
    let route_iter = members.iter().map(|&i| &routes[i][indices[i]]);
    let Ok(instance) = build_instance_for(scratch, ctx, budget, route_iter) else {
        return Ok((None, false));
    };
    let flat = method.allocate_unless(&instance, |drop| screen.is_some_and(|s| s.rejects(drop)));
    scratch.asm.recycle(instance);
    Ok((flat?.map(Vec::into_boxed_slice), false))
}

/// The group's allocation by the slack closed form (invariant 4), or
/// `None` when some variable has no slack point or some node or edge
/// the group touches fails [`slack_fits`].
fn closed_form(
    sums: &mut SlackSums,
    ctx: &PerSlotContext<'_>,
    routes: &[Vec<RouteData>],
    members: &[usize],
    indices: &[usize],
) -> Option<Box<[u32]>> {
    let group = || members.iter().flat_map(|&i| &routes[i][indices[i]].edges);
    sums.epoch += 1;
    sums.nodes.clear();
    sums.edges.clear();
    for ev in group() {
        sums.add(ev, ev.slack?);
    }
    let fits = sums.nodes.iter().all(|&node| {
        let sum = sums.node[node.index()];
        slack_fits(sum.x, sum.n, ctx.snapshot.qubits(node))
    }) && sums.edges.iter().all(|&edge| {
        let sum = sums.edge[edge.index()];
        slack_fits(sum.x, sum.n, ctx.snapshot.channels(edge))
    });
    fits.then(|| {
        group()
            .map(|ev| ev.slack.expect("checked by the sum pass").n)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_selection::Candidates;
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{CapacitySnapshot, QdnNetwork};
    use qdn_physics::link::LinkModel;
    use qdn_solve::relaxed::RelaxedOptions;

    /// Two disjoint diamonds plus one extra pair inside the first.
    fn two_diamonds() -> QdnNetwork {
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

    fn owned_candidates(net: &QdnNetwork, pairs: &[SdPair]) -> Vec<(SdPair, Vec<Path>)> {
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        pairs
            .iter()
            .map(|&p| (p, cr.routes(net, p).to_vec()))
            .collect()
    }

    fn to_cands(owned: &[(SdPair, Vec<Path>)]) -> Vec<Candidates<'_>> {
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
        // routes stay one group and the partition never churns.
        eval.evaluate_objective(&[0, 0]);
        assert_eq!(eval.stats().dynamic_components, 1);
        assert_eq!(eval.stats().component_splits, 0);
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
        let cases = [
            // κ = 0: the λ = 0 argmax is the upper bound, not x*.
            (PerSlotContext::oscar(&net, &snap, 800.0, 0.0), rr),
            (myopic, rr),
            (myopic, AllocationMethod::Greedy),
            (budgeted, rr),
            // No dual iteration: the solver returns the all-ones point.
            (priced, no_iterations),
            (priced, AllocationMethod::Greedy),
        ];
        for (ctx, method) in cases {
            let stats = assert_matches_rebuild(&ctx, &cands, &method);
            assert!(stats.components_solved > 0);
            assert_eq!(stats.closed_form, 0, "{method:?} {:?}", ctx.slot_budget);
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
        assert_eq!(eval.stats().pairs_resolved_last_move, 0);
        // Moving only pair 1 must not re-solve pair 0's component.
        eval.evaluate_objective(&[0, 1]);
        assert_eq!(eval.stats().components_solved, solved_once + 1);
        assert_eq!(eval.stats().pairs_resolved_last_move, 1);
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
        assert_eq!(eval.stats().dynamic_components, 1, "unrefined gauge");

        // First evaluation: C rides corridor A → groups {A,C} and {B}.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        let s = eval.stats();
        assert_eq!(s.dynamic_components, 2);
        assert_eq!((s.component_merges, s.component_splits), (0, 0));
        assert_eq!(s.components_solved, 2);
        assert_eq!(s.pairs_resolved_last_move, 3);

        // Re-evaluation: level-1 hit; gauges reset, counters untouched.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        let s = eval.stats();
        assert_eq!(s.pairs_resolved_last_move, 0);
        assert_eq!(s.components_solved, 2);
        assert_eq!(s.memo_hits, 1);

        // Move C to corridor B: {A,C},{B} → {A},{B,C} — one split (C
        // leaves A's group), one merge (C joins B's), and every group
        // key is new, so all three pairs re-solve.
        eval.evaluate_objective(&[0, 0, via_b]).unwrap();
        let s = eval.stats();
        assert_eq!(s.dynamic_components, 2);
        assert_eq!((s.component_merges, s.component_splits), (1, 1));
        assert_eq!(s.components_solved, 4);
        assert_eq!(s.pairs_resolved_last_move, 3);

        // Move back: the tuple was seen → level-1 hit, no partition
        // churn, nothing re-solved.
        eval.evaluate_objective(&[0, 0, via_a]).unwrap();
        let s = eval.stats();
        assert_eq!((s.component_merges, s.component_splits), (1, 1));
        assert_eq!(s.components_solved, 4);
        assert_eq!(s.pairs_resolved_last_move, 0);

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

    /// The bound a screen hands to its rejection test errs upward: it is
    /// never below `upper − drop`, whatever order the evaluator summed
    /// the terms in.
    #[test]
    fn screen_bound_errs_upward() {
        let seen = std::sync::Mutex::new(Vec::new());
        let record = |bound: f64| {
            seen.lock().unwrap().push(bound);
            false
        };
        for (upper, drop) in [(0.0, 0.0), (-1.0, 0.5), (-5e3, 120.0), (-7.25e4, 0.0)] {
            let screen = Screen {
                upper,
                reject: &record,
            };
            assert!(!screen.rejects(drop));
            let bound = seen.lock().unwrap().pop().unwrap();
            let raw = upper - drop;
            assert!(
                bound - raw >= 0.5e-9 * (1.0 + raw.abs()),
                "{bound} vs {raw}"
            );
        }
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
    fn stale_route_seed_relocates_or_forgets() {
        // Satellite regression: a carried-over profile must be matched
        // by route identity, not index, once a churn recompute reshuffles or
        // removes candidates.
        let net = two_diamonds();
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let owned = owned_candidates(&net, &[pair]);
        let cands = to_cands(&owned);
        assert!(cands[0].routes.len() >= 2);

        let mut session = SelectorSession::new();
        session.record_selection(&cands, &[1]);
        assert_eq!(session.previous_route(pair), Some(1));

        // Unchanged candidates: the remembered index is used verbatim.
        assert_eq!(session.seed_indices(&cands), Some(vec![1]));

        // Reordered candidates: the remembered route is relocated by
        // its edge list, not trusted at its stored index.
        let mut reordered = owned[0].1.clone();
        reordered.reverse();
        let selected = owned[0].1[1].clone();
        let where_now = reordered.iter().position(|r| *r == selected).unwrap();
        let re_cands = [Candidates {
            pair,
            routes: &reordered,
        }];
        assert_eq!(session.seed_indices(&re_cands), Some(vec![where_now]));

        // The remembered route dropped entirely (churn removed it): the
        // pair is no longer remembered, and with zero remembered pairs
        // there is no warm seed at all — never an aliased index.
        let without: Vec<Path> = owned[0]
            .1
            .iter()
            .filter(|r| **r != selected)
            .cloned()
            .collect();
        let gone_cands = [Candidates {
            pair,
            routes: &without,
        }];
        assert_eq!(session.seed_indices(&gone_cands), None);
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

    /// A version-3 snapshot (which carried the shared context and the
    /// parked region memos) decodes — the extra keys are ignored — and
    /// is refused by the version check, never half-installed.
    #[test]
    fn restore_refuses_v3_snapshot() {
        let v3 = r#"{"version":3,
            "shared":{"v_bits":4649966476091686912,"price_bits":4607182418800017408,
                "budget":null,"method":"Greedy","options":{"warm_profile_seed":false},
                "nodes":8,"edges":8},
            "regions":[{"key":[{"source":0,"destination":3}],"epoch":7,"last_used":3,
                "pairs":[{"source":0,"destination":3}],
                "routes_hash":1,"qubits":[[0,10]],"channels":[[0,5]],
                "memo":[{"key":[0],"epoch":7,"alloc":[2,2]}],"dyn_memo":[]}],
            "prev_selected":[]}"#;
        let decoded: SessionSnapshot = serde_json::from_str(v3).unwrap();
        assert_eq!(decoded.version, 3);
        let err = SelectorSession::restore(&decoded).unwrap_err();
        assert_eq!(err, "session snapshot version 3 (expected 4)");

        // The current layout is exactly the version and the previous
        // profile, and round-trips.
        let net = two_diamonds();
        let owned = owned_candidates(&net, &[SdPair::new(NodeId(0), NodeId(3)).unwrap()]);
        let mut session = SelectorSession::new();
        session.record_selection(&to_cands(&owned), &[1]);
        let snap = session.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(
            json.starts_with(r#"{"version":4,"prev_selected":[{"#),
            "{json}"
        );
        let restored = SelectorSession::restore(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }
}
