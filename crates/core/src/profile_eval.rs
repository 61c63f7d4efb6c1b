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
//! * **Dual warm starts** (opt-in) — when the allocation method is
//!   `RelaxAndRound` with [`RelaxedOptions::warm_start`] set, each
//!   static component keeps the dual prices λ of its most recent fresh
//!   solves, dense over constraint identity (node / edge / budget). A
//!   fresh route tuple re-solves starting from the neighboring profile's
//!   prices; [`qdn_solve::solve_relaxed_warm`] falls back to the cold
//!   λ = 0 iteration — capped warm budget, incumbents carried over —
//!   whenever the warm run does not converge, so warm results satisfy
//!   the same feasibility and duality-gap guarantees as cold ones (they
//!   may differ from the cold answer *within* the solver tolerance,
//!   which is why the flag is off by default).
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
//! **Dynamic refinement** ([`PartitionMode::Dynamic`], the default).
//! Within each static component, the *currently selected* routes of a
//! profile usually touch far fewer shared nodes than the candidate
//! union: at paper scale (20-node Waxman, 10 pairs) the static closure
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
//! # The two memo levels and λ re-keying
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
//! The λ warm-start store needs no per-group key at all: it is dense
//! over *constraint identity* (node / edge / budget — see
//! [`RouteAssembler`]), which already sub-keys any dynamic group of the
//! component. Group solves gather their warm seed through their own
//! constraint keys and absorb their final prices back into the same
//! store, so merges and splits re-key the λ data implicitly and for
//! free.
//!
//! # Bit-identical results
//!
//! With warm starts disabled (the default), the evaluator returns
//! *exactly* the objective and allocations of the full-rebuild path —
//! under **either** partition mode — bit for bit. Three invariants make
//! this hold:
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
//!    would associate the additions differently).
//!
//! The property tests `incremental_matches_full_rebuild` and
//! `dynamic_matches_static_partition` in `crates/core/tests/proptests.rs`
//! enforce these equivalences on random topologies, profiles, and move
//! sequences for every allocation method; the warm-start path is
//! covered by `warm_start_agrees_within_tolerance`.
//!
//! # Persistent selection sessions
//!
//! A [`ProfileEvaluator`] lives for one slot; a [`SelectorSession`]
//! lives for a run. OSCAR is an online controller whose consecutive
//! slots pose *almost* the same problem — overlapping request sets,
//! smoothly drifting prices `q_t`, similar capacities — so each policy
//! owns one session and threads it through
//! [`crate::route_selection::RouteSelector::select_in`]; the evaluator
//! is then built with [`ProfileEvaluator::new_in`] and handed back with
//! [`ProfileEvaluator::retire`]. What carries over, and under which
//! invalidation rule, is specified on [`SelectorSession`] ("Lifetime
//! and invalidation invariants"); the short version:
//!
//! * **buffers always** (arena, husks, dense scratch, memo-map
//!   capacity) — pure allocation reuse, no semantic state;
//! * **memo entries only under an identical region fingerprint** —
//!   each static region's entries are epoch-stamped, and exactly the
//!   regions whose own sub-context (or the shared price/method context)
//!   changed get their epoch bumped — a link failure flushes the region
//!   it hits, not the whole network — so reuse is exactly as legal as
//!   re-running the same sub-problem;
//! * **λ seeds across any context drift** (opt-in via
//!   `RelaxedOptions::warm_start`) — seeds are advisory and every warm
//!   solve still certifies the cold path's guarantees;
//! * **the previous selected profile** (opt-in via
//!   [`EvalOptions::warm_profile_seed`]) — seeds the next slot's chain
//!   start, changing the search trajectory but never a profile's value.
//!
//! With both opt-ins off, a session-built evaluator is bit-identical to
//! a fresh one every slot (`session_matches_fresh_per_slot` proptest).
//!
//! # Parallelism
//!
//! Unsolved work items of one evaluation — dynamic groups, or whole
//! components where the partition does not refine — are solved as tasks
//! on the shared work-stealing pool ([`threadpool::current`]; a width-1
//! pool runs them inline). Results are gathered in item order and
//! inserted into the memos after the join, so the outcome is
//! bit-identical at every pool width; when an item reports
//! infeasibility the remaining tasks stop early (matching the memo
//! loop's short-circuit). Multi-chain Gibbs restarts use the same pool —
//! see [`crate::route_selection::gibbs::sample_restarts`].

use std::collections::HashMap;

use qdn_graph::{EdgeId, NodeId, Path};
use qdn_net::SdPair;
use qdn_physics::swap::SwapModel;
use qdn_solve::assemble::scatter_segments;
use qdn_solve::relaxed::RelaxedOptions;
use qdn_solve::rounding::round_down_and_fill;
use qdn_solve::{ln_success, solve_relaxed_warm, AllocationInstance, RouteAssembler};
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::problem::{assemble_instance, PerSlotContext, ProfileEvaluation};
use crate::route_selection::Candidates;

/// Which coupling partition drives memoization and sub-instance solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionMode {
    /// The candidate-union closure only: one sub-instance per static
    /// component (the pre-PR-4 engine). Kept as the reference
    /// implementation and for workloads whose selected routes almost
    /// always coincide with the candidate closure.
    Static,
    /// Refine each static component by the *currently selected* routes
    /// (the default): single-pair moves re-solve only the dynamic
    /// groups the move actually touches. Bit-identical to `Static`.
    Dynamic,
}

/// Selector-facing evaluator options, carried by every route-selection
/// config that drives a [`ProfileEvaluator`].
///
/// **Loud compat breaks:** `partition` (PR 4) and `warm_profile_seed`
/// (PR 5) are required fields — old JSON configs fail with an explicit
/// missing-field error. See MIGRATION.md for the one-line edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// The coupling partition to evaluate under. Results are
    /// bit-identical either way; the mode only changes how much work a
    /// fresh (non-memoized) evaluation performs.
    pub partition: PartitionMode,
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
    /// The static-envelope-only engine (pre-PR-4 behavior).
    pub fn static_partition() -> Self {
        EvalOptions {
            partition: PartitionMode::Static,
            warm_profile_seed: false,
        }
    }

    /// The default options with cross-slot profile seeding enabled.
    pub fn warm_seeded() -> Self {
        EvalOptions {
            warm_profile_seed: true,
            ..EvalOptions::default()
        }
    }
}

impl Default for EvalOptions {
    /// Dynamic partitioning, no cross-slot profile seeding — the
    /// fresh-per-slot-identical configuration.
    fn default() -> Self {
        EvalOptions {
            partition: PartitionMode::Dynamic,
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

/// Scratch for the dynamic sub-partition refresh (main thread only).
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
    /// Constraint keys of the instance being built (warm-start path).
    con_keys: Vec<u32>,
    /// Warm λ gathered from a component's store (warm-start path).
    warm: Vec<f64>,
    /// Dynamic sub-partition scratch.
    part: PartitionScratch,
    /// Per-member variable offsets within one component (gather pass).
    pos_off: Vec<usize>,
    /// `(offset, len)` spans of one dynamic group (gather pass).
    spans: Vec<(usize, usize)>,
    /// Assembled component allocation (gather pass).
    gathered: Vec<u32>,
}

impl Scratch {
    fn sized(nodes: usize, edges: usize, components: usize) -> Self {
        Scratch {
            asm: RouteAssembler::sized(nodes, edges),
            joint_key: Vec::new(),
            cursors: vec![0; components],
            con_keys: Vec::new(),
            warm: Vec::new(),
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

/// A route-index-keyed memo: key → epoch-stamped flat allocation
/// (`None` = that combination is infeasible). Level 1 keys by a static
/// component's route tuple; level 2 by a dynamic group's
/// `(position, route)` pairs. Entries whose epoch is not the
/// evaluator's current one are invisible (stale from an earlier slot
/// context) and get overwritten in place on the next solve.
type Memo = HashMap<Box<[u32]>, MemoEntry>;

/// One memoized allocation, stamped with the slot-context epoch it was
/// solved under.
#[derive(Debug, Clone)]
struct MemoEntry {
    epoch: u64,
    alloc: Option<Box<[u32]>>,
}

/// Session-level exact-tuple λ store: member identity (interleaved
/// `(source, destination, route index)` per member, ascending by member)
/// → the final dual prices of that sub-instance's most recent solve, in
/// the instance's deterministic constraint order.
type LambdaMemo = HashMap<Box<[u32]>, Box<[f64]>>;

/// The run-wide share of one slot's evaluation context: everything not
/// attributable to a single static region. The objective weights and
/// the solver enter *every* sub-instance, so any change here makes every
/// region's memos unreusable — a mismatch flushes all regions at once.
#[derive(Debug, Clone, PartialEq)]
struct SharedFingerprint {
    v_bits: u64,
    price_bits: u64,
    budget: Option<u64>,
    method: AllocationMethod,
    options: EvalOptions,
    nodes: usize,
    edges: usize,
}

impl SharedFingerprint {
    fn of(ctx: &PerSlotContext<'_>, method: &AllocationMethod, options: EvalOptions) -> Self {
        SharedFingerprint {
            v_bits: ctx.v_weight.to_bits(),
            price_bits: ctx.unit_price.to_bits(),
            budget: ctx.slot_budget,
            method: *method,
            options,
            nodes: ctx.network.node_count(),
            edges: ctx.network.edge_count(),
        }
    }
}

/// Identity of one static region's evaluation sub-context. When the
/// shared fingerprints of two slots match and a region's fingerprints
/// match, the region poses the *same* mathematical sub-problem in both —
/// same members in the same positional order, same candidate routes,
/// same capacities on every node and edge those candidates touch — so
/// its memo entries are interchangeable between the slots. Capacities
/// are recorded only for *touched* resources: a region's sub-instances
/// restrict to the constraints its candidate routes reach, so a link
/// failure (or occupancy change) elsewhere in the network cannot change
/// any of its solves and rightly does not flush it.
#[derive(Debug, Clone, PartialEq)]
struct RegionFingerprint {
    /// The region's pairs in candidate (positional) order — memo keys
    /// are positional route tuples, so order and multiplicity matter.
    pairs: Vec<SdPair>,
    /// FNV-1a over every member's candidate route structure (route
    /// counts, hop counts, edge ids), so a changed candidate *list* for
    /// an unchanged pair — a repaired route, a different fidelity
    /// filter — still invalidates.
    routes_hash: u64,
    /// `(node id, capacity)` for every node some candidate touches,
    /// ascending by node id.
    qubits: Vec<(u32, u32)>,
    /// `(edge id, capacity)` for every edge some candidate touches,
    /// ascending by edge id.
    channels: Vec<(u32, u32)>,
}

/// Computes every static component's session identity: its region key
/// (the pair multiset, sorted — static components have disjoint pair
/// multisets, so the key is unique within a slot and stable across
/// slots) and its [`RegionFingerprint`].
fn region_identities(
    ctx: &PerSlotContext<'_>,
    pairs: &[SdPair],
    routes: &[Vec<RouteData>],
    comp_pairs: &[Vec<usize>],
) -> (Vec<Box<[SdPair]>>, Vec<RegionFingerprint>) {
    let mut keys = Vec::with_capacity(comp_pairs.len());
    let mut fps = Vec::with_capacity(comp_pairs.len());
    for members in comp_pairs {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let mut nodes: Vec<u32> = Vec::new();
        let mut edges: Vec<u32> = Vec::new();
        for &i in members {
            mix(routes[i].len() as u64);
            for route in &routes[i] {
                mix(route.hops as u64);
                for ev in &route.edges {
                    mix(ev.edge.index() as u64 + 1);
                    edges.push(ev.edge.index() as u32);
                    nodes.push(ev.u.index() as u32);
                    nodes.push(ev.v.index() as u32);
                }
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        edges.sort_unstable();
        edges.dedup();
        let region_pairs: Vec<SdPair> = members.iter().map(|&i| pairs[i]).collect();
        let mut key = region_pairs.clone();
        key.sort_unstable();
        keys.push(key.into_boxed_slice());
        fps.push(RegionFingerprint {
            pairs: region_pairs,
            routes_hash: h,
            qubits: nodes
                .iter()
                .map(|&v| (v, ctx.snapshot.qubits(NodeId(v))))
                .collect(),
            channels: edges
                .iter()
                .map(|&e| (e, ctx.snapshot.channels(EdgeId(e))))
                .collect(),
        });
    }
    (keys, fps)
}

/// The heap state a [`SelectorSession`] lends to one slot's
/// [`ProfileEvaluator`] and takes back on
/// [`ProfileEvaluator::retire`]. Memos and epochs are per static
/// region, aligned with the evaluator's component ids.
#[derive(Debug)]
struct SessionParts {
    epochs: Vec<u64>,
    scratch: Option<Scratch>,
    memos: Vec<Memo>,
    dyn_memos: Vec<Memo>,
    lambda_exact: LambdaMemo,
    lambda_dense: Vec<f64>,
    lambda_dense_valid: bool,
    report: InvalidationReport,
}

impl SessionParts {
    /// Parts for a stand-alone (sessionless) evaluator: everything
    /// empty, every epoch 1 so no entry can pre-date it.
    fn fresh(components: usize) -> Self {
        SessionParts {
            epochs: vec![1; components],
            scratch: None,
            memos: Vec::new(),
            dyn_memos: Vec::new(),
            lambda_exact: LambdaMemo::new(),
            lambda_dense: Vec::new(),
            lambda_dense_valid: false,
            report: InvalidationReport {
                regions: components as u32,
                regions_fresh: components as u32,
                ..InvalidationReport::default()
            },
        }
    }
}

/// One static region's slot-spanning memo state, parked in the session
/// between the slots that use it.
#[derive(Debug)]
struct RegionState {
    /// The region's private memo epoch; entries stamped differently are
    /// stale. Bumped (from the session-wide counter) exactly when the
    /// region's own fingerprint — or the shared context — changes.
    epoch: u64,
    fingerprint: RegionFingerprint,
    memo: Memo,
    dyn_memo: Memo,
    /// The session lend count when this region last appeared in a slot
    /// (TTL pruning).
    last_used: u64,
}

/// How one slot's regions fared against the session's parked state —
/// the invalidation ledger behind the churn-recovery metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationReport {
    /// Static regions in the slot.
    pub regions: u32,
    /// Regions whose parked memos were flushed (fingerprint or shared
    /// context changed — under global invalidation, any change anywhere).
    pub regions_flushed: u32,
    /// Regions with no parked state (first sighting, or TTL-pruned).
    pub regions_fresh: u32,
    /// Memo entries (both levels) carried in live across the slot
    /// boundary.
    pub memo_entries_retained: u64,
    /// Memo entries invalidated by the flushes above.
    pub memo_entries_flushed: u64,
    /// Exact-tuple λ seeds currently stored (λ survives any churn).
    pub lambda_entries: u64,
}

impl InvalidationReport {
    /// Whether every region carried its memos across the slot boundary.
    pub fn fully_retained(&self) -> bool {
        self.regions_flushed == 0 && self.regions_fresh == 0
    }
}

/// Per-component memo maps whose stale population exceeds this are
/// cleared (keeping capacity) instead of carried further — the bound
/// that keeps a long-lived session's memory proportional to one slot's
/// working set rather than to the whole run.
const MEMO_PRUNE_LEN: usize = 8192;

/// The exact-tuple λ store is cleared once it exceeds this many
/// entries: unlike the memos it is *never* invalidated by context
/// drift, so an unboundedly long run over a rich pair universe would
/// otherwise grow it without limit. Losing it only costs warm-start
/// quality on the next revisit of each tuple.
const LAMBDA_PRUNE_LEN: usize = 65_536;

/// Parked regions unused for this many lends are dropped: a region that
/// has not appeared for a while (its pairs left the request mix, or a
/// topology change re-cut the partition) is unlikely to return with an
/// identical fingerprint, and its memos are pure memory until it does.
const REGION_TTL: u64 = 16;

/// Hard cap on parked regions, guarding a workload that cycles through
/// many distinct partitions faster than the TTL can retire them.
const REGION_CAP: usize = 512;

/// Persistent route-selection state spanning slots — the slot-lifetime
/// counterpart of the per-slot [`ProfileEvaluator`].
///
/// A session is owned by a policy (or any other driver that makes one
/// selection per slot) for the lifetime of a run and threaded through
/// [`crate::route_selection::RouteSelector::select_in`]. It carries:
///
/// * the recycled [`RouteAssembler`] arena, instance husks, and every
///   dense scratch buffer (epoch-stamped node maps, union-find, CSR
///   staging) — steady-state slots allocate no evaluator storage;
/// * the two memo levels, epoch-stamped: entries stay live exactly as
///   long as the slot fingerprint (prices, capacities, pairs, candidate
///   routes, method, options) is unchanged, and one integer bump
///   invalidates all of them when it is not;
/// * the λ warm-start stores (active only when the allocation method is
///   `RelaxAndRound` with `warm_start`): a dense per-constraint-identity
///   vector — valid across slots because constraint identity is
///   topological (node / edge / budget) and the optimal duals drift
///   smoothly with the price `q_t` — plus an exact-tuple memo keyed by
///   member `(pair, route)` identity, which re-seeds a re-visited
///   sub-instance with its *own* most recent prices;
/// * the previous slot's selected route per [`SdPair`], which seeds the
///   next slot's Gibbs chain / greedy start for pairs present in
///   consecutive slots when [`EvalOptions::warm_profile_seed`] is set.
///
/// # Lifetime and invalidation invariants
///
/// * A session assumes one fixed topology between [`SelectorSession::reset`]
///   calls: candidate route indices and constraint identities are only
///   comparable across slots on the same network. Policies reset their
///   session whenever [`crate::policy::RoutingPolicy::reset`] runs, so
///   fresh trials share nothing. (Candidate *repair* under link churn is
///   fine — a region whose candidates changed flushes itself via its
///   fingerprint; only node/edge *renumbering* requires a reset.)
/// * Memo entries are **region-scoped**: each static region parks its
///   memos under its own fingerprint and epoch, and is flushed exactly
///   when its *own* sub-context changes — its members, their candidate
///   routes, or a capacity on a node/edge those candidates touch — or
///   when the shared context (price, `V`, budget, method, options)
///   drifts. A link failure in one region leaves every other region's
///   memos live: no cold restart for the unaffected parts of the
///   network. [`SelectorSession::set_global_invalidation`] restores the
///   old flush-everything rule for ablation.
/// * λ entries are never invalidated by context drift — a dual seed is
///   advisory, and every warm solve still certifies the same
///   feasibility and duality-gap guarantees as a cold one (capped warm
///   budget, cold fallback) — they are only cleared by `reset`.
/// * The remembered previous-slot profile is validated by route
///   *identity* (edge list), not by index: a repair that reshuffles a
///   pair's candidate list relocates the remembered route, and a route
///   that no longer exists is simply forgotten — a stale index can
///   never leak into a seed.
/// * With `warm_profile_seed` off and `warm_start` off, a session-built
///   evaluator is **bit-identical** to a fresh
///   [`ProfileEvaluator::new`] per slot (enforced by the
///   `session_matches_fresh_per_slot` and `churn_matches_cold_rebuild`
///   proptests).
#[derive(Debug, Default)]
pub struct SelectorSession {
    /// Monotone epoch source: flushed or fresh regions draw their next
    /// epoch from here, so no retired map's stale entries can ever
    /// resurrect under a recycled epoch.
    epoch_counter: u64,
    shared: Option<SharedFingerprint>,
    /// Parked per-region memo state, keyed by the region's sorted pair
    /// multiset.
    regions: HashMap<Box<[SdPair]>, RegionState>,
    scratch: Option<Scratch>,
    lambda_exact: LambdaMemo,
    lambda_dense: Vec<f64>,
    lambda_dense_valid: bool,
    /// Previous slot's selected route per pair, by identity.
    prev_selected: HashMap<SdPair, PrevRoute>,
    /// Lend counter (drives region TTL pruning).
    lends: u64,
    /// Ablation switch: `true` re-enables the pre-region behavior where
    /// *any* context change flushes *every* region.
    global_invalidation: bool,
    last_invalidation: InvalidationReport,
}

/// A remembered previous-slot selection: the route's index in last
/// slot's candidate list plus its identity (edge sequence), so the next
/// slot can detect that churn repair removed or relocated the route.
#[derive(Debug, Clone)]
struct PrevRoute {
    index: u32,
    edges: Box<[EdgeId]>,
}

impl PrevRoute {
    /// Finds this route in `routes`: the stored index when it still
    /// holds the identical route (the steady-state fast path), else a
    /// linear scan by edge-list identity, else `None` (the route was
    /// dropped by candidate repair).
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

    /// Clears all cross-slot state for a fresh trial: parked region
    /// memos, λ stores, and the previous selected profile. Recycled
    /// buffer capacity is kept — it carries no semantic state.
    pub fn reset(&mut self) {
        self.shared = None;
        self.regions.clear();
        self.lambda_exact.clear();
        self.lambda_dense.iter_mut().for_each(|l| *l = 0.0);
        self.lambda_dense_valid = false;
        self.prev_selected.clear();
        self.last_invalidation = InvalidationReport::default();
        // `epoch_counter` and `lends` keep counting: epochs stay
        // monotone for the life of the session.
    }

    /// Switches between region-scoped invalidation (default, `false`)
    /// and the global flush-everything rule (`true`): under global
    /// invalidation any fingerprint change — shared or in any region —
    /// flushes every region's memos, reproducing the pre-region
    /// behavior for ablation and benchmarking.
    pub fn set_global_invalidation(&mut self, on: bool) {
        self.global_invalidation = on;
    }

    /// Whether the global flush-everything ablation rule is active.
    pub fn global_invalidation(&self) -> bool {
        self.global_invalidation
    }

    /// The invalidation ledger of the most recent slot (what the last
    /// [`ProfileEvaluator::new_in`] retained vs flushed).
    pub fn last_invalidation(&self) -> InvalidationReport {
        self.last_invalidation
    }

    /// Number of regions currently parked in the session.
    pub fn region_count(&self) -> usize {
        self.regions.len()
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

    /// Number of exact-tuple λ seeds currently stored.
    pub fn lambda_entries(&self) -> usize {
        self.lambda_exact.len()
    }

    /// The warm starting profile for `candidates`, or `None` unless a
    /// strict *majority* (more than half) of the candidate pairs carry
    /// a remembered previous-slot route — a seed dominated by fallback
    /// entries is not a warm start, and selectors shrink their search
    /// budget on seeded slots (see `GibbsConfig::warm_iterations`), so
    /// low-coverage slots must run the full cold search instead.
    /// Remembered pairs start on last slot's route, located by edge-list
    /// identity (so a candidate list reshuffled by churn repair still
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

    fn next_epoch(&mut self) -> u64 {
        self.epoch_counter += 1;
        self.epoch_counter
    }

    /// Lends the recycled buffers out for one slot: pulls each region's
    /// parked memos out by key, flushes (epoch-bumps) exactly the
    /// regions whose fingerprint — or the shared context — changed, and
    /// TTL-prunes parked regions that have not appeared recently.
    fn lend(
        &mut self,
        shared: SharedFingerprint,
        keys: &[Box<[SdPair]>],
        fps: &[RegionFingerprint],
    ) -> SessionParts {
        self.lends += 1;
        let shared_mismatch = self.shared.as_ref() != Some(&shared);
        self.shared = Some(shared);
        if self.lambda_exact.len() > LAMBDA_PRUNE_LEN {
            self.lambda_exact.clear();
        }

        let n = keys.len();
        let mut states: Vec<Option<RegionState>> =
            keys.iter().map(|k| self.regions.remove(k)).collect();
        let mut flush = vec![shared_mismatch; n];
        let mut any_changed = shared_mismatch;
        for (i, st) in states.iter().enumerate() {
            match st {
                Some(s) if s.fingerprint == fps[i] => {}
                Some(_) => {
                    flush[i] = true;
                    any_changed = true;
                }
                None => any_changed = true,
            }
        }
        if self.global_invalidation && any_changed {
            flush.iter_mut().for_each(|f| *f = true);
        }

        let mut report = InvalidationReport {
            regions: n as u32,
            lambda_entries: self.lambda_exact.len() as u64,
            ..InvalidationReport::default()
        };
        let mut epochs = Vec::with_capacity(n);
        let mut memos = Vec::with_capacity(n);
        let mut dyn_memos = Vec::with_capacity(n);
        for (i, st) in states.iter_mut().enumerate() {
            match st.take() {
                Some(mut s) => {
                    let entries = (s.memo.len() + s.dyn_memo.len()) as u64;
                    if flush[i] {
                        s.epoch = self.next_epoch();
                        report.regions_flushed += 1;
                        report.memo_entries_flushed += entries;
                    } else {
                        report.memo_entries_retained += entries;
                    }
                    epochs.push(s.epoch);
                    memos.push(s.memo);
                    dyn_memos.push(s.dyn_memo);
                }
                None => {
                    report.regions_fresh += 1;
                    epochs.push(self.next_epoch());
                    memos.push(Memo::new());
                    dyn_memos.push(Memo::new());
                }
            }
        }

        let lends = self.lends;
        self.regions
            // qdn-lint: allow(unordered-iter, reason="TTL prune; the predicate is a pure per-entry function, so visit order cannot affect which entries survive")
            .retain(|_, s| lends.saturating_sub(s.last_used) <= REGION_TTL);
        if self.regions.len() > REGION_CAP {
            self.regions.clear();
        }
        self.last_invalidation = report;
        SessionParts {
            epochs,
            scratch: self.scratch.take(),
            memos,
            dyn_memos,
            lambda_exact: std::mem::take(&mut self.lambda_exact),
            lambda_dense: std::mem::take(&mut self.lambda_dense),
            lambda_dense_valid: self.lambda_dense_valid,
            report,
        }
    }

    /// Serializes every piece of cross-slot state into a
    /// [`SessionSnapshot`] with canonical (sorted) entry order, so equal
    /// sessions produce byte-identical snapshots regardless of hash-map
    /// iteration order.
    ///
    /// The snapshot is *complete*: region memos (both levels, with their
    /// epochs), the λ stores, the previous selected profile, the shared
    /// fingerprint, and the epoch/lend counters all round-trip. Anything
    /// less — say, only the λ stores — would let a restored session
    /// diverge from the uninterrupted run on the first memo hit the
    /// original would have had. The recycled scratch arena is *not*
    /// captured (it carries no semantic state and is rebuilt lazily).
    pub fn snapshot(&self) -> SessionSnapshot {
        fn memo_entries(memo: &Memo) -> Vec<MemoEntrySnapshot> {
            let mut out: Vec<MemoEntrySnapshot> = memo
                // qdn-lint: allow(unordered-iter, reason="snapshot building; entries are sorted by key immediately after collection")
                .iter()
                .map(|(k, e)| MemoEntrySnapshot {
                    key: k.to_vec(),
                    epoch: e.epoch,
                    alloc: e.alloc.as_ref().map(|a| a.to_vec()),
                })
                .collect();
            out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
            out
        }
        let mut regions: Vec<RegionSnapshot> = self
            .regions
            // qdn-lint: allow(unordered-iter, reason="snapshot building; regions are sorted by key immediately after collection")
            .iter()
            .map(|(key, st)| RegionSnapshot {
                key: key.to_vec(),
                epoch: st.epoch,
                last_used: st.last_used,
                pairs: st.fingerprint.pairs.clone(),
                routes_hash: st.fingerprint.routes_hash,
                qubits: st.fingerprint.qubits.clone(),
                channels: st.fingerprint.channels.clone(),
                memo: memo_entries(&st.memo),
                dyn_memo: memo_entries(&st.dyn_memo),
            })
            .collect();
        regions.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let mut lambda_exact: Vec<LambdaEntrySnapshot> = self
            .lambda_exact
            // qdn-lint: allow(unordered-iter, reason="snapshot building; entries are sorted by key immediately after collection")
            .iter()
            .map(|(k, l)| LambdaEntrySnapshot {
                key: k.to_vec(),
                lambda: l.to_vec(),
            })
            .collect();
        lambda_exact.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let mut prev_selected: Vec<PrevSelectedSnapshot> = self
            .prev_selected
            // qdn-lint: allow(unordered-iter, reason="snapshot building; entries are sorted by pair immediately after collection")
            .iter()
            .map(|(&pair, r)| PrevSelectedSnapshot {
                pair,
                index: r.index,
                edges: r.edges.to_vec(),
            })
            .collect();
        prev_selected.sort_unstable_by_key(|p| p.pair);
        SessionSnapshot {
            version: SESSION_SNAPSHOT_VERSION,
            epoch_counter: self.epoch_counter,
            lends: self.lends,
            global_invalidation: self.global_invalidation,
            shared: self.shared.as_ref().map(|s| SharedSnapshot {
                v_bits: s.v_bits,
                price_bits: s.price_bits,
                budget: s.budget,
                method: s.method,
                options: s.options,
                nodes: s.nodes,
                edges: s.edges,
            }),
            regions,
            lambda_exact,
            lambda_dense: self.lambda_dense.clone(),
            lambda_dense_valid: self.lambda_dense_valid,
            prev_selected,
            last_invalidation: self.last_invalidation,
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
        fn memo_map(entries: &[MemoEntrySnapshot]) -> Memo {
            entries
                .iter()
                .map(|e| {
                    (
                        e.key.clone().into_boxed_slice(),
                        MemoEntry {
                            epoch: e.epoch,
                            alloc: e.alloc.as_ref().map(|a| a.clone().into_boxed_slice()),
                        },
                    )
                })
                .collect()
        }
        Ok(SelectorSession {
            epoch_counter: snapshot.epoch_counter,
            shared: snapshot.shared.as_ref().map(|s| SharedFingerprint {
                v_bits: s.v_bits,
                price_bits: s.price_bits,
                budget: s.budget,
                method: s.method,
                options: s.options,
                nodes: s.nodes,
                edges: s.edges,
            }),
            regions: snapshot
                .regions
                .iter()
                .map(|r| {
                    (
                        r.key.clone().into_boxed_slice(),
                        RegionState {
                            epoch: r.epoch,
                            fingerprint: RegionFingerprint {
                                pairs: r.pairs.clone(),
                                routes_hash: r.routes_hash,
                                qubits: r.qubits.clone(),
                                channels: r.channels.clone(),
                            },
                            memo: memo_map(&r.memo),
                            dyn_memo: memo_map(&r.dyn_memo),
                            last_used: r.last_used,
                        },
                    )
                })
                .collect(),
            scratch: None,
            lambda_exact: snapshot
                .lambda_exact
                .iter()
                .map(|e| {
                    (
                        e.key.clone().into_boxed_slice(),
                        e.lambda.clone().into_boxed_slice(),
                    )
                })
                .collect(),
            lambda_dense: snapshot.lambda_dense.clone(),
            lambda_dense_valid: snapshot.lambda_dense_valid,
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
            lends: snapshot.lends,
            global_invalidation: snapshot.global_invalidation,
            last_invalidation: snapshot.last_invalidation,
        })
    }
}

/// Version tag of [`SessionSnapshot`]; bump on layout changes
/// (including those of the embedded [`AllocationMethod`]).
pub const SESSION_SNAPSHOT_VERSION: u32 = 2;

/// Serializable image of a [`SelectorSession`] (see
/// [`SelectorSession::snapshot`]). Entry order is canonical (sorted by
/// key), so equal sessions snapshot byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Layout version ([`SESSION_SNAPSHOT_VERSION`]).
    pub version: u32,
    epoch_counter: u64,
    lends: u64,
    global_invalidation: bool,
    shared: Option<SharedSnapshot>,
    regions: Vec<RegionSnapshot>,
    lambda_exact: Vec<LambdaEntrySnapshot>,
    lambda_dense: Vec<f64>,
    lambda_dense_valid: bool,
    prev_selected: Vec<PrevSelectedSnapshot>,
    last_invalidation: InvalidationReport,
}

/// Mirror of the private [`SharedFingerprint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SharedSnapshot {
    v_bits: u64,
    price_bits: u64,
    budget: Option<u64>,
    method: AllocationMethod,
    options: EvalOptions,
    nodes: usize,
    edges: usize,
}

/// One parked region: its key, fingerprint, and both memo levels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegionSnapshot {
    /// The region key (sorted pair multiset).
    key: Vec<SdPair>,
    epoch: u64,
    last_used: u64,
    /// Fingerprint: pairs in candidate (positional) order.
    pairs: Vec<SdPair>,
    routes_hash: u64,
    qubits: Vec<(u32, u32)>,
    channels: Vec<(u32, u32)>,
    memo: Vec<MemoEntrySnapshot>,
    dyn_memo: Vec<MemoEntrySnapshot>,
}

/// One memoized allocation (route tuple → epoch-stamped result).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MemoEntrySnapshot {
    key: Vec<u32>,
    epoch: u64,
    alloc: Option<Vec<u32>>,
}

/// One exact-tuple λ seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LambdaEntrySnapshot {
    key: Vec<u32>,
    lambda: Vec<f64>,
}

/// One remembered previous-slot route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PrevSelectedSnapshot {
    pair: SdPair,
    index: u32,
    edges: Vec<EdgeId>,
}

/// One static component's stored dual prices, dense over constraint keys
/// (node / edge / budget identity — see [`RouteAssembler`]). Constraint
/// identity sub-keys every dynamic group of the component, so group
/// solves share this store without any per-group bookkeeping.
#[derive(Debug, Clone)]
struct ComponentDual {
    lambda: Vec<f64>,
    valid: bool,
}

impl ComponentDual {
    fn absorb(&mut self, keys: &[u32], lambda: &[f64]) {
        debug_assert_eq!(keys.len(), lambda.len());
        for (&key, &l) in keys.iter().zip(lambda) {
            self.lambda[key as usize] = l;
        }
        self.valid = true;
    }
}

/// The outcome of one fresh sub-instance solve (a whole static component
/// or a single dynamic group).
struct ComponentSolve {
    /// The allocation (`None` = infeasible route combination).
    alloc: Option<Box<[u32]>>,
    /// `(constraint keys, final λ)` when a warm-capable solve ran.
    dual: Option<(Vec<u32>, Vec<f64>)>,
    /// Whether the dual iteration was actually seeded from stored λ.
    warm_started: bool,
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
    /// Solves seeded from a stored neighboring-profile λ.
    pub warm_started: u64,
    /// Gauge: dynamic components across the whole profile, as of the
    /// last partition refresh. Static components whose sub-partition has
    /// not been computed yet (including all of them under
    /// [`PartitionMode::Static`]) count as one each.
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
    /// Gauge: static regions whose session memos were flushed when this
    /// evaluator was built (0 for sessionless evaluators).
    pub regions_flushed: u64,
    /// Gauge: static regions with no parked session state at build.
    pub regions_fresh: u64,
    /// Gauge: memo entries carried live across the slot boundary at
    /// build.
    pub memo_entries_retained: u64,
    /// Gauge: memo entries invalidated at build by region flushes.
    pub memo_entries_flushed: u64,
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
    /// Per-component memo epochs this evaluator reads and writes;
    /// session-built evaluators inherit each region's current epoch.
    epochs: Vec<u64>,
    /// Session identity of each static component (region key = sorted
    /// pair multiset, plus the slot's region fingerprint) — what
    /// [`ProfileEvaluator::retire`] parks the memos under.
    region_keys: Vec<Box<[SdPair]>>,
    region_fps: Vec<RegionFingerprint>,
    /// Level-1 memos (per static component, keyed by route tuple).
    memos: Vec<Memo>,
    /// Level-2 memos (per static component, keyed by dynamic sub-key).
    dyn_memos: Vec<Memo>,
    /// Sub-key under construction (kept outside `Scratch` so it can be
    /// borrowed across `solve_component` calls).
    group_key: Vec<u32>,
    /// Pair ids of the dynamic group being solved.
    group_members: Vec<usize>,
    /// Exact-tuple λ key under construction.
    tuple_key: Vec<u32>,
    /// Per-static-component dual warm-start store (empty unless the
    /// method is `RelaxAndRound` with `warm_start` enabled).
    duals: Vec<ComponentDual>,
    /// Session-spanning λ stores (see [`SelectorSession`]): exact-tuple
    /// seeds and the dense per-constraint-identity vector. Written only
    /// when warm starts are enabled; passed back on retire regardless.
    lambda_exact: LambdaMemo,
    lambda_dense: Vec<f64>,
    lambda_dense_valid: bool,
    warm_opts: Option<RelaxedOptions>,
    /// `pair_memo[i][r]`: cached single-pair objective (outer `None` =
    /// not yet computed; inner `None` = infeasible).
    pair_memo: Vec<Vec<Option<Option<f64>>>>,
    stats: EvalStats,
}

impl<'a> ProfileEvaluator<'a> {
    /// Builds the evaluator for one slot: resolves candidate routes
    /// against the network, partitions pairs into static coupling
    /// components, and sizes the scratch buffers. The dynamic
    /// sub-partitions (when `options.partition` is
    /// [`PartitionMode::Dynamic`]) are computed lazily, per component,
    /// on the first evaluation that needs them.
    pub fn new(
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
    ) -> Self {
        Self::build(ctx, candidates, method, options, None)
    }

    /// [`ProfileEvaluator::new`] backed by a [`SelectorSession`]: the
    /// arena, scratch buffers, memo maps, and λ stores are borrowed from
    /// the session instead of freshly allocated. Memos are region-scoped
    /// — each static component pulls its parked memo maps by identity,
    /// and only the regions whose own sub-context (members, candidate
    /// routes, touched capacities) or the shared context changed are
    /// flushed (see the session docs for the invalidation invariants).
    /// Call [`ProfileEvaluator::retire`] when the slot's selection is
    /// done to hand the state back; dropping the evaluator instead
    /// merely forfeits the reuse (the session rebuilds fresh buffers
    /// next slot).
    pub fn new_in(
        session: &mut SelectorSession,
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
    ) -> Self {
        Self::build(ctx, candidates, method, options, Some(session))
    }

    /// Returns the recycled buffers, memos, and λ stores to `session`
    /// for the next slot. Each static component's memos are parked
    /// under its region key with the epoch they were stamped with, so
    /// the next slot that poses the same sub-problem — even after
    /// unrelated churn elsewhere — reads them back verbatim.
    pub fn retire(self, session: &mut SelectorSession) {
        session.scratch = Some(self.scratch);
        session.lambda_exact = self.lambda_exact;
        session.lambda_dense = self.lambda_dense;
        session.lambda_dense_valid = self.lambda_dense_valid;
        let last_used = session.lends;
        for ((((key, fingerprint), epoch), memo), dyn_memo) in self
            .region_keys
            .into_iter()
            .zip(self.region_fps)
            .zip(self.epochs)
            .zip(self.memos)
            .zip(self.dyn_memos)
        {
            session.epoch_counter = session.epoch_counter.max(epoch);
            session.regions.insert(
                key,
                RegionState {
                    epoch,
                    fingerprint,
                    memo,
                    dyn_memo,
                    last_used,
                },
            );
        }
    }

    fn build(
        ctx: &PerSlotContext<'a>,
        candidates: &[Candidates<'_>],
        method: &AllocationMethod,
        options: EvalOptions,
        session: Option<&mut SelectorSession>,
    ) -> Self {
        let k = candidates.len();
        let pairs: Vec<SdPair> = candidates.iter().map(|c| c.pair).collect();
        let routes: Vec<Vec<RouteData>> = candidates
            .iter()
            .map(|c| c.routes.iter().map(|r| resolve_route(ctx, r)).collect())
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

        // The static partition is known, so each component's session
        // identity (region key + fingerprint) can be computed and the
        // matching parked memos pulled from the session region by
        // region.
        let (region_keys, region_fps) = region_identities(ctx, &pairs, &routes, &comp_pairs);
        let parts = match session {
            Some(s) => s.lend(
                SharedFingerprint::of(ctx, method, options),
                &region_keys,
                &region_fps,
            ),
            None => SessionParts::fresh(comp_pairs.len()),
        };

        let q = ctx.network.swap().success();
        let nodes = ctx.network.node_count();
        let edges = ctx.network.edge_count();
        let SessionParts {
            epochs,
            scratch,
            mut memos,
            mut dyn_memos,
            lambda_exact,
            mut lambda_dense,
            mut lambda_dense_valid,
            report,
        } = parts;
        let scratch = Scratch::recycled(scratch, nodes, edges, comp_pairs.len());
        for memo in [&mut memos, &mut dyn_memos] {
            memo.truncate(comp_pairs.len());
            memo.resize_with(comp_pairs.len(), Memo::new);
            for m in memo.iter_mut() {
                if m.len() > MEMO_PRUNE_LEN {
                    m.clear();
                }
            }
        }
        let warm_opts = match method {
            AllocationMethod::RelaxAndRound(o) if o.warm_start => Some(*o),
            _ => None,
        };
        let key_space = nodes + edges + 1;
        if lambda_dense.len() != key_space {
            // First use, or a topology change: the stored identities no
            // longer line up — start the dense store over.
            lambda_dense.clear();
            lambda_dense.resize(key_space, 0.0);
            lambda_dense_valid = false;
        }
        let duals = if warm_opts.is_some() {
            // Each component starts from the session's dense λ (the
            // previous slots' prices over the same topological
            // constraint identities) when one is carried — λ drifts
            // smoothly with `q_t`, so it is a high-quality first seed.
            vec![
                ComponentDual {
                    lambda: lambda_dense.clone(),
                    valid: lambda_dense_valid,
                };
                comp_pairs.len()
            ]
        } else {
            Vec::new()
        };
        let pair_memo = routes.iter().map(|c| vec![None; c.len()]).collect();
        let stats = EvalStats {
            // Unrefined components count as one dynamic group each.
            dynamic_components: comp_pairs.len() as u64,
            regions_flushed: report.regions_flushed as u64,
            regions_fresh: report.regions_fresh as u64,
            memo_entries_retained: report.memo_entries_retained,
            memo_entries_flushed: report.memo_entries_flushed,
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
            dyn_state_valid: vec![false; comp_pairs.len()],
            dyn_group_count: vec![1; comp_pairs.len()],
            comp_pairs,
            comp_key_off,
            ln_q: if q < 1.0 { q.ln() } else { 0.0 },
            lossy_swap: q < 1.0,
            budget: ctx.slot_budget.map(|b| b.min(u32::MAX as u64) as u32),
            scratch,
            epochs,
            region_keys,
            region_fps,
            memos,
            dyn_memos,
            group_key: Vec::new(),
            group_members: Vec::new(),
            tuple_key: Vec::new(),
            duals,
            lambda_exact,
            lambda_dense,
            lambda_dense_valid,
            warm_opts,
            pair_memo,
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

    /// Whether pair `i` is alone in its static component (the
    /// generalization of the Gibbs `parallel_isolated` notion).
    pub fn pair_is_isolated(&self, i: usize) -> bool {
        self.comp_pairs[self.comp_of_pair[i]].len() == 1
    }

    /// Whether fresh `RelaxAndRound` solves are being warm-started from
    /// stored dual prices.
    pub fn warm_start_enabled(&self) -> bool {
        self.warm_opts.is_some()
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
        self.stats.evaluations += 1;
        self.stats.pairs_resolved_last_move = 0;
        if self.pairs.is_empty() {
            return Some(0.0);
        }
        self.ensure_components(indices)?;
        Some(self.accumulate_objective(indices, None))
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
        self.ensure_components(indices)?;
        let mut allocations: Vec<Vec<u32>> = Vec::with_capacity(self.pairs.len());
        let objective = self.accumulate_objective(indices, Some(&mut allocations));
        Some(ProfileEvaluation {
            allocations,
            objective,
        })
    }

    /// Objective of pair `i` served alone with candidate `route_idx`
    /// (memoized). Matches the seed's "local evaluation" used for
    /// isolated pairs in Gibbs: the single-pair profile evaluated under
    /// this slot's context, including any slot budget.
    pub fn evaluate_pair_objective(&mut self, i: usize, route_idx: usize) -> Option<f64> {
        if let Some(cached) = self.pair_memo[i][route_idx] {
            return cached;
        }
        let route = &self.routes[i][route_idx];
        let instance = build_instance_for(
            &mut self.scratch,
            &self.ctx,
            self.budget,
            std::iter::once(route),
            false,
        );
        let objective = instance.ok().and_then(|inst| {
            let flat = self.method.allocate(&inst);
            let result = flat.map(|flat| {
                let swap_term = if self.lossy_swap {
                    route.swaps as f64 * self.ln_q
                } else {
                    0.0
                };
                inst.objective_int(&flat) + self.ctx.v_weight * swap_term
            });
            self.scratch.asm.recycle(inst);
            result
        });
        self.pair_memo[i][route_idx] = Some(objective);
        objective
    }

    /// Whether component `comp` is evaluated through the dynamic
    /// sub-partition. Singleton components have nothing to refine, and
    /// a slot budget couples every pair unconditionally (the same rule
    /// the static partition applies), so budgeted contexts skip the
    /// refresh machinery entirely instead of recomputing a
    /// known-trivial partition on every cold move.
    fn use_dynamic(&self, comp: usize) -> bool {
        self.options.partition == PartitionMode::Dynamic
            && self.budget.is_none()
            && self.comp_pairs[comp].len() > 1
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
    fn ensure_components(&mut self, indices: &[usize]) -> Option<()> {
        debug_assert_eq!(indices.len(), self.pairs.len());
        // Resolve every component's key once, up front.
        self.scratch.joint_key.clear();
        for comp_pairs in &self.comp_pairs {
            self.scratch
                .joint_key
                .extend(comp_pairs.iter().map(|&i| indices[i] as u32));
        }

        // Components the pooled pre-pass solved this call (ascending);
        // they must not count as memo hits below.
        let (fresh, parallel_infeasible) = self.solve_missing_parallel(indices);
        if parallel_infeasible {
            return None;
        }

        for comp in 0..self.comp_pairs.len() {
            let key = &self.scratch.joint_key[self.comp_key_off[comp]..self.comp_key_off[comp + 1]];
            if let Some(entry) = self.memos[comp]
                .get(key)
                .filter(|e| e.epoch == self.epochs[comp])
            {
                if fresh.binary_search(&comp).is_err() {
                    self.stats.memo_hits += 1;
                }
                entry.alloc.as_ref()?;
                continue;
            }
            let feasible = if self.use_dynamic(comp) {
                self.refresh_partition(comp);
                if self.dyn_group_count[comp] > 1 {
                    self.solve_groups(comp, indices)
                } else {
                    self.solve_whole(comp, indices)
                }
            } else {
                self.solve_whole(comp, indices)
            };
            if !feasible {
                return None;
            }
        }
        Some(())
    }

    /// Records a warm-capable solve's outcome in the λ stores: the
    /// component's dense store, the session-spanning dense store, and
    /// the exact-tuple memo under the key currently staged in
    /// `tuple_key` (the caller stages it iff warm starts are enabled,
    /// which is also the only case where `solve.dual` is `Some`).
    fn absorb_lambda(&mut self, comp: usize, solve: &ComponentSolve) {
        if solve.warm_started {
            self.stats.warm_started += 1;
        }
        let Some((keys, lambda)) = &solve.dual else {
            return;
        };
        self.duals[comp].absorb(keys, lambda);
        for (&key, &l) in keys.iter().zip(lambda.iter()) {
            self.lambda_dense[key as usize] = l;
        }
        self.lambda_dense_valid = true;
        self.lambda_exact
            .insert(self.tuple_key.as_slice().into(), lambda.as_slice().into());
    }

    /// Solves static component `comp` as one sub-instance and memoizes
    /// the result at level 1. Returns feasibility.
    fn solve_whole(&mut self, comp: usize, indices: &[usize]) -> bool {
        self.stats.components_solved += 1;
        self.stats.pairs_resolved_last_move += self.comp_pairs[comp].len() as u64;
        let exact = if self.warm_opts.is_some() {
            stage_tuple_key(
                &self.pairs,
                &self.comp_pairs[comp],
                indices,
                &mut self.tuple_key,
            );
            self.lambda_exact
                .get(self.tuple_key.as_slice())
                .map(|l| &l[..])
        } else {
            None
        };
        let warm = self.warm_opts.as_ref().map(|o| (o, &self.duals[comp]));
        let solve = solve_component(
            &mut self.scratch,
            &self.ctx,
            self.budget,
            &self.method,
            &self.routes,
            &self.comp_pairs[comp],
            indices,
            warm,
            exact,
        );
        self.absorb_lambda(comp, &solve);
        let feasible = solve.alloc.is_some();
        let key = self.scratch.joint_key[self.comp_key_off[comp]..self.comp_key_off[comp + 1]]
            .to_vec()
            .into_boxed_slice();
        self.memos[comp].insert(
            key,
            MemoEntry {
                epoch: self.epochs[comp],
                alloc: solve.alloc,
            },
        );
        feasible
    }

    /// Solves the unseen dynamic groups of component `comp` (level-2
    /// memo), then gathers the group allocations into the component's
    /// level-1 entry. Returns feasibility.
    fn solve_groups(&mut self, comp: usize, indices: &[usize]) -> bool {
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
            if let Some(entry) = self.dyn_memos[comp]
                .get(self.group_key.as_slice())
                .filter(|e| e.epoch == self.epochs[comp])
            {
                if entry.alloc.is_none() {
                    feasible = false;
                    break;
                }
                continue;
            }
            self.stats.components_solved += 1;
            self.stats.pairs_resolved_last_move += self.group_members.len() as u64;
            let exact = if self.warm_opts.is_some() {
                stage_tuple_key(
                    &self.pairs,
                    &self.group_members,
                    indices,
                    &mut self.tuple_key,
                );
                self.lambda_exact
                    .get(self.tuple_key.as_slice())
                    .map(|l| &l[..])
            } else {
                None
            };
            let warm = self.warm_opts.as_ref().map(|o| (o, &self.duals[comp]));
            let solve = solve_component(
                &mut self.scratch,
                &self.ctx,
                self.budget,
                &self.method,
                &self.routes,
                &self.group_members,
                indices,
                warm,
                exact,
            );
            self.absorb_lambda(comp, &solve);
            let ok = solve.alloc.is_some();
            self.dyn_memos[comp].insert(
                self.group_key.as_slice().into(),
                MemoEntry {
                    epoch: self.epochs[comp],
                    alloc: solve.alloc,
                },
            );
            if !ok {
                feasible = false;
                break;
            }
        }
        if !feasible {
            let key: Box<[u32]> = self.scratch.joint_key[off..end].into();
            self.memos[comp].insert(
                key,
                MemoEntry {
                    epoch: self.epochs[comp],
                    alloc: None,
                },
            );
            return false;
        }
        self.gather_groups(comp);
        true
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
            let entry = self.dyn_memos[comp]
                .get(self.group_key.as_slice())
                .expect("group memoized by solve_groups");
            debug_assert_eq!(entry.epoch, self.epochs[comp]);
            let alloc = entry
                .alloc
                .as_deref()
                .expect("group feasible by solve_groups");
            scatter_segments(alloc, spans.iter().copied(), gathered);
        }
        let key: Box<[u32]> = joint_key[off..end].into();
        self.memos[comp].insert(
            key,
            MemoEntry {
                epoch: self.epochs[comp],
                alloc: Some(gathered.as_slice().into()),
            },
        );
    }

    /// Pre-solves all missing work items of `indices` — dynamic groups,
    /// or whole components where the partition does not refine — on the
    /// shared work-stealing pool ([`threadpool::current`]), and returns
    /// the component ids it fully memoized at level 1 (ascending) plus
    /// whether any item turned out infeasible. Bit-identical to the
    /// serial path at every pool width: each item's solve is independent
    /// and results are gathered and merged in item order — the same
    /// order the serial loop solves and absorbs them, so λ absorption
    /// sees identical state either way. Each worker thread keeps one
    /// recycled solver scratch across items *and across calls*
    /// (thread-local), so the steady state allocates nothing
    /// network-sized. An infeasibility observed by any task stops the
    /// remaining solves early (ROADMAP item g): skipped items are simply
    /// not memoized, matching the serial path's short-circuit.
    fn solve_missing_parallel(&mut self, indices: &[usize]) -> (Vec<usize>, bool) {
        use std::cell::RefCell;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Sentinel group id for "solve the whole component".
        const WHOLE: u32 = u32::MAX;

        std::thread_local! {
            /// Per-worker (scratch, members) recycled across pool tasks.
            static WORKER_SCRATCH: RefCell<(Option<Scratch>, Vec<usize>)> =
                const { RefCell::new((None, Vec::new())) };
        }

        let mut items: Vec<(usize, u32)> = Vec::new();
        for comp in 0..self.comp_pairs.len() {
            let off = self.comp_key_off[comp];
            let end = self.comp_key_off[comp + 1];
            if self.memos[comp]
                .get(&self.scratch.joint_key[off..end])
                .is_some_and(|e| e.epoch == self.epochs[comp])
            {
                continue;
            }
            if self.use_dynamic(comp) {
                self.refresh_partition(comp);
                if self.dyn_group_count[comp] > 1 {
                    for g in 0..self.dyn_group_count[comp] {
                        self.group_key.clear();
                        for pos in 0..(end - off) {
                            if self.dyn_group_of[off + pos] == g {
                                self.group_key.push(pos as u32);
                                self.group_key.push(self.scratch.joint_key[off + pos]);
                            }
                        }
                        if self.dyn_memos[comp]
                            .get(self.group_key.as_slice())
                            .is_none_or(|e| e.epoch != self.epochs[comp])
                        {
                            items.push((comp, g));
                        }
                    }
                    continue;
                }
            }
            items.push((comp, WHOLE));
        }
        if items.len() < 2 {
            return (Vec::new(), false);
        }
        let ctx = self.ctx;
        let budget = self.budget;
        let method = self.method;
        let warm_opts = self.warm_opts;
        let routes = &self.routes;
        let pairs = &self.pairs;
        let comp_pairs = &self.comp_pairs;
        let comp_key_off = &self.comp_key_off;
        let dyn_group_of = &self.dyn_group_of;
        let duals = &self.duals;
        let lambda_exact = &self.lambda_exact;
        let infeasible = AtomicBool::new(false);
        type ItemSolve = (usize, u32, usize, Vec<u32>, ComponentSolve);
        // One pool task per item, gathered in item order by
        // `map_indexed`; a task that observes the infeasibility flag
        // returns `None` (its item stays unmemoized).
        let results: Vec<Option<ItemSolve>> =
            threadpool::current().map_indexed(items.len(), |item_idx| {
                if infeasible.load(Ordering::Relaxed) {
                    return None;
                }
                let (comp, g) = items[item_idx];
                WORKER_SCRATCH.with(|cell| {
                    let mut state = cell.borrow_mut();
                    let (slot, members) = &mut *state;
                    let mut scratch = Scratch::recycled(
                        slot.take(),
                        ctx.network.node_count(),
                        ctx.network.edge_count(),
                        0,
                    );
                    let off = comp_key_off[comp];
                    members.clear();
                    for (pos, &pair) in comp_pairs[comp].iter().enumerate() {
                        if g == WHOLE || dyn_group_of[off + pos] == g {
                            members.push(pair);
                        }
                    }
                    let mut tuple_key = Vec::new();
                    let exact = if warm_opts.is_some() {
                        stage_tuple_key(pairs, members, indices, &mut tuple_key);
                        lambda_exact.get(tuple_key.as_slice()).map(|l| &l[..])
                    } else {
                        None
                    };
                    let warm = warm_opts.as_ref().map(|o| (o, &duals[comp]));
                    let solve = solve_component(
                        &mut scratch,
                        &ctx,
                        budget,
                        &method,
                        routes,
                        members,
                        indices,
                        warm,
                        exact,
                    );
                    if solve.alloc.is_none() {
                        infeasible.store(true, Ordering::Relaxed);
                    }
                    let n_pairs = members.len();
                    *slot = Some(scratch);
                    Some((comp, g, n_pairs, tuple_key, solve))
                })
            });
        let any_infeasible = infeasible.into_inner();
        let mut fresh = Vec::new();
        for (comp, g, n_pairs, tuple_key, solve) in results.into_iter().flatten() {
            self.stats.components_solved += 1;
            self.stats.pairs_resolved_last_move += n_pairs as u64;
            self.tuple_key = tuple_key;
            self.absorb_lambda(comp, &solve);
            let off = self.comp_key_off[comp];
            let end = self.comp_key_off[comp + 1];
            let entry = MemoEntry {
                epoch: self.epochs[comp],
                alloc: solve.alloc,
            };
            if g == WHOLE {
                let key: Box<[u32]> = self.scratch.joint_key[off..end].into();
                self.memos[comp].insert(key, entry);
                fresh.push(comp);
            } else {
                self.group_key.clear();
                for pos in 0..(end - off) {
                    if self.dyn_group_of[off + pos] == g {
                        self.group_key.push(pos as u32);
                        self.group_key.push(self.scratch.joint_key[off + pos]);
                    }
                }
                self.dyn_memos[comp].insert(self.group_key.as_slice().into(), entry);
                // The serial loop's level-1 miss path gathers the groups
                // (all level-2 hits by then) into the level-1 entry.
            }
        }
        fresh.sort_unstable();
        (fresh, any_infeasible)
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
                let entry = self.memos[comp]
                    .get(key)
                    .expect("component memoized by ensure_components");
                debug_assert_eq!(entry.epoch, self.epochs[comp]);
                entry
                    .alloc
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

/// Resolves one candidate [`Path`] into per-edge data.
fn resolve_route(ctx: &PerSlotContext<'_>, route: &Path) -> RouteData {
    let edges: Vec<EdgeVar> = route
        .edges()
        .iter()
        .map(|&edge| {
            let (u, v) = ctx.network.graph().endpoints(edge);
            EdgeVar {
                edge,
                u,
                v,
                p: ctx.network.link(edge).channel_success(),
            }
        })
        .collect();
    RouteData {
        hops: edges.len(),
        swaps: SwapModel::swaps_for_hops(route.hops()) as u64,
        edges,
    }
}

/// Builds the [`AllocationInstance`] for the given routes via the shared
/// [`assemble_instance`] layout routine — the same code path
/// [`PerSlotContext::build_instance`] uses, so a component's (or dynamic
/// group's) sub-instance is structurally the joint instance restricted
/// to it. With `want_keys`, the constraint keys land in
/// `Scratch::con_keys`.
fn build_instance_for<'r>(
    scratch: &mut Scratch,
    ctx: &PerSlotContext<'_>,
    budget: Option<u32>,
    routes: impl Iterator<Item = &'r RouteData>,
    want_keys: bool,
) -> Result<AllocationInstance, qdn_solve::SolveError> {
    let edges = routes.flat_map(|route| route.edges.iter().map(|ev| (ev.edge, ev.u, ev.v, ev.p)));
    let keys_out = want_keys.then_some(&mut scratch.con_keys);
    assemble_instance(
        &mut scratch.asm,
        ctx.snapshot,
        edges,
        budget,
        ctx.v_weight,
        ctx.unit_price,
        keys_out,
    )
}

/// Stages the exact-tuple λ key of a sub-instance into `out`: per
/// member (ascending), its pair endpoints and selected route index —
/// the identity under which [`SelectorSession`] remembers final dual
/// prices across slots.
fn stage_tuple_key(pairs: &[SdPair], members: &[usize], indices: &[usize], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(members.len() * 3);
    for &i in members {
        out.push(pairs[i].source().index() as u32);
        out.push(pairs[i].destination().index() as u32);
        out.push(indices[i] as u32);
    }
}

/// Builds and solves one sub-instance (a whole static component or a
/// single dynamic group, `members` = its pair ids ascending), recycling
/// the instance storage afterwards. `alloc == None` means the route
/// combination is infeasible. With `warm`, a `RelaxAndRound` solve is
/// seeded from the component's stored λ (when valid) and the final
/// prices are returned for the caller to absorb into the store; an
/// `exact` seed — this very sub-instance's most recent final λ, from
/// the session's tuple memo — takes precedence over the gathered
/// component store when its length matches the instance.
#[allow(clippy::too_many_arguments)]
fn solve_component(
    scratch: &mut Scratch,
    ctx: &PerSlotContext<'_>,
    budget: Option<u32>,
    method: &AllocationMethod,
    routes: &[Vec<RouteData>],
    members: &[usize],
    indices: &[usize],
    warm: Option<(&RelaxedOptions, &ComponentDual)>,
    exact: Option<&[f64]>,
) -> ComponentSolve {
    let route_iter = members.iter().map(|&i| &routes[i][indices[i]]);
    if let Some((options, dual)) = warm {
        let Ok(instance) = build_instance_for(scratch, ctx, budget, route_iter, true) else {
            return ComponentSolve {
                alloc: None,
                dual: None,
                warm_started: false,
            };
        };
        // The same member set and routes assemble the same constraint
        // order, so a stored exact seed lines up position-for-position;
        // the length check only guards against a topology change racing
        // a stale store (which `SelectorSession::reset` rules out).
        let exact = exact.filter(|l| l.len() == scratch.con_keys.len());
        if exact.is_none() && dual.valid {
            let Scratch { warm, con_keys, .. } = &mut *scratch;
            warm.clear();
            warm.extend(con_keys.iter().map(|&k| dual.lambda[k as usize]));
        }
        let warm_lambda = match exact {
            Some(l) => Some(l),
            None => dual.valid.then_some(scratch.warm.as_slice()),
        };
        // Count only seeds the solver actually engages: an all-zero
        // gathered λ makes `solve_relaxed_warm` run the plain cold path.
        let warm_started = warm_lambda.is_some_and(|w| w.iter().any(|&l| l > 0.0));
        let solution =
            solve_relaxed_warm(&instance, options, warm_lambda).expect("validated instance solves");
        let alloc = round_down_and_fill(&instance, &solution.x)
            .ok()
            .map(Vec::into_boxed_slice);
        let keys = scratch.con_keys.clone();
        scratch.asm.recycle(instance);
        ComponentSolve {
            alloc,
            dual: Some((keys, solution.lambda)),
            warm_started,
        }
    } else {
        let alloc = match build_instance_for(scratch, ctx, budget, route_iter, false) {
            Ok(instance) => {
                let flat = method.allocate(&instance);
                scratch.asm.recycle(instance);
                flat.map(Vec::into_boxed_slice)
            }
            Err(_) => None,
        };
        ComponentSolve {
            alloc,
            dual: None,
            warm_started: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_selection::Candidates;
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_net::routes::{CandidateRoutes, RouteLimits};
    use qdn_net::{CapacitySnapshot, QdnNetwork};
    use qdn_physics::link::LinkModel;

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
        assert_eq!(eval.component_count(), 2);
        assert!(eval.pair_is_isolated(0));
        assert!(eval.pair_is_isolated(1));
        assert!(!eval.warm_start_enabled());
        assert_eq!(eval.options().partition, PartitionMode::Dynamic);
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
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::default(),
        );
        assert_eq!(eval.component_count(), 2);
        assert!(!eval.pair_is_isolated(0));
        assert!(!eval.pair_is_isolated(1));
        assert!(eval.pair_is_isolated(2));
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
                for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
                    let options = EvalOptions {
                        partition,
                        warm_profile_seed: false,
                    };
                    let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, options);
                    // Every profile in the (small) product space.
                    let radix: Vec<usize> = cands.iter().map(|c| c.routes.len()).collect();
                    let mut indices = vec![0usize; cands.len()];
                    'product_space: loop {
                        let profile = profile_of(&cands, &indices);
                        let reference = ctx.evaluate(&profile, &method);
                        let incremental = eval.evaluate(&indices);
                        match (&reference, &incremental) {
                            (None, None) => {}
                            (Some(r), Some(x)) => {
                                assert_eq!(r.objective.to_bits(), x.objective.to_bits());
                                assert_eq!(r.allocations, x.allocations);
                            }
                            _ => panic!("feasibility mismatch at {indices:?} ({partition:?})"),
                        }
                        assert_eq!(
                            ctx.evaluate_objective(&profile, &method).map(f64::to_bits),
                            eval.evaluate_objective(&indices).map(f64::to_bits)
                        );
                        let mut pos = 0;
                        loop {
                            if pos == indices.len() {
                                // Odometer wrapped: this combination is
                                // exhausted; move on to the next one.
                                break 'product_space;
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

        // The dynamic path is bit-identical to the static engine on the
        // same walk.
        let mut static_eval = ProfileEvaluator::new(
            &ctx,
            &cands,
            &AllocationMethod::default(),
            EvalOptions::static_partition(),
        );
        for indices in [[0, 0, via_a], [0, 0, via_b]] {
            assert_eq!(
                static_eval.evaluate_objective(&indices).map(f64::to_bits),
                eval.evaluate_objective(&indices).map(f64::to_bits),
            );
        }
        // The static engine never refines: its gauge stays at the
        // component count and its churn counters at zero.
        let s = static_eval.stats();
        assert_eq!(s.dynamic_components, 1);
        assert_eq!((s.component_merges, s.component_splits), (0, 0));
    }

    #[test]
    fn pair_objective_matches_single_pair_profile() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
        for (i, cand) in cands.iter().enumerate() {
            for r in 0..cand.routes.len() {
                let single = [(cand.pair, &cand.routes[r])];
                let reference = ctx.evaluate(&single, &method).map(|e| e.objective);
                let got = eval.evaluate_pair_objective(i, r);
                assert_eq!(reference.map(f64::to_bits), got.map(f64::to_bits));
                // Second call is served from the memo.
                assert_eq!(got, eval.evaluate_pair_objective(i, r));
            }
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
    fn region_scoped_flush_spares_untouched_regions() {
        // Two disjoint diamonds → two static regions. A capacity change
        // inside the second diamond must flush only its region: the
        // first diamond's memos survive the slot boundary and answer
        // without re-solving.
        let net = two_diamonds();
        let full = CapacitySnapshot::full(&net);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let options = EvalOptions::default();

        let mut session = SelectorSession::new();
        let ctx = PerSlotContext::oscar(&net, &full, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx, &cands, &method, options);
        let before = eval.evaluate_objective(&[0, 0]).unwrap();
        assert_eq!(eval.stats().components_solved, 2);
        eval.retire(&mut session);
        assert_eq!(session.region_count(), 2);

        // Slot 2: edge 4 (the 4–5 link) loses a channel — only the
        // second diamond's candidates touch it.
        let mut channels = vec![5u32; 8];
        channels[4] = 4;
        let cut = CapacitySnapshot::clamped(&net, vec![10; 8], channels);
        let ctx2 = PerSlotContext::oscar(&net, &cut, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx2, &cands, &method, options);
        let report = session.last_invalidation();
        assert_eq!(report.regions, 2);
        assert_eq!(report.regions_flushed, 1, "{report:?}");
        assert_eq!(report.regions_fresh, 0, "{report:?}");
        assert!(report.memo_entries_retained >= 1, "{report:?}");
        assert!(report.memo_entries_flushed >= 1, "{report:?}");
        let after = eval.evaluate_objective(&[0, 0]).unwrap();
        let s = eval.stats();
        assert_eq!(s.memo_hits, 1, "diamond 1 answered from retained memo");
        assert_eq!(s.components_solved, 1, "only diamond 2 re-solved");
        // Retained-memo answers are bit-identical to a fresh evaluator
        // under the same slot context.
        let fresh = ProfileEvaluator::new(&ctx2, &cands, &method, options)
            .evaluate_objective(&[0, 0])
            .unwrap();
        assert_eq!(after.to_bits(), fresh.to_bits());
        let _ = before;
        eval.retire(&mut session);

        // Slot 3: identical context — everything retained, all hits.
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx2, &cands, &method, options);
        assert!(session.last_invalidation().fully_retained());
        eval.evaluate_objective(&[0, 0]).unwrap();
        assert_eq!(eval.stats().components_solved, 0);
        assert_eq!(eval.stats().memo_hits, 2);
        eval.retire(&mut session);
    }

    #[test]
    fn multi_region_cut_flushes_only_touched_regions() {
        // A correlated outage hits several regions in one slot: with
        // four disjoint diamonds (four static regions), cutting
        // capacity in two of them must flush exactly those two — the
        // session must not degrade to a global flush just because more
        // than one region changed (PR 9).
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..16).map(|_| b.add_node(10)).collect();
        let good = LinkModel::new(0.85).unwrap();
        let bad = LinkModel::new(0.25).unwrap();
        for d in 0..4 {
            let o = 4 * d;
            b.add_edge(n[o], n[o + 1], 5, good).unwrap();
            b.add_edge(n[o + 1], n[o + 3], 5, good).unwrap();
            b.add_edge(n[o], n[o + 2], 5, bad).unwrap();
            b.add_edge(n[o + 2], n[o + 3], 5, bad).unwrap();
        }
        let net = b.build();
        let pairs: Vec<SdPair> = (0..4)
            .map(|d| SdPair::new(NodeId(4 * d), NodeId(4 * d + 3)).unwrap())
            .collect();
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let options = EvalOptions::default();

        let mut session = SelectorSession::new();
        let full = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &full, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx, &cands, &method, options);
        eval.evaluate_objective(&[0, 0, 0, 0]).unwrap();
        assert_eq!(eval.stats().components_solved, 4);
        eval.retire(&mut session);
        assert_eq!(session.region_count(), 4);

        // Slot 2: diamonds 1 and 2 each lose a channel on their good
        // arm — two regions invalidated together, two untouched.
        let mut channels = vec![5u32; 16];
        channels[4] = 4; // diamond 1's 4–5 link
        channels[8] = 4; // diamond 2's 8–9 link
        let cut = CapacitySnapshot::clamped(&net, vec![10; 16], channels);
        let ctx2 = PerSlotContext::oscar(&net, &cut, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx2, &cands, &method, options);
        let report = session.last_invalidation();
        assert_eq!(report.regions, 4);
        assert_eq!(report.regions_flushed, 2, "{report:?}");
        assert_eq!(report.regions_fresh, 0, "{report:?}");
        assert!(report.memo_entries_retained >= 2, "{report:?}");
        let after = eval.evaluate_objective(&[0, 0, 0, 0]).unwrap();
        let s = eval.stats();
        assert_eq!(s.memo_hits, 2, "diamonds 0 and 3 answer from memos");
        assert_eq!(s.components_solved, 2, "only the cut diamonds re-solve");
        // Retained memos are bit-identical to a fresh evaluator.
        let fresh = ProfileEvaluator::new(&ctx2, &cands, &method, options)
            .evaluate_objective(&[0, 0, 0, 0])
            .unwrap();
        assert_eq!(after.to_bits(), fresh.to_bits());
        eval.retire(&mut session);
    }

    #[test]
    fn global_invalidation_ablation_flushes_everything() {
        let net = two_diamonds();
        let full = CapacitySnapshot::full(&net);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(7)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let method = AllocationMethod::default();
        let options = EvalOptions::default();

        let mut session = SelectorSession::new();
        session.set_global_invalidation(true);
        assert!(session.global_invalidation());
        let ctx = PerSlotContext::oscar(&net, &full, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx, &cands, &method, options);
        eval.evaluate_objective(&[0, 0]).unwrap();
        eval.retire(&mut session);

        let mut channels = vec![5u32; 8];
        channels[4] = 4;
        let cut = CapacitySnapshot::clamped(&net, vec![10; 8], channels);
        let ctx2 = PerSlotContext::oscar(&net, &cut, 800.0, 1.0);
        let mut eval = ProfileEvaluator::new_in(&mut session, &ctx2, &cands, &method, options);
        let report = session.last_invalidation();
        assert_eq!(report.regions_flushed, 2, "global mode flushes all");
        eval.evaluate_objective(&[0, 0]).unwrap();
        assert_eq!(eval.stats().components_solved, 2, "no region survives");
        assert_eq!(eval.stats().memo_hits, 0);
        eval.retire(&mut session);
    }

    #[test]
    fn stale_route_seed_relocates_or_forgets() {
        // Satellite regression: a carried-over profile must be matched
        // by route identity, not index, once churn repair reshuffles or
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
        for options in [
            EvalOptions::default(),
            EvalOptions::static_partition(),
            EvalOptions::warm_seeded(),
        ] {
            let json = serde_json::to_string(&options).unwrap();
            assert!(json.contains("\"partition\""), "{json}");
            assert!(json.contains("\"warm_profile_seed\""), "{json}");
            let back: EvalOptions = serde_json::from_str(&json).unwrap();
            assert_eq!(options, back);
        }
        // Loud compat breaks: both fields are required.
        assert!(serde_json::from_str::<EvalOptions>("{}").is_err());
        assert!(serde_json::from_str::<EvalOptions>(r#"{"partition":"Dynamic"}"#).is_err());
    }

    #[test]
    fn warm_start_reuses_neighbor_lambda_and_agrees() {
        let net = two_diamonds();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, 800.0, 1.0);
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(2)).unwrap(),
        ];
        let owned = owned_candidates(&net, &pairs);
        let cands = to_cands(&owned);
        let warm_method = AllocationMethod::RelaxAndRound(RelaxedOptions {
            warm_start: true,
            ..RelaxedOptions::default()
        });
        let cold_method = AllocationMethod::RelaxAndRound(RelaxedOptions::default());
        let mut warm_eval =
            ProfileEvaluator::new(&ctx, &cands, &warm_method, EvalOptions::default());
        let mut cold_eval =
            ProfileEvaluator::new(&ctx, &cands, &cold_method, EvalOptions::default());
        assert!(warm_eval.warm_start_enabled());

        // First evaluation is cold everywhere (no stored λ yet).
        let w0 = warm_eval.evaluate_objective(&[0, 0]).unwrap();
        let c0 = cold_eval.evaluate_objective(&[0, 0]).unwrap();
        assert_eq!(w0.to_bits(), c0.to_bits(), "no λ stored: must match cold");
        assert_eq!(warm_eval.stats().warm_started, 0);

        // Fresh tuples now warm-start from the neighboring profile's λ
        // and agree with the cold path within the solver tolerance.
        let radix: Vec<usize> = cands.iter().map(|c| c.routes.len()).collect();
        let mut checked = 0;
        for r0 in 0..radix[0] {
            for r1 in 0..radix[1] {
                let warm = warm_eval.evaluate_objective(&[r0, r1]);
                let cold = cold_eval.evaluate_objective(&[r0, r1]);
                match (warm, cold) {
                    (None, None) => {}
                    (Some(w), Some(c)) => {
                        let tol = 0.05 * (1.0 + c.abs());
                        assert!(
                            (w - c).abs() <= tol,
                            "[{r0},{r1}]: warm {w} vs cold {c} (tol {tol})"
                        );
                        checked += 1;
                    }
                    (w, c) => panic!("feasibility diverged at [{r0},{r1}]: {w:?} vs {c:?}"),
                }
            }
        }
        assert!(checked >= 2, "route space too small to exercise warm path");
        assert!(
            warm_eval.stats().warm_started > 0,
            "warm starts never engaged: {:?}",
            warm_eval.stats()
        );
    }
}
