//! The consolidated slot-decision facade.
//!
//! Every driver of the per-slot pipeline — the OSCAR policy, the myopic
//! baselines, the event-driven online router, the controller daemon in
//! `crates/serve` — used to call a nine-argument free function and carry
//! its two `&mut` state halves (route cache, selection session) as
//! separate fields. [`EngineState`] owns that slot-spanning state as one
//! value, [`SlotDecisionRequest`] names the per-slot inputs, and
//! [`decide`] is the whole per-slot API:
//!
//! ```
//! use qdn_core::engine::{decide, EngineState, SlotDecisionRequest};
//! use qdn_core::problem::PerSlotContext;
//! use qdn_core::route_selection::RouteSelector;
//! use qdn_core::allocation::AllocationMethod;
//! use qdn_net::routes::RouteLimits;
//! use qdn_net::{CapacitySnapshot, NetworkConfig};
//! use qdn_net::workload::{UniformWorkload, Workload};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
//! let mut state = EngineState::new(RouteLimits::paper_default());
//! let snap = CapacitySnapshot::full(&net);
//! let requests = UniformWorkload::paper_default().requests(0, &net, &mut rng);
//! let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
//! let decision = decide(
//!     &mut state,
//!     SlotDecisionRequest {
//!         network: &net,
//!         requests: &requests,
//!         ctx: &ctx,
//!         selector: &RouteSelector::default(),
//!         allocation: &AllocationMethod::default(),
//!         fidelity_target: None,
//!         rng: &mut rng,
//!     },
//! );
//! assert_eq!(decision.request_count(), requests.len());
//! ```
//!
//! The pipeline: reconcile the candidate cache with the slot's link
//! state, apply the optional fidelity constraint, select routes through
//! the slot-spanning [`SelectorSession`], and degrade gracefully (drop
//! the most expensive pair) when the slot cannot serve everything.

use std::collections::HashMap;

use qdn_graph::Path;
use qdn_net::routes::{CandidateRoutes, RouteLimits, RoutesSnapshot};
use qdn_net::{QdnNetwork, SdPair};
use serde::{Deserialize, Serialize};

use crate::allocation::AllocationMethod;
use crate::policy::ChurnDiagnostics;
use crate::problem::PerSlotContext;
use crate::profile_eval::{SelectorSession, SessionSnapshot};
use crate::route_selection::{Candidates, RouteSelector, Selection};
use crate::types::{Decision, RouteAssignment};

/// The per-slot inputs of one decision, borrowed from the driver.
///
/// Everything here describes *this* slot: the network and its link
/// state (inside `ctx`), the request set `Φ_t`, the strategy knobs, and
/// the driver's RNG stream. Slot-spanning state lives in
/// [`EngineState`] instead.
pub struct SlotDecisionRequest<'a> {
    /// The network topology (fixed between [`EngineState::reset`]s).
    pub network: &'a QdnNetwork,
    /// The slot's request set `Φ_t`.
    pub requests: &'a [SdPair],
    /// The per-slot objective context (capacity snapshot, `V`, price,
    /// optional slot budget).
    pub ctx: &'a PerSlotContext<'a>,
    /// Route-selection strategy (Algorithm 3 by default).
    pub selector: &'a RouteSelector,
    /// Qubit-allocation method (Algorithm 2 by default).
    pub allocation: &'a AllocationMethod,
    /// Optional end-to-end fidelity target (paper §III-C extension):
    /// candidate routes whose post-swapping Werner fidelity falls below
    /// this value are excluded from `R(φ)` for the slot.
    pub fidelity_target: Option<f64>,
    /// The driver's policy RNG stream (route-selection tie breaking).
    pub rng: &'a mut dyn rand::Rng,
}

impl std::fmt::Debug for SlotDecisionRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotDecisionRequest")
            .field("requests", &self.requests)
            .field("selector", &self.selector.label())
            .field("allocation", &self.allocation)
            .field("fidelity_target", &self.fidelity_target)
            .finish_non_exhaustive()
    }
}

/// The slot-spanning half of the decision pipeline, owned by a policy
/// (or daemon shard) for the lifetime of a run: the candidate route
/// cache (lists recomputed lazily under the dead-edge set), the
/// [`SelectorSession`] carrying recycled evaluator buffers and the
/// previous selected profile, and the fidelity-filter cache. Evaluation memos are not
/// part of it: they live for one slot.
#[derive(Debug)]
pub struct EngineState {
    routes: CandidateRoutes,
    session: SelectorSession,
    fidelity: FidelityCache,
}

impl EngineState {
    /// Fresh state with the given candidate route limits.
    pub fn new(limits: RouteLimits) -> Self {
        EngineState {
            routes: CandidateRoutes::new(limits),
            session: SelectorSession::new(),
            fidelity: FidelityCache::default(),
        }
    }

    /// Wraps an already-warmed candidate cache with a fresh session —
    /// e.g. the oracle baseline pre-warms candidates while planning
    /// per-slot budgets and keeps that work.
    pub fn with_routes(routes: CandidateRoutes) -> Self {
        EngineState {
            routes,
            session: SelectorSession::new(),
            fidelity: FidelityCache::default(),
        }
    }

    /// The candidate route cache (read access, e.g. for diagnostics).
    pub fn routes(&self) -> &CandidateRoutes {
        &self.routes
    }

    /// The slot-spanning selection session (read access).
    pub fn session(&self) -> &SelectorSession {
        &self.session
    }

    /// Mutable session access, e.g. to [`SelectorSession::reset`] it
    /// without dropping the candidate cache.
    pub fn session_mut(&mut self) -> &mut SelectorSession {
        &mut self.session
    }

    /// Clears all cross-slot state for a fresh trial: the session's
    /// previous profile, the candidate cache with its dead-edge set, and
    /// the fidelity-filter cache.
    pub fn reset(&mut self) {
        self.session.reset();
        self.routes.clear();
        self.fidelity.clear();
    }

    /// The candidate-route ledger of the most recent slot.
    pub fn churn_diagnostics(&self) -> ChurnDiagnostics {
        ChurnDiagnostics::collect(&self.routes)
    }

    /// Serializes the full cross-slot state into an [`EngineSnapshot`].
    ///
    /// The snapshot captures the candidate route cache as its dead-edge
    /// set and the pairs whose lists are current (the lists are a pure
    /// function of pair and dead set, so they are recomputed after a
    /// restore) and the complete selection session. The fidelity cache is *not*
    /// captured: it is a pure function of the network and the candidate
    /// sets and is rebuilt deterministically on the first slot after
    /// restore.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            version: ENGINE_SNAPSHOT_VERSION,
            routes: self.routes.snapshot(),
            session: self.session.snapshot(),
        }
    }

    /// Rebuilds engine state from a snapshot taken by
    /// [`EngineState::snapshot`]. Candidate lists are recomputed on first
    /// use under the snapshot's dead set, so decisions made by the
    /// restored state are bit-identical to the uninterrupted run's
    /// (pinned by the repository's differential harness,
    /// `tests/differential.rs`, which restores mid-trace through the JSON
    /// wire form).
    pub fn restore(snapshot: &EngineSnapshot) -> Result<Self, String> {
        if snapshot.version != ENGINE_SNAPSHOT_VERSION {
            return Err(format!(
                "engine snapshot version {} (expected {ENGINE_SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        Ok(EngineState {
            routes: CandidateRoutes::restore(&snapshot.routes)?,
            session: SelectorSession::restore(&snapshot.session)?,
            fidelity: FidelityCache::default(),
        })
    }
}

/// Version tag of [`EngineSnapshot`]; bump on layout changes.
pub const ENGINE_SNAPSHOT_VERSION: u32 = 1;

/// Serializable image of an [`EngineState`] — the warm-restart unit the
/// serve daemon persists per shard (see [`EngineState::snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Layout version ([`ENGINE_SNAPSHOT_VERSION`]).
    pub version: u32,
    routes: RoutesSnapshot,
    session: SessionSnapshot,
}

/// Slot-spanning cache of the §III-C fidelity filter.
///
/// A route's end-to-end Werner fidelity depends only on its links'
/// models — not on the slot's capacities — so which candidates survive a
/// fixed target is constant until a recompute changes a pair's
/// candidate list. The old pipeline nevertheless cloned every surviving
/// [`Path`] of every requested pair every slot (a `Cow::Owned` per
/// pair). This cache computes the surviving *indices* against the cached
/// candidate slice once per pair, materializes a compact route list only
/// when the filter actually removes something, and reuses both until a
/// recompute changes the pair's candidates — steady-state slots clone
/// nothing.
#[derive(Debug, Default)]
struct FidelityCache {
    /// Bit pattern of the target the entries were computed for.
    target_bits: Option<u64>,
    entries: HashMap<SdPair, FidelityEntry>,
}

#[derive(Debug)]
struct FidelityEntry {
    /// The filtered route list, materialized only when the target
    /// removes candidates; `None` means every candidate survives and
    /// the cached slice is served directly.
    filtered: Option<Vec<Path>>,
}

impl FidelityCache {
    fn clear(&mut self) {
        self.target_bits = None;
        self.entries.clear();
    }

    /// Drops entries whose pair's candidate list a recompute changed
    /// this slot (both orientations share the canonical candidate
    /// computation).
    fn invalidate_pairs(&mut self, changed: &[SdPair]) {
        for pair in changed {
            self.entries.remove(pair);
            self.entries.remove(&pair.reversed());
        }
    }

    /// Ensures an up-to-date entry for `pair` against `cached`.
    fn ensure(&mut self, network: &QdnNetwork, pair: SdPair, cached: &[Path], target: f64) {
        if self.target_bits != Some(target.to_bits()) {
            // Target changed (or first use): every entry is for the
            // wrong constraint.
            self.entries.clear();
            self.target_bits = Some(target.to_bits());
        }
        if self.entries.contains_key(&pair) {
            return;
        }
        // Filter by index against the cached slice; clone survivors
        // only when the target actually removes something.
        let keep: Vec<u32> = cached
            .iter()
            .enumerate()
            .filter(|(_, r)| network.route_fidelity(r).value() >= target)
            .map(|(i, _)| i as u32)
            .collect();
        let filtered = (keep.len() < cached.len())
            .then(|| keep.iter().map(|&i| cached[i as usize].clone()).collect());
        self.entries.insert(pair, FidelityEntry { filtered });
    }

    /// The slot's candidate view for `pair`: the full cached slice when
    /// everything survives, the cached filtered list otherwise.
    fn serve<'a>(&'a self, pair: SdPair, cached: &'a [Path]) -> &'a [Path] {
        match self.entries.get(&pair) {
            Some(entry) => entry.filtered.as_deref().unwrap_or(cached),
            // Unreachable in practice (`ensure` ran for every requested
            // pair), but serving unfiltered is the safe degradation.
            None => cached,
        }
    }
}

/// Decides one slot: routes and qubit allocations for `req.requests`
/// under `req.ctx`, using and updating the slot-spanning `state`. See
/// the module docs for the pipeline.
pub fn decide(state: &mut EngineState, req: SlotDecisionRequest<'_>) -> Decision {
    let EngineState {
        routes: routes_cache,
        session,
        fidelity,
    } = state;
    let SlotDecisionRequest {
        network,
        requests,
        ctx,
        selector,
        allocation,
        fidelity_target,
        rng,
    } = req;
    // Reconcile the candidate cache with this slot's link state first:
    // an edge at zero channels is failed for the slot (every route needs
    // at least one channel per edge), so a change to the dead set makes
    // every cached list stale. Warming the requested pairs recomputes
    // the stale ones — cold Yen under the new dead set — and leaves the
    // rest alone. Pairs left with no candidates fall through to
    // `unserved` below.
    routes_cache.sync_dead_edges(network, ctx.snapshot);
    for &pair in requests {
        routes_cache.routes(network, pair);
    }
    // Refresh the fidelity entries against the warmed slices, dropping
    // those of pairs whose list a recompute just changed; then take
    // shared borrows: the selector is handed cached slices directly —
    // the full candidate list, or the cached filtered list when a
    // fidelity target removes candidates. Nothing is cloned per slot.
    fidelity.invalidate_pairs(&routes_cache.last_churn().changed_pairs);
    if let Some(target) = fidelity_target {
        for &pair in requests {
            let cached = routes_cache
                .cached(pair)
                .expect("routes() populated this pair");
            fidelity.ensure(network, pair, cached, target);
        }
    }
    let routes_cache = &*routes_cache;
    let fidelity = &*fidelity;
    let mut unserved: Vec<SdPair> = Vec::new();
    let mut served: Vec<(SdPair, &[Path])> = Vec::new();
    for &pair in requests {
        let cached = routes_cache
            .cached(pair)
            .expect("cache warmed for every requested pair above");
        let routes: &[Path] = match fidelity_target {
            Some(_) => fidelity.serve(pair, cached),
            None => cached,
        };
        if routes.is_empty() {
            unserved.push(pair);
        } else {
            served.push((pair, routes));
        }
    }

    // Try to serve everything; on infeasibility drop the pair whose
    // cheapest route is longest (it consumes the most mandatory units) and
    // retry — Assumption 1 makes this rare at the paper's defaults.
    loop {
        let cands: Vec<Candidates<'_>> = served
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        match selector.select_in(session, ctx, &cands, allocation, rng) {
            Some(Selection {
                indices,
                evaluation,
            }) => {
                let assignments = served
                    .iter()
                    .zip(&indices)
                    .zip(evaluation.allocations)
                    .map(|(((pair, routes), &idx), alloc)| {
                        RouteAssignment::new(*pair, routes[idx].clone(), alloc)
                    })
                    .collect();
                return Decision::new(assignments, unserved);
            }
            None => {
                if served.is_empty() {
                    return Decision::new(Vec::new(), unserved);
                }
                // Drop the pair with the longest shortest-route.
                let victim = served
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, routes))| routes[0].hops())
                    .map(|(i, _)| i)
                    .expect("served is non-empty");
                let (pair, _) = served.remove(victim);
                unserved.push(pair);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_net::{CapacitySnapshot, NetworkConfig};
    use rand::SeedableRng;

    fn setup() -> (QdnNetwork, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
        (net, rng)
    }

    fn requests(net: &QdnNetwork, rng: &mut dyn rand::Rng, t: u64) -> Vec<SdPair> {
        use qdn_net::workload::{UniformWorkload, Workload};
        UniformWorkload::paper_default().requests(t, net, rng)
    }

    #[test]
    fn fidelity_filter_matches_per_slot_recompute() {
        let (net, mut rng) = setup();
        let snap = CapacitySnapshot::full(&net);
        let selector = RouteSelector::default();
        let alloc = AllocationMethod::default();
        let target = 0.6;

        let mut state = EngineState::new(RouteLimits::paper_default());
        for t in 0..8u64 {
            let reqs = requests(&net, &mut rng, t);
            let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(7 + t);
            let decision = decide(
                &mut state,
                SlotDecisionRequest {
                    network: &net,
                    requests: &reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &alloc,
                    fidelity_target: Some(target),
                    rng: &mut rng_a,
                },
            );
            // Every served route meets the target; the reference
            // computation is the direct per-route fidelity check.
            for a in decision.assignments() {
                assert!(net.route_fidelity(&a.route).value() >= target);
            }
        }
        // Steady state: entries exist, and a repeated request clones
        // nothing (observable as: the entry map stops growing).
        let before = state.fidelity.entries.len();
        let reqs = requests(&net, &mut rng, 99);
        let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let _ = decide(
            &mut state,
            SlotDecisionRequest {
                network: &net,
                requests: &reqs,
                ctx: &ctx,
                selector: &selector,
                allocation: &alloc,
                fidelity_target: Some(target),
                rng: &mut rng_a,
            },
        );
        assert!(state.fidelity.entries.len() >= before);
    }

    #[test]
    fn fidelity_cache_invalidates_on_churn() {
        let (net, mut rng) = setup();
        let selector = RouteSelector::default();
        let alloc = AllocationMethod::default();
        let target = 0.5;
        let mut state = EngineState::new(RouteLimits::paper_default());

        let reqs = requests(&net, &mut rng, 0);
        let full = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &full, 2500.0, 10.0);
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let d0 = decide(
            &mut state,
            SlotDecisionRequest {
                network: &net,
                requests: &reqs,
                ctx: &ctx,
                selector: &selector,
                allocation: &alloc,
                fidelity_target: Some(target),
                rng: &mut r,
            },
        );
        // Fail an edge used by some served route, then decide again:
        // the pair's entry must be recomputed against its recomputed
        // candidates (no stale indices).
        let Some(first) = d0.assignments().first() else {
            return;
        };
        let dead = first.route.edges()[0];
        let mut channels: Vec<u32> = net
            .graph()
            .edge_ids()
            .map(|e| net.channel_capacity(e))
            .collect();
        channels[dead.index()] = 0;
        let snap = CapacitySnapshot::clamped(
            &net,
            net.graph()
                .node_ids()
                .map(|v| net.qubit_capacity(v))
                .collect(),
            channels,
        );
        let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
        let d1 = decide(
            &mut state,
            SlotDecisionRequest {
                network: &net,
                requests: &reqs,
                ctx: &ctx,
                selector: &selector,
                allocation: &alloc,
                fidelity_target: Some(target),
                rng: &mut r,
            },
        );
        for a in d1.assignments() {
            assert!(!a.route.edges().contains(&dead), "dead edge served");
            assert!(net.route_fidelity(&a.route).value() >= target);
        }
    }

    #[test]
    fn reset_clears_engine_state() {
        let (net, mut rng) = setup();
        let snap = CapacitySnapshot::full(&net);
        let mut state = EngineState::new(RouteLimits::paper_default());
        let reqs = requests(&net, &mut rng, 0);
        let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
        let mut r = rand::rngs::StdRng::seed_from_u64(3);
        let _ = decide(
            &mut state,
            SlotDecisionRequest {
                network: &net,
                requests: &reqs,
                ctx: &ctx,
                selector: &RouteSelector::default(),
                allocation: &AllocationMethod::default(),
                fidelity_target: Some(0.5),
                rng: &mut r,
            },
        );
        assert!(state.routes().cached_pairs() > 0);
        state.reset();
        assert_eq!(state.routes().cached_pairs(), 0);
        assert_eq!(state.session().remembered_pairs(), 0);
        assert!(state.fidelity.entries.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_decisions() {
        let (net, mut rng) = setup();
        let snap = CapacitySnapshot::full(&net);
        let selector = RouteSelector::default();
        let alloc = AllocationMethod::default();

        // Warm a state for a few slots, snapshot it through the JSON
        // wire form, then continue both the original and the restored
        // state through further slots with twin RNGs: decisions must be
        // bit-identical, and the restored state must re-snapshot to the
        // exact same bytes (canonical ordering).
        let mut state = EngineState::new(RouteLimits::paper_default());
        for t in 0..4u64 {
            let reqs = requests(&net, &mut rng, t);
            let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
            let mut r = rand::rngs::StdRng::seed_from_u64(40 + t);
            let _ = decide(
                &mut state,
                SlotDecisionRequest {
                    network: &net,
                    requests: &reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &alloc,
                    fidelity_target: Some(0.5),
                    rng: &mut r,
                },
            );
        }
        let image = state.snapshot();
        let wire = serde_json::to_string(&image).unwrap();
        let decoded: EngineSnapshot = serde_json::from_str(&wire).unwrap();
        assert_eq!(decoded, image);
        let mut restored = EngineState::restore(&decoded).unwrap();
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            wire,
            "restored state must re-snapshot byte-identically"
        );

        for t in 4..9u64 {
            let reqs = requests(&net, &mut rng, t);
            let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(40 + t);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(40 + t);
            let cont = decide(
                &mut state,
                SlotDecisionRequest {
                    network: &net,
                    requests: &reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &alloc,
                    fidelity_target: Some(0.5),
                    rng: &mut rng_a,
                },
            );
            let rest = decide(
                &mut restored,
                SlotDecisionRequest {
                    network: &net,
                    requests: &reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &alloc,
                    fidelity_target: Some(0.5),
                    rng: &mut rng_b,
                },
            );
            assert_eq!(cont, rest, "slot {t} diverged after restore");
        }
    }

    #[test]
    fn snapshot_rejects_wrong_version() {
        let state = EngineState::new(RouteLimits::paper_default());
        let mut image = state.snapshot();
        image.version += 1;
        assert!(EngineState::restore(&image).is_err());
    }
}
