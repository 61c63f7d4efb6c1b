//! Selection sessions: the route-selection state that spans slots.
//!
//! A [`super::ProfileEvaluator`], with both memo levels, lives for one
//! slot. The paper's drift-plus-penalty step solves each slot from the
//! current system state alone, and OSCAR's queue price `q_t` enters
//! every sub-instance and moves almost every slot, so memos are never
//! carried from one slot to the next. A [`SelectorSession`] lives for a
//! run and carries exactly two things (see its docs): the recycled
//! buffers, which hold no semantic state, and the previous selected
//! profile, which seeds the next slot's chain start but never changes a
//! profile's value.

use std::collections::BTreeMap;

use qdn_graph::{EdgeId, Path};
use qdn_net::SdPair;
use serde::{Deserialize, Serialize};

use super::Scratch;
use crate::route_selection::Candidates;

/// Route-selection state spanning slots — the slot-lifetime counterpart
/// of the per-slot [`ProfileEvaluator`](super::ProfileEvaluator).
///
/// A session is owned by a policy (or any other driver that makes one
/// selection per slot) for the lifetime of a run and threaded through
/// [`crate::route_selection::RouteSelector::select_in`]; the evaluator is
/// then built with
/// [`ProfileEvaluator::new_in`](super::ProfileEvaluator::new_in) and
/// handed back with
/// [`ProfileEvaluator::retire`](super::ProfileEvaluator::retire). It
/// carries:
///
/// * the recycled `RouteAssembler` arena, instance husks, and every
///   dense scratch buffer (epoch-stamped node maps, union-find, CSR
///   staging) — steady-state slots allocate no evaluator storage;
/// * the previous slot's selected route per [`SdPair`], which seeds the
///   next slot's Gibbs chain / greedy start for pairs present in
///   consecutive slots when
///   [`EvalOptions::warm_profile_seed`](super::EvalOptions::warm_profile_seed)
///   is set (the default Gibbs configuration sets it).
///
/// Evaluation memos are *not* carried: they belong to one slot's
/// evaluator.
///
/// # Lifetime invariants
///
/// * The scratch arena carries no semantic state: every buffer is
///   resized to the slot's network and written before it is read, so a
///   recycled arena and a fresh one give the same bits. A slot on a
///   network of other dimensions rebuilds the arena.
/// * Policies reset their session whenever
///   [`crate::policy::RoutingPolicy::reset`] runs, so fresh trials share
///   nothing.
/// * The remembered previous-slot profile is validated by route
///   *identity* (edge list), not by index: a recompute that reshuffles a
///   pair's candidate list relocates the remembered route, and a route
///   that no longer exists is simply forgotten — a stale index can
///   never leak into a seed.
/// * With `warm_profile_seed` off, a session-built evaluator is
///   **bit-identical** to a fresh
///   [`ProfileEvaluator::new`](super::ProfileEvaluator::new) per slot
///   (enforced by the repository's differential harness,
///   `tests/differential.rs`, which also runs link cuts and repairs and a
///   reset onto a network of another size).
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

    /// Hands the recycled buffers to a new slot's evaluator (`None`
    /// before the first slot, or when the last evaluator was dropped
    /// instead of retired).
    pub(super) fn take_scratch(&mut self) -> Option<Scratch> {
        self.scratch.take()
    }

    /// Takes the buffers back from a retiring evaluator.
    pub(super) fn keep_scratch(&mut self, scratch: Scratch) {
        self.scratch = Some(scratch);
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
    /// session would have produced (pinned by the repository's
    /// differential harness, `tests/differential.rs`).
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

#[cfg(test)]
mod tests {
    use super::super::tests::{owned_candidates, to_cands, two_diamonds};
    use super::*;
    use qdn_graph::NodeId;

    #[test]
    fn stale_route_seed_relocates_or_forgets() {
        // A carried-over profile is matched by route identity, not index,
        // once a churn recompute reshuffles or removes candidates.
        let net = two_diamonds();
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let owned = owned_candidates(&net, &[pair]);
        let cands = to_cands(&owned);
        assert!(cands[0].routes.len() >= 2);

        let mut session = SelectorSession::new();
        session.record_selection(&cands, &[1]);

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
