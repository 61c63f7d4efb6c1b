//! The two-level coupling partition.
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
//! than the candidate union: at paper scale (20-node Waxman, 10 pairs)
//! the static closure collapses into one 10-pair component, while a
//! concrete profile typically splits into several 2–4-pair groups. The
//! evaluator therefore re-partitions each static component by the node
//! sharing of the profile's *selected* routes and solves each **dynamic
//! group** as its own sub-instance. The sub-partition is refreshed per
//! component exactly when that component's route tuple changes, so a
//! single-pair Gibbs or greedy move refreshes one component and
//! re-solves only the groups whose membership-and-routes key is new.
//! A singleton component has nothing to refine, and a slot budget keeps
//! every pair in one group, so both skip the refresh.
//!
//! Group ids are numbered by their smallest member position (the
//! union-find keeps the smallest root), so a sub-partition is a pure
//! function of the component's route tuple.

use std::ops::Range;

use super::RouteData;

/// The static components of one slot's pairs, and each component's
/// dynamic sub-partition for the route tuple it was last refreshed for.
///
/// Per-member state is flat, in component order: component `c` owns
/// positions `off[c]..off[c + 1]`, the same layout as the evaluator's
/// joint key.
#[derive(Debug)]
pub(super) struct Partition {
    /// Whether a slot budget couples every pair into one group.
    budgeted: bool,
    comp_of_pair: Vec<usize>,
    /// Pair ids by component, ascending within each.
    members: Vec<usize>,
    off: Vec<usize>,
    /// Per member position, its group id within the static component.
    group_of: Vec<u32>,
    /// The route tuple each component's sub-partition corresponds to.
    state_key: Vec<u32>,
    /// Whether a component's sub-partition has ever been computed.
    state_valid: Vec<bool>,
    /// Per component: number of groups in its sub-partition.
    group_count: Vec<u32>,
}

/// Recycled buffers for [`Partition::refresh`].
#[derive(Debug)]
pub(super) struct PartitionScratch {
    /// Node → member position of the route that last touched it,
    /// epoch-stamped (never cleared).
    owner: Vec<u32>,
    owner_mark: Vec<u64>,
    epoch: u64,
    /// Union-find over member positions, reset per refresh.
    dsu: qdn_solve::Dsu,
    /// Root → normalized group id.
    group_map: Vec<u32>,
}

impl PartitionScratch {
    pub(super) fn sized(nodes: usize) -> Self {
        PartitionScratch {
            owner: vec![0; nodes],
            owner_mark: vec![0; nodes],
            epoch: 0,
            dsu: qdn_solve::Dsu::new(0),
            group_map: Vec::new(),
        }
    }
}

impl Partition {
    /// The static partition of the pairs whose candidates are `routes`,
    /// by candidate-route node sharing (edge sharing implies node
    /// sharing) on a network of `nodes` nodes; `budgeted` couples
    /// everything. Components are numbered by their smallest pair.
    pub(super) fn new(routes: &[Vec<RouteData>], nodes: usize, budgeted: bool) -> Self {
        let k = routes.len();
        let mut dsu = qdn_solve::Dsu::new(k);
        if budgeted {
            for i in 1..k {
                dsu.union(0, i);
            }
        } else {
            let mut node_owner = vec![usize::MAX; nodes];
            for (i, cand) in routes.iter().enumerate() {
                for ev in cand.iter().flat_map(|route| &route.edges) {
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
        let mut comp_of_pair = vec![usize::MAX; k];
        let mut off = vec![0];
        for i in 0..k {
            let root = dsu.find(i);
            if comp_of_pair[root] == usize::MAX {
                comp_of_pair[root] = off.len() - 1;
                off.push(0);
            }
            comp_of_pair[i] = comp_of_pair[root];
            off[comp_of_pair[i] + 1] += 1;
        }
        for c in 1..off.len() {
            off[c] += off[c - 1];
        }
        let mut members = vec![0; k];
        let mut cursor = off.clone();
        for (i, &c) in comp_of_pair.iter().enumerate() {
            members[cursor[c]] = i;
            cursor[c] += 1;
        }
        let n_comps = off.len() - 1;
        Partition {
            budgeted,
            comp_of_pair,
            members,
            off,
            group_of: vec![0; k],
            state_key: vec![0; k],
            state_valid: vec![false; n_comps],
            group_count: vec![1; n_comps],
        }
    }

    /// Number of static components.
    pub(super) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// The static component of pair `pair`.
    pub(super) fn component_of(&self, pair: usize) -> usize {
        self.comp_of_pair[pair]
    }

    /// Component `comp`'s member positions in the flat layout.
    pub(super) fn span(&self, comp: usize) -> Range<usize> {
        self.off[comp]..self.off[comp + 1]
    }

    /// Pair ids by component, ascending within each; component `comp`'s
    /// are at [`Partition::span`].
    pub(super) fn members(&self) -> &[usize] {
        &self.members
    }

    /// Per member position of component `comp`, its group id as of the
    /// last [`Partition::refresh`] that returned more than one group.
    pub(super) fn groups(&self, comp: usize) -> &[u32] {
        &self.group_of[self.span(comp)]
    }

    /// Brings component `comp`'s sub-partition up to date with its
    /// route tuple `key` (route index per member position) and returns
    /// its number of groups: 1 for a singleton or budgeted component,
    /// which is never refined.
    pub(super) fn refresh(
        &mut self,
        scratch: &mut PartitionScratch,
        comp: usize,
        key: &[u32],
        routes: &[Vec<RouteData>],
    ) -> u32 {
        let span = self.span(comp);
        if self.budgeted || span.len() < 2 {
            return 1;
        }
        if self.state_valid[comp] && self.state_key[span.clone()] == *key {
            return self.group_count[comp];
        }
        let m = span.len();
        scratch.dsu.reset(m);
        scratch.epoch += 1;
        for (pos, &pair) in self.members[span.clone()].iter().enumerate() {
            for ev in &routes[pair][key[pos] as usize].edges {
                for node in [ev.u, ev.v] {
                    let ni = node.index();
                    if scratch.owner_mark[ni] == scratch.epoch {
                        scratch.dsu.union(scratch.owner[ni] as usize, pos);
                    } else {
                        scratch.owner_mark[ni] = scratch.epoch;
                        scratch.owner[ni] = pos as u32;
                    }
                }
            }
        }
        scratch.group_map.clear();
        scratch.group_map.resize(m, u32::MAX);
        let mut count = 0u32;
        for pos in 0..m {
            let root = scratch.dsu.find(pos);
            if scratch.group_map[root] == u32::MAX {
                scratch.group_map[root] = count;
                count += 1;
            }
            self.group_of[span.start + pos] = scratch.group_map[root];
        }
        self.group_count[comp] = count;
        self.state_key[span].copy_from_slice(key);
        self.state_valid[comp] = true;
        count
    }
}
