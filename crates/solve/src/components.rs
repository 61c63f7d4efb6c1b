//! Connected-component decomposition of allocation instances.
//!
//! Two variables are *coupled* when some packing constraint contains them
//! both; the transitive closure of that relation partitions an instance
//! into independent sub-problems. Because the objective is separable per
//! variable and every constraint lies wholly inside one component, the
//! joint optimum is exactly the concatenation of the per-component optima
//! — and, crucially for the incremental profile evaluator in `qdn-core`,
//! solving a component in isolation is *bit-identical* to solving it as
//! part of the joint instance once the solvers themselves work
//! component-wise (see [`crate::relaxed::solve_relaxed`]).
//!
//! Components and sub-instances are deterministic: components are ordered
//! by their smallest variable index, and a sub-instance keeps its
//! variables and constraints in the same relative order they had in the
//! parent instance.

use crate::instance::AllocationInstance;
use crate::SolveError;

/// The partition of an instance's variables into coupled components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentPartition {
    /// `component_of[j]` is the component index of variable `j`.
    pub component_of: Vec<usize>,
    /// Per component: its variables, ascending.
    pub vars: Vec<Vec<usize>>,
    /// Per component: its constraint indices, ascending. Constraints with
    /// no members are vacuous and belong to no component.
    pub constraints: Vec<Vec<usize>>,
}

impl ComponentPartition {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the instance has no variables at all.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// Union-find with path halving and a deterministic tie-break: the
/// smaller root always wins, so every set's representative is its
/// smallest member. Shared with `qdn-core`'s profile evaluator, which
/// partitions SD pairs with the same invariant.
#[derive(Debug, Clone)]
pub struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    /// `n` singleton sets `{0}, …, {n−1}`.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    /// Re-initializes to `n` singleton sets, reusing the allocation —
    /// for callers that run one union-find per (small) work item, like
    /// the profile evaluator's per-component sub-partition refresh.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
    }

    /// The representative (smallest member) of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

impl AllocationInstance {
    /// Partitions the instance into constraint-coupled components.
    ///
    /// Components are numbered by their smallest variable index, so the
    /// partition (and everything derived from it) is deterministic.
    pub fn components(&self) -> ComponentPartition {
        let n = self.num_vars();
        let mut dsu = Dsu::new(n);
        for c in 0..self.num_constraints() {
            if let Some((&first, rest)) = self.members(c).split_first() {
                for &j in rest {
                    dsu.union(first as usize, j as usize);
                }
            }
        }
        let mut component_of = vec![usize::MAX; n];
        let mut vars: Vec<Vec<usize>> = Vec::new();
        for j in 0..n {
            let root = dsu.find(j);
            let comp = if component_of[root] == usize::MAX {
                let id = vars.len();
                component_of[root] = id;
                vars.push(Vec::new());
                id
            } else {
                component_of[root]
            };
            component_of[j] = comp;
            vars[comp].push(j);
        }
        let mut constraints: Vec<Vec<usize>> = vec![Vec::new(); vars.len()];
        for ci in 0..self.num_constraints() {
            if let Some(&j) = self.members(ci).first() {
                constraints[component_of[j as usize]].push(ci);
            }
        }
        ComponentPartition {
            component_of,
            vars,
            constraints,
        }
    }

    /// Builds the stand-alone instance of one component.
    ///
    /// `comp_vars` must be sorted ascending and `comp_constraints` must
    /// reference constraints whose members all lie in `comp_vars` (as
    /// produced by [`AllocationInstance::components`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from instance validation — impossible
    /// when the parent instance was itself validated.
    pub fn sub_instance(
        &self,
        comp_vars: &[usize],
        comp_constraints: &[usize],
    ) -> Result<AllocationInstance, SolveError> {
        let mut local_index = Vec::new();
        self.sub_instance_into(
            comp_vars,
            comp_constraints,
            &mut local_index,
            AllocationInstance::husk(),
        )
    }

    /// [`AllocationInstance::sub_instance`] into recycled storage: the
    /// component's CSR arrays are written directly into `husk`'s buffers
    /// (no intermediate [`PackingConstraint`] member `Vec`s, no
    /// allocations once `husk` and `local_index` have grown to size) and
    /// validated by the same shared `finalize` pass every constructor
    /// ends in. `local_index` is caller-owned scratch (resized to the
    /// parent's variable count).
    ///
    /// This is the arena path the multi-component walks of
    /// [`crate::relaxed::solve_relaxed`] and
    /// [`crate::rounding::relax_and_round_until`] cycle through
    /// ([`AllocationInstance::for_each_component`]) — one husk, recycled
    /// from component to component.
    ///
    /// # Errors
    ///
    /// As [`AllocationInstance::sub_instance`].
    pub fn sub_instance_into(
        &self,
        comp_vars: &[usize],
        comp_constraints: &[usize],
        local_index: &mut Vec<usize>,
        mut husk: AllocationInstance,
    ) -> Result<AllocationInstance, SolveError> {
        local_index.clear();
        local_index.resize(self.num_vars(), usize::MAX);
        for (local, &j) in comp_vars.iter().enumerate() {
            local_index[j] = local;
        }
        husk.vars.clear();
        husk.vars.extend(comp_vars.iter().map(|&j| self.vars[j]));
        husk.v_weight = self.v_weight();
        husk.unit_price = self.unit_price();
        husk.caps.clear();
        husk.con_off.clear();
        husk.con_idx.clear();
        husk.con_off.push(0);
        for &ci in comp_constraints {
            husk.caps.push(self.capacity(ci));
            husk.con_idx.extend(
                self.members(ci)
                    .iter()
                    .map(|&j| local_index[j as usize] as u32),
            );
            husk.con_off.push(husk.con_idx.len() as u32);
        }
        husk.finalize()
    }

    /// Calls `solve(sub, vars, constraints)` on the stand-alone instance
    /// of each component of `partition` in order, with the component's
    /// variable and constraint indices, until `solve` returns `false`. The sub-instances cycle
    /// through one recycled husk, so the walk allocates once, not per
    /// component. Returns whether every component was visited.
    ///
    /// # Errors
    ///
    /// Propagates `solve`'s errors and [`AllocationInstance::sub_instance`]'s.
    pub(crate) fn for_each_component(
        &self,
        partition: &ComponentPartition,
        mut solve: impl FnMut(&AllocationInstance, &[usize], &[usize]) -> Result<bool, SolveError>,
    ) -> Result<bool, SolveError> {
        let mut husk = AllocationInstance::husk();
        let mut local_index = Vec::new();
        for (vars, constraints) in partition.vars.iter().zip(&partition.constraints) {
            let sub = self.sub_instance_into(vars, constraints, &mut local_index, husk)?;
            if !solve(&sub, vars, constraints)? {
                return Ok(false);
            }
            husk = sub.into_husk();
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{PackingConstraint, Variable};

    fn inst(nv: usize, cons: &[(u32, &[usize])]) -> AllocationInstance {
        AllocationInstance::new(
            (0..nv).map(|_| Variable::new(0.5)).collect(),
            cons.iter()
                .map(|&(cap, mem)| PackingConstraint::new(cap, mem.to_vec()))
                .collect(),
            100.0,
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn disjoint_constraints_split() {
        let i = inst(4, &[(4, &[0, 1]), (4, &[2, 3])]);
        let p = i.components();
        assert_eq!(p.len(), 2);
        assert_eq!(p.vars, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.constraints, vec![vec![0], vec![1]]);
        assert_eq!(p.component_of, vec![0, 0, 1, 1]);
    }

    #[test]
    fn chained_constraints_merge() {
        let i = inst(3, &[(4, &[0, 1]), (4, &[1, 2])]);
        let p = i.components();
        assert_eq!(p.len(), 1);
        assert_eq!(p.vars, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn free_variables_are_singletons() {
        let i = inst(3, &[(4, &[1])]);
        let p = i.components();
        assert_eq!(p.len(), 3);
        assert_eq!(p.component_of, vec![0, 1, 2]);
        assert_eq!(p.constraints[1], vec![0]);
    }

    #[test]
    fn component_order_follows_smallest_var() {
        // Constraint order reversed relative to variable order: components
        // must still be numbered by smallest member.
        let i = inst(4, &[(4, &[2, 3]), (4, &[0, 1])]);
        let p = i.components();
        assert_eq!(p.vars, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.constraints, vec![vec![1], vec![0]]);
    }

    #[test]
    fn sub_instance_preserves_relative_order() {
        let i = inst(4, &[(5, &[0, 1]), (7, &[2, 3]), (3, &[2])]);
        let p = i.components();
        let sub = i.sub_instance(&p.vars[1], &p.constraints[1]).unwrap();
        assert_eq!(sub.num_vars(), 2);
        assert_eq!(sub.num_constraints(), 2);
        assert_eq!(sub.capacity(0), 7);
        assert_eq!(sub.members(0), &[0, 1]);
        assert_eq!(sub.capacity(1), 3);
        assert_eq!(sub.members(1), &[0]);
        // Upper bounds must match the parent's for the same variables.
        assert_eq!(sub.upper_bound(0), i.upper_bound(2));
        assert_eq!(sub.upper_bound(1), i.upper_bound(3));
    }

    #[test]
    fn sub_instance_into_recycled_husk_is_identical() {
        // Cycling one husk through several components (the relaxed
        // solver's recursion pattern) must reproduce the allocating
        // constructor's result exactly.
        let i = inst(6, &[(5, &[0, 1]), (7, &[2, 3]), (3, &[2]), (4, &[4, 5])]);
        let p = i.components();
        let mut scratch = Vec::new();
        let mut husk = AllocationInstance::husk();
        for (vars, cons) in p.vars.iter().zip(&p.constraints) {
            let reference = i.sub_instance(vars, cons).unwrap();
            let built = i.sub_instance_into(vars, cons, &mut scratch, husk).unwrap();
            assert_eq!(built, reference);
            husk = built.into_husk();
        }
    }

    #[test]
    fn dsu_reset_reuses_and_matches_fresh() {
        let mut d = Dsu::new(3);
        d.union(0, 1);
        d.reset(4);
        for i in 0..4 {
            assert_eq!(d.find(i), i, "reset must restore singletons");
        }
        d.union(3, 2);
        assert_eq!(d.find(3), 2, "smallest root wins after reset");
    }

    #[test]
    fn budget_style_constraint_couples_everything() {
        let i = inst(4, &[(4, &[0, 1]), (4, &[2, 3]), (10, &[0, 1, 2, 3])]);
        assert_eq!(i.components().len(), 1);
    }
}
