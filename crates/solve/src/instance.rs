//! Description of a per-slot allocation problem.
//!
//! Since PR 2 the instance stores its constraint structure in a
//! structure-of-arrays CSR layout: constraint→member and
//! variable→constraint incidence live in two flat index arrays with
//! offset tables, built once per instance. The dual solver's inner loops
//! ([`crate::relaxed`]) iterate these contiguous slices branch-free
//! instead of chasing one heap-allocated `Vec<usize>` per variable and
//! per constraint. [`PackingConstraint`] survives as the *input* type for
//! the validating constructor; the hot construction path is the
//! arena-backed [`crate::assemble::RouteAssembler`].

use serde::{Deserialize, Serialize};

use crate::SolveError;

/// Numerically stable `ln(1 − (1 − p)^x)`.
///
/// Duplicated from `qdn-physics::prob` so the solver crate stays free of
/// that dependency (it operates on abstract probabilities). Public so the
/// incremental profile evaluator in `qdn-core` can reproduce
/// [`AllocationInstance::objective_int`] term-for-term (bit-identical
/// floating-point) without materializing an instance.
pub fn ln_success(p: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    ln_success_from(f64::ln_1p(-p), x)
}

/// [`ln_success`] at `x > 0` from a cached `ln β = ln_1p(−p)`: the same
/// expression, so the same bits.
#[inline]
pub(crate) fn ln_success_from(ln_beta: f64, x: f64) -> f64 {
    (-f64::exp_m1(x * ln_beta)).ln()
}

/// Marginal objective gain `V·(ln P(n+1) − ln P(n)) − κ` of raising a
/// variable with channel success `p` from `nj` to `nj + 1` channels.
///
/// The reference definition of the gain. The greedy fill
/// ([`crate::greedy::greedy_fill`]) and the slack closed form
/// ([`crate::relaxed::slack_point`]) evaluate the same terms through
/// [`gain_from`] and [`ln_success_from`], carrying each `ln P(n + 1)` to
/// the next step, so their stopping decisions agree with it and with
/// each other bit for bit.
#[inline]
pub fn marginal_gain(p: f64, v_weight: f64, unit_price: f64, nj: u32) -> f64 {
    gain_from(
        v_weight,
        unit_price,
        ln_success(p, nj as f64),
        ln_success(p, (nj + 1) as f64),
    )
}

/// [`marginal_gain`] from its two terms `ln P(n)` and `ln P(n + 1)`.
#[inline]
pub(crate) fn gain_from(v_weight: f64, unit_price: f64, ln_at: f64, ln_next: f64) -> f64 {
    v_weight * (ln_next - ln_at) - unit_price
}

/// One decision variable: the channel allocation of one edge of one
/// selected route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Per-channel per-slot success probability `p_e` of the underlying
    /// edge.
    pub p: f64,
}

impl Variable {
    /// Creates a variable for an edge with channel success `p`.
    pub fn new(p: f64) -> Self {
        Variable { p }
    }
}

/// A linear packing constraint `Σ_{j ∈ members} x_j ≤ capacity`.
///
/// Node qubit capacities (paper Eq. 4), edge channel capacities (Eq. 5),
/// and the baselines' per-slot budget all take this shape. This is the
/// *construction* representation; inside [`AllocationInstance`] the
/// member lists are flattened into one CSR index array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackingConstraint {
    /// The capacity (right-hand side).
    pub capacity: u32,
    /// Indices of the variables this constraint sums over.
    pub members: Vec<usize>,
}

impl PackingConstraint {
    /// Creates a constraint.
    pub fn new(capacity: u32, members: Vec<usize>) -> Self {
        PackingConstraint { capacity, members }
    }
}

/// A validated allocation problem:
/// `max Σ_j V·ln P_j(x_j) − κ·x_j` over `x ≥ 1` under packing constraints.
///
/// # Layout
///
/// Constraint membership is stored twice, both directions flat:
///
/// * `con_off`/`con_idx` — constraint `c` sums over variables
///   `con_idx[con_off[c]..con_off[c+1]]` (ascending),
/// * `mem_off`/`mem_idx` — variable `j` appears in constraints
///   `mem_idx[mem_off[j]..mem_off[j+1]]` (ascending).
///
/// Both are built once at validation time; the solvers only ever read
/// the slices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationInstance {
    pub(crate) vars: Vec<Variable>,
    /// `caps[c]`: capacity of constraint `c`.
    pub(crate) caps: Vec<u32>,
    /// Constraint → members CSR offsets (`caps.len() + 1` entries).
    pub(crate) con_off: Vec<u32>,
    /// Constraint → members CSR indices (variable ids).
    pub(crate) con_idx: Vec<u32>,
    /// Variable → constraints CSR offsets (`vars.len() + 1` entries).
    pub(crate) mem_off: Vec<u32>,
    /// Variable → constraints CSR indices (constraint ids).
    pub(crate) mem_idx: Vec<u32>,
    /// The Lyapunov weight `V` multiplying the log-success utility.
    pub(crate) v_weight: f64,
    /// The per-unit price `κ` (the virtual queue length `q_t` in OSCAR;
    /// 0 for the myopic baselines).
    pub(crate) unit_price: f64,
    /// `ub[j]`: largest value variable `j` can take with all other
    /// variables at their lower bound 1 (tightest single-variable bound
    /// implied by the packing constraints).
    pub(crate) ub: Vec<u32>,
}

/// Cap for variables in no constraint, so scalar solvers terminate.
pub(crate) const FREE_VAR_CAP: u32 = 1 << 20;

impl AllocationInstance {
    /// Validates and pre-processes an instance.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidProbability`] if a variable's `p ∉ (0, 1)`,
    /// * [`SolveError::BadVariableIndex`] for dangling member indices,
    /// * [`SolveError::InfeasibleAtLowerBound`] if some constraint cannot
    ///   even hold every member at 1 — the caller (route selection) must
    ///   treat such a route combination as invalid.
    pub fn new(
        vars: Vec<Variable>,
        constraints: Vec<PackingConstraint>,
        v_weight: f64,
        unit_price: f64,
    ) -> Result<Self, SolveError> {
        let mut husk = AllocationInstance {
            vars,
            caps: Vec::with_capacity(constraints.len()),
            con_off: Vec::with_capacity(constraints.len() + 1),
            con_idx: Vec::new(),
            mem_off: Vec::new(),
            mem_idx: Vec::new(),
            v_weight,
            unit_price,
            ub: Vec::new(),
        };
        husk.con_off.push(0);
        for c in &constraints {
            husk.caps.push(c.capacity);
            for &j in &c.members {
                // Out-of-range indices are caught in `finalize` (u32::MAX
                // stays out of range: member counts never reach 2^32).
                husk.con_idx.push(j.min(u32::MAX as usize) as u32);
            }
            husk.con_off.push(husk.con_idx.len() as u32);
        }
        husk.finalize()
    }

    /// Validates a husk whose `vars`, `caps`, `con_off`, and `con_idx`
    /// are filled, building the inverse membership CSR and the upper
    /// bounds in place. Single definition of instance validation — the
    /// [`AllocationInstance::new`] constructor and the arena-backed
    /// [`crate::assemble::RouteAssembler`] both end here.
    pub(crate) fn finalize(mut self) -> Result<Self, SolveError> {
        let n = self.vars.len();
        let m = self.caps.len();
        debug_assert_eq!(self.con_off.len(), m + 1);
        for (j, var) in self.vars.iter().enumerate() {
            if !(var.p > 0.0 && var.p < 1.0) {
                return Err(SolveError::InvalidProbability {
                    variable: j,
                    value: var.p,
                });
            }
        }
        // Per-constraint validation in constraint order (same error
        // precedence as the historical Vec-of-Vec constructor): dangling
        // member indices first, then lower-bound feasibility.
        for c in 0..m {
            let (lo, hi) = (self.con_off[c] as usize, self.con_off[c + 1] as usize);
            for &j in &self.con_idx[lo..hi] {
                if j as usize >= n {
                    return Err(SolveError::BadVariableIndex {
                        constraint: c,
                        variable: j as usize,
                    });
                }
            }
            let members = hi - lo;
            if members as u64 > self.caps[c] as u64 {
                return Err(SolveError::InfeasibleAtLowerBound {
                    constraint: c,
                    members,
                    capacity: self.caps[c],
                });
            }
        }

        // Inverse CSR (variable → constraints) by counting: iterating
        // constraints in ascending order keeps each variable's list
        // ascending, matching the historical `membership` semantics.
        // The fill advances the offsets in place (then shifts them back)
        // so recycled instances build with zero fresh allocations.
        self.mem_off.clear();
        self.mem_off.resize(n + 1, 0);
        for &j in &self.con_idx {
            self.mem_off[j as usize + 1] += 1;
        }
        for j in 0..n {
            self.mem_off[j + 1] += self.mem_off[j];
        }
        self.mem_idx.clear();
        self.mem_idx.resize(self.con_idx.len(), 0);
        for c in 0..m {
            let (lo, hi) = (self.con_off[c] as usize, self.con_off[c + 1] as usize);
            for &j in &self.con_idx[lo..hi] {
                let cur = &mut self.mem_off[j as usize];
                self.mem_idx[*cur as usize] = c as u32;
                *cur += 1;
            }
        }
        // Each mem_off[j] now holds var j's end offset (= the old
        // mem_off[j+1]); shift right once to restore the start offsets.
        for j in (1..=n).rev() {
            self.mem_off[j] = self.mem_off[j - 1];
        }
        if n > 0 {
            self.mem_off[0] = 0;
        }

        // ub[j] = min over constraints c containing j of
        //   cap_c - (|members_c| - 1)   (others sit at their lower bound 1).
        self.ub.clear();
        self.ub.resize(n, u32::MAX);
        for c in 0..m {
            let (lo, hi) = (self.con_off[c] as usize, self.con_off[c + 1] as usize);
            let members = (hi - lo) as u32;
            let headroom = self.caps[c] - members.saturating_sub(1).min(self.caps[c]);
            for &j in &self.con_idx[lo..hi] {
                let b = &mut self.ub[j as usize];
                *b = (*b).min(headroom);
            }
        }
        // A variable in no constraint is unbounded; cap it at a large but
        // finite value so scalar solvers terminate.
        for b in &mut self.ub {
            if *b == u32::MAX {
                *b = FREE_VAR_CAP;
            }
        }
        Ok(self)
    }

    /// An empty husk whose buffers grow on first use — the recycled
    /// storage unit for arena-style construction ([`crate::assemble`]'s
    /// instance arena, [`crate::relaxed`]'s component recursion).
    pub(crate) fn husk() -> Self {
        AllocationInstance {
            vars: Vec::new(),
            caps: Vec::new(),
            con_off: Vec::new(),
            con_idx: Vec::new(),
            mem_off: Vec::new(),
            mem_idx: Vec::new(),
            v_weight: 0.0,
            unit_price: 0.0,
            ub: Vec::new(),
        }
    }

    /// Clears this instance back into a husk, retaining every buffer's
    /// capacity for the next build.
    pub(crate) fn into_husk(mut self) -> Self {
        self.vars.clear();
        self.caps.clear();
        self.con_off.clear();
        self.con_idx.clear();
        self.mem_off.clear();
        self.mem_idx.clear();
        self.ub.clear();
        self
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.caps.len()
    }

    /// The variables.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Capacity of constraint `c`.
    pub fn capacity(&self, c: usize) -> u32 {
        self.caps[c]
    }

    /// Variable indices constraint `c` sums over (ascending).
    pub fn members(&self, c: usize) -> &[u32] {
        &self.con_idx[self.con_off[c] as usize..self.con_off[c + 1] as usize]
    }

    /// The utility weight `V`.
    pub fn v_weight(&self) -> f64 {
        self.v_weight
    }

    /// The per-unit price `κ`.
    pub fn unit_price(&self) -> f64 {
        self.unit_price
    }

    /// Upper bound for variable `j` implied by the constraints (others at
    /// their lower bound).
    pub fn upper_bound(&self, j: usize) -> u32 {
        self.ub[j]
    }

    /// Constraint indices containing variable `j` (ascending).
    pub fn membership(&self, j: usize) -> &[u32] {
        &self.mem_idx[self.mem_off[j] as usize..self.mem_off[j + 1] as usize]
    }

    /// Objective value at a real-valued point (used on relaxed solutions).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars
            .iter()
            .zip(x)
            .map(|(v, &xi)| self.v_weight * ln_success(v.p, xi) - self.unit_price * xi)
            .sum()
    }

    /// Objective value at an integer point.
    ///
    /// # Panics
    ///
    /// Panics if `n.len() != num_vars()`.
    pub fn objective_int(&self, n: &[u32]) -> f64 {
        assert_eq!(n.len(), self.vars.len());
        self.vars
            .iter()
            .zip(n)
            .map(|(v, &ni)| {
                self.v_weight * ln_success(v.p, ni as f64) - self.unit_price * ni as f64
            })
            .sum()
    }

    /// Total allocation `Σ_j x_j` (the per-slot cost `c_t`).
    pub fn total_allocation_int(&self, n: &[u32]) -> u64 {
        n.iter().map(|&v| v as u64).sum()
    }

    /// Whether an integer point satisfies bounds and all constraints.
    pub fn is_feasible_int(&self, n: &[u32]) -> bool {
        if n.len() != self.vars.len() || n.iter().any(|&ni| ni < 1) {
            return false;
        }
        (0..self.caps.len()).all(|c| {
            let usage: u64 = self.members(c).iter().map(|&j| n[j as usize] as u64).sum();
            usage <= self.caps[c] as u64
        })
    }

    /// Whether a real point satisfies bounds and all constraints within
    /// `tol`.
    pub fn is_feasible_real(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() || x.iter().any(|&xi| xi < 1.0 - tol) {
            return false;
        }
        (0..self.caps.len()).all(|c| {
            let usage: f64 = self.members(c).iter().map(|&j| x[j as usize]).sum();
            usage <= self.caps[c] as f64 + tol
        })
    }

    /// Remaining slack of constraint `c` at integer point `n`.
    pub fn slack_int(&self, c: usize, n: &[u32]) -> i64 {
        let usage: i64 = self.members(c).iter().map(|&j| n[j as usize] as i64).sum();
        self.caps[c] as i64 - usage
    }

    /// Whether incrementing variable `j` by one keeps the point feasible.
    pub fn can_increment(&self, j: usize, n: &[u32]) -> bool {
        self.membership(j)
            .iter()
            .all(|&c| self.slack_int(c as usize, n) >= 1)
    }

    /// Marginal objective gain of incrementing variable `j` from `n[j]`:
    /// `V·(ln P(n+1) − ln P(n)) − κ`.
    pub fn marginal_gain(&self, j: usize, nj: u32) -> f64 {
        marginal_gain(self.vars[j].p, self.v_weight, self.unit_price, nj)
    }

    /// The all-ones starting point.
    pub fn lower_bound_point(&self) -> Vec<u32> {
        vec![1; self.vars.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> AllocationInstance {
        AllocationInstance::new(
            vec![Variable::new(0.5), Variable::new(0.6)],
            vec![
                PackingConstraint::new(5, vec![0, 1]),
                PackingConstraint::new(3, vec![0]),
            ],
            10.0,
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn validates_probability() {
        let err = AllocationInstance::new(vec![Variable::new(1.0)], vec![], 1.0, 0.0);
        assert!(matches!(err, Err(SolveError::InvalidProbability { .. })));
        let err = AllocationInstance::new(vec![Variable::new(0.0)], vec![], 1.0, 0.0);
        assert!(matches!(err, Err(SolveError::InvalidProbability { .. })));
    }

    #[test]
    fn validates_member_indices() {
        let err = AllocationInstance::new(
            vec![Variable::new(0.5)],
            vec![PackingConstraint::new(3, vec![1])],
            1.0,
            0.0,
        );
        assert!(matches!(err, Err(SolveError::BadVariableIndex { .. })));
    }

    #[test]
    fn detects_lb_infeasibility() {
        let err = AllocationInstance::new(
            vec![Variable::new(0.5), Variable::new(0.5), Variable::new(0.5)],
            vec![PackingConstraint::new(2, vec![0, 1, 2])],
            1.0,
            0.0,
        );
        assert!(matches!(
            err,
            Err(SolveError::InfeasibleAtLowerBound { .. })
        ));
    }

    #[test]
    fn upper_bounds_account_for_other_members() {
        let inst = simple();
        // Constraint 0: cap 5, two members -> headroom 4.
        // Constraint 1: cap 3, one member -> headroom 3.
        assert_eq!(inst.upper_bound(0), 3);
        assert_eq!(inst.upper_bound(1), 4);
    }

    #[test]
    fn free_variable_gets_finite_cap() {
        let inst = AllocationInstance::new(vec![Variable::new(0.5)], vec![], 1.0, 0.0).unwrap();
        assert!(inst.upper_bound(0) >= 1 << 20);
    }

    #[test]
    fn membership_inverse() {
        let inst = simple();
        assert_eq!(inst.membership(0), &[0, 1]);
        assert_eq!(inst.membership(1), &[0]);
    }

    #[test]
    fn csr_members_match_construction_order() {
        let inst = simple();
        assert_eq!(inst.members(0), &[0, 1]);
        assert_eq!(inst.members(1), &[0]);
        assert_eq!(inst.capacity(0), 5);
        assert_eq!(inst.capacity(1), 3);
    }

    #[test]
    fn objective_matches_manual() {
        let inst = simple();
        let n = [2u32, 1];
        let manual = 10.0 * ((1.0 - 0.25f64).ln() + 0.6f64.ln()) - 0.5 * 3.0;
        assert!((inst.objective_int(&n) - manual).abs() < 1e-12);
        let x = [2.0f64, 1.0];
        assert!((inst.objective(&x) - manual).abs() < 1e-12);
    }

    #[test]
    fn feasibility_checks() {
        let inst = simple();
        assert!(inst.is_feasible_int(&[1, 1]));
        assert!(inst.is_feasible_int(&[3, 2]));
        assert!(!inst.is_feasible_int(&[4, 1])); // violates constraint 1
        assert!(!inst.is_feasible_int(&[3, 3])); // violates constraint 0
        assert!(!inst.is_feasible_int(&[0, 1])); // below lower bound
        assert!(!inst.is_feasible_int(&[1])); // wrong arity
        assert!(inst.is_feasible_real(&[1.5, 2.5], 1e-9));
        assert!(!inst.is_feasible_real(&[1.5, 4.0], 1e-9));
    }

    #[test]
    fn slack_and_increments() {
        let inst = simple();
        let n = [2u32, 2];
        assert_eq!(inst.slack_int(0, &n), 1);
        assert_eq!(inst.slack_int(1, &n), 1);
        assert!(inst.can_increment(0, &n));
        assert!(inst.can_increment(1, &n));
        let n = [3u32, 2];
        assert!(!inst.can_increment(0, &n)); // constraint 1 exhausted
        assert!(!inst.can_increment(1, &n)); // constraint 0 exhausted
    }

    #[test]
    fn marginal_gain_decreases() {
        let inst = simple();
        let g1 = inst.marginal_gain(0, 1);
        let g2 = inst.marginal_gain(0, 2);
        assert!(g1 > g2);
    }

    #[test]
    fn cost_helper() {
        let inst = simple();
        assert_eq!(inst.total_allocation_int(&[2, 3]), 5);
    }

    #[test]
    fn ln_success_stability() {
        assert_eq!(ln_success(0.5, 0.0), f64::NEG_INFINITY);
        assert!((ln_success(0.5, 1.0) - 0.5f64.ln()).abs() < 1e-12);
    }
}
