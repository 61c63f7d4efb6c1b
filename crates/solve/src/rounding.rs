//! Down-rounding with surplus allocation (paper Algorithm 2, step 4),
//! and relax-and-round as one call.
//!
//! Given the relaxed optimum `x̃*`, take `n_j = ⌊x̃*_j⌋` (never below 1 —
//! the relaxed problem enforces `x̃ ≥ 1`), which is feasible because the
//! capacities are integers, then greedily re-allocate any remaining
//! capacity to variables with positive marginal gain. The result satisfies
//! the paper's Eq. 8: `n*_j ≥ 1` and `x̃*_j − n*_j ≤ 1`, which is what the
//! Δ-optimality proof of Prop. 2 needs.
//!
//! [`relax_and_round_until`] is Algorithm 2 per coupling component, with
//! one declared rule: a component in which exactly one constraint can
//! bind is allocated by [`greedy_allocate`], its exact integer optimum,
//! instead of FISTA plus rounding (see its docs and the crate README).

use crate::greedy::{greedy_allocate, greedy_fill};
use crate::instance::AllocationInstance;
use crate::relaxed::{
    slack_fits, slack_fits_real, slack_integer, slack_real, solve_component_until, RelaxedOptions,
};
use crate::SolveError;

/// An integer allocation and the path that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegerAllocation {
    /// Channels per variable.
    pub n: Vec<u32>,
    /// Coupling components allocated by the one-binding rule of
    /// [`relax_and_round_until`] rather than by FISTA plus rounding.
    pub one_binding: usize,
}

/// Relax-and-round (paper Algorithm 2) with the one-binding rule, run
/// per coupling component with a stop hook.
///
/// Each component of [`AllocationInstance::components`] is allocated on
/// its own:
///
/// * **One binding constraint.** When exactly one of the component's
///   constraints fails [`slack_fits`] at its members' [`slack_point`](crate::relaxed::slack_point)s,
///   the component gets [`greedy_allocate`]. A variable's `cap` for its
///   slack point is the smallest capacity among its constraints. Greedy
///   raises a variable only while its gain is positive, so never past
///   its slack point's `n`, and the other constraints, which fit at
///   those points, never block it. What is left is a separable concave
///   objective under one unit-coefficient capacity with box bounds, for
///   which best-first greedy from the lower bounds is the exact integer
///   optimum (Federgruen & Groenevelt, *Oper. Res.* 1986). No dual
///   iteration runs, so `stop` is never called for it.
/// * **Any other component** (no failing constraint, two or more, or a
///   variable without a slack point, e.g. at `κ ≤ 0`) gets
///   [`crate::relaxed::solve_relaxed_until`]'s FISTA solve and
///   [`round_down_and_fill`], bit for bit.
///
/// This is a decision rule, not a replay of FISTA plus rounding: on
/// one-bindable components the two can disagree when rounding misses
/// the integer optimum, and then greedy scores higher. Prop. 2's Δ bound
/// holds for both paths.
///
/// `stop` sees what [`crate::relaxed::solve_relaxed_until`]'s hook sees
/// over the FISTA components: the finished ones' final drops plus the
/// running one's. Returns `Ok(None)` as soon as it fires.
///
/// # Errors
///
/// As [`crate::relaxed::solve_relaxed`].
///
/// # Example
///
/// ```
/// use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
/// use qdn_solve::greedy::greedy_allocate;
/// use qdn_solve::rounding::relax_and_round_until;
///
/// // Unconstrained, the two variables want about 7.7 and 4.0 channels:
/// // their own capacities of 12 stay slack, and the shared 10 binds.
/// let inst = AllocationInstance::new(
///     vec![Variable::new(0.4), Variable::new(0.7)],
///     vec![
///         PackingConstraint::new(12, vec![0]),
///         PackingConstraint::new(12, vec![1]),
///         PackingConstraint::new(10, vec![0, 1]),
///     ],
///     1000.0,
///     10.0,
/// ).unwrap();
/// let got = relax_and_round_until(&inst, &Default::default(), |_| false)
///     .unwrap()
///     .unwrap();
/// assert_eq!(got.one_binding, 1);
/// assert_eq!(got.n, greedy_allocate(&inst).unwrap());
/// ```
pub fn relax_and_round_until(
    instance: &AllocationInstance,
    options: &RelaxedOptions,
    mut stop: impl FnMut(f64) -> bool,
) -> Result<Option<IntegerAllocation>, SolveError> {
    // Final drops of the finished FISTA components.
    let mut dropped = 0.0;
    let partition = instance.components();
    if partition.len() <= 1 {
        // The instance itself, as `solve_relaxed_until` solves it.
        return Ok(
            allocate_component(instance, options, &mut dropped, &mut stop)?.map(|(n, greedy)| {
                IntegerAllocation {
                    n,
                    one_binding: usize::from(greedy),
                }
            }),
        );
    }
    let mut n = vec![0u32; instance.num_vars()];
    let mut one_binding = 0;
    let finished = instance.for_each_component(&partition, |sub, vars, _| {
        let Some((sub_n, greedy)) = allocate_component(sub, options, &mut dropped, &mut stop)?
        else {
            return Ok(false);
        };
        one_binding += usize::from(greedy);
        for (&j, nj) in vars.iter().zip(sub_n) {
            n[j] = nj;
        }
        Ok(true)
    })?;
    Ok(finished.then_some(IntegerAllocation { n, one_binding }))
}

/// One component's allocation and whether the one-binding rule gave it;
/// `None` when `stop` abandoned its dual solve.
fn allocate_component(
    component: &AllocationInstance,
    options: &RelaxedOptions,
    dropped: &mut f64,
    stop: &mut impl FnMut(f64) -> bool,
) -> Result<Option<(Vec<u32>, bool)>, SolveError> {
    if component.num_vars() == 0 {
        return Ok(Some((Vec::new(), false)));
    }
    if one_binding(component) {
        return greedy_allocate(component).map(|n| Some((n, true)));
    }
    let Some(relaxed) = solve_component_until(component, options, dropped, stop) else {
        return Ok(None);
    };
    round_down_and_fill(component, &relaxed.x).map(|n| Some((n, false)))
}

/// Whether exactly one constraint with members fails [`slack_fits`] at
/// its members' [`slack_point`](crate::relaxed::slack_point)s, each variable's `cap` being the
/// smallest capacity among its constraints; `false` when some variable
/// has no slack point.
fn one_binding(instance: &AllocationInstance) -> bool {
    let (v, kappa) = (instance.v_weight(), instance.unit_price());
    let mut reals = Vec::with_capacity(instance.num_vars());
    let mut caps = Vec::with_capacity(instance.num_vars());
    for (j, var) in instance.vars().iter().enumerate() {
        let cap = instance
            .membership(j)
            .iter()
            .map(|&c| instance.capacity(c as usize))
            .min()
            .unwrap_or(u32::MAX);
        let Some(real) = slack_real(var.p, v, kappa, cap) else {
            return false;
        };
        reals.push(real);
        caps.push(cap);
    }
    let rows = || (0..instance.num_constraints()).filter(|&c| !instance.members(c).is_empty());
    let sum_x = |c: usize| -> f64 {
        instance
            .members(c)
            .iter()
            .map(|&j| reals[j as usize].x)
            .sum()
    };
    // A constraint whose reals already fail fails whatever the integers
    // say, so two of them settle it before the integer parts are built.
    if rows()
        .filter(|&c| !slack_fits_real(sum_x(c), instance.capacity(c)))
        .nth(1)
        .is_some()
    {
        return false;
    }
    let mut ns = Vec::with_capacity(instance.num_vars());
    for (&real, &cap) in reals.iter().zip(&caps) {
        let Some(n) = slack_integer(real, v, kappa, cap) else {
            return false;
        };
        ns.push(u64::from(n));
    }
    let failing = rows().filter(|&c| {
        let sum_n: u64 = instance.members(c).iter().map(|&j| ns[j as usize]).sum();
        !slack_fits(sum_x(c), sum_n, instance.capacity(c))
    });
    failing.count() == 1
}

/// Rounds a feasible relaxed solution down and fills surplus capacity.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] if `x` has the wrong arity.
///
/// # Example
///
/// ```
/// use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
/// use qdn_solve::relaxed::solve_relaxed;
/// use qdn_solve::rounding::round_down_and_fill;
///
/// let inst = AllocationInstance::new(
///     vec![Variable::new(0.55); 2],
///     vec![PackingConstraint::new(5, vec![0, 1])],
///     1000.0,
///     2.0,
/// ).unwrap();
/// let relaxed = solve_relaxed(&inst, &Default::default()).unwrap();
/// let n = round_down_and_fill(&inst, &relaxed.x).unwrap();
/// assert!(inst.is_feasible_int(&n));
/// // Eq. 8: x̃ - n <= 1 before surplus, and surplus only increases n.
/// for (xi, ni) in relaxed.x.iter().zip(&n) {
///     assert!(*ni as f64 >= *xi - 1.0);
/// }
/// ```
pub fn round_down_and_fill(
    instance: &AllocationInstance,
    x: &[f64],
) -> Result<Vec<u32>, SolveError> {
    if x.len() != instance.num_vars() {
        return Err(SolveError::DimensionMismatch {
            expected: instance.num_vars(),
            got: x.len(),
        });
    }
    // Down-round; x >= 1 so floor >= 1. Tolerate tiny negative excursions
    // from the numeric solver.
    let down: Vec<u32> = x.iter().map(|&xi| (xi.floor().max(1.0)) as u32).collect();
    debug_assert!(
        instance.is_feasible_int(&down),
        "down-rounding a feasible relaxed point stays feasible"
    );
    // Surplus phase: greedy positive-gain increments.
    greedy_fill(instance, &down, 0.0)
}

/// Verifies the Eq. 8 rounding relation between a relaxed point and its
/// rounded counterpart: `n ≥ 1` and `x − n ≤ 1` component-wise.
///
/// Exposed for tests and the theory-validation harness.
pub fn satisfies_rounding_relation(x: &[f64], n: &[u32]) -> bool {
    x.len() == n.len()
        && n.iter().all(|&ni| ni >= 1)
        && x.iter()
            .zip(n)
            .all(|(&xi, &ni)| xi - (ni as f64) <= 1.0 + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{PackingConstraint, Variable};
    use crate::relaxed::{solve_relaxed, RelaxedOptions};

    fn inst(caps: &[(u32, &[usize])], ps: &[f64], v: f64, price: f64) -> AllocationInstance {
        AllocationInstance::new(
            ps.iter().map(|&p| Variable::new(p)).collect(),
            caps.iter()
                .map(|&(c, m)| PackingConstraint::new(c, m.to_vec()))
                .collect(),
            v,
            price,
        )
        .unwrap()
    }

    #[test]
    fn rounding_preserves_feasibility() {
        let i = inst(&[(5, &[0, 1]), (3, &[0])], &[0.5, 0.6], 800.0, 1.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let n = round_down_and_fill(&i, &s.x).unwrap();
        assert!(i.is_feasible_int(&n));
    }

    #[test]
    fn rounding_relation_holds() {
        let i = inst(&[(7, &[0, 1, 2])], &[0.3, 0.5, 0.7], 1200.0, 3.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let n = round_down_and_fill(&i, &s.x).unwrap();
        assert!(satisfies_rounding_relation(&s.x, &n), "x={:?} n={n:?}", s.x);
    }

    #[test]
    fn surplus_fill_improves_over_plain_floor() {
        // Fractional optimum leaves a unit of slack that the fill phase
        // should claim when gains are positive.
        let i = inst(&[(5, &[0, 1])], &[0.55, 0.55], 5000.0, 0.1);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let down: Vec<u32> = s.x.iter().map(|&xi| xi.floor().max(1.0) as u32).collect();
        let filled = round_down_and_fill(&i, &s.x).unwrap();
        assert!(i.objective_int(&filled) >= i.objective_int(&down));
        // With near-zero price the filled solution should use all 5 units.
        assert_eq!(filled.iter().sum::<u32>(), 5);
    }

    #[test]
    fn dimension_mismatch() {
        let i = inst(&[(4, &[0])], &[0.5], 10.0, 0.0);
        assert!(matches!(
            round_down_and_fill(&i, &[1.0, 2.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn relation_checker_rejects_bad_pairs() {
        assert!(!satisfies_rounding_relation(&[3.5], &[2])); // gap 1.5 > 1
        assert!(!satisfies_rounding_relation(&[1.0], &[0])); // below 1
        assert!(!satisfies_rounding_relation(&[1.0, 2.0], &[1])); // arity
        assert!(satisfies_rounding_relation(&[2.7], &[2]));
    }

    /// Prop. 2: the rounded solution is within Δ = V·F·L·log(2 − p_min)
    /// of the true integer optimum. Here F·L = number of variables.
    #[test]
    fn prop2_gap_bound_holds_on_random_instances() {
        use crate::brute::brute_force_best;
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for trial in 0..25 {
            let nv = rng.random_range(2..4usize);
            let ps: Vec<f64> = (0..nv).map(|_| rng.random_range(0.25..0.9)).collect();
            let cap = rng.random_range(nv as u32 + 1..=nv as u32 + 5);
            let v = rng.random_range(100.0..2000.0);
            let price = rng.random_range(0.0..30.0);
            let i = AllocationInstance::new(
                ps.iter().map(|&p| Variable::new(p)).collect(),
                vec![PackingConstraint::new(cap, (0..nv).collect())],
                v,
                price,
            )
            .unwrap();
            let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
            let n = round_down_and_fill(&i, &s.x).unwrap();
            let (_, opt_val) = brute_force_best(&i, 8);
            let p_min = ps.iter().copied().fold(1.0, f64::min);
            let delta = v * nv as f64 * (2.0 - p_min).ln();
            let got = i.objective_int(&n);
            assert!(
                opt_val - got <= delta + 1e-6,
                "trial {trial}: gap {} exceeds Δ={delta}",
                opt_val - got
            );
        }
    }
}
