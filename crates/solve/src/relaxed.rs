//! Lagrangian dual solver for the continuous relaxation of P2.
//!
//! The relaxed problem (paper Algorithm 2, step 3) is separable concave
//! with linear packing constraints, so its Lagrangian dual decomposes into
//! per-variable closed-form maximizations ([`crate::scalar`]). The dual is
//! solved by adaptively restarted FISTA: it is C¹ with Lipschitz gradient
//! because the strictly concave log-success utility makes the
//! per-variable argmax unique (see [`crate::accel`] for the math). The
//! `O(1/k²)` rate — linear near the optimum with adaptive restarts —
//! makes the strict default `gap_tolerance = 1e-4` certifiable at paper
//! scale, so cold solves stop early instead of burning the full budget.
//!
//! The primal answer is recovered from the iterates with a feasibility
//! repair that exactly preserves the `x ≥ 1` lower bound (so the Eq. 8
//! rounding relation stays valid downstream), and `converged` means the
//! *certified* relative duality gap fell below `gap_tolerance`.
//!
//! # Inner-loop layout (PR 2)
//!
//! The iteration runs entirely over the instance's flat CSR incidence
//! arrays ([`AllocationInstance`] stores variable→constraint and
//! constraint→member membership as contiguous index+offset slices): one
//! branch-free gather pass computes every variable's price, a fused pass
//! updates `x` and accumulates the dual value from per-variable cached
//! transcendentals (`ln β`, `ln P(1)`, `ln P(ub)` are computed once per
//! solve, and the interior dual term falls out of the stationarity
//! condition as `−ln(1+ρ)` — no `exp`/`ln` pair per variable per
//! iteration), and the repair/objective passes reuse per-solve buffers.
//! A solve allocates a fixed number of vectors up front and nothing
//! inside the loop. The passes live here ([`VarCache`],
//! [`dual_value_at`], [`residual_pass`], [`consider_primal`]); the loop
//! itself is `accel::accelerated_iterate`.
//!
//! # Warm starts
//!
//! [`solve_relaxed_warm`] seeds the dual iteration from a caller-provided
//! λ (typically the memoized prices of a *neighboring* route profile —
//! see `qdn-core::profile_eval`). A warm run is accepted once its
//! relative gap falls below the same strict `gap_tolerance` a cold run
//! certifies (a warm seed changes where the iteration *starts*, never
//! what it certifies), and is capped at
//! [`RelaxedOptions::warm_iteration_fraction`] of the budget: a
//! warm seed either pays off quickly or not at all, so burning the full
//! budget on a failing warm attempt (and then again on the cold fallback)
//! would pay twice for one solve. When the capped warm attempt does not
//! converge, the solve re-runs cold from λ = 0 **carrying the warm
//! attempt's incumbents** (best primal point, best dual bound), so the
//! fallback's answer is never worse than what the warm attempt already
//! had — a bad warm start can cost time, never quality. Every returned
//! solution is feasible, and [`RelaxedSolution::converged`] reports
//! whether its duality gap was certified. The final prices come back in
//! [`RelaxedSolution::lambda`] for the caller to store.

use serde::{Deserialize, Serialize};
use wide::f64x4;

use crate::accel::accelerated_iterate;
use crate::instance::{ln_success, AllocationInstance};
use crate::SolveError;

/// `Σ x[idx]` over one CSR row, 4-wide chunked: a vector accumulator
/// over the 4-aligned prefix (lanes combined in the fixed
/// [`f64x4::reduce_add`] order), then the ≤3 tail entries left to right.
/// Deterministic for a given row; every caller of the shared passes sees
/// the same association, so cross-path bit-identity is preserved.
#[inline]
pub(crate) fn gather_sum(idx: &[u32], x: &[f64]) -> f64 {
    let chunks = idx.chunks_exact(4);
    let tail = chunks.remainder();
    let mut acc = f64x4::ZERO;
    for ch in chunks {
        acc = acc
            + f64x4([
                x[ch[0] as usize],
                x[ch[1] as usize],
                x[ch[2] as usize],
                x[ch[3] as usize],
            ]);
    }
    let mut sum = acc.reduce_add();
    for &j in tail {
        sum += x[j as usize];
    }
    sum
}

/// Options for [`solve_relaxed`].
///
/// Unknown JSON keys are rejected, so a stale config that still carries
/// a removed field fails loudly instead of silently running with
/// different semantics — see MIGRATION.md.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RelaxedOptions {
    /// Maximum dual iterations (per attempt; a failed warm attempt plus
    /// its cold fallback together spend at most
    /// `(1 + warm_iteration_fraction) × max_iterations`).
    pub max_iterations: usize,
    /// Stop once the certified relative duality gap falls below this
    /// value (warm and cold attempts alike).
    pub gap_tolerance: f64,
    /// Let callers that cache dual prices (the profile evaluator's
    /// per-component λ store) seed repeat solves via
    /// [`solve_relaxed_warm`]. The solver itself ignores this flag — it
    /// is configuration surface for the evaluation layer. **Off by
    /// default**: warm-started solves are equal only up to the duality
    /// gap, so paths that must stay bit-identical to the full-rebuild
    /// reference keep it disabled.
    pub warm_start: bool,
    /// Fraction of `max_iterations` a warm attempt may spend before the
    /// cold fallback takes over (clamped to `[0, 1]`; at least one warm
    /// iteration runs whenever a warm seed is given). Capping the warm
    /// attempt fixes the historical double-pay: a failing warm run used
    /// to burn the *full* budget and then discard its incumbents before
    /// re-running cold for another full budget. **Loud compat break
    /// (PR 3):** required in JSON configs; `0.25` is the default, `1.0`
    /// restores the old warm budget (the incumbent carry-over stays).
    pub warm_iteration_fraction: f64,
}

impl Default for RelaxedOptions {
    /// The certified configuration: strict `1e-4` gap tolerance and
    /// **no** warm starts — every solve certifies its own duality gap
    /// from a cold start, so results are bit-identical to the
    /// full-rebuild reference.
    fn default() -> Self {
        RelaxedOptions {
            max_iterations: 600,
            gap_tolerance: 1e-4,
            warm_start: false,
            warm_iteration_fraction: 0.25,
        }
    }
}

/// Result of the relaxed solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelaxedSolution {
    /// A feasible primal point (`x_j ≥ 1`, all constraints satisfied).
    pub x: Vec<f64>,
    /// Objective value at `x` (lower bound on the relaxed optimum).
    pub primal_value: f64,
    /// Best dual value observed (upper bound on the relaxed optimum).
    pub dual_bound: f64,
    /// Iterations performed (a failed warm attempt's iterations count
    /// toward the total its cold fallback reports).
    pub iterations: usize,
    /// Final dual prices, one per constraint (warm-start seed for
    /// neighboring instances).
    pub lambda: Vec<f64>,
    /// Whether the relative duality gap fell below the acceptance
    /// threshold within the iteration budget.
    pub converged: bool,
}

impl RelaxedSolution {
    /// Absolute duality gap `dual_bound − primal_value` (≥ 0 up to
    /// numerical error); small means near-optimal.
    pub fn gap(&self) -> f64 {
        self.dual_bound - self.primal_value
    }

    /// The relative gap the convergence check certifies:
    /// `gap / (1 + max(|dual|, |primal|))`.
    pub fn relative_gap(&self) -> f64 {
        let scale = 1.0 + self.dual_bound.abs().max(self.primal_value.abs());
        self.gap() / scale
    }
}

/// Solves the continuous relaxation `max Σ V·ln P_j(x_j) − κ·x_j` s.t.
/// packing constraints and `x ≥ 1`, starting cold from `λ = 0`.
///
/// # Errors
///
/// Returns [`SolveError::InfeasibleAtLowerBound`] only if the instance
/// was constructed without validation (cannot happen through
/// [`AllocationInstance::new`]); otherwise always produces a feasible
/// solution.
///
/// # Example
///
/// ```
/// use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
/// use qdn_solve::relaxed::{solve_relaxed, RelaxedOptions};
///
/// let inst = AllocationInstance::new(
///     vec![Variable::new(0.55); 2],
///     vec![PackingConstraint::new(6, vec![0, 1])],
///     1000.0,
///     5.0,
/// ).unwrap();
/// let sol = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
/// assert!(inst.is_feasible_real(&sol.x, 1e-6));
/// assert!(sol.gap() < 1.0);
/// ```
pub fn solve_relaxed(
    instance: &AllocationInstance,
    options: &RelaxedOptions,
) -> Result<RelaxedSolution, SolveError> {
    solve_relaxed_warm(instance, options, None)
}

/// [`solve_relaxed`] with an optional warm-start λ (one entry per
/// constraint; negative entries are clamped to 0).
///
/// With `warm = None` (or an all-zero warm vector) this is exactly the
/// cold solve. Otherwise the dual iteration starts from the given
/// prices; if it does not reach the acceptance gap within its (capped)
/// budget, the solve re-runs cold carrying the warm attempt's incumbent
/// primal/dual bounds, so the result is never worse than either the
/// plain cold solve's guarantees or the warm attempt's achieved value
/// (see the module docs).
///
/// # Errors
///
/// As [`solve_relaxed`].
///
/// # Panics
///
/// Debug-asserts `warm.len() == instance.num_constraints()`.
pub fn solve_relaxed_warm(
    instance: &AllocationInstance,
    options: &RelaxedOptions,
    warm: Option<&[f64]>,
) -> Result<RelaxedSolution, SolveError> {
    let n = instance.num_vars();
    let m = instance.num_constraints();
    if let Some(w) = warm {
        debug_assert_eq!(w.len(), m, "warm-start λ arity mismatch");
    }
    if n == 0 {
        return Ok(RelaxedSolution {
            x: Vec::new(),
            primal_value: 0.0,
            dual_bound: 0.0,
            iterations: 0,
            lambda: vec![0.0; m],
            converged: true,
        });
    }

    // Decompose by constraint coupling: the dual iterations below use
    // *global* convergence checks and global step adaptation, so solving
    // independent components jointly both converges slower and produces
    // different floating-point trajectories than solving them alone.
    // Working component-wise makes the result identical whether a
    // component is solved inside a joint instance or as a stand-alone
    // sub-instance — the invariant the incremental profile evaluator in
    // `qdn-core` relies on.
    let partition = instance.components();
    if partition.len() > 1 {
        let mut x = vec![0.0f64; n];
        let mut lambda = vec![0.0f64; m];
        let mut primal_value = 0.0;
        let mut dual_bound = 0.0;
        let mut iterations = 0;
        let mut converged = true;
        let mut warm_buf: Vec<f64> = Vec::new();
        // Sub-instances cycle through one recycled husk + index scratch
        // (ROADMAP item i): the per-component build reuses the previous
        // component's storage instead of the generic allocating
        // constructor, so the recursion allocates once, not per
        // component.
        let mut husk: Option<AllocationInstance> = None;
        let mut local_index: Vec<usize> = Vec::new();
        for (comp_vars, comp_cons) in partition.vars.iter().zip(&partition.constraints) {
            let sub = instance.sub_instance_into(
                comp_vars,
                comp_cons,
                &mut local_index,
                husk.take().unwrap_or_else(AllocationInstance::husk),
            )?;
            let sub_warm = warm.map(|w| {
                warm_buf.clear();
                warm_buf.extend(comp_cons.iter().map(|&ci| w[ci]));
                &warm_buf[..]
            });
            let sol = solve_single(&sub, options, sub_warm);
            for (local, &j) in comp_vars.iter().enumerate() {
                x[j] = sol.x[local];
            }
            for (local, &ci) in comp_cons.iter().enumerate() {
                lambda[ci] = sol.lambda[local];
            }
            primal_value += sol.primal_value;
            dual_bound += sol.dual_bound;
            iterations = iterations.max(sol.iterations);
            converged &= sol.converged;
            husk = Some(sub.into_husk());
        }
        return Ok(RelaxedSolution {
            x,
            primal_value,
            dual_bound,
            iterations,
            lambda,
            converged,
        });
    }

    Ok(solve_single(instance, options, warm))
}

/// Iterations a warm attempt may spend before falling back cold.
fn warm_iteration_budget(options: &RelaxedOptions) -> usize {
    let frac = options.warm_iteration_fraction.clamp(0.0, 1.0);
    let budget = (options.max_iterations as f64 * frac).ceil() as usize;
    budget.clamp(1, options.max_iterations.max(1))
}

/// Solves one coupling component, trying the warm start first (when
/// given and non-trivial) under a capped iteration budget, and falling
/// back to the cold λ = 0 iteration — seeded with the warm attempt's
/// incumbents — when the warm run does not converge. Both attempts
/// certify the same `gap_tolerance`.
fn solve_single(
    instance: &AllocationInstance,
    options: &RelaxedOptions,
    warm: Option<&[f64]>,
) -> RelaxedSolution {
    let warm_attempt = match warm {
        Some(w) if w.iter().any(|&l| l > 0.0) => {
            let sol = accelerated_iterate(
                instance,
                Some(w),
                options.gap_tolerance,
                warm_iteration_budget(options),
                None,
            );
            if sol.converged {
                return sol;
            }
            Some(sol)
        }
        _ => None,
    };
    let mut cold = accelerated_iterate(
        instance,
        None,
        options.gap_tolerance,
        options.max_iterations,
        warm_attempt.as_ref(),
    );
    if let Some(warm_sol) = warm_attempt {
        cold.iterations += warm_sol.iterations;
    }
    cold
}

/// Per-variable constants cached once per solve. `ln_p1`/`ln_p_ub` use
/// the canonical [`ln_success`] formula so boundary iterates carry
/// bit-identical objective terms to the unfused reference.
pub(crate) struct VarCache {
    pub ln_beta: Vec<f64>,
    pub ub_f: Vec<f64>,
    pub ln_p1: Vec<f64>,
    pub ln_p_ub: Vec<f64>,
}

impl VarCache {
    pub(crate) fn new(instance: &AllocationInstance) -> Self {
        // One flat stride-1 fill per output array (not one
        // row-of-structs loop writing four arrays at once): each loop
        // reads/writes contiguous memory, which is the shape the
        // vectorizer and the prefetcher both want. Element values are
        // bit-identical to the fused loop — only the traversal changed.
        let n = instance.num_vars();
        let ln_beta: Vec<f64> = instance.vars.iter().map(|v| f64::ln_1p(-v.p)).collect();
        let ub_f: Vec<f64> = instance.ub.iter().map(|&u| u as f64).collect();
        let ln_p1: Vec<f64> = instance.vars.iter().map(|v| ln_success(v.p, 1.0)).collect();
        let ln_p_ub: Vec<f64> = (0..n)
            .map(|j| ln_success(instance.vars[j].p, ub_f[j]))
            .collect();
        VarCache {
            ln_beta,
            ub_f,
            ln_p1,
            ln_p_ub,
        }
    }
}

/// The fused dual evaluation of the dual loop: fills `price`
/// (pass 1, a flat gather over the variable→constraint CSR slice) and
/// the per-variable argmax `x` (pass 2, closed form via
/// [`crate::scalar::stationary_point`]), returning the dual value
/// `D(λ) = Σ_j [V ln P_j(x_j) − price_j x_j] + Σ_c λ_c cap_c`. At the
/// interior stationary point `t* = ρ/(1+ρ)` the log term is
/// `−ln(1+ρ)` ([`crate::scalar::interior_log_term`]) — no extra
/// transcendental.
pub(crate) fn dual_value_at(
    instance: &AllocationInstance,
    cache: &VarCache,
    lambda: &[f64],
    price: &mut [f64],
    x: &mut [f64],
) -> f64 {
    let n = instance.num_vars();
    let v = instance.v_weight();
    let kappa = instance.unit_price();
    let mem_off = &instance.mem_off;
    let mem_idx = &instance.mem_idx;
    for j in 0..n {
        let (lo, hi) = (mem_off[j] as usize, mem_off[j + 1] as usize);
        price[j] = kappa + gather_sum(&mem_idx[lo..hi], lambda);
    }
    let mut dual = 0.0;
    for j in 0..n {
        let pr = price[j];
        if pr <= 0.0 {
            // Increasing utility: take everything available.
            x[j] = cache.ub_f[j];
            dual += v * cache.ln_p_ub[j] - pr * cache.ub_f[j];
            continue;
        }
        let rho = pr / (-v * cache.ln_beta[j]);
        let x_star = crate::scalar::stationary_point(rho, cache.ln_beta[j]);
        if x_star <= 1.0 {
            x[j] = 1.0;
            dual += v * cache.ln_p1[j] - pr;
        } else if x_star >= cache.ub_f[j] {
            x[j] = cache.ub_f[j];
            dual += v * cache.ln_p_ub[j] - pr * cache.ub_f[j];
        } else {
            x[j] = x_star;
            dual += v * crate::scalar::interior_log_term(rho) - pr * x_star;
        }
    }
    // Caps term `Σ_c λ_c cap_c`: 4-wide chunked dot with the same fixed
    // lane-reduction order as the gather pass, tail left to right.
    let caps = &instance.caps;
    let chunks = lambda.chunks_exact(4);
    let tail_start = lambda.len() & !3;
    let mut acc = f64x4::ZERO;
    for (k, lam) in chunks.enumerate() {
        let base = k * 4;
        acc = acc.mul_add_lanes(
            f64x4::from_slice(lam),
            f64x4([
                caps[base] as f64,
                caps[base + 1] as f64,
                caps[base + 2] as f64,
                caps[base + 3] as f64,
            ]),
        );
    }
    let mut caps_term = acc.reduce_add();
    for c in tail_start..lambda.len() {
        caps_term += lambda[c] * caps[c] as f64;
    }
    dual + caps_term
}

/// Constraint residual pass of the dual loop:
/// `g_c = Σ_{j∈c} x_j − cap_c` (the dual's negated gradient); returns
/// `‖g‖²`.
pub(crate) fn residual_pass(instance: &AllocationInstance, x: &[f64], g: &mut [f64]) -> f64 {
    let con_off = &instance.con_off;
    let con_idx = &instance.con_idx;
    for c in 0..instance.caps.len() {
        let (lo, hi) = (con_off[c] as usize, con_off[c + 1] as usize);
        g[c] = gather_sum(&con_idx[lo..hi], x) - instance.caps[c] as f64;
    }
    // ‖g‖² as a second flat stride-1 pass over the filled residuals —
    // chunked self-dot in the fixed `wide` order instead of a scalar
    // accumulator riding the gather loop.
    wide::dot_chunked(g, g)
}

/// Repairs `candidate` into the feasible region ([`repair_into`]) and
/// promotes it to the incumbent primal if it improves on `best_primal`.
pub(crate) fn consider_primal(
    instance: &AllocationInstance,
    cache: &VarCache,
    candidate: &[f64],
    theta_c: &mut [f64],
    repaired: &mut [f64],
    best_primal: &mut f64,
    best_x: &mut [f64],
) {
    repair_into(instance, candidate, theta_c, repaired);
    let v = instance.v_weight();
    let kappa = instance.unit_price();
    let mut value = 0.0;
    for (j, &xj) in repaired.iter().enumerate() {
        // qdn-lint: allow(float-eq, reason="exact sentinel: repair_into clamps to exactly 1.0, where the cached ln(1-beta) value replaces an exp_m1 evaluation at the removable singularity")
        let ls = if xj == 1.0 {
            cache.ln_p1[j]
        } else {
            (-f64::exp_m1(xj * cache.ln_beta[j])).ln()
        };
        value += v * ls - kappa * xj;
    }
    if value > *best_primal {
        *best_primal = value;
        best_x.copy_from_slice(repaired);
    }
}

/// Initial incumbent trackers: the warm attempt's, or pristine.
pub(crate) fn seeded_incumbent(
    incumbent: Option<&RelaxedSolution>,
    n: usize,
) -> (f64, f64, Vec<f64>) {
    match incumbent {
        Some(inc) => {
            debug_assert_eq!(inc.x.len(), n, "incumbent arity mismatch");
            (inc.dual_bound, inc.primal_value, inc.x.clone())
        }
        None => (f64::INFINITY, f64::NEG_INFINITY, vec![1.0f64; n]),
    }
}

/// Projects a (possibly infeasible) point onto the feasible region by
/// shrinking each variable's excess over the lower bound 1.
///
/// For each constraint `c`, the usage above the all-ones baseline is
/// `u_c = Σ_{j∈c} (x_j − 1)` and the available slack is
/// `s_c = cap_c − |members_c|`. Scaling every member's excess by
/// `θ_c = min(1, s_c/u_c)` — and taking the smallest θ over a variable's
/// constraints — yields a feasible point:
/// `Σ (1 + (x_j−1)·θ_j) ≤ |members| + θ_c·u_c ≤ cap_c`.
pub fn repair_feasibility(instance: &AllocationInstance, x: &[f64]) -> Vec<f64> {
    let mut theta_c = vec![1.0f64; instance.num_constraints()];
    let mut out = vec![0.0f64; instance.num_vars()];
    repair_into(instance, x, &mut theta_c, &mut out);
    out
}

/// [`repair_feasibility`] into caller-provided buffers (the dual loops
/// repair two candidates per iteration and must not allocate).
pub(crate) fn repair_into(
    instance: &AllocationInstance,
    x: &[f64],
    theta_c: &mut [f64],
    out: &mut [f64],
) {
    let m = instance.num_constraints();
    let con_off = &instance.con_off;
    let con_idx = &instance.con_idx;
    for c in 0..m {
        let (lo, hi) = (con_off[c] as usize, con_off[c + 1] as usize);
        let mut excess = 0.0;
        for &j in &con_idx[lo..hi] {
            excess += (x[j as usize] - 1.0).max(0.0);
        }
        let slack = instance.caps[c] as f64 - (hi - lo) as f64;
        theta_c[c] = if excess > slack {
            if excess > 0.0 {
                (slack / excess).max(0.0)
            } else {
                1.0
            }
        } else {
            1.0
        };
    }
    let mem_off = &instance.mem_off;
    let mem_idx = &instance.mem_idx;
    for (j, o) in out.iter_mut().enumerate() {
        let (lo, hi) = (mem_off[j] as usize, mem_off[j + 1] as usize);
        let mut theta = 1.0f64;
        for &c in &mem_idx[lo..hi] {
            theta = theta.min(theta_c[c as usize]);
        }
        *o = 1.0 + (x[j] - 1.0).max(0.0) * theta;
    }
}

/// Microbenchmark entry points for the `csr_pass_ns_per_row` rows in
/// `qdn_bench`. Not public API — the pass functions stay `pub(crate)`;
/// this shim only exists so the bench crate can time them in isolation.
#[doc(hidden)]
pub mod bench_hooks {
    use super::{AllocationInstance, VarCache};

    /// Opaque per-solve constant cache (wraps the crate-private
    /// [`VarCache`]).
    pub struct Cache(VarCache);

    pub fn cache(instance: &AllocationInstance) -> Cache {
        Cache(VarCache::new(instance))
    }

    pub fn dual_value_at(
        instance: &AllocationInstance,
        cache: &Cache,
        lambda: &[f64],
        price: &mut [f64],
        x: &mut [f64],
    ) -> f64 {
        super::dual_value_at(instance, &cache.0, lambda, price, x)
    }

    pub fn residual_pass(instance: &AllocationInstance, x: &[f64], g: &mut [f64]) -> f64 {
        super::residual_pass(instance, x, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{PackingConstraint, Variable};

    fn inst(ps: &[f64], cons: &[(u32, &[usize])], v: f64, price: f64) -> AllocationInstance {
        AllocationInstance::new(
            ps.iter().map(|&p| Variable::new(p)).collect(),
            cons.iter()
                .map(|&(cap, mem)| PackingConstraint::new(cap, mem.to_vec()))
                .collect(),
            v,
            price,
        )
        .unwrap()
    }

    #[test]
    fn empty_instance() {
        let i = inst(&[], &[], 1.0, 0.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(s.x.is_empty());
        assert_eq!(s.primal_value, 0.0);
        assert!(s.converged);
    }

    #[test]
    fn unconstrained_matches_closed_form() {
        // One variable, no constraints: solution is the scalar argmax.
        let i = inst(&[0.55], &[], 2500.0, 25.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let expected =
            crate::scalar::argmax_edge_utility(0.55, 2500.0, 25.0, 1.0, (1 << 20) as f64);
        assert!((s.x[0] - expected).abs() < 1e-6, "{} vs {expected}", s.x[0]);
    }

    #[test]
    fn respects_binding_capacity() {
        // Two identical variables share capacity 4 with zero price: each
        // should get ~2 (symmetric optimum uses all capacity).
        let i = inst(&[0.55, 0.55], &[(4, &[0, 1])], 2500.0, 1.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(i.is_feasible_real(&s.x, 1e-6));
        let total: f64 = s.x.iter().sum();
        assert!(total <= 4.0 + 1e-6);
        assert!(total > 3.8, "should nearly exhaust capacity, got {total}");
        assert!((s.x[0] - s.x[1]).abs() < 0.05, "symmetric: {:?}", s.x);
    }

    #[test]
    fn duality_gap_small_on_random_instances() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..20 {
            let nv = rng.random_range(2..6usize);
            let ps: Vec<f64> = (0..nv).map(|_| rng.random_range(0.2..0.9)).collect();
            let mut cons: Vec<(u32, Vec<usize>)> = Vec::new();
            // A few random constraints covering random subsets.
            for _ in 0..rng.random_range(1..4usize) {
                let mut members: Vec<usize> = (0..nv).filter(|_| rng.random_bool(0.6)).collect();
                if members.is_empty() {
                    members.push(0);
                }
                let cap = rng.random_range(members.len() as u32..=members.len() as u32 + 8);
                cons.push((cap, members));
            }
            let v = rng.random_range(10.0..3000.0);
            let price = rng.random_range(0.0..50.0);
            let i = AllocationInstance::new(
                ps.iter().map(|&p| Variable::new(p)).collect(),
                cons.iter()
                    .map(|(cap, mem)| PackingConstraint::new(*cap, mem.clone()))
                    .collect(),
                v,
                price,
            )
            .unwrap();
            let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
            assert!(i.is_feasible_real(&s.x, 1e-6), "trial {trial}");
            let scale = 1.0 + s.dual_bound.abs().max(s.primal_value.abs());
            assert!(
                s.gap() / scale < 0.02,
                "trial {trial}: relative gap too large ({} / {})",
                s.gap(),
                scale
            );
        }
    }

    #[test]
    fn repair_produces_feasible_points() {
        let i = inst(&[0.5, 0.5, 0.5], &[(4, &[0, 1, 2])], 100.0, 0.0);
        let wild = vec![10.0, 10.0, 10.0];
        let repaired = repair_feasibility(&i, &wild);
        assert!(i.is_feasible_real(&repaired, 1e-9), "{repaired:?}");
        for &v in &repaired {
            assert!(v >= 1.0);
        }
    }

    #[test]
    fn repair_keeps_feasible_points_unchanged() {
        let i = inst(&[0.5, 0.5], &[(6, &[0, 1])], 100.0, 0.0);
        let ok = vec![2.0, 3.0];
        let repaired = repair_feasibility(&i, &ok);
        assert!((repaired[0] - 2.0).abs() < 1e-12);
        assert!((repaired[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn high_price_drives_to_lower_bound() {
        let i = inst(&[0.55, 0.55], &[(10, &[0, 1])], 1.0, 1e6);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_warm_start_is_bitwise_cold() {
        let i = inst(&[0.4, 0.7], &[(5, &[0, 1]), (3, &[0])], 800.0, 10.0);
        let opts = RelaxedOptions::default();
        let cold = solve_relaxed(&i, &opts).unwrap();
        let zeros = vec![0.0; i.num_constraints()];
        let warm = solve_relaxed_warm(&i, &opts, Some(&zeros)).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_start_from_own_lambda_converges_fast_and_agrees() {
        let i = inst(
            &[0.4, 0.7, 0.55],
            &[(7, &[0, 1, 2]), (3, &[0]), (4, &[1, 2])],
            800.0,
            10.0,
        );
        let opts = RelaxedOptions::default();
        let cold = solve_relaxed(&i, &opts).unwrap();
        let warm = solve_relaxed_warm(&i, &opts, Some(&cold.lambda)).unwrap();
        assert!(i.is_feasible_real(&warm.x, 1e-6));
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        // Both primal values are within the duality gap of the common
        // optimum, so they agree within the larger gap (plus slack).
        let tol = cold.gap().abs().max(warm.gap().abs()) + 1e-9;
        assert!(
            (warm.primal_value - cold.primal_value).abs() <= tol,
            "warm {} vs cold {} (tol {tol})",
            warm.primal_value,
            cold.primal_value
        );
    }

    #[test]
    fn warm_start_reports_lambda_per_constraint() {
        let i = inst(&[0.5, 0.5], &[(3, &[0, 1]), (2, &[1])], 500.0, 1.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert_eq!(s.lambda.len(), i.num_constraints());
        assert!(s.lambda.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn warm_attempt_budget_is_capped() {
        let base = RelaxedOptions::default();
        assert_eq!(warm_iteration_budget(&base), 150); // 600 × 0.25
        let full = RelaxedOptions {
            warm_iteration_fraction: 1.0,
            ..base
        };
        assert_eq!(warm_iteration_budget(&full), 600);
        let clamped = RelaxedOptions {
            warm_iteration_fraction: 7.5,
            ..base
        };
        assert_eq!(warm_iteration_budget(&clamped), 600);
        let tiny = RelaxedOptions {
            warm_iteration_fraction: 0.0,
            ..base
        };
        assert_eq!(warm_iteration_budget(&tiny), 1);
    }

    /// The warm-start double-pay regression (PR-3 satellite): a warm
    /// attempt that fails to converge must (a) not burn the full budget
    /// before the cold fallback and (b) hand its incumbents over, so the
    /// returned objective is at least the warm attempt's.
    #[test]
    fn failed_warm_fallback_carries_incumbents_and_caps_budget() {
        let i = inst(
            &[0.3, 0.8, 0.5, 0.6],
            &[(6, &[0, 1, 2, 3]), (3, &[0, 1]), (4, &[2, 3])],
            2500.0,
            10.0,
        );
        // An unreachable tolerance with a tiny budget guarantees the
        // warm attempt fails; an adversarial seed makes it start far
        // from the optimum.
        let opts = RelaxedOptions {
            max_iterations: 8,
            gap_tolerance: 0.0,
            warm_iteration_fraction: 0.25,
            ..RelaxedOptions::default()
        };
        let bad_seed = vec![1e3; i.num_constraints()];

        // The warm attempt alone, reproduced via the internal entry
        // point with the same capped budget `solve_single` uses.
        let budget = warm_iteration_budget(&opts);
        assert_eq!(budget, 2);
        let warm_attempt = accelerated_iterate(&i, Some(&bad_seed), 0.0, budget, None);
        assert!(!warm_attempt.converged);

        let fallback = solve_relaxed_warm(&i, &opts, Some(&bad_seed)).unwrap();
        assert!(
            fallback.primal_value >= warm_attempt.primal_value,
            "fallback {} worse than warm attempt {}",
            fallback.primal_value,
            warm_attempt.primal_value
        );
        assert!(
            fallback.dual_bound <= warm_attempt.dual_bound,
            "fallback bound {} looser than warm attempt {}",
            fallback.dual_bound,
            warm_attempt.dual_bound
        );
        // Total budget: capped warm attempt + full cold run, not 2×.
        assert_eq!(fallback.iterations, budget + opts.max_iterations);
    }

    #[test]
    fn certifies_strict_gap_on_coupled_instance() {
        // A coupled instance: the strict 1e-4 gap must be certified well
        // within the budget.
        let i = inst(
            &[0.3, 0.8, 0.5, 0.6, 0.45],
            &[
                (9, &[0, 1, 2, 3, 4]),
                (4, &[0, 1]),
                (5, &[2, 3]),
                (6, &[1, 2, 4]),
            ],
            2500.0,
            10.0,
        );
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(
            s.converged,
            "gap {} after {}",
            s.relative_gap(),
            s.iterations
        );
        assert!(s.iterations < 600, "took {}", s.iterations);
        assert!(s.relative_gap() <= 1e-4 + 1e-12);
    }

    #[test]
    fn options_serde_round_trip_and_loud_compat_break() {
        let opts = RelaxedOptions {
            warm_iteration_fraction: 0.5,
            ..RelaxedOptions::default()
        };
        let json = serde_json::to_string(&opts).unwrap();
        assert_eq!(
            json,
            r#"{"max_iterations":600,"gap_tolerance":0.0001,"warm_start":false,"warm_iteration_fraction":0.5}"#
        );
        let back: RelaxedOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(opts, back);

        // Pre-PR-3 configs must fail loudly, naming the missing field.
        let pre_pr3 = r#"{"max_iterations":600,"gap_tolerance":0.0001,"warm_start":false}"#;
        let err = serde_json::from_str::<RelaxedOptions>(pre_pr3)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("missing field `warm_iteration_fraction`"),
            "{err}"
        );
    }

    /// Removed fields are rejected by name rather than silently
    /// ignored, so a stale config cannot run with semantics it did not
    /// ask for.
    #[test]
    fn removed_fields_fail_with_unknown_field_error() {
        for (removed, value) in [
            ("method", r#""Accelerated""#),
            ("initial_step", "1.0"),
            ("warm_accept_gap", "0.01"),
        ] {
            let json = format!(
                r#"{{"max_iterations":600,"gap_tolerance":0.0001,"warm_start":false,
                    "warm_iteration_fraction":0.25,"{removed}":{value}}}"#
            );
            let err = serde_json::from_str::<RelaxedOptions>(&json)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("unknown field `{removed}`")),
                "{removed}: {err}"
            );
        }
    }

    #[test]
    fn multi_component_recursion_matches_standalone_solves() {
        // Two disjoint components solved jointly (through the recycled
        // sub-instance husk) must equal the stand-alone solves bit for
        // bit.
        let joint = inst(
            &[0.4, 0.7, 0.55, 0.62],
            &[(5, &[0, 1]), (6, &[2, 3]), (3, &[2])],
            900.0,
            7.0,
        );
        let left = inst(&[0.4, 0.7], &[(5, &[0, 1])], 900.0, 7.0);
        let right = inst(&[0.55, 0.62], &[(6, &[0, 1]), (3, &[0])], 900.0, 7.0);
        let opts = RelaxedOptions::default();
        let s = solve_relaxed(&joint, &opts).unwrap();
        let sl = solve_relaxed(&left, &opts).unwrap();
        let sr = solve_relaxed(&right, &opts).unwrap();
        assert_eq!(s.x[0].to_bits(), sl.x[0].to_bits());
        assert_eq!(s.x[1].to_bits(), sl.x[1].to_bits());
        assert_eq!(s.x[2].to_bits(), sr.x[0].to_bits());
        assert_eq!(s.x[3].to_bits(), sr.x[1].to_bits());
        assert_eq!(
            s.primal_value.to_bits(),
            (sl.primal_value + sr.primal_value).to_bits()
        );
    }
}
