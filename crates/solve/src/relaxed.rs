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

use serde::{Deserialize, Serialize};
use wide::f64x4;

use crate::accel::accelerated_iterate;
use crate::instance::{gain_from, ln_success, ln_success_from, AllocationInstance};
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
    /// Maximum dual iterations per coupling component.
    pub max_iterations: usize,
    /// Stop once the certified relative duality gap falls below this
    /// value.
    pub gap_tolerance: f64,
}

impl Default for RelaxedOptions {
    /// The certified configuration: strict `1e-4` gap tolerance within
    /// 600 iterations. Every solve starts cold from `λ = 0` and
    /// certifies its own duality gap.
    fn default() -> Self {
        RelaxedOptions {
            max_iterations: 600,
            gap_tolerance: 1e-4,
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
    /// Iterations performed (the maximum over coupling components).
    pub iterations: usize,
    /// Final dual prices, one per constraint.
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
    solve_relaxed_until(instance, options, |_| false)
        .map(|solution| solution.expect("a stop hook that never fires never abandons"))
}

/// [`solve_relaxed`] with a stop hook: the solve is abandoned, returning
/// `Ok(None)`, as soon as `stop(drop)` returns `true`.
///
/// `drop ≥ 0` is a certified drop of the dual bound below its `λ = 0`
/// value `D(0)`: the relaxed optimum is at most `D(0) − drop`, and so is
/// the objective of any feasible integer point, the
/// [`crate::rounding::round_down_and_fill`] result included (weak
/// duality; every bound comes from a projected, dual-feasible iterate).
/// The hook is called after every decrease of the bound, so `drop` never
/// decreases from one call to the next; over several coupling components
/// it is the sum of the finished components' final drops and the
/// current one's. A hook that never fires gives [`solve_relaxed`]'s
/// bits: it reads the solve, never steers it.
///
/// # Errors
///
/// As [`solve_relaxed`].
pub fn solve_relaxed_until(
    instance: &AllocationInstance,
    options: &RelaxedOptions,
    mut stop: impl FnMut(f64) -> bool,
) -> Result<Option<RelaxedSolution>, SolveError> {
    let n = instance.num_vars();
    let m = instance.num_constraints();
    if n == 0 {
        return Ok(Some(RelaxedSolution {
            x: Vec::new(),
            primal_value: 0.0,
            dual_bound: 0.0,
            iterations: 0,
            lambda: vec![0.0; m],
            converged: true,
        }));
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
    // Final drops of the finished components.
    let mut dropped = 0.0;
    if partition.len() <= 1 {
        return Ok(solve_component_until(
            instance,
            options,
            &mut dropped,
            &mut stop,
        ));
    }
    let mut x = vec![0.0f64; n];
    let mut lambda = vec![0.0f64; m];
    let mut primal_value = 0.0;
    let mut dual_bound = 0.0;
    let mut iterations = 0;
    let mut converged = true;
    let finished = instance.for_each_component(&partition, |sub, comp_vars, comp_cons| {
        let Some(sol) = solve_component_until(sub, options, &mut dropped, &mut stop) else {
            return Ok(false);
        };
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
        Ok(true)
    })?;
    if !finished {
        return Ok(None);
    }
    Ok(Some(RelaxedSolution {
        x,
        primal_value,
        dual_bound,
        iterations,
        lambda,
        converged,
    }))
}

/// One coupling component's dual solve within a walk over an
/// instance's components: `stop` sees `dropped` (the finished
/// components' final drops) plus this solve's running drop, and the
/// solve's final drop is added to `dropped` once it finishes. `None`
/// when `stop` abandoned it.
pub(crate) fn solve_component_until(
    component: &AllocationInstance,
    options: &RelaxedOptions,
    dropped: &mut f64,
    stop: &mut impl FnMut(f64) -> bool,
) -> Option<RelaxedSolution> {
    let mut last = 0.0;
    let solution = accelerated_iterate(
        component,
        options.gap_tolerance,
        options.max_iterations,
        |drop| {
            last = drop;
            stop(*dropped + drop)
        },
    )?;
    *dropped += last;
    Some(solution)
}

/// One variable's relax-and-round result when no constraint binds: the
/// relaxed value `x` and the rounded integer `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackPoint {
    /// The dual pass's argmax at `λ = 0`: the stationary point at price
    /// `κ`, clamped below at 1.
    pub x: f64,
    /// `⌊x⌋` (at least 1), raised by one while the marginal gain is
    /// still positive.
    pub n: u32,
}

/// The slack closed form: what [`solve_relaxed`] followed by
/// [`crate::rounding::round_down_and_fill`] give a variable with channel
/// success `p` when none of its constraints binds.
///
/// * The real part is the dual pass's `λ = 0` argmax,
///   `ρ = κ/(−V·ln_1p(−p))` through
///   [`crate::scalar::stationary_point`], clamped below at 1 — the same
///   expressions `dual_value_at` evaluates, so the bits agree.
/// * The integer part starts at `⌊x⌋.max(1)` (the down-rounding) and
///   adds 1 while [`crate::instance::marginal_gain`] is still `> 0` (the
///   greedy fill with nothing blocking it).
///
/// Returns `None` when `p ∉ (0, 1)`, `κ ≤ 0`, the real part is not
/// finite, or either part passes `cap` — the variable's smallest
/// capacity, beyond which no constraint can be slack. The `cap` bound
/// also stops the integer loop at tiny prices.
///
/// Whether the point is *the* solver's answer for a whole instance is
/// the caller's check: every constraint must pass [`slack_fits`].
///
/// # Example
///
/// ```
/// use qdn_solve::relaxed::{slack_point, solve_relaxed, RelaxedOptions};
/// use qdn_solve::rounding::round_down_and_fill;
/// use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
///
/// let sp = slack_point(0.55, 1000.0, 20.0, 40).unwrap();
/// let inst = AllocationInstance::new(
///     vec![Variable::new(0.55)],
///     vec![PackingConstraint::new(40, vec![0])],
///     1000.0,
///     20.0,
/// ).unwrap();
/// let relaxed = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
/// assert_eq!(relaxed.x[0].to_bits(), sp.x.to_bits());
/// assert_eq!(round_down_and_fill(&inst, &relaxed.x).unwrap(), vec![sp.n]);
/// ```
pub fn slack_point(p: f64, v_weight: f64, kappa: f64, cap: u32) -> Option<SlackPoint> {
    let real = slack_real(p, v_weight, kappa, cap)?;
    let n = slack_integer(real, v_weight, kappa, cap)?;
    Some(SlackPoint { x: real.x, n })
}

/// The real part of a [`slack_point`], with the `ln β = ln_1p(−p)` its
/// integer part reuses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlackReal {
    pub x: f64,
    pub ln_beta: f64,
}

/// [`slack_point`]'s real part; `None` where that makes it `None`.
pub(crate) fn slack_real(p: f64, v_weight: f64, kappa: f64, cap: u32) -> Option<SlackReal> {
    if !(p > 0.0 && p < 1.0 && kappa > 0.0) {
        return None;
    }
    let ln_beta = f64::ln_1p(-p);
    let rho = kappa / (-v_weight * ln_beta);
    let x_star = crate::scalar::stationary_point(rho, ln_beta);
    let x = if x_star <= 1.0 { 1.0 } else { x_star };
    // Keeps the cast in `slack_integer` in range.
    if x.is_nan() || x > f64::from(cap) {
        return None;
    }
    Some(SlackReal { x, ln_beta })
}

/// [`slack_point`]'s integer part from its real part: `⌊x⌋.max(1)`,
/// raised while [`crate::instance::marginal_gain`] is `> 0`, evaluated
/// from the same terms with each `ln P(n + 1)` carried to the next step.
pub(crate) fn slack_integer(real: SlackReal, v_weight: f64, kappa: f64, cap: u32) -> Option<u32> {
    let mut n = real.x.floor().max(1.0) as u32;
    let mut ln_at = ln_success_from(real.ln_beta, n as f64);
    loop {
        let ln_next = ln_success_from(real.ln_beta, (n + 1) as f64);
        if gain_from(v_weight, kappa, ln_at, ln_next) > 0.0 {
            if n >= cap {
                return None;
            }
            n += 1;
            ln_at = ln_next;
        } else {
            return Some(n);
        }
    }
}

/// Whether a constraint of capacity `cap` whose members sit at their
/// [`slack_point`]s stays slack: `Σx ≤ cap − 1e-9·(1 + cap)` and
/// `Σn ≤ cap`.
///
/// When every constraint of an instance passes, the dual loop's first
/// residual is `≤ 0`, so `λ` stays 0, the repair leaves the point
/// unchanged, and the gap is certified at iteration 1; the greedy fill
/// is never blocked, so each variable stops at its own first
/// non-positive gain. The relaxed solution and its rounding are then
/// the per-variable slack points, bit for bit. The `1e-9` margin covers
/// the difference between the caller's summation order and the
/// solver's 4-wide `gather_sum`.
#[inline]
pub fn slack_fits(sum_x: f64, sum_n: u64, cap: u32) -> bool {
    slack_fits_real(sum_x, cap) && sum_n <= u64::from(cap)
}

/// The real half of [`slack_fits`]: `Σx ≤ cap − 1e-9·(1 + cap)`.
#[inline]
pub(crate) fn slack_fits_real(sum_x: f64, cap: u32) -> bool {
    let cap_f = f64::from(cap);
    sum_x <= cap_f - 1e-9 * (1.0 + cap_f)
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

/// [`repair_feasibility`] into caller-provided buffers (the dual loop
/// repairs one candidate per iteration and must not allocate).
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
    fn reports_lambda_per_constraint() {
        let i = inst(&[0.5, 0.5], &[(3, &[0, 1]), (2, &[1])], 500.0, 1.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert_eq!(s.lambda.len(), i.num_constraints());
        assert!(s.lambda.iter().all(|&l| l >= 0.0));
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
            gap_tolerance: 1e-3,
            ..RelaxedOptions::default()
        };
        let json = serde_json::to_string(&opts).unwrap();
        assert_eq!(json, r#"{"max_iterations":600,"gap_tolerance":0.001}"#);
        let back: RelaxedOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(opts, back);

        // A config missing a field must fail loudly, naming it.
        let err = serde_json::from_str::<RelaxedOptions>(r#"{"max_iterations":600}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field `gap_tolerance`"), "{err}");
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
            ("warm_start", "false"),
            ("warm_iteration_fraction", "0.25"),
        ] {
            let json =
                format!(r#"{{"max_iterations":600,"gap_tolerance":0.0001,"{removed}":{value}}}"#);
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
    fn tiny_price_terminates_through_cap_bound() {
        // κ = 1e-12 puts the stationary point far out: the cap bound
        // answers `None` instead of walking the integer loop there.
        for cap in [1, 5, 50] {
            assert_eq!(slack_point(0.3, 2500.0, 1e-12, cap), None, "cap {cap}");
        }
        // Past u32::MAX: the bound also guards the integer cast.
        assert_eq!(slack_point(1e-9, 2500.0, 1e-12, u32::MAX), None);
        // With room to spare the loop still stops on its own.
        let sp = slack_point(0.3, 2500.0, 1e-12, 1 << 20).unwrap();
        assert!(sp.x > 50.0 && sp.n >= sp.x.floor() as u32 && sp.n <= 1 << 20);
    }

    #[test]
    fn slack_point_rejects_degenerate_inputs() {
        assert_eq!(slack_point(0.5, 100.0, 0.0, 10), None);
        assert_eq!(slack_point(0.0, 100.0, 1.0, 10), None);
        assert_eq!(slack_point(1.0, 100.0, 1.0, 10), None);
        assert_eq!(slack_point(0.5, 0.0, 1.0, 10), None);
        // A price too high for a second channel pins both parts at 1.
        assert_eq!(
            slack_point(0.5, 1.0, 1e6, 10),
            Some(SlackPoint { x: 1.0, n: 1 })
        );
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
