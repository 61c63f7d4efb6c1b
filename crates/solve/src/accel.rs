//! Accelerated (Nesterov/FISTA) dual iteration — the relaxed solver's
//! one dual loop.
//!
//! # Why acceleration applies here
//!
//! The Lagrangian dual of the capacity constraints is
//!
//! ```text
//! D(λ) = Σ_j φ_j(κ + Σ_{c∋j} λ_c) + Σ_c λ_c·cap_c,       λ ≥ 0,
//! φ_j(pr) = max_{x ∈ [1, ub_j]} V·ln(1 − β_j^x) − pr·x,
//! ```
//!
//! and because the log-success utility is *strictly* concave, the inner
//! maximizer `x*_j(pr)` is unique — the closed form from
//! [`crate::scalar::stationary_point`] clamped to `[1, ub_j]` — so by
//! Danskin's theorem `D` is differentiable with
//! `∂D/∂λ_c = cap_c − Σ_{j∈c} x*_j`. On the interior segment the
//! conjugate value is the log-sum-exp-type smooth term
//! `V·(−ln(1+ρ)) − pr·x*(ρ)` (see
//! [`crate::scalar::interior_log_term`]), and `x*(pr)` is continuous and
//! piecewise smooth across the clamp thresholds, so `∇D` is Lipschitz.
//! That is exactly the structure Nesterov acceleration needs: the
//! smoothing the ROADMAP sketch asked for ("FISTA on the log-sum-exp
//! smoothed dual") is *inherent* — the strictly concave utility plays
//! the role of the smoother, there is no auxiliary smoothing parameter
//! to trade accuracy against, and every gap is certified against the
//! exact dual.
//!
//! # The iteration
//!
//! Projected FISTA minimizing `D` over `λ ≥ 0`, with two standard
//! robustness refinements:
//!
//! * **Backtracking** on the (unknown) gradient Lipschitz constant: the
//!   prox step `λ⁺ = max(0, y − ∇D(y)/L)` is accepted only when the
//!   smoothness upper bound
//!   `D(λ⁺) ≤ D(y) + ⟨∇D(y), λ⁺−y⟩ + (L/2)‖λ⁺−y‖²` holds, doubling `L`
//!   otherwise; on iterations without backtracking `L` decays slightly
//!   so an early conservative estimate cannot stick.
//! * **Adaptive restart** (O'Donoghue–Candès, function variant): when an
//!   accepted step increases `D`, the momentum is reset (`t = 1`). On
//!   duals that are strongly convex near the optimum — the common case
//!   here — restarting upgrades the `O(1/k²)` worst case to linear
//!   convergence, which is what makes the strict 1e-4 tolerance
//!   reachable in tens of iterations at paper scale.
//!
//! The momentum point `y` may leave the nonnegative orthant; `D(y)` is
//! still well defined (a negative price just pins `x* = ub`), and only
//! the *projected* iterates — which are dual feasible — contribute to
//! the certified `dual_bound`. That bound is valid at every iteration
//! (an anytime certificate), and the loop hands each decrease of it to
//! its stop hook ([`crate::relaxed::solve_relaxed_until`]).
//!
//! Primal recovery: each iteration repairs the argmax at the accepted
//! `λ⁺` and offers it as the one candidate incumbent. The argmax is
//! unique and continuous in the prices, so as `λ_k → λ*` it converges to
//! the primal optimum `x*(λ*)` by itself, driving the certified gap to
//! zero. The running (ergodic) average of the argmaxes is the recovery a
//! subgradient method needs, where the argmax itself need not converge;
//! it is not a candidate here.
//!
//! The loop runs on the CSR evaluation passes in [`crate::relaxed`]
//! ([`crate::relaxed::dual_value_at`], [`crate::relaxed::residual_pass`],
//! [`crate::relaxed::consider_primal`]): one price-gather + fused
//! argmax/dual pass per gradient or function evaluation, a fixed set of
//! buffers allocated up front, and nothing allocated inside the loop.

use crate::instance::AllocationInstance;
use crate::relaxed::{consider_primal, dual_value_at, residual_pass, RelaxedSolution, VarCache};

/// Growth factor when the smoothness bound fails (standard FISTA
/// backtracking).
const L_UP: f64 = 2.0;
/// Per-iteration decay applied when no backtracking was needed, letting
/// the step length adapt to the local curvature.
const L_DOWN: f64 = 0.9;
/// Give-up ceiling for the Lipschitz estimate: beyond this the step is
/// numerically zero and the accepted point is as good as the momentum
/// point.
const L_MAX: f64 = 1e18;

/// One accelerated dual run: FISTA from λ = 0, stopping when the
/// certified relative gap falls below `accept_gap` or after `max_iters`
/// iterations.
///
/// After every decrease of the certified bound `best_dual` the run calls
/// `stop(D(0) − best_dual)`, the drop of that bound below its λ = 0
/// value, and returns `None` (abandoned) as soon as `stop` returns
/// `true`. The hook only reads: a run it never stops returns the same
/// bits as one without it.
pub(crate) fn accelerated_iterate(
    instance: &AllocationInstance,
    accept_gap: f64,
    max_iters: usize,
    mut stop: impl FnMut(f64) -> bool,
) -> Option<RelaxedSolution> {
    let n = instance.num_vars();
    let m = instance.num_constraints();
    let cache = VarCache::new(instance);

    // λ: last accepted (projected, dual-feasible) iterate.
    let mut lambda = vec![0.0f64; m];
    // Candidate iterate and momentum point.
    let mut lambda_new = vec![0.0f64; m];
    let mut y = lambda.clone();
    let mut price = vec![0.0f64; n];
    let mut x = vec![1.0f64; n]; // argmax at the gradient point y
    let mut x_new = vec![1.0f64; n]; // argmax at the candidate λ⁺
    let mut repaired = vec![0.0f64; n];
    let mut theta_c = vec![1.0f64; m];
    let mut g = vec![0.0f64; m]; // residual usage − cap = −∇D
    let mut best_dual = f64::INFINITY;
    let mut best_primal = f64::NEG_INFINITY;
    let mut best_x = vec![1.0f64; n];

    // The starting point is dual feasible: a valid bound and the restart
    // reference.
    let d0 = dual_value_at(instance, &cache, &lambda, &mut price, &mut x);
    best_dual = best_dual.min(d0);
    let mut d_cur = d0;

    let mut l_est = 1.0f64;
    let mut t = 1.0f64;
    let mut iterations = 0;
    let mut converged = false;

    for k in 1..=max_iters {
        iterations = k;

        // Gradient at the momentum point. On the first iteration
        // `y == λ₀`, whose dual value and argmax the pre-loop evaluation
        // already produced — reuse them instead of paying a second CSR
        // pass (singleton components converge in one iteration, so this
        // is a fixed fraction of their solve cost).
        let d_y = if k == 1 {
            d0
        } else {
            dual_value_at(instance, &cache, &y, &mut price, &mut x)
        };
        residual_pass(instance, &x, &mut g);

        // Backtracked prox step: λ⁺ = max(0, y + g/L)  (g = −∇D).
        let mut d_new;
        loop {
            for c in 0..m {
                lambda_new[c] = (y[c] + g[c] / l_est).max(0.0);
            }
            d_new = dual_value_at(instance, &cache, &lambda_new, &mut price, &mut x_new);
            let mut lin = 0.0;
            let mut dist2 = 0.0;
            for c in 0..m {
                let d = lambda_new[c] - y[c];
                lin += -g[c] * d;
                dist2 += d * d;
            }
            // qdn-lint: allow(float-eq, reason="exact zero-step guard: dist2 is a sum of squares, == 0 iff every component is identically zero; a tolerance would mask genuine tiny steps")
            if dist2 == 0.0
                || d_new <= d_y + lin + 0.5 * l_est * dist2 + 1e-12 * (1.0 + d_y.abs())
                || l_est >= L_MAX
            {
                if dist2 > 0.0 && l_est < L_MAX {
                    // No backtracking needed: allow the estimate to relax
                    // toward the local curvature next iteration.
                    l_est *= L_DOWN;
                }
                break;
            }
            l_est *= L_UP;
        }
        // `λ⁺` is projected, hence dual feasible: `D(λ⁺)` is a certified
        // bound. The momentum point `y` may not be, so `d_y` never is.
        let improved = d_new < best_dual;
        best_dual = best_dual.min(d_new);
        if improved && stop(d0 - best_dual) {
            return None;
        }

        // Primal recovery: the repaired argmax at λ⁺, the one candidate
        // (see the module docs for why the argmax alone suffices).
        consider_primal(
            instance,
            &cache,
            &x_new,
            &mut theta_c,
            &mut repaired,
            &mut best_primal,
            &mut best_x,
        );

        // Certified-gap stop (`RelaxedSolution::relative_gap`).
        if best_dual.is_finite() && best_primal.is_finite() {
            let gap = best_dual - best_primal;
            let scale = 1.0 + best_dual.abs().max(best_primal.abs());
            if gap / scale < accept_gap {
                std::mem::swap(&mut lambda, &mut lambda_new);
                converged = true;
                break;
            }
        }

        // Momentum update with function-value restart.
        if d_new > d_cur {
            t = 1.0;
            y.copy_from_slice(&lambda_new);
        } else {
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            for c in 0..m {
                y[c] = lambda_new[c] + beta * (lambda_new[c] - lambda[c]);
            }
            t = t_next;
        }
        d_cur = d_new;
        std::mem::swap(&mut lambda, &mut lambda_new);
    }

    Some(RelaxedSolution {
        x: best_x,
        primal_value: best_primal,
        dual_bound: best_dual,
        iterations,
        lambda,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use crate::instance::{PackingConstraint, Variable};
    use crate::relaxed::{solve_relaxed, RelaxedOptions};
    use crate::AllocationInstance;

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
    fn converges_fast_on_binding_instance() {
        let i = inst(&[0.55, 0.55], &[(4, &[0, 1])], 2500.0, 1.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(s.converged, "gap {}", s.relative_gap());
        assert!(s.iterations < 600);
        assert!(i.is_feasible_real(&s.x, 1e-6));
    }

    #[test]
    fn certified_gap_is_genuine() {
        // The reported bounds must bracket the brute-force optimum.
        let i = inst(
            &[0.45, 0.7, 0.3],
            &[(6, &[0, 1, 2]), (3, &[0, 1])],
            400.0,
            5.0,
        );
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let (_, brute) = crate::brute::brute_force_best(&i, 6);
        // Brute force is integer-restricted, so it lower-bounds the
        // relaxed optimum; the dual bound must still dominate it.
        assert!(
            s.dual_bound >= brute - 1e-9,
            "dual {} vs brute {brute}",
            s.dual_bound
        );
        assert!(s.primal_value <= s.dual_bound + 1e-9 * (1.0 + s.dual_bound.abs()));
    }

    #[test]
    fn unconstrained_component_converges_immediately() {
        let i = inst(&[0.5], &[], 1000.0, 3.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(s.converged);
        assert_eq!(s.iterations, 1);
    }

    #[test]
    fn momentum_survives_zero_price_region() {
        // κ = 0 and loose capacity: prices start at 0, the argmax pins to
        // ub everywhere, and the solver must still certify a gap.
        let i = inst(&[0.6, 0.6], &[(40, &[0, 1])], 50.0, 0.0);
        let s = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert!(i.is_feasible_real(&s.x, 1e-6));
        assert!(s.converged, "gap {}", s.relative_gap());
    }

    #[test]
    fn deterministic_across_reruns() {
        let i = inst(
            &[0.3, 0.8, 0.5],
            &[(5, &[0, 1, 2]), (3, &[0, 2])],
            1500.0,
            12.0,
        );
        let a = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        let b = solve_relaxed(&i, &RelaxedOptions::default()).unwrap();
        assert_eq!(a, b);
    }
}
