//! Optimization substrate for per-slot entanglement routing.
//!
//! The per-slot problem P2 with a fixed route selection is (paper §IV-B):
//!
//! ```text
//! maximize   Σ_j  V·ln(1 − (1 − p_j)^{x_j}) − κ·x_j
//! subject to Σ_{j ∈ c} x_j ≤ cap_c          for every packing constraint c
//!            x_j ≥ 1, integer
//! ```
//!
//! where each variable `j` is the channel allocation of one edge of one
//! selected route, packing constraints come from node qubit capacities
//! (Eq. 4), edge channel capacities (Eq. 5), and — for the myopic
//! baselines — a per-slot budget, and `κ` is the Lyapunov virtual-queue
//! price `q_t` (0 for the baselines).
//!
//! This crate solves that problem three ways:
//!
//! * [`relaxed`] — the paper's Algorithm 2: continuous relaxation
//!   (`x ≥ 1`), which is convex (Prop. 1), solved by Lagrangian dual
//!   decomposition with *closed-form* scalar maximizers ([`scalar`]);
//!   the dual iteration is the accelerated FISTA method in [`accel`],
//! * [`rounding`] — "down-round and allocate surplus", preserving
//!   feasibility and the Eq. 8 relation, giving the Δ-optimality of
//!   Prop. 2; [`rounding::relax_and_round_until`] runs relaxation and
//!   rounding per coupling component, allocating a component with
//!   exactly one bindable constraint greedily instead,
//! * [`greedy`] — a marginal-gain integer allocator used by the MF/MA
//!   baselines (budget-capped), by relax-and-round's one-binding rule,
//!   and as an ablation against relax-and-round,
//! * [`brute`] — exact enumeration for small instances (tests, gap
//!   measurements).
//!
//! The problem description itself lives in [`instance`].
//!
//! # Example
//!
//! ```
//! use qdn_solve::instance::{AllocationInstance, PackingConstraint, Variable};
//! use qdn_solve::relaxed::solve_relaxed;
//! use qdn_solve::rounding::round_down_and_fill;
//!
//! // One route of two edges (p = 0.55), a shared middle node with 4
//! // qubits, V = 100, price 1.
//! let instance = AllocationInstance::new(
//!     vec![Variable::new(0.55), Variable::new(0.55)],
//!     vec![PackingConstraint::new(4, vec![0, 1])],
//!     100.0,
//!     1.0,
//! ).unwrap();
//! let relaxed = solve_relaxed(&instance, &Default::default()).unwrap();
//! let rounded = round_down_and_fill(&instance, &relaxed.x).unwrap();
//! assert!(instance.is_feasible_int(&rounded));
//! ```

#![forbid(unsafe_code)]
pub mod accel;
pub mod assemble;
pub mod brute;
pub mod components;
pub mod greedy;
pub mod instance;
pub mod relaxed;
pub mod rounding;
pub mod scalar;

pub use assemble::RouteAssembler;
pub use components::{ComponentPartition, Dsu};
pub use instance::{ln_success, AllocationInstance, PackingConstraint, Variable};
pub use relaxed::{solve_relaxed, RelaxedOptions, RelaxedSolution};

/// Errors raised by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The instance is infeasible even at the all-ones lower bound: some
    /// constraint has less capacity than members.
    InfeasibleAtLowerBound {
        /// Index of the violated constraint.
        constraint: usize,
        /// Members of that constraint.
        members: usize,
        /// Its capacity.
        capacity: u32,
    },
    /// A variable's success probability was outside `(0, 1)`.
    InvalidProbability {
        /// Index of the offending variable.
        variable: usize,
        /// The offending value.
        value: f64,
    },
    /// A constraint referenced a variable index that does not exist.
    BadVariableIndex {
        /// Index of the offending constraint.
        constraint: usize,
        /// The out-of-range variable index.
        variable: usize,
    },
    /// A solution vector had the wrong length for the instance.
    DimensionMismatch {
        /// Expected number of variables.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::InfeasibleAtLowerBound {
                constraint,
                members,
                capacity,
            } => write!(
                f,
                "constraint {constraint} is infeasible at the all-ones bound: {members} members, capacity {capacity}"
            ),
            SolveError::InvalidProbability { variable, value } => {
                write!(f, "variable {variable} has invalid probability {value}")
            }
            SolveError::BadVariableIndex {
                constraint,
                variable,
            } => write!(
                f,
                "constraint {constraint} references unknown variable {variable}"
            ),
            SolveError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} variables, got {got}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SolveError::InfeasibleAtLowerBound {
            constraint: 2,
            members: 5,
            capacity: 3,
        };
        assert!(e.to_string().contains("constraint 2"));
    }
}
