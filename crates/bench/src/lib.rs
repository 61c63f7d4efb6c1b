//! Benchmark harness reproducing the paper's evaluation (§V).
//!
//! Every experiment has a builder that runs it and returns a structured
//! output, and most have a shape check on that output. The `run_all`
//! binary runs them all, prints them through [`report`], and exits
//! non-zero if any check fails. [`scale`] holds the problem sizes.
//!
//! | Paper artifact | Builder |
//! |---|---|
//! | Fig. 3 (a,b,c) time-evolving | [`figures::fig3`] |
//! | Fig. 4 fairness distribution | [`figures::fig4`] |
//! | Fig. 5 budget sweep | [`figures::fig5`] |
//! | Fig. 6 network-size sweep | [`figures::fig6`] |
//! | Fig. 7 V sweep | [`figures::fig7`] |
//! | Fig. 8 q0 sweep | [`figures::fig8`] |
//! | Route-selection ablation | [`figures::ablation_route_selection`] |
//! | Gibbs γ ablation | [`figures::ablation_gamma`] |
//! | Allocation ablation | [`figures::ablation_allocation`] |
//! | Imperfect-swap extension | [`figures::extension_swap`] |
//! | Resource-dynamics extension | [`figures::extension_dynamics`] |
//! | Multi-EC extension | [`figures::extension_multi_ec`] |
//! | Topology-family extension | [`figures::extension_topologies`] |
//! | Fidelity-constraint extension | [`figures::extension_fidelity`] |
//! | Attempt-level (DES) validation | [`des::des_validation`] |
//! | Memory (decoherence) sweep | [`des::des_memory_sweep`] |
//! | Online-arrival rate sweep (paced vs unpaced) | [`des::online_rate_sweep`] |
//! | Budget-violation comparison | [`des::budget_violation`] |
//! | Theorems 1–2 bounds vs measured runs | [`theory::theory_bounds`] |

#![forbid(unsafe_code)]
pub mod des;
pub mod figures;
pub mod report;
pub mod scale;
pub mod theory;

pub use scale::Scale;
