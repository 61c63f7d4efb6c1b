//! Online entanglement routing: serve each EC request upon arrival.
//!
//! The paper batches requests into slots; its related work (online
//! entanglement routing, asynchronous provisioning) processes them as
//! they arrive. This module carries OSCAR's user-centric machinery into
//! that regime:
//!
//! * requests arrive in continuous time ([`crate::arrivals`]);
//! * each arrival is routed immediately against the *residual* network —
//!   resources held by in-flight executions are unavailable
//!   ([`crate::ledger`]);
//! * the admitted execution plays out physically ([`crate::exec`]) and
//!   releases its resources when it delivers or fails;
//! * the long-term budget is paced by a continuous-time virtual queue,
//!   the natural analogue of the paper's Eq. 7: between arrivals the
//!   queue drains at the budget rate `C / span`, and every admission
//!   charges its cost,
//!   `q(t⁺) = max(0, q(t_prev) − ρ·(t − t_prev)) + cost`.
//!
//! Per-arrival decisions reuse the exact per-slot pipeline
//! ([`qdn_core::engine::decide`]) with a single-request "slot": with one
//! pair, exhaustive route selection (Eq. 13) is exact and cheap, so the
//! online router inherits Algorithm 2's allocation guarantees unchanged.

use std::time::Duration;

use qdn_core::allocation::AllocationMethod;
use qdn_core::engine::{decide, EngineState, SlotDecisionRequest};
use qdn_core::problem::PerSlotContext;
use qdn_core::route_selection::RouteSelector;
use qdn_net::routes::RouteLimits;
use qdn_net::{QdnNetwork, SdPair};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::exec::{execute_route, ExecutionConfig, FailureCause};
use crate::ledger::ResourceLedger;
use crate::queue::EventQueue;
use crate::slotted::assignment_tasks;
use crate::stats::LatencySummary;
use crate::time::SimTime;

/// How the online router paces the long-term budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pacing {
    /// The continuous-time virtual queue (the default): drains at
    /// `C / span`, charges every admission.
    VirtualQueue,
    /// No pacing — the admission price is always 0, so every request is
    /// served at capacity-saturating width (the online analogue of the
    /// budget-oblivious throughput maximizer). Ablation only.
    None,
}

/// Configuration of the online router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Drift-plus-penalty weight `V`.
    pub v: f64,
    /// Initial virtual queue `q0`.
    pub q0: f64,
    /// Total budget `C` paced over `budget_span`.
    pub total_budget: f64,
    /// The wall-clock span the budget must last.
    pub budget_span: Duration,
    /// Candidate route limits.
    pub route_limits: RouteLimits,
    /// Qubit-allocation method (Algorithm 2 by default).
    pub allocation: AllocationMethod,
    /// Physical execution parameters.
    pub execution: ExecutionConfig,
    /// Budget pacing mode.
    pub pacing: Pacing,
}

impl OnlineConfig {
    /// The paper's defaults mapped to continuous time: `V = 2500`,
    /// `q0 = 10`, `C = 5000` over 200 × 1.46 s = 292 s.
    pub fn paper_default() -> Self {
        OnlineConfig {
            v: 2500.0,
            q0: 10.0,
            total_budget: 5000.0,
            budget_span: Duration::from_secs_f64(200.0 * 1.46),
            route_limits: RouteLimits::paper_default(),
            allocation: AllocationMethod::default(),
            execution: ExecutionConfig::paper_default(),
            pacing: Pacing::VirtualQueue,
        }
    }

    /// Returns a copy with pacing disabled (the budget-oblivious online
    /// ablation).
    pub fn unpaced(mut self) -> Self {
        self.pacing = Pacing::None;
        self
    }

    /// Budget replenishment rate `ρ = C / span` in units per second.
    pub fn budget_rate(&self) -> f64 {
        self.total_budget / self.budget_span.as_secs_f64()
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The user-centric online router: a continuous-time virtual queue plus
/// the per-slot P2 solver applied to each arrival.
#[derive(Debug)]
pub struct OnlineRouter {
    config: OnlineConfig,
    /// The per-arrival route selector, built once: with one pair,
    /// exhaustive search (Eq. 13) over its ≤ R candidates is exact and
    /// the cap is generous.
    selector: RouteSelector,
    /// Slot-spanning decision state reused across arrivals (the
    /// event-driven analogue of a policy-owned engine state): the
    /// candidate cache and evaluator arena persist for the
    /// run instead of being rebuilt per admission decision.
    state: EngineState,
    queue: f64,
    last_drain: SimTime,
    spent: u64,
}

impl OnlineRouter {
    /// Creates the router.
    pub fn new(config: OnlineConfig) -> Self {
        let state = EngineState::new(config.route_limits);
        OnlineRouter {
            queue: config.q0,
            config,
            selector: RouteSelector::exhaustive(4096),
            state,
            last_drain: SimTime::ZERO,
            spent: 0,
        }
    }

    /// The router configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Current virtual-queue value.
    pub fn queue_value(&self) -> f64 {
        self.queue
    }

    /// Budget units spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Restores the initial state for a fresh run.
    pub fn reset(&mut self) {
        self.queue = self.config.q0;
        self.last_drain = SimTime::ZERO;
        self.spent = 0;
        // The candidate cache survives (topology is unchanged between
        // runs and no churn repair happens in continuous time here);
        // only the selection session's cross-run state is dropped.
        self.state.session_mut().reset();
    }

    /// The queue value a decision at `now` would see, without mutating
    /// state.
    pub fn peek_queue(&self, now: SimTime) -> f64 {
        if self.config.pacing == Pacing::None {
            return 0.0;
        }
        let elapsed = now.saturating_duration_since(self.last_drain);
        (self.queue - self.config.budget_rate() * elapsed.as_secs_f64()).max(0.0)
    }

    /// Drains the virtual queue for the time elapsed since the last
    /// decision (the continuous analogue of subtracting `C/T` per slot).
    /// Pins the queue to 0 under [`Pacing::None`].
    fn drain_until(&mut self, now: SimTime) {
        self.queue = self.peek_queue(now);
        self.last_drain = now;
    }

    /// Decides route and allocation for one arrival against the residual
    /// capacities; returns `None` when the request is not admitted.
    fn admit(
        &mut self,
        network: &QdnNetwork,
        ledger: &ResourceLedger,
        pair: SdPair,
        now: SimTime,
        rng: &mut dyn Rng,
    ) -> Option<qdn_core::types::RouteAssignment> {
        self.drain_until(now);
        let snapshot = ledger.snapshot(network);
        let ctx = PerSlotContext::oscar(network, &snapshot, self.config.v, self.queue);
        let decision = decide(
            &mut self.state,
            SlotDecisionRequest {
                network,
                requests: &[pair],
                ctx: &ctx,
                selector: &self.selector,
                allocation: &self.config.allocation,
                fidelity_target: None,
                rng,
            },
        );
        let assignment = decision.assignments().first().cloned()?;
        let cost = assignment.cost();
        self.spent += cost;
        if self.config.pacing == Pacing::VirtualQueue {
            self.queue += cost as f64;
        }
        Some(assignment)
    }
}

/// The life of one online request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRequestRecord {
    /// Arrival instant.
    pub arrival: SimTime,
    /// The requested SD pair.
    pub pair: SdPair,
    /// Whether the router admitted (served) the request.
    pub served: bool,
    /// Virtual-queue value the decision saw.
    pub queue_at_decision: f64,
    /// Budget units charged (0 when not served).
    pub cost: u64,
    /// Analytic success probability of the chosen route/allocation.
    pub analytic_success: Option<f64>,
    /// Whether the physical execution delivered (`None` when unserved).
    pub delivered: Option<bool>,
    /// Delivery instant (successful executions only).
    pub completed_at: Option<SimTime>,
    /// Failure cause (failed executions only).
    pub cause: Option<FailureCause>,
}

/// Aggregated results of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRunMetrics {
    records: Vec<OnlineRequestRecord>,
    /// The instant the last event resolved.
    pub end_time: SimTime,
}

impl OnlineRunMetrics {
    /// Per-request records in arrival order.
    pub fn records(&self) -> &[OnlineRequestRecord] {
        &self.records
    }

    /// Total requests that arrived.
    pub fn total_requests(&self) -> usize {
        self.records.len()
    }

    /// Requests the router admitted.
    pub fn served(&self) -> usize {
        self.records.iter().filter(|r| r.served).count()
    }

    /// End-to-end pairs delivered.
    pub fn delivered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.delivered == Some(true))
            .count()
    }

    /// Realized success rate over *all* arrivals (unserved requests count
    /// as failures).
    pub fn realized_success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.delivered() as f64 / self.records.len() as f64
    }

    /// Mean analytic success probability over all arrivals (0 for
    /// unserved ones) — comparable to the slotted average success rate.
    pub fn expected_success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .records
            .iter()
            .map(|r| r.analytic_success.unwrap_or(0.0))
            .sum();
        sum / self.records.len() as f64
    }

    /// Total budget units spent.
    pub fn total_cost(&self) -> u64 {
        self.records.iter().map(|r| r.cost).sum()
    }

    /// Latency summary (arrival → delivery) over delivered requests.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        let sample: Vec<Duration> = self
            .records
            .iter()
            .filter_map(|r| {
                r.completed_at
                    .map(|done| done.saturating_duration_since(r.arrival))
            })
            .collect();
        LatencySummary::from_durations(&sample)
    }

    /// Delivered connections per second of simulated time.
    pub fn throughput_per_sec(&self) -> f64 {
        let span = self.end_time.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.delivered() as f64 / span
    }
}

/// Internal event alphabet of the online loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A request arrives.
    Arrival(SdPair),
    /// The execution of request `record` resolves (deliver or fail).
    Resolve { record: usize },
}

/// Runs the online router against an arrival process until every arrival
/// has been processed and every admitted execution has resolved.
///
/// `env_rng` drives arrivals and physical realization; `policy_rng`
/// drives the router's internal randomization (tie-breaking inside route
/// selection) — the same two-stream discipline as the slotted engines.
pub fn run_online(
    network: &QdnNetwork,
    router: &mut OnlineRouter,
    arrivals: &mut dyn ArrivalProcess,
    env_rng: &mut dyn Rng,
    policy_rng: &mut dyn Rng,
) -> OnlineRunMetrics {
    let mut events: EventQueue<Event> = EventQueue::new();
    let mut ledger = ResourceLedger::full(network);
    let mut records: Vec<OnlineRequestRecord> = Vec::new();
    // Holdings of in-flight executions, indexed by record.
    let mut holdings: Vec<Option<qdn_core::types::RouteAssignment>> = Vec::new();
    let mut end_time = SimTime::ZERO;

    if let Some((at, pair)) = arrivals.next_arrival(SimTime::ZERO, network, env_rng) {
        events.schedule(at, Event::Arrival(pair));
    }

    while let Some(scheduled) = events.pop() {
        let now = scheduled.time;
        end_time = end_time.max(now);
        match scheduled.payload {
            Event::Arrival(pair) => {
                let record_idx = records.len();
                // The post-drain queue the decision will see (admit()
                // drains internally; peeking avoids double-draining).
                let queue_before = router.peek_queue(now);
                match router.admit(network, &ledger, pair, now, policy_rng) {
                    Some(assignment) => {
                        ledger
                            .try_reserve(network, &assignment.route, &assignment.allocation)
                            .expect("solver respects the residual snapshot");
                        let tasks =
                            assignment_tasks(network, &assignment, &router.config.execution)
                                .expect("assignments are validated at construction");
                        let outcome = execute_route(now, &tasks, &router.config.execution, env_rng);
                        events
                            .schedule(outcome.resolved_at(), Event::Resolve { record: record_idx });
                        records.push(OnlineRequestRecord {
                            arrival: now,
                            pair,
                            served: true,
                            queue_at_decision: queue_before,
                            cost: assignment.cost(),
                            analytic_success: Some(assignment.success_probability(network)),
                            delivered: Some(outcome.success),
                            completed_at: outcome.completed_at,
                            cause: outcome.cause,
                        });
                        holdings.push(Some(assignment));
                    }
                    None => {
                        records.push(OnlineRequestRecord {
                            arrival: now,
                            pair,
                            served: false,
                            queue_at_decision: queue_before,
                            cost: 0,
                            analytic_success: None,
                            delivered: None,
                            completed_at: None,
                            cause: None,
                        });
                        holdings.push(None);
                    }
                }
                if let Some((at, next_pair)) = arrivals.next_arrival(now, network, env_rng) {
                    events.schedule(at, Event::Arrival(next_pair));
                }
            }
            Event::Resolve { record } => {
                let assignment = holdings[record]
                    .take()
                    .expect("resolve fires once per admitted execution");
                ledger.release(network, &assignment.route, &assignment.allocation);
            }
        }
    }
    debug_assert_eq!(
        ledger,
        ResourceLedger::full(network),
        "all resources must be back after the run"
    );
    OnlineRunMetrics { records, end_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{PoissonArrivals, TraceArrivals};
    use qdn_net::workload::random_sd_pair;
    use qdn_net::NetworkConfig;
    use rand::SeedableRng;

    fn network(seed: u64) -> (QdnNetwork, rand::rngs::StdRng, rand::rngs::StdRng) {
        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
        let net = NetworkConfig::paper_default().build(&mut env).unwrap();
        (net, env, policy)
    }

    fn quick_run(seed: u64, secs: f64, rate: f64) -> OnlineRunMetrics {
        let (net, mut env, mut policy) = network(seed);
        let mut router = OnlineRouter::new(OnlineConfig::paper_default());
        let mut arrivals = PoissonArrivals::new(rate, Duration::from_secs_f64(secs)).unwrap();
        run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy)
    }

    #[test]
    fn serves_most_requests_at_paper_load() {
        let m = quick_run(1, 30.0, PoissonArrivals::paper_rate());
        assert!(m.total_requests() > 20, "got {}", m.total_requests());
        let served_frac = m.served() as f64 / m.total_requests() as f64;
        assert!(
            served_frac > 0.9,
            "paper load should be nearly always admissible, served {served_frac}"
        );
        assert!(m.realized_success_rate() > 0.5);
        assert!(m.expected_success_rate() > 0.5);
    }

    #[test]
    fn latencies_positive_and_within_window() {
        let m = quick_run(2, 20.0, 2.0);
        let summary = m.latency_summary().expect("some deliveries");
        assert!(summary.mean_secs > 0.0);
        // One attempt window is 0.66 s.
        assert!(summary.max_secs <= 0.66 + 1e-9);
    }

    #[test]
    fn queue_paces_budget_spend() {
        // Overload the network: 20 req/s against a budget paced for ~2/s.
        // P2 never rejects a feasible request (n_e ≥ 1 is mandatory), so
        // under 10x overload the *mandatory* spend alone exceeds the
        // paced allowance — the paper's Assumption 1 boundary. What the
        // queue must deliver is suppression: early arrivals see a small
        // price and allocate wide; late arrivals see a huge price and
        // get pinned near the per-route minimum.
        let m = quick_run(3, 60.0, 20.0);
        let served: Vec<&OnlineRequestRecord> = m.records().iter().filter(|r| r.served).collect();
        assert!(served.len() > 100);
        let mean = |rs: &[&OnlineRequestRecord]| {
            rs.iter().map(|r| r.cost as f64).sum::<f64>() / rs.len() as f64
        };
        // The queue saturates within a handful of overloaded arrivals, so
        // "cheap" only describes the very first admissions.
        let early = mean(&served[..10]);
        let third = served.len() / 3;
        let late = mean(&served[served.len() - third..]);
        assert!(
            late < 0.6 * early,
            "queue price should suppress per-request spend: early {early:.2}, late {late:.2}"
        );
        // And the late queue must indeed be large.
        let max_late_queue = served[served.len() - third..]
            .iter()
            .map(|r| r.queue_at_decision)
            .fold(0.0f64, f64::max);
        assert!(max_late_queue > 100.0, "late queue {max_late_queue}");
    }

    #[test]
    fn high_price_suppresses_admission_cost() {
        let (net, mut env, mut policy) = network(4);
        let mut cfg = OnlineConfig::paper_default();
        cfg.total_budget = 50.0; // starvation budget
        let mut router = OnlineRouter::new(cfg);
        let mut arrivals = PoissonArrivals::new(5.0, Duration::from_secs(60)).unwrap();
        let m = run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy);
        // Late requests must see a large queue and be served minimally.
        let late: Vec<_> = m
            .records()
            .iter()
            .filter(|r| r.arrival.as_secs_f64() > 30.0 && r.served)
            .collect();
        assert!(!late.is_empty());
        for r in &late {
            assert!(r.queue_at_decision > 100.0, "queue {}", r.queue_at_decision);
        }
    }

    #[test]
    fn trace_arrivals_are_deterministic() {
        let (net, mut env, _) = network(5);
        let pair = random_sd_pair(&mut env, &net);
        let trace: Vec<(SimTime, SdPair)> = (1..=5)
            .map(|i| (SimTime::from_secs_f64(i as f64), pair))
            .collect();
        let run = |seed: u64| {
            let (net, mut env, mut policy) = network(5);
            let _ = seed;
            let mut router = OnlineRouter::new(OnlineConfig::paper_default());
            let mut arrivals = TraceArrivals::new(trace.clone());
            run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy)
        };
        let _ = &net;
        let a = run(0);
        let b = run(0);
        assert_eq!(a, b);
        assert_eq!(a.total_requests(), 5);
    }

    #[test]
    fn contention_forces_minimal_or_no_admission() {
        // A burst of simultaneous long-lived requests between the same
        // pair must drain the residual capacity: later ones in the burst
        // see less and eventually nothing.
        let (net, mut env, mut policy) = network(6);
        let pair = random_sd_pair(&mut env, &net);
        let t = SimTime::from_secs_f64(1.0);
        let trace = vec![(t, pair); 40];
        let mut router = OnlineRouter::new(OnlineConfig::paper_default());
        let mut arrivals = TraceArrivals::new(trace);
        let m = run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy);
        assert_eq!(m.total_requests(), 40);
        // The burst arrives at one instant: nothing releases in between,
        // so the residual capacity along the pair's candidate routes is
        // consumed monotonically and the burst cannot be served in full.
        assert!(m.served() >= 1, "abundant initial capacity serves someone");
        assert!(
            m.served() < 40,
            "a 40-deep simultaneous burst cannot all fit"
        );
        // Rejections are a capacity effect, so they form a suffix: once
        // the candidate routes are exhausted, they stay exhausted.
        let first_reject = m
            .records()
            .iter()
            .position(|r| !r.served)
            .expect("some rejection");
        assert!(
            m.records()[first_reject..].iter().all(|r| !r.served),
            "rejections must be a suffix of the simultaneous burst"
        );
        for r in m.records().iter().filter(|r| r.served) {
            assert!(r.cost > 0);
            assert!(r.analytic_success.unwrap() > 0.0);
        }
    }

    #[test]
    fn unpaced_router_outspends_paced_under_overload() {
        let run = |config: OnlineConfig| {
            let (net, mut env, mut policy) = network(9);
            let mut router = OnlineRouter::new(config);
            let mut arrivals = PoissonArrivals::new(8.0, Duration::from_secs(40)).unwrap();
            run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy)
        };
        let paced = run(OnlineConfig::paper_default());
        let unpaced = run(OnlineConfig::paper_default().unpaced());
        // Identical sample paths (same seeds): the unpaced ablation must
        // spend far more ...
        assert!(
            unpaced.total_cost() as f64 > 1.5 * paced.total_cost() as f64,
            "unpaced {} vs paced {}",
            unpaced.total_cost(),
            paced.total_cost()
        );
        // ... and buy at least as much expected success with it.
        assert!(unpaced.expected_success_rate() >= paced.expected_success_rate() - 0.02);
        // The unpaced router's queue never prices anything.
        assert!(unpaced.records().iter().all(|r| r.queue_at_decision == 0.0));
    }

    #[test]
    fn reset_restores_router_state() {
        let (net, mut env, mut policy) = network(7);
        let mut router = OnlineRouter::new(OnlineConfig::paper_default());
        let mut arrivals = PoissonArrivals::new(3.0, Duration::from_secs(5)).unwrap();
        let _ = run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy);
        assert!(router.spent() > 0);
        router.reset();
        assert_eq!(router.spent(), 0);
        assert_eq!(router.queue_value(), 10.0);
    }

    #[test]
    fn empty_arrivals_yield_empty_metrics() {
        let (net, mut env, mut policy) = network(8);
        let mut router = OnlineRouter::new(OnlineConfig::paper_default());
        let mut arrivals = TraceArrivals::new(Vec::new());
        let m = run_online(&net, &mut router, &mut arrivals, &mut env, &mut policy);
        assert_eq!(m.total_requests(), 0);
        assert_eq!(m.realized_success_rate(), 0.0);
        assert_eq!(m.throughput_per_sec(), 0.0);
        assert!(m.latency_summary().is_none());
    }
}
