//! Exogenous resource occupancy processes.
//!
//! The paper models qubit and channel availability as time-varying:
//! "the available qubits `Q_v^t` can change over time … as some qubits may
//! be occupied by other users. This occupancy is considered as an
//! exogenous process" (§III-A). [`DynamicsConfig`] builds one of four
//! processes:
//!
//! - [`StaticDynamics`]: capacities drawn once and kept fixed, the
//!   paper's evaluation setup;
//! - [`UniformOccupancy`] and [`MarkovOccupancy`]: i.i.d. and bursty
//!   co-tenant occupancy, the occupancy ablation;
//! - [`ChurnDynamics`]: Poisson link failures with geometric repair
//!   over any of the above, the churn workloads.
//!
//! [`TraceDynamics`] replays recorded snapshots. Node outages have no
//! process here: the daemon declares them as advisory windows.

use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use qdn_graph::EdgeId;

use crate::network::QdnNetwork;
use crate::snapshot::CapacitySnapshot;

/// One link failure or repair, as recorded by [`ChurnDynamics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Slot in which the event took effect.
    pub t: u64,
    /// The affected edge.
    pub edge: EdgeId,
    /// Failure or repair.
    pub kind: ChurnEventKind,
}

/// The direction of a [`ChurnEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// The link went down (zero channels until repaired).
    Fail,
    /// The link came back at full pre-failure capacity.
    Repair,
}

/// A source of per-slot capacity snapshots.
///
/// Implementations observe the slot index and the installed network and
/// return what is left for our user after exogenous occupancy. They may
/// keep internal state (e.g. Markov chains) — hence `&mut self`.
pub trait ResourceDynamics: std::fmt::Debug + Send {
    /// Capacities available in slot `t`.
    fn snapshot(
        &mut self,
        t: u64,
        network: &QdnNetwork,
        rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot;

    /// Resets internal state so a new trial can replay the process.
    fn reset(&mut self) {}
}

/// No exogenous occupancy: the full installed capacity every slot.
///
/// Matches the paper's evaluation setup (capacities drawn once per
/// topology, then constant over the horizon).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticDynamics;

impl ResourceDynamics for StaticDynamics {
    fn snapshot(
        &mut self,
        _t: u64,
        network: &QdnNetwork,
        _rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot {
        CapacitySnapshot::full(network)
    }
}

/// I.i.d. uniform occupancy: each slot, every node/edge independently
/// loses a uniformly random fraction of its capacity up to
/// `max_occupied_fraction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformOccupancy {
    /// Upper bound on the occupied fraction, in `[0, 1]`.
    pub max_occupied_fraction: f64,
}

impl UniformOccupancy {
    /// Creates the process, clamping the fraction into `[0, 1]`.
    pub fn new(max_occupied_fraction: f64) -> Self {
        UniformOccupancy {
            max_occupied_fraction: max_occupied_fraction.clamp(0.0, 1.0),
        }
    }
}

impl ResourceDynamics for UniformOccupancy {
    fn snapshot(
        &mut self,
        _t: u64,
        network: &QdnNetwork,
        rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot {
        let mut occupy = |cap: u32| -> u32 {
            let frac = rng.random_range(0.0..=self.max_occupied_fraction);
            let taken = (cap as f64 * frac).floor() as u32;
            cap - taken.min(cap)
        };
        let qubits = network
            .graph()
            .node_ids()
            .map(|v| occupy(network.qubit_capacity(v)))
            .collect();
        let channels = network
            .graph()
            .edge_ids()
            .map(|e| occupy(network.channel_capacity(e)))
            .collect();
        CapacitySnapshot::clamped(network, qubits, channels)
    }
}

/// Two-state Markov (Gilbert) occupancy: each resource is either *free*
/// (full capacity) or *busy* (a configurable fraction remains), with
/// geometric sojourn times.
///
/// This models bursty co-tenant workloads: once another user grabs
/// resources they tend to hold them for several slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovOccupancy {
    /// Probability of transitioning free → busy each slot.
    pub p_busy: f64,
    /// Probability of transitioning busy → free each slot.
    pub p_free: f64,
    /// Fraction of capacity remaining while busy, in `[0, 1]`.
    pub busy_fraction: f64,
    #[serde(skip)]
    node_busy: Vec<bool>,
    #[serde(skip)]
    edge_busy: Vec<bool>,
}

impl MarkovOccupancy {
    /// Creates the chain with all resources initially free.
    pub fn new(p_busy: f64, p_free: f64, busy_fraction: f64) -> Self {
        MarkovOccupancy {
            p_busy: p_busy.clamp(0.0, 1.0),
            p_free: p_free.clamp(0.0, 1.0),
            busy_fraction: busy_fraction.clamp(0.0, 1.0),
            node_busy: Vec::new(),
            edge_busy: Vec::new(),
        }
    }

    fn step_states(&mut self, network: &QdnNetwork, rng: &mut dyn rand::Rng) {
        self.node_busy.resize(network.node_count(), false);
        self.edge_busy.resize(network.edge_count(), false);
        for busy in self.node_busy.iter_mut().chain(self.edge_busy.iter_mut()) {
            *busy = if *busy {
                !rng.random_bool(self.p_free)
            } else {
                rng.random_bool(self.p_busy)
            };
        }
    }
}

impl ResourceDynamics for MarkovOccupancy {
    fn snapshot(
        &mut self,
        _t: u64,
        network: &QdnNetwork,
        rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot {
        self.step_states(network, rng);
        let frac = self.busy_fraction;
        let qubits = network
            .graph()
            .node_ids()
            .map(|v| {
                let cap = network.qubit_capacity(v);
                if self.node_busy[v.index()] {
                    (cap as f64 * frac).floor() as u32
                } else {
                    cap
                }
            })
            .collect();
        let channels = network
            .graph()
            .edge_ids()
            .map(|e| {
                let cap = network.channel_capacity(e);
                if self.edge_busy[e.index()] {
                    (cap as f64 * frac).floor() as u32
                } else {
                    cap
                }
            })
            .collect();
        CapacitySnapshot::clamped(network, qubits, channels)
    }

    fn reset(&mut self) {
        self.node_busy.clear();
        self.edge_busy.clear();
    }
}

/// Replays a fixed sequence of snapshots (e.g. captured from another run),
/// repeating the last one when the trace is exhausted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceDynamics {
    trace: Vec<CapacitySnapshot>,
}

impl TraceDynamics {
    /// Creates a trace player.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: Vec<CapacitySnapshot>) -> Self {
        assert!(
            !trace.is_empty(),
            "trace must contain at least one snapshot"
        );
        TraceDynamics { trace }
    }
}

impl ResourceDynamics for TraceDynamics {
    fn snapshot(
        &mut self,
        t: u64,
        _network: &QdnNetwork,
        _rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot {
        let idx = (t as usize).min(self.trace.len() - 1);
        self.trace[idx].clone()
    }
}

/// Poisson link failures with MTTR-distributed repair on top of a base
/// occupancy process.
///
/// Each slot, first any outage whose repair time has elapsed ends (the
/// link returns at full pre-failure capacity — the base process still
/// applies its occupancy on top), then `Pois(failure_rate)` fresh
/// failures strike uniformly random currently-alive links; each outage
/// lasts `Geom(1/mttr)` slots (mean `mttr`, minimum 1). A failed link
/// reports zero channels regardless of what the base process says.
///
/// The failure trace is driven by a private RNG seeded from `seed`, so it
/// is reproducible independently of the environment stream consumed by
/// the base process, and is recorded verbatim — see
/// [`ChurnDynamics::churn_events`].
#[derive(Debug)]
pub struct ChurnDynamics {
    failure_rate: f64,
    mttr: f64,
    seed: u64,
    base: Box<dyn ResourceDynamics>,
    churn_rng: rand::rngs::StdRng,
    /// Per edge: the slot at which it comes back up; 0 = currently up
    /// (an outage starting at slot t lasts ≥ 1 slot, so it always ends
    /// at t + d ≥ 1 and 0 is unambiguous).
    down_until: Vec<u64>,
    events: Vec<ChurnEvent>,
}

impl ChurnDynamics {
    /// Creates the process; `failure_rate` is clamped to `≥ 0` and `mttr`
    /// to `≥ 1` (an outage shorter than one slot is invisible).
    pub fn new(failure_rate: f64, mttr: f64, seed: u64, base: Box<dyn ResourceDynamics>) -> Self {
        ChurnDynamics {
            failure_rate: failure_rate.max(0.0),
            mttr: mttr.max(1.0),
            seed,
            base,
            churn_rng: rand::rngs::StdRng::seed_from_u64(seed),
            down_until: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Edges currently down, ascending.
    pub fn down_edges(&self) -> Vec<EdgeId> {
        let mut down: Vec<EdgeId> = self
            .down_until
            .iter()
            .enumerate()
            .filter(|(_, &du)| du != 0)
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        // Enumeration order is already ascending today, but the sorted
        // result is a documented contract (callers diff these lists and
        // feed them into decision paths), so pin it explicitly.
        down.sort_unstable();
        down
    }

    /// The full failure/repair trace so far, in slot order.
    pub fn churn_events(&self) -> &[ChurnEvent] {
        &self.events
    }

    fn sample_failures(&mut self, cap: usize) -> usize {
        poisson_capped(&mut self.churn_rng, self.failure_rate, cap)
    }

    fn sample_outage(&mut self) -> u64 {
        geometric_dwell(&mut self.churn_rng, self.mttr)
    }
}

/// Knuth's product-of-uniforms Poisson sampler, capped at `cap` (the
/// number of elements still eligible to fail this slot).
fn poisson_capped(rng: &mut dyn rand::Rng, rate: f64, cap: usize) -> usize {
    let limit = (-rate).exp();
    let mut count = 0usize;
    let mut product: f64 = rng.random();
    while product > limit && count < cap {
        count += 1;
        let u: f64 = rng.random();
        product *= u;
    }
    count
}

/// Geometric(1/mttr) outage length by inversion: `d ≥ 1` slots, mean
/// `mttr`.
fn geometric_dwell(rng: &mut dyn rand::Rng, mttr: f64) -> u64 {
    let p = (1.0 / mttr).min(1.0);
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.random();
    let d = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
    (d.max(1.0)) as u64
}

impl ResourceDynamics for ChurnDynamics {
    fn snapshot(
        &mut self,
        t: u64,
        network: &QdnNetwork,
        rng: &mut dyn rand::Rng,
    ) -> CapacitySnapshot {
        self.down_until.resize(network.edge_count(), 0);
        // Repairs first: a link repaired this slot may fail again below.
        for (i, du) in self.down_until.iter_mut().enumerate() {
            if *du != 0 && *du <= t {
                *du = 0;
                self.events.push(ChurnEvent {
                    t,
                    edge: EdgeId(i as u32),
                    kind: ChurnEventKind::Repair,
                });
            }
        }
        let alive = self.down_until.iter().filter(|&&du| du == 0).count();
        let failures = self.sample_failures(alive);
        for _ in 0..failures {
            let up: Vec<usize> = self
                .down_until
                .iter()
                .enumerate()
                .filter(|(_, &du)| du == 0)
                .map(|(i, _)| i)
                .collect();
            if up.is_empty() {
                break;
            }
            let victim = up[self.churn_rng.random_range(0..up.len())];
            let outage = self.sample_outage();
            self.down_until[victim] = t + outage;
            self.events.push(ChurnEvent {
                t,
                edge: EdgeId(victim as u32),
                kind: ChurnEventKind::Fail,
            });
        }
        let snap = self.base.snapshot(t, network, rng);
        if self.down_until.iter().all(|&du| du == 0) {
            return snap;
        }
        let mut channels = snap.channel_vec().to_vec();
        for (i, &du) in self.down_until.iter().enumerate() {
            if du != 0 {
                channels[i] = 0;
            }
        }
        CapacitySnapshot::clamped(network, snap.qubit_vec().to_vec(), channels)
    }

    fn reset(&mut self) {
        self.base.reset();
        self.churn_rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        self.down_until.clear();
        self.events.clear();
    }
}

/// Serializable choice of dynamics for experiment configs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum DynamicsConfig {
    /// [`StaticDynamics`].
    #[default]
    Static,
    /// [`UniformOccupancy`] with the given max occupied fraction.
    Uniform {
        /// Upper bound on the occupied fraction.
        max_occupied_fraction: f64,
    },
    /// [`MarkovOccupancy`].
    Markov {
        /// Free → busy transition probability.
        p_busy: f64,
        /// Busy → free transition probability.
        p_free: f64,
        /// Remaining capacity fraction while busy.
        busy_fraction: f64,
    },
    /// [`ChurnDynamics`]: link failures/repairs layered over a base
    /// process. All four fields are required (loud break over silently
    /// defaulting a failure model).
    Churn {
        /// Mean link failures per slot (Poisson).
        failure_rate: f64,
        /// Mean outage length in slots (geometric, minimum 1).
        mttr: f64,
        /// Seed for the private failure-trace RNG.
        seed: u64,
        /// The occupancy process the failures are layered over.
        base: Box<DynamicsConfig>,
    },
}

impl DynamicsConfig {
    /// Instantiates the configured dynamics.
    pub fn build(&self) -> Box<dyn ResourceDynamics> {
        match self {
            DynamicsConfig::Static => Box::new(StaticDynamics),
            DynamicsConfig::Uniform {
                max_occupied_fraction,
            } => Box::new(UniformOccupancy::new(*max_occupied_fraction)),
            DynamicsConfig::Markov {
                p_busy,
                p_free,
                busy_fraction,
            } => Box::new(MarkovOccupancy::new(*p_busy, *p_free, *busy_fraction)),
            DynamicsConfig::Churn {
                failure_rate,
                mttr,
                seed,
                base,
            } => Box::new(ChurnDynamics::new(
                *failure_rate,
                *mttr,
                *seed,
                base.build(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::QdnNetworkBuilder;
    use qdn_physics::link::LinkModel;
    use rand::SeedableRng;

    fn net() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let a = b.add_node(10);
        let c = b.add_node(20);
        b.add_edge(a, c, 8, LinkModel::paper_default()).unwrap();
        b.build()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn static_gives_full_capacity() {
        let n = net();
        let mut d = StaticDynamics;
        let mut r = rng();
        for t in 0..5 {
            let s = d.snapshot(t, &n, &mut r);
            assert_eq!(s, CapacitySnapshot::full(&n));
        }
    }

    #[test]
    fn uniform_never_exceeds_installed() {
        let n = net();
        let mut d = UniformOccupancy::new(0.8);
        let mut r = rng();
        for t in 0..50 {
            let s = d.snapshot(t, &n, &mut r);
            assert!(s.qubits(qdn_graph::NodeId(0)) <= 10);
            assert!(s.qubits(qdn_graph::NodeId(1)) <= 20);
            assert!(s.channels(qdn_graph::EdgeId(0)) <= 8);
        }
    }

    #[test]
    fn uniform_fraction_clamped() {
        let d = UniformOccupancy::new(3.0);
        assert_eq!(d.max_occupied_fraction, 1.0);
        let d = UniformOccupancy::new(-1.0);
        assert_eq!(d.max_occupied_fraction, 0.0);
    }

    #[test]
    fn uniform_zero_fraction_is_static() {
        let n = net();
        let mut d = UniformOccupancy::new(0.0);
        let mut r = rng();
        let s = d.snapshot(0, &n, &mut r);
        assert_eq!(s, CapacitySnapshot::full(&n));
    }

    #[test]
    fn markov_states_persist_and_recover() {
        let n = net();
        // Always become busy, never recover: capacity halves and stays.
        let mut d = MarkovOccupancy::new(1.0, 0.0, 0.5);
        let mut r = rng();
        let s1 = d.snapshot(0, &n, &mut r);
        assert_eq!(s1.qubits(qdn_graph::NodeId(0)), 5);
        let s2 = d.snapshot(1, &n, &mut r);
        assert_eq!(s2.qubits(qdn_graph::NodeId(0)), 5);
        d.reset();
        // After reset with p_busy=0 nothing becomes busy.
        let mut d2 = MarkovOccupancy::new(0.0, 1.0, 0.5);
        let s3 = d2.snapshot(0, &n, &mut r);
        assert_eq!(s3, CapacitySnapshot::full(&n));
    }

    #[test]
    fn trace_replays_and_repeats() {
        let n = net();
        let full = CapacitySnapshot::full(&n);
        let half = CapacitySnapshot::clamped(&n, vec![5, 10], vec![4]);
        let mut d = TraceDynamics::new(vec![full.clone(), half.clone()]);
        let mut r = rng();
        assert_eq!(d.snapshot(0, &n, &mut r), full);
        assert_eq!(d.snapshot(1, &n, &mut r), half);
        assert_eq!(d.snapshot(7, &n, &mut r), half); // repeats last
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn empty_trace_panics() {
        let _ = TraceDynamics::new(vec![]);
    }

    #[test]
    fn config_builds_each_variant() {
        let n = net();
        let mut r = rng();
        for cfg in [
            DynamicsConfig::Static,
            DynamicsConfig::Uniform {
                max_occupied_fraction: 0.5,
            },
            DynamicsConfig::Markov {
                p_busy: 0.2,
                p_free: 0.5,
                busy_fraction: 0.5,
            },
            DynamicsConfig::Churn {
                failure_rate: 0.5,
                mttr: 2.0,
                seed: 7,
                base: Box::new(DynamicsConfig::Markov {
                    p_busy: 0.2,
                    p_free: 0.5,
                    busy_fraction: 0.5,
                }),
            },
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: DynamicsConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg, "round trip of {json}");
            let mut d = cfg.build();
            let s = d.snapshot(0, &n, &mut r);
            assert!(s.total_qubits() <= n.total_qubits());
        }
        assert_eq!(DynamicsConfig::default(), DynamicsConfig::Static);
    }

    #[test]
    fn deleted_outage_variants_fail_to_deserialize() {
        for (variant, body) in [
            (
                "NodeChurn",
                r#"{"failure_rate":0.5,"mttr":2.0,"seed":7,"base":"Static"}"#,
            ),
            (
                "RegionalOutage",
                r#"{"regions":[[0,1]],"outage_rate":0.5,"mttr":2.0,"seed":7,"base":"Static"}"#,
            ),
            (
                "Maintenance",
                r#"{"windows":[{"start":0,"end":2,"nodes":[0]}],"base":"Static"}"#,
            ),
        ] {
            let text = format!("{{\"{variant}\":{body}}}");
            let err = serde_json::from_str::<DynamicsConfig>(&text).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "unknown variant `{variant}`, expected one of \
                     `Static`, `Uniform`, `Markov`, `Churn`"
                ),
            );
        }
    }

    /// A line of several edges, so failures have room to spread.
    fn line_net(edges: usize) -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let nodes: Vec<_> = (0..=edges).map(|_| b.add_node(10)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], 6, LinkModel::paper_default())
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn churn_downs_links_and_repairs_them() {
        let n = line_net(5);
        // Certain failure every slot, 1-slot outages: every fail has a
        // matching repair one slot later.
        let mut d = ChurnDynamics::new(1.0, 1.0, 42, Box::new(StaticDynamics));
        let mut r = rng();
        let mut saw_zero = false;
        for t in 0..20 {
            let s = d.snapshot(t, &n, &mut r);
            let down = d.down_edges();
            for e in n.graph().edge_ids() {
                if down.contains(&e) {
                    assert_eq!(s.channels(e), 0, "down edge {e} has channels");
                    saw_zero = true;
                } else {
                    assert_eq!(s.channels(e), 6);
                }
            }
        }
        assert!(saw_zero, "failure rate 1.0 never downed a link");
        let fails = d
            .churn_events()
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Fail)
            .count();
        let repairs = d.churn_events().len() - fails;
        assert!(fails > 0);
        // Every outage lasts exactly 1 slot here, so each fail at t < 19
        // has its repair inside the horizon.
        assert!(repairs >= fails - d.down_edges().len());
    }

    #[test]
    fn churn_reset_replays_the_same_trace() {
        let n = line_net(4);
        let mut d = ChurnDynamics::new(0.7, 3.0, 11, Box::new(StaticDynamics));
        let mut r = rng();
        for t in 0..15 {
            let _ = d.snapshot(t, &n, &mut r);
        }
        let first = d.churn_events().to_vec();
        assert!(!first.is_empty());
        d.reset();
        assert!(d.churn_events().is_empty());
        // The env stream differs; the private churn stream must not care.
        let mut r2 = rand::rngs::StdRng::seed_from_u64(999);
        for t in 0..15 {
            let _ = d.snapshot(t, &n, &mut r2);
        }
        assert_eq!(d.churn_events(), first.as_slice());
    }

    #[test]
    fn churn_zero_rate_is_transparent() {
        let n = line_net(3);
        let mut d = ChurnDynamics::new(0.0, 5.0, 1, Box::new(StaticDynamics));
        let mut r = rng();
        for t in 0..10 {
            assert_eq!(d.snapshot(t, &n, &mut r), CapacitySnapshot::full(&n));
        }
        assert!(d.churn_events().is_empty());
    }

    #[test]
    fn down_edges_is_sorted_ascending() {
        let n = line_net(6);
        let mut d = ChurnDynamics::new(2.0, 4.0, 9, Box::new(StaticDynamics));
        let mut r = rng();
        let mut saw_multi = false;
        for t in 0..30 {
            let _ = d.snapshot(t, &n, &mut r);
            let down = d.down_edges();
            assert!(
                down.windows(2).all(|w| w[0] < w[1]),
                "down_edges not strictly ascending at t={t}: {down:?}"
            );
            saw_multi |= down.len() >= 2;
        }
        assert!(saw_multi, "rate 2.0 never had two links down at once");
    }

    #[test]
    fn churn_composes_with_occupancy_base() {
        let n = line_net(3);
        let mut d = ChurnDynamics::new(10.0, 4.0, 3, Box::new(UniformOccupancy::new(0.5)));
        let mut r = rng();
        for t in 0..10 {
            let s = d.snapshot(t, &n, &mut r);
            for e in n.graph().edge_ids() {
                if d.down_edges().contains(&e) {
                    assert_eq!(s.channels(e), 0);
                } else {
                    // Base occupancy still applies to surviving links.
                    assert!(s.channels(e) <= 6);
                }
            }
        }
        // Rate 10 over 3 links: everything should be down at some point.
        assert!(d.churn_events().len() >= 3);
    }
}
