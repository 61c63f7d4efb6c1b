//! Per-slot EC request generators.
//!
//! The paper's evaluation draws the number of SD pairs per slot from
//! `U[1, 5]` with endpoints picked at random (§V-A-2); this corresponds to
//! [`UniformWorkload::paper_default`]. Additional generators model DQC
//! workload patterns (Poisson arrivals, hotspot traffic) for robustness
//! experiments and examples.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use qdn_graph::NodeId;

use crate::network::QdnNetwork;
use crate::request::{RequestSet, SdPair};

/// A source of per-slot request sets `Φ_t`.
pub trait Workload: std::fmt::Debug + Send {
    /// The SD pairs requesting ECs in slot `t`.
    fn requests(&mut self, t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet;

    /// Upper bound `F` on `|Φ_t|`, needed by the theory bounds (paper
    /// Assumption 1 and Prop. 2 use `F`).
    fn max_pairs(&self) -> usize;

    /// Resets internal state for a fresh trial.
    fn reset(&mut self) {}
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn requests(&mut self, t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        (**self).requests(t, network, rng)
    }

    fn max_pairs(&self) -> usize {
        (**self).max_pairs()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Samples a random SD pair with distinct endpoints.
///
/// # Panics
///
/// Panics if the network has fewer than two nodes.
pub fn random_sd_pair<R: Rng + ?Sized>(rng: &mut R, network: &QdnNetwork) -> SdPair {
    let n = network.node_count();
    assert!(n >= 2, "need at least two nodes to form an SD pair");
    let s = rng.random_range(0..n as u32);
    let mut d = rng.random_range(0..n as u32 - 1);
    if d >= s {
        d += 1;
    }
    SdPair::new(NodeId(s), NodeId(d)).expect("s != d by construction")
}

/// The paper's workload: `|Φ_t| ~ U[min_pairs, max_pairs]`, endpoints
/// uniform over distinct node pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformWorkload {
    /// Minimum pairs per slot.
    pub min_pairs: usize,
    /// Maximum pairs per slot (the paper's `F`).
    pub max_pairs: usize,
}

impl UniformWorkload {
    /// The paper's §V-A default: `U[1, 5]`.
    pub fn paper_default() -> Self {
        UniformWorkload {
            min_pairs: 1,
            max_pairs: 5,
        }
    }

    /// Creates a uniform workload, normalising an inverted range.
    pub fn new(min_pairs: usize, max_pairs: usize) -> Self {
        let (lo, hi) = if min_pairs <= max_pairs {
            (min_pairs, max_pairs)
        } else {
            (max_pairs, min_pairs)
        };
        UniformWorkload {
            min_pairs: lo,
            max_pairs: hi,
        }
    }
}

impl Workload for UniformWorkload {
    fn requests(&mut self, _t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        let count = rng.random_range(self.min_pairs..=self.max_pairs);
        (0..count).map(|_| random_sd_pair(rng, network)).collect()
    }

    fn max_pairs(&self) -> usize {
        self.max_pairs
    }
}

/// Poisson arrivals truncated at `max_pairs`: `|Φ_t| = min(Pois(rate), F)`.
///
/// Models DQC job arrivals where the request intensity reflects an
/// underlying workload process rather than a bounded uniform draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonWorkload {
    /// Mean arrivals per slot.
    pub rate: f64,
    /// Hard cap `F` on pairs per slot.
    pub max_pairs: usize,
}

impl PoissonWorkload {
    /// Creates a Poisson workload.
    ///
    /// Negative rates are clamped to zero.
    pub fn new(rate: f64, max_pairs: usize) -> Self {
        PoissonWorkload {
            rate: rate.max(0.0),
            max_pairs,
        }
    }

    /// Knuth's algorithm: count multiplications of uniforms until the
    /// product drops below `e^{-rate}`.
    fn sample_poisson(&self, rng: &mut dyn rand::Rng) -> usize {
        let limit = (-self.rate).exp();
        let mut count = 0usize;
        let mut product: f64 = rng.random();
        while product > limit && count < self.max_pairs {
            count += 1;
            let u: f64 = rng.random();
            product *= u;
        }
        count
    }
}

impl Workload for PoissonWorkload {
    fn requests(&mut self, _t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        let count = self.sample_poisson(rng).min(self.max_pairs);
        (0..count).map(|_| random_sd_pair(rng, network)).collect()
    }

    fn max_pairs(&self) -> usize {
        self.max_pairs
    }
}

/// Hotspot workload: a fraction of traffic concentrates on a small set of
/// "data-center" nodes; the rest is uniform.
///
/// Models the DQC motivation of the paper's introduction, where a few
/// large quantum computers serve many smaller ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotWorkload {
    /// Pairs per slot (fixed).
    pub pairs_per_slot: usize,
    /// Nodes that attract traffic.
    pub hotspots: Vec<NodeId>,
    /// Probability that a request touches a hotspot endpoint.
    pub hotspot_probability: f64,
}

impl HotspotWorkload {
    /// Creates a hotspot workload.
    ///
    /// The probability is clamped into `[0, 1]`; an empty hotspot list
    /// degenerates to uniform traffic.
    pub fn new(pairs_per_slot: usize, hotspots: Vec<NodeId>, hotspot_probability: f64) -> Self {
        HotspotWorkload {
            pairs_per_slot,
            hotspots,
            hotspot_probability: hotspot_probability.clamp(0.0, 1.0),
        }
    }
}

impl Workload for HotspotWorkload {
    fn requests(&mut self, _t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        let mut set = Vec::with_capacity(self.pairs_per_slot);
        for _ in 0..self.pairs_per_slot {
            let pair = if !self.hotspots.is_empty() && rng.random_bool(self.hotspot_probability) {
                // One endpoint is a hotspot, the other uniform (distinct).
                let h = self.hotspots[rng.random_range(0..self.hotspots.len())];
                loop {
                    let other = NodeId(rng.random_range(0..network.node_count() as u32));
                    if other != h {
                        break SdPair::new(other, h).expect("distinct by loop");
                    }
                }
            } else {
                random_sd_pair(rng, network)
            };
            set.push(pair);
        }
        set
    }

    fn max_pairs(&self) -> usize {
        self.pairs_per_slot
    }
}

/// Temporally-correlated renewal workload: a sticky set of
/// `pairs_per_slot` active SD pairs where each slot keeps each active
/// pair with probability `keep_probability` and replaces departures
/// with fresh uniform pairs.
///
/// This models session-like DQC traffic — an entanglement consumer
/// typically requests connections over many consecutive slots, not for
/// one slot in isolation — and is the regime where cross-slot selection
/// state (region memos, previous-profile seeding via
/// `SelectorSession`) pays: consecutive slots share most of their
/// pairs, so route spaces, coupling components, and near-optimal
/// profiles carry over. `keep_probability = 0` degenerates to a fresh
/// uniform draw every slot; `1` pins the first slot's pairs forever.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentWorkload {
    /// Size of the active pair set (fixed per slot).
    pub pairs_per_slot: usize,
    /// Per-slot survival probability of each active pair.
    pub keep_probability: f64,
    /// The current active set (empty before the first slot).
    active: Vec<SdPair>,
}

impl PersistentWorkload {
    /// Creates the workload; `keep_probability` is clamped into `[0, 1]`
    /// and `pairs_per_slot` is raised to at least 1.
    pub fn new(pairs_per_slot: usize, keep_probability: f64) -> Self {
        PersistentWorkload {
            pairs_per_slot: pairs_per_slot.max(1),
            keep_probability: keep_probability.clamp(0.0, 1.0),
            active: Vec::new(),
        }
    }

    /// A paper-scale default: 5 active pairs, 80% per-slot survival
    /// (mean session length 5 slots).
    pub fn paper_scale() -> Self {
        Self::new(5, 0.8)
    }
}

impl Workload for PersistentWorkload {
    fn requests(&mut self, _t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        if self.active.is_empty() {
            self.active = (0..self.pairs_per_slot)
                .map(|_| random_sd_pair(rng, network))
                .collect();
        } else {
            for pair in &mut self.active {
                if !rng.random_bool(self.keep_probability) {
                    *pair = random_sd_pair(rng, network);
                }
            }
        }
        self.active.clone()
    }

    fn max_pairs(&self) -> usize {
        self.pairs_per_slot
    }

    fn reset(&mut self) {
        self.active.clear();
    }
}

/// Wraps a base workload so every drawn SD pair issues several EC
/// requests in the same slot.
///
/// The paper's §III-C prescribes exactly this treatment: "the extension
/// to multiple EC requests from a single SD pair is straightforward. In
/// such cases, we can treat each entanglement connection request as a
/// separate SD pair, each with a single EC request." Each base pair is
/// therefore repeated `k ~ U[1, max_requests_per_pair]` times in the
/// returned request set; the routing stack treats every copy as an
/// independent request (they may be assigned different routes and
/// allocations).
///
/// # Example
///
/// ```
/// use qdn_net::workload::{MultiEcWorkload, UniformWorkload, Workload};
///
/// let w = MultiEcWorkload::new(UniformWorkload::paper_default(), 3);
/// // F = 5 base pairs × up to 3 requests each.
/// assert_eq!(w.max_pairs(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiEcWorkload<W> {
    base: W,
    max_requests_per_pair: usize,
}

impl<W: Workload> MultiEcWorkload<W> {
    /// Wraps `base` with per-pair multiplicity `U[1, max_requests_per_pair]`.
    ///
    /// A multiplicity bound of zero is clamped to one (every pair makes at
    /// least one request).
    pub fn new(base: W, max_requests_per_pair: usize) -> Self {
        MultiEcWorkload {
            base,
            max_requests_per_pair: max_requests_per_pair.max(1),
        }
    }

    /// The wrapped workload.
    pub fn base(&self) -> &W {
        &self.base
    }

    /// Upper bound on EC requests issued by a single SD pair per slot.
    pub fn max_requests_per_pair(&self) -> usize {
        self.max_requests_per_pair
    }
}

impl<W: Workload> Workload for MultiEcWorkload<W> {
    fn requests(&mut self, t: u64, network: &QdnNetwork, rng: &mut dyn rand::Rng) -> RequestSet {
        let base_set = self.base.requests(t, network, rng);
        let mut out = Vec::with_capacity(base_set.len());
        for pair in base_set {
            let copies = rng.random_range(1..=self.max_requests_per_pair);
            out.extend(std::iter::repeat_n(pair, copies));
        }
        out
    }

    fn max_pairs(&self) -> usize {
        self.base.max_pairs() * self.max_requests_per_pair
    }

    fn reset(&mut self) {
        self.base.reset();
    }
}

/// Replays a fixed per-slot request trace, returning empty sets past its
/// end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceWorkload {
    trace: Vec<RequestSet>,
}

impl TraceWorkload {
    /// Creates a trace workload.
    pub fn new(trace: Vec<RequestSet>) -> Self {
        TraceWorkload { trace }
    }
}

impl Workload for TraceWorkload {
    fn requests(&mut self, t: u64, _network: &QdnNetwork, _rng: &mut dyn rand::Rng) -> RequestSet {
        self.trace.get(t as usize).cloned().unwrap_or_default()
    }

    fn max_pairs(&self) -> usize {
        self.trace.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The same fixed request set every slot.
///
/// This is the churn-recovery harness workload: with demand pinned, the
/// utility series before and after a link cut is directly comparable, so
/// slots-to-recover (see `RunMetrics::recovery_records` in `qdn_sim`) is
/// a property of the cut and the policy, not of workload noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PinnedWorkload {
    pairs: Vec<SdPair>,
}

impl PinnedWorkload {
    /// Creates a pinned workload issuing exactly `pairs` every slot.
    pub fn new(pairs: Vec<SdPair>) -> Self {
        PinnedWorkload { pairs }
    }
}

impl Workload for PinnedWorkload {
    fn requests(&mut self, _t: u64, _network: &QdnNetwork, _rng: &mut dyn rand::Rng) -> RequestSet {
        self.pairs.clone()
    }

    fn max_pairs(&self) -> usize {
        self.pairs.len()
    }
}

/// Serializable workload choice for experiment configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadConfig {
    /// [`UniformWorkload`].
    Uniform {
        /// Minimum pairs per slot.
        min_pairs: usize,
        /// Maximum pairs per slot.
        max_pairs: usize,
    },
    /// [`PoissonWorkload`].
    Poisson {
        /// Mean arrivals per slot.
        rate: f64,
        /// Cap on pairs per slot.
        max_pairs: usize,
    },
    /// [`HotspotWorkload`] with hotspot node indices.
    Hotspot {
        /// Pairs per slot.
        pairs_per_slot: usize,
        /// Hotspot node indices.
        hotspots: Vec<u32>,
        /// Probability a request touches a hotspot.
        hotspot_probability: f64,
    },
    /// [`MultiEcWorkload`] over a base configuration (paper §III-C:
    /// multiple EC requests from one SD pair become repeated pairs).
    MultiEc {
        /// The base workload whose pairs are multiplied.
        base: Box<WorkloadConfig>,
        /// Upper bound on EC requests per pair per slot.
        max_requests_per_pair: usize,
    },
    /// [`PersistentWorkload`]: a sticky pair set with per-slot survival
    /// probability — the temporal-correlation scenario for cross-slot
    /// selection sessions.
    Persistent {
        /// Size of the active pair set.
        pairs_per_slot: usize,
        /// Per-slot survival probability of each active pair.
        keep_probability: f64,
    },
    /// [`PinnedWorkload`]: the identical request set every slot, given as
    /// `(source, destination)` node indices. Both fields of each pair are
    /// required and must be distinct — `build` panics otherwise (loud
    /// break over silently dropping bad pairs).
    Pinned {
        /// The `(source, destination)` node-index pairs issued each slot.
        pairs: Vec<(u32, u32)>,
    },
}

impl WorkloadConfig {
    /// The paper's default workload (`U[1,5]`).
    pub fn paper_default() -> Self {
        WorkloadConfig::Uniform {
            min_pairs: 1,
            max_pairs: 5,
        }
    }

    /// Instantiates the configured workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadConfig::Uniform {
                min_pairs,
                max_pairs,
            } => Box::new(UniformWorkload::new(*min_pairs, *max_pairs)),
            WorkloadConfig::Poisson { rate, max_pairs } => {
                Box::new(PoissonWorkload::new(*rate, *max_pairs))
            }
            WorkloadConfig::Hotspot {
                pairs_per_slot,
                hotspots,
                hotspot_probability,
            } => Box::new(HotspotWorkload::new(
                *pairs_per_slot,
                hotspots.iter().map(|&i| NodeId(i)).collect(),
                *hotspot_probability,
            )),
            WorkloadConfig::MultiEc {
                base,
                max_requests_per_pair,
            } => Box::new(MultiEcWorkload::new(base.build(), *max_requests_per_pair)),
            WorkloadConfig::Persistent {
                pairs_per_slot,
                keep_probability,
            } => Box::new(PersistentWorkload::new(*pairs_per_slot, *keep_probability)),
            WorkloadConfig::Pinned { pairs } => Box::new(PinnedWorkload::new(
                pairs
                    .iter()
                    .map(|&(s, d)| {
                        SdPair::new(NodeId(s), NodeId(d))
                            .expect("pinned workload pairs must have distinct endpoints")
                    })
                    .collect(),
            )),
        }
    }

    /// Upper bound `F` on pairs per slot for this configuration.
    pub fn max_pairs(&self) -> usize {
        match self {
            WorkloadConfig::Uniform { max_pairs, .. } => *max_pairs,
            WorkloadConfig::Poisson { max_pairs, .. } => *max_pairs,
            WorkloadConfig::Hotspot { pairs_per_slot, .. } => *pairs_per_slot,
            WorkloadConfig::MultiEc {
                base,
                max_requests_per_pair,
            } => base.max_pairs() * (*max_requests_per_pair).max(1),
            WorkloadConfig::Persistent { pairs_per_slot, .. } => (*pairs_per_slot).max(1),
            WorkloadConfig::Pinned { pairs } => pairs.len(),
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::QdnNetworkBuilder;
    use qdn_physics::link::LinkModel;
    use rand::SeedableRng;

    fn net(nodes: u32) -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let ids: Vec<_> = (0..nodes).map(|_| b.add_node(10)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 5, LinkModel::paper_default())
                .unwrap();
        }
        b.build()
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_pair_distinct_endpoints() {
        let n = net(6);
        let mut r = rng(1);
        for _ in 0..500 {
            let p = random_sd_pair(&mut r, &n);
            assert_ne!(p.source(), p.destination());
            assert!(p.source().index() < 6);
            assert!(p.destination().index() < 6);
        }
    }

    #[test]
    fn random_pair_covers_all_nodes() {
        let n = net(5);
        let mut r = rng(2);
        let mut seen_src = [false; 5];
        let mut seen_dst = [false; 5];
        for _ in 0..1000 {
            let p = random_sd_pair(&mut r, &n);
            seen_src[p.source().index()] = true;
            seen_dst[p.destination().index()] = true;
        }
        assert!(seen_src.iter().all(|&s| s));
        assert!(seen_dst.iter().all(|&d| d));
    }

    #[test]
    fn uniform_workload_respects_bounds() {
        let n = net(8);
        let mut w = UniformWorkload::paper_default();
        let mut r = rng(3);
        let mut seen_min = usize::MAX;
        let mut seen_max = 0;
        for t in 0..300 {
            let set = w.requests(t, &n, &mut r);
            seen_min = seen_min.min(set.len());
            seen_max = seen_max.max(set.len());
            assert!((1..=5).contains(&set.len()));
        }
        assert_eq!(seen_min, 1);
        assert_eq!(seen_max, 5);
        assert_eq!(w.max_pairs(), 5);
    }

    #[test]
    fn uniform_workload_normalises_range() {
        let w = UniformWorkload::new(7, 2);
        assert_eq!(w.min_pairs, 2);
        assert_eq!(w.max_pairs, 7);
    }

    #[test]
    fn poisson_workload_mean_and_cap() {
        let n = net(8);
        let mut w = PoissonWorkload::new(2.0, 10);
        let mut r = rng(5);
        let mut total = 0usize;
        const SLOTS: u64 = 3000;
        for t in 0..SLOTS {
            let set = w.requests(t, &n, &mut r);
            assert!(set.len() <= 10);
            total += set.len();
        }
        let mean = total as f64 / SLOTS as f64;
        assert!(
            (mean - 2.0).abs() < 0.15,
            "Poisson mean {mean} should be ~2"
        );
    }

    #[test]
    fn poisson_zero_rate_is_empty() {
        let n = net(4);
        let mut w = PoissonWorkload::new(0.0, 5);
        let mut r = rng(6);
        // exp(0)=1, product starts <= 1... first uniform draw is < 1 w.p. 1.
        for t in 0..50 {
            assert!(w.requests(t, &n, &mut r).len() <= 1);
        }
    }

    #[test]
    fn hotspot_bias_observed() {
        let n = net(10);
        let hot = NodeId(0);
        let mut w = HotspotWorkload::new(4, vec![hot], 0.9);
        let mut r = rng(7);
        let mut touching = 0usize;
        let mut total = 0usize;
        for t in 0..500 {
            for p in w.requests(t, &n, &mut r) {
                total += 1;
                if p.source() == hot || p.destination() == hot {
                    touching += 1;
                }
            }
        }
        let frac = touching as f64 / total as f64;
        assert!(frac > 0.7, "hotspot fraction {frac} should reflect bias");
    }

    #[test]
    fn hotspot_empty_list_is_uniform() {
        let n = net(6);
        let mut w = HotspotWorkload::new(3, vec![], 0.9);
        let mut r = rng(8);
        let set = w.requests(0, &n, &mut r);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn trace_workload_replays() {
        let n = net(4);
        let a = SdPair::new(NodeId(0), NodeId(1)).unwrap();
        let b = SdPair::new(NodeId(2), NodeId(3)).unwrap();
        let mut w = TraceWorkload::new(vec![vec![a], vec![a, b]]);
        let mut r = rng(9);
        assert_eq!(w.requests(0, &n, &mut r), vec![a]);
        assert_eq!(w.requests(1, &n, &mut r), vec![a, b]);
        assert!(w.requests(2, &n, &mut r).is_empty());
        assert_eq!(w.max_pairs(), 2);
    }

    #[test]
    fn multi_ec_repeats_pairs() {
        let n = net(8);
        let base = TraceWorkload::new(vec![vec![
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(1), NodeId(5)).unwrap(),
        ]]);
        let mut w = MultiEcWorkload::new(base, 4);
        let mut r = rng(11);
        let set = w.requests(0, &n, &mut r);
        // Each base pair appears 1..=4 times, contiguously.
        assert!(set.len() >= 2 && set.len() <= 8);
        let first = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let second = SdPair::new(NodeId(1), NodeId(5)).unwrap();
        let firsts = set.iter().filter(|&&p| p == first).count();
        let seconds = set.iter().filter(|&&p| p == second).count();
        assert!((1..=4).contains(&firsts));
        assert!((1..=4).contains(&seconds));
        assert_eq!(firsts + seconds, set.len());
    }

    #[test]
    fn multi_ec_multiplicity_covers_range() {
        let n = net(8);
        let mut w = MultiEcWorkload::new(
            TraceWorkload::new(vec![vec![SdPair::new(NodeId(0), NodeId(1)).unwrap()]; 400]),
            3,
        );
        let mut r = rng(12);
        let mut seen = [false; 3];
        for t in 0..400 {
            let set = w.requests(t, &n, &mut r);
            assert!((1..=3).contains(&set.len()));
            seen[set.len() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "all multiplicities 1..=3 drawn");
    }

    #[test]
    fn multi_ec_f_bound_and_clamping() {
        let w = MultiEcWorkload::new(UniformWorkload::paper_default(), 3);
        assert_eq!(w.max_pairs(), 15);
        assert_eq!(w.max_requests_per_pair(), 3);
        // Zero clamps to one: degenerates to the base workload.
        let w0 = MultiEcWorkload::new(UniformWorkload::paper_default(), 0);
        assert_eq!(w0.max_requests_per_pair(), 1);
        assert_eq!(w0.max_pairs(), 5);
    }

    #[test]
    fn multi_ec_multiplicity_one_matches_base() {
        // With multiplicity 1 every pair appears exactly once, so a
        // deterministic base trace passes through unchanged.
        let n = net(8);
        let a = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let b = SdPair::new(NodeId(1), NodeId(5)).unwrap();
        let trace = vec![vec![a], vec![a, b], vec![b]];
        let mut wrapped = MultiEcWorkload::new(TraceWorkload::new(trace.clone()), 1);
        let mut r = rng(13);
        for (t, expected) in trace.iter().enumerate() {
            assert_eq!(&wrapped.requests(t as u64, &n, &mut r), expected);
        }
    }

    #[test]
    fn boxed_workload_forwards() {
        let n = net(6);
        let mut w: Box<dyn Workload> = Box::new(UniformWorkload::paper_default());
        let mut r = rng(14);
        let set = w.requests(0, &n, &mut r);
        assert!((1..=5).contains(&set.len()));
        assert_eq!(w.max_pairs(), 5);
        w.reset();
        // A MultiEcWorkload over a boxed base also composes.
        let mut nested = MultiEcWorkload::new(w, 2);
        assert_eq!(nested.max_pairs(), 10);
        let set = nested.requests(1, &n, &mut r);
        assert!(!set.is_empty());
    }

    #[test]
    fn multi_ec_config_builds_and_reports_f() {
        let n = net(8);
        let cfg = WorkloadConfig::MultiEc {
            base: Box::new(WorkloadConfig::Uniform {
                min_pairs: 2,
                max_pairs: 3,
            }),
            max_requests_per_pair: 2,
        };
        assert_eq!(cfg.max_pairs(), 6);
        let mut w = cfg.build();
        let mut r = rng(15);
        for t in 0..30 {
            let set = w.requests(t, &n, &mut r);
            assert!((2..=6).contains(&set.len()));
        }
        assert_eq!(w.max_pairs(), 6);
    }

    #[test]
    fn persistent_workload_keeps_and_replaces() {
        let n = net(12);
        let mut w = PersistentWorkload::new(6, 0.75);
        let mut r = rng(21);
        let first = w.requests(0, &n, &mut r);
        assert_eq!(first.len(), 6);
        let mut kept_total = 0usize;
        let mut prev = first;
        for t in 1..200 {
            let cur = w.requests(t, &n, &mut r);
            assert_eq!(cur.len(), 6, "active set size is fixed");
            // Position-wise survival: a kept slot keeps its exact pair.
            kept_total += prev.iter().zip(&cur).filter(|(a, b)| a == b).count();
            prev = cur;
        }
        let kept_frac = kept_total as f64 / (199.0 * 6.0);
        assert!(
            (kept_frac - 0.75).abs() < 0.06,
            "per-slot survival should track keep_probability, got {kept_frac}"
        );
    }

    #[test]
    fn persistent_workload_extremes_and_reset() {
        let n = net(10);
        // keep = 1: the first slot's pairs persist forever.
        let mut sticky = PersistentWorkload::new(4, 1.0);
        let mut r = rng(22);
        let first = sticky.requests(0, &n, &mut r);
        for t in 1..20 {
            assert_eq!(sticky.requests(t, &n, &mut r), first);
        }
        // reset clears the active set: the next slot redraws.
        sticky.reset();
        let redrawn = sticky.requests(0, &n, &mut r);
        assert_eq!(redrawn.len(), 4);
        assert_ne!(redrawn, first, "fresh draw after reset (w.h.p.)");
        // keep = 0: every slot is a fresh draw (no positional survivors
        // beyond chance; just sanity-check it runs and sizes hold).
        let mut churn = PersistentWorkload::new(3, 0.0);
        for t in 0..10 {
            assert_eq!(churn.requests(t, &n, &mut r).len(), 3);
        }
        // Degenerate parameters are clamped.
        let w = PersistentWorkload::new(0, 7.5);
        assert_eq!(w.max_pairs(), 1);
        assert_eq!(w.keep_probability, 1.0);
    }

    #[test]
    fn persistent_config_builds_and_reports_f() {
        let n = net(8);
        let cfg = WorkloadConfig::Persistent {
            pairs_per_slot: 4,
            keep_probability: 0.8,
        };
        assert_eq!(cfg.max_pairs(), 4);
        let mut w = cfg.build();
        let mut r = rng(23);
        let a = w.requests(0, &n, &mut r);
        let b = w.requests(1, &n, &mut r);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(w.max_pairs(), 4);
    }

    #[test]
    fn config_builds_and_reports_f() {
        let n = net(6);
        let mut r = rng(10);
        for cfg in [
            WorkloadConfig::paper_default(),
            WorkloadConfig::Poisson {
                rate: 1.5,
                max_pairs: 4,
            },
            WorkloadConfig::Hotspot {
                pairs_per_slot: 3,
                hotspots: vec![0],
                hotspot_probability: 0.5,
            },
            WorkloadConfig::Persistent {
                pairs_per_slot: 2,
                keep_probability: 0.5,
            },
        ] {
            let mut w = cfg.build();
            let set = w.requests(0, &n, &mut r);
            assert!(set.len() <= cfg.max_pairs());
            assert_eq!(w.max_pairs(), cfg.max_pairs());
        }
    }
}
