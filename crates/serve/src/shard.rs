//! Shard warm sessions, decided in turn on the serving thread.
//!
//! The daemon holds one shard per configured shard index, inline: an
//! [`EngineState`] (candidate route cache + selection session +
//! fidelity-filter cache) and a [`VirtualQueue`] over its slice of the
//! budget. SD pairs are mapped to shards by **canonical source node**
//! ([`shard_of`]), so a pair's warm state always lands on the shard that
//! already holds it. The serving thread decides every shard in shard
//! order; nothing here spawns a thread or sends a message.
//!
//! Every tick touches every shard (even ones with no arrivals): an idle
//! slot must still drain the shard's virtual queue (Eq. 7 with
//! `c_t = 0`).

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

use qdn_core::engine::{self, EngineState, SlotDecisionRequest};
use qdn_core::lyapunov::VirtualQueue;
use qdn_core::problem::PerSlotContext;
use qdn_core::types::Decision;
use qdn_core::OscarConfig;
use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
use rand::SeedableRng;

use crate::proto::ShardSnapshot;

/// The shard a pair's warm state lives on: canonical source node id
/// modulo the shard count. Orientation-stable (a pair and its reverse
/// share a shard), so a pair's warm state survives direction flips.
pub fn shard_of(pair: SdPair, shards: u32) -> usize {
    (pair.canonical().source().0 % shards.max(1)) as usize
}

/// Deterministic RNG stream for `(seed, slot, shard)` — splitmix64 over
/// the three words. Restart determinism hangs on this: the uninterrupted
/// daemon and the restored one derive the identical stream for every
/// slot they decide, so RNG state never needs to be serialized.
pub fn slot_rng(seed: u64, slot: u64, shard: u64) -> rand::rngs::StdRng {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mixed = splitmix(seed ^ splitmix(slot ^ splitmix(shard)));
    rand::rngs::StdRng::seed_from_u64(mixed)
}

/// One shard's warm state.
struct Shard {
    state: EngineState,
    queue: VirtualQueue,
    spent: u64,
}

/// The daemon's shards, decided one after another on the caller's
/// thread.
pub struct ShardPool {
    seed: u64,
    /// Each shard's queue at slot 0: `total_budget / shards`.
    cold_queue: VirtualQueue,
    shards: Vec<Shard>,
}

impl ShardPool {
    /// `shards` cold shards (at least one), each pricing its own virtual
    /// queue over `total_budget / shards`.
    pub fn new(seed: u64, shards: u32, oscar: &OscarConfig) -> ShardPool {
        let shards = shards.max(1);
        let cold_queue = VirtualQueue::new(
            oscar.q0,
            oscar.total_budget / f64::from(shards),
            oscar.horizon,
        );
        ShardPool {
            seed,
            cold_queue,
            shards: (0..shards)
                .map(|_| Shard {
                    state: EngineState::new(oscar.route_limits),
                    queue: cold_queue,
                    spent: 0,
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the pool has no shards (never true — `new` clamps to 1).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Decides slot `slot`: splits `requests` by [`shard_of`], decides
    /// every shard in shard order (idle ones included — they still drain
    /// their queues) against the same capacity snapshot, and merges the
    /// shard decisions in shard order.
    ///
    /// A panic inside a shard's decision is caught and returned as an
    /// error. The shards decided before it have already advanced, so
    /// the pool is then torn and the caller must replace it with a cold
    /// one — see `Daemon::rebuild`.
    pub fn decide_slot(
        &mut self,
        network: &QdnNetwork,
        oscar: &OscarConfig,
        slot: u64,
        requests: &[SdPair],
        snapshot: &CapacitySnapshot,
    ) -> Result<Decision, String> {
        let count = self.shards.len() as u32;
        let mut per_shard: Vec<Vec<SdPair>> = vec![Vec::new(); self.shards.len()];
        for &pair in requests {
            per_shard[shard_of(pair, count)].push(pair);
        }
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut assignments = Vec::new();
            let mut unserved = Vec::new();
            for (index, (shard, requests)) in self.shards.iter_mut().zip(per_shard).enumerate() {
                let ctx = PerSlotContext::oscar(network, snapshot, oscar.v, shard.queue.value());
                let mut rng = slot_rng(self.seed, slot, index as u64);
                let decision = engine::decide(
                    &mut shard.state,
                    SlotDecisionRequest {
                        network,
                        requests: &requests,
                        ctx: &ctx,
                        selector: &oscar.selector,
                        allocation: &oscar.allocation,
                        fidelity_target: oscar.fidelity_target,
                        rng: &mut rng,
                    },
                );
                let cost = decision.total_cost();
                shard.spent += cost;
                shard.queue.update(cost);
                assignments.extend_from_slice(decision.assignments());
                unserved.extend_from_slice(decision.unserved());
            }
            Decision::new(assignments, unserved)
        }))
        .map_err(|payload| {
            format!(
                "shard decision panicked at slot {slot}: {}",
                panic_message(payload.as_ref())
            )
        })
    }

    /// Every shard's virtual-queue value, in shard order.
    pub fn queue_values(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.queue.value()).collect()
    }

    /// Every shard's warm state, in shard order.
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardSnapshot {
                engine: s.state.snapshot(),
                queue: s.queue,
                spent: s.spent,
            })
            .collect()
    }

    /// Installs per-shard warm state (one snapshot per shard, in shard
    /// order). All or nothing: every shard's engine is restored before
    /// any is installed, so on error the pool is exactly as it was.
    pub fn restore(&mut self, snapshots: &[ShardSnapshot]) -> Result<(), String> {
        if snapshots.len() != self.shards.len() {
            return Err(format!(
                "snapshot has {} shards, daemon has {}",
                snapshots.len(),
                self.shards.len()
            ));
        }
        self.shards = snapshots
            .iter()
            .enumerate()
            .map(|(index, s)| {
                Ok(Shard {
                    state: EngineState::restore(&s.engine)
                        .map_err(|e| format!("shard {index}: {e}"))?,
                    queue: s.queue,
                    spent: s.spent,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// Resets every shard to cold state (fresh engine, fresh queue).
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.state.reset();
            shard.queue = self.cold_queue;
            shard.spent = 0;
        }
    }
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Request, Response};
    use crate::{Daemon, ServeConfig};
    use qdn_net::network::QdnNetworkBuilder;

    #[test]
    fn a_panicking_decision_is_a_typed_error_and_a_cold_rebuild() {
        let config = ServeConfig::paper_default();
        let pairs = vec![(0, 5), (3, 9), (1, 7)];
        // A snapshot of an empty network has no capacity entries, so
        // the first capacity read of any decision is out of bounds.
        let foreign = CapacitySnapshot::full(&QdnNetworkBuilder::new().build());

        let mut daemon = Daemon::new(config.clone()).unwrap();
        let requests: Vec<SdPair> = pairs
            .iter()
            .map(|&(s, d)| SdPair::new(qdn_graph::NodeId(s), qdn_graph::NodeId(d)).unwrap())
            .collect();
        let mut pool = ShardPool::new(config.seed, config.shards, &config.oscar);
        let err = pool
            .decide_slot(daemon.network(), &config.oscar, 0, &requests, &foreign)
            .unwrap_err();
        assert!(
            err.contains("panicked at slot 0"),
            "unexpected error: {err}"
        );

        // The daemon answers the same panic with an error and keeps
        // serving from cold shards at slot 0.
        for _ in 0..3 {
            let _ = daemon.handle(Request::Submit {
                pairs: pairs.clone(),
            });
            assert!(matches!(
                daemon.handle(Request::Tick),
                Response::TickOk { .. }
            ));
        }
        let _ = daemon.handle(Request::Submit {
            pairs: pairs.clone(),
        });
        match daemon.close_slot(&foreign) {
            Response::Error { message } => {
                assert!(message.contains("panicked"), "unexpected error: {message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(daemon.slot(), 0);

        let mut twin = Daemon::new(config).unwrap();
        for d in [&mut daemon, &mut twin] {
            let _ = d.handle(Request::Submit {
                pairs: pairs.clone(),
            });
        }
        let cold = twin.handle(Request::Tick);
        assert!(matches!(cold, Response::TickOk { slot: 0, .. }));
        assert_eq!(daemon.handle(Request::Tick), cold);
    }
}
