//! Shard-per-core warm sessions.
//!
//! The daemon owns one OS thread per shard; each thread owns a
//! [`EngineState`] (candidate route cache + selection session +
//! fidelity-filter cache) and a [`VirtualQueue`] over its slice of the
//! budget, and blocks on a plain mpsc channel for work. SD pairs are
//! mapped to shards by **canonical source node** ([`shard_of`]), so a
//! pair's warm state — its candidate routes and previous route — always
//! lands on the thread that already holds it. There is no async
//! runtime: one blocking thread per shard, rendezvous by channel.
//!
//! Every tick touches every shard (even ones with no arrivals): an idle
//! slot must still drain the shard's virtual queue (Eq. 7 with
//! `c_t = 0`), and doing it on the shard thread keeps all queue state
//! single-owner.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

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

enum ShardMsg {
    Decide {
        slot: u64,
        requests: Vec<SdPair>,
        snapshot: Arc<CapacitySnapshot>,
        reply: mpsc::Sender<(usize, Decision)>,
    },
    Snapshot {
        reply: mpsc::Sender<(usize, ShardSnapshot)>,
    },
    Restore {
        snapshot: Box<ShardSnapshot>,
        reply: mpsc::Sender<Result<(), String>>,
    },
    Reset {
        reply: mpsc::Sender<()>,
    },
    Stop,
}

struct ShardWorker {
    index: usize,
    seed: u64,
    network: Arc<QdnNetwork>,
    oscar: Arc<OscarConfig>,
    state: EngineState,
    queue: VirtualQueue,
    spent: u64,
}

impl ShardWorker {
    fn fresh_queue(oscar: &OscarConfig, shards: u32) -> VirtualQueue {
        VirtualQueue::new(
            oscar.q0,
            oscar.total_budget / f64::from(shards.max(1)),
            oscar.horizon,
        )
    }

    fn run(mut self, rx: mpsc::Receiver<ShardMsg>, shards: u32) {
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::Decide {
                    slot,
                    requests,
                    snapshot,
                    reply,
                } => {
                    let ctx = PerSlotContext::oscar(
                        &self.network,
                        &snapshot,
                        self.oscar.v,
                        self.queue.value(),
                    );
                    let mut rng = slot_rng(self.seed, slot, self.index as u64);
                    let decision = engine::decide(
                        &mut self.state,
                        SlotDecisionRequest {
                            network: &self.network,
                            requests: &requests,
                            ctx: &ctx,
                            selector: &self.oscar.selector,
                            allocation: &self.oscar.allocation,
                            fidelity_target: self.oscar.fidelity_target,
                            rng: &mut rng,
                        },
                    );
                    let cost = decision.total_cost();
                    self.spent += cost;
                    self.queue.update(cost);
                    let _ = reply.send((self.index, decision));
                }
                ShardMsg::Snapshot { reply } => {
                    let _ = reply.send((
                        self.index,
                        ShardSnapshot {
                            engine: self.state.snapshot(),
                            queue: self.queue,
                            spent: self.spent,
                        },
                    ));
                }
                ShardMsg::Restore { snapshot, reply } => {
                    let result = EngineState::restore(&snapshot.engine).map(|state| {
                        self.state = state;
                        self.queue = snapshot.queue;
                        self.spent = snapshot.spent;
                    });
                    let _ = reply.send(result);
                }
                ShardMsg::Reset { reply } => {
                    self.state.reset();
                    self.queue = Self::fresh_queue(&self.oscar, shards);
                    self.spent = 0;
                    let _ = reply.send(());
                }
                ShardMsg::Stop => break,
            }
        }
    }
}

/// The daemon's worker threads, one per shard. Dropping the pool stops
/// and joins every thread.
///
/// Shard threads are long-lived *owners* of warm state, not a
/// parallelism mechanism — intra-shard parallel stages (the evaluator's
/// component solves) run on the shared work-stealing solve pool,
/// which every shard thread installs around its message loop so
/// `threadpool::current()` inside the engine resolves to the pool the
/// daemon configured.
pub struct ShardPool {
    senders: Vec<mpsc::Sender<ShardMsg>>,
    joins: Vec<thread::JoinHandle<()>>,
    solve_pool: threadpool::ThreadPool,
}

impl ShardPool {
    /// Spawns `shards` worker threads over a shared network, each with
    /// the `threads`-wide shared solve pool installed (`0` = one worker
    /// per available CPU). Fails if the OS refuses a thread;
    /// already-spawned workers are stopped and joined by the partial
    /// pool's `Drop`.
    pub fn new(
        seed: u64,
        shards: u32,
        threads: usize,
        network: Arc<QdnNetwork>,
        oscar: Arc<OscarConfig>,
    ) -> Result<ShardPool, String> {
        let shards = shards.max(1);
        let solve_pool = threadpool::global_with(threads);
        let mut pool = ShardPool {
            senders: Vec::with_capacity(shards as usize),
            joins: Vec::with_capacity(shards as usize),
            solve_pool,
        };
        for index in 0..shards as usize {
            let (tx, rx) = mpsc::channel();
            let worker = ShardWorker {
                index,
                seed,
                network: Arc::clone(&network),
                oscar: Arc::clone(&oscar),
                state: EngineState::new(oscar.route_limits),
                queue: ShardWorker::fresh_queue(&oscar, shards),
                spent: 0,
            };
            let solve_pool = pool.solve_pool.clone();
            // qdn-lint: allow(raw-spawn, reason="shard threads are long-lived warm-state owners keyed by shard index, not decision-path parallelism; parallel solve stages go through the installed compat pool")
            let join = thread::Builder::new()
                .name(format!("qdn-shard-{index}"))
                .spawn(move || solve_pool.install(|| worker.run(rx, shards)))
                .map_err(|e| format!("spawn shard thread {index}: {e}"))?;
            pool.joins.push(join);
            pool.senders.push(tx);
        }
        Ok(pool)
    }

    /// Counters of the shared solve pool (width, tasks executed, tasks
    /// stolen) — surfaced through `ServeStats`.
    pub fn solve_pool_stats(&self) -> threadpool::PoolStats {
        self.solve_pool.stats()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the pool has no shards (never true — `new` clamps to 1).
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Decides one slot: every shard gets its request slice (empty ones
    /// included — idle shards still drain their queues) and the shared
    /// capacity snapshot; returns the per-shard decisions in shard
    /// order.
    ///
    /// Fails if a shard thread has died (panicked engine, killed
    /// thread); the pool is then unrecoverable and the caller must
    /// respawn it — see `Daemon::shard_failure`.
    pub fn decide_slot(
        &self,
        slot: u64,
        mut per_shard: Vec<Vec<SdPair>>,
        snapshot: CapacitySnapshot,
    ) -> Result<Vec<Decision>, String> {
        assert_eq!(per_shard.len(), self.len(), "one request slice per shard");
        let shared = Arc::new(snapshot);
        let (reply, inbox) = mpsc::channel();
        for (index, (tx, requests)) in self.senders.iter().zip(per_shard.drain(..)).enumerate() {
            tx.send(ShardMsg::Decide {
                slot,
                requests,
                snapshot: Arc::clone(&shared),
                reply: reply.clone(),
            })
            .map_err(|_| format!("shard thread {index} is gone"))?;
        }
        drop(reply);
        let mut decisions: Vec<(usize, Decision)> = inbox.iter().collect();
        if decisions.len() != self.len() {
            return Err(format!(
                "{} shard thread(s) died mid-slot",
                self.len() - decisions.len()
            ));
        }
        decisions.sort_unstable_by_key(|(i, _)| *i);
        Ok(decisions.into_iter().map(|(_, d)| d).collect())
    }

    /// Collects every shard's warm state, in shard order. Fails if a
    /// shard thread has died.
    pub fn snapshot(&self) -> Result<Vec<ShardSnapshot>, String> {
        let (reply, inbox) = mpsc::channel();
        for (index, tx) in self.senders.iter().enumerate() {
            tx.send(ShardMsg::Snapshot {
                reply: reply.clone(),
            })
            .map_err(|_| format!("shard thread {index} is gone"))?;
        }
        drop(reply);
        let mut shots: Vec<(usize, ShardSnapshot)> = inbox.iter().collect();
        if shots.len() != self.len() {
            return Err(format!(
                "{} shard thread(s) died mid-snapshot",
                self.len() - shots.len()
            ));
        }
        shots.sort_unstable_by_key(|(i, _)| *i);
        Ok(shots.into_iter().map(|(_, s)| s).collect())
    }

    /// Installs per-shard warm state (must be one snapshot per shard,
    /// in shard order). On any per-shard failure the error is returned
    /// and the pool is left in a mixed state — callers reset on error.
    pub fn restore(&self, shards: Vec<ShardSnapshot>) -> Result<(), String> {
        if shards.len() != self.len() {
            return Err(format!(
                "snapshot has {} shards, daemon has {}",
                shards.len(),
                self.len()
            ));
        }
        let (reply, inbox) = mpsc::channel();
        for (index, (tx, snapshot)) in self.senders.iter().zip(shards).enumerate() {
            tx.send(ShardMsg::Restore {
                snapshot: Box::new(snapshot),
                reply: reply.clone(),
            })
            .map_err(|_| format!("shard thread {index} is gone"))?;
        }
        drop(reply);
        let results: Vec<Result<(), String>> = inbox.iter().collect();
        if results.len() != self.len() {
            return Err("a shard thread died mid-restore".into());
        }
        results.into_iter().collect()
    }

    /// Resets every shard to cold state (fresh engine, fresh queue).
    /// Fails if a shard thread has died.
    pub fn reset(&self) -> Result<(), String> {
        let (reply, inbox) = mpsc::channel();
        for (index, tx) in self.senders.iter().enumerate() {
            tx.send(ShardMsg::Reset {
                reply: reply.clone(),
            })
            .map_err(|_| format!("shard thread {index} is gone"))?;
        }
        drop(reply);
        let acks = inbox.iter().count();
        if acks != self.len() {
            return Err(format!(
                "{} shard thread(s) died mid-reset",
                self.len() - acks
            ));
        }
        Ok(())
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Stop);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}
