//! The versioned wire protocol: request/response verbs and the daemon
//! snapshot that travels over it.
//!
//! Every connection starts with `Hello { version }`; any other first
//! verb — or a version mismatch — is answered with [`Response::Error`]
//! and the connection is closed. After the handshake the client drives
//! a strict request/response alternation (no pipelining, no server
//! push), so the protocol needs no correlation ids.
//!
//! See `crates/serve/README.md` for the complete wire specification.

use qdn_core::engine::EngineSnapshot;
use qdn_core::lyapunov::VirtualQueue;
use qdn_core::types::Decision;
use serde::{Deserialize, Serialize};

/// Wire protocol version. A daemon answers a `Hello` carrying any other
/// value with an error and hangs up; bump on any incompatible change to
/// [`Request`], [`Response`], or the frame format.
///
/// v2 (PR 9): `Advise` verb, `AdviseOk`/`Degraded` responses, advisories
/// in [`ServeSnapshot`].
///
/// v3 (PR 10): solve-pool utilization counters in [`ServeStats`].
///
/// v4: `AdviseOk` drops `prewarmed_pairs`.
///
/// v5: [`ServeStats`] drops the solve-pool counters (`pool_threads`,
/// `pool_tasks_executed`, `pool_tasks_stolen`); the daemon has no solve
/// pool.
///
/// v6: [`Advisory`] drops `planned` and rejects unknown keys.
pub const PROTOCOL_VERSION: u32 = 6;

/// Version tag of [`ServeSnapshot`]; bump on layout changes.
///
/// v2 (PR 9): declared outage advisories travel with the snapshot.
///
/// v3: the snapshot's advisories drop `planned`.
pub const SERVE_SNAPSHOT_VERSION: u32 = 3;

/// A declared outage window: the listed nodes are dark (all incident
/// links dead, qubits unusable) for every slot in `[start, end)`.
///
/// Advisories overlay the configured dynamics process — the daemon
/// zeroes the affected capacities on top of whatever the dynamics drew,
/// so a declared window composes with stochastic churn. They are the
/// one node-outage mechanism: a maintenance window and a reactive
/// failure report are the same window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Advisory {
    /// First dark slot.
    pub start: u64,
    /// First slot after the window (exclusive).
    pub end: u64,
    /// Node indices going dark together.
    pub nodes: Vec<u32>,
}

impl Advisory {
    /// Whether slot `t` falls inside the window.
    pub fn covers(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }
}

/// Client → daemon verbs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake; must be the first verb on every connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Queue EC requests (as `(source, destination)` node indices) for
    /// the next slot tick. Invalid pairs (equal endpoints or indices
    /// out of range) reject the whole batch.
    Submit {
        /// Requested `(source, destination)` node-index pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Close the current slot: snapshot the slot's capacities, fan the
    /// queued arrivals out to the session shards, decide, advance time.
    Tick,
    /// Daemon counters (slot, queue lengths, served/unserved totals).
    Stats,
    /// Serialize the daemon's full warm state.
    Snapshot,
    /// Replace the daemon's state with a snapshot taken by an earlier
    /// `Snapshot` (same configuration required).
    Restore {
        /// The snapshot to install.
        snapshot: ServeSnapshot,
    },
    /// Reset to slot 0 with cold shards and replayed dynamics, as if
    /// freshly started.
    Reset,
    /// Declare an outage window (maintenance or reactive). The daemon
    /// darkens the listed nodes for the window's slots.
    Advise {
        /// The window being declared.
        advisory: Advisory,
    },
    /// Stop the daemon after answering.
    Shutdown,
}

/// Daemon → client verb answers, in one-to-one correspondence with
/// [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The daemon's [`PROTOCOL_VERSION`].
        version: u32,
        /// Number of session shards.
        shards: u32,
        /// The next slot index to be decided.
        slot: u64,
    },
    /// Batch queued.
    SubmitOk {
        /// Arrivals now pending for the next tick (including earlier
        /// batches).
        pending: u32,
    },
    /// Slot decided.
    TickOk {
        /// The slot index that was just decided.
        slot: u64,
        /// The merged decision across all shards (assignments in shard
        /// order, submit order within a shard).
        decision: Decision,
        /// Total qubit cost charged against the budget this slot.
        cost: u64,
    },
    /// Counters.
    StatsOk {
        /// The counters.
        stats: ServeStats,
    },
    /// Snapshot taken.
    SnapshotOk {
        /// The daemon's full warm state.
        snapshot: ServeSnapshot,
    },
    /// Snapshot installed.
    RestoreOk {
        /// The next slot index to be decided.
        slot: u64,
    },
    /// Reset done.
    ResetOk,
    /// Advisory recorded.
    AdviseOk {
        /// Advisories currently on file (expired windows pruned).
        advisories: u32,
    },
    /// Graceful degradation: the submitted batch touches a currently
    /// dark region, so the daemon refuses to queue it instead of
    /// deciding against capacities that cannot serve it. The
    /// connection stays usable; resubmit after the window closes, or
    /// drop the listed nodes from the batch.
    Degraded {
        /// The next slot to be decided (the one the batch would have
        /// entered).
        slot: u64,
        /// Nodes dark at that slot (union over covering advisories),
        /// ascending.
        dark_nodes: Vec<u32>,
    },
    /// Daemon is stopping.
    ShutdownOk,
    /// The request was rejected; the connection stays usable unless the
    /// failure was a handshake failure.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Daemon counters reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// The next slot index to be decided.
    pub slot: u64,
    /// Arrivals queued for the next tick.
    pub pending: u32,
    /// Requests served across all ticks so far.
    pub served: u64,
    /// Requests left unserved across all ticks so far.
    pub unserved: u64,
    /// Total qubit cost spent across all ticks so far.
    pub spent: u64,
    /// Per-shard virtual-queue lengths `q_t`.
    pub queue_values: Vec<f64>,
}

/// Complete serializable image of a running daemon's decision state:
/// the slot counter plus one [`ShardSnapshot`] per session shard.
///
/// What it does *not* carry — and why it doesn't need to: the network,
/// the dynamics process, and the per-slot RNGs are all derived
/// deterministically from the daemon configuration (dynamics state is
/// replayed up to `slot` on restore), and the fidelity-filter cache is
/// a pure function of network and candidates, rebuilt on first use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Layout version ([`SERVE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The next slot index to be decided.
    pub slot: u64,
    /// Per-shard warm state, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Declared outage advisories still on file. Darkness is a pure
    /// function of `(advisories, slot)`, so carrying the windows is all
    /// restore needs.
    pub advisories: Vec<Advisory>,
}

/// One shard's warm state: the engine (candidate routes + selection
/// session) and its slice of the budget accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// qdn-lint: allow(snapshot-version, reason="only reachable through ServeSnapshot, whose version covers this layout; restore rejects on the parent tag")
pub struct ShardSnapshot {
    /// Candidate route cache + selection session.
    pub engine: EngineSnapshot,
    /// The shard's virtual cost-deficit queue.
    pub queue: VirtualQueue,
    /// Qubit cost spent by this shard so far.
    pub spent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Submit {
                pairs: vec![(0, 3), (7, 2)],
            },
            Request::Tick,
            Request::Stats,
            Request::Snapshot,
            Request::Reset,
            Request::Advise {
                advisory: Advisory {
                    start: 10,
                    end: 14,
                    nodes: vec![3, 4],
                },
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let wire = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&wire).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            Response::HelloOk {
                version: PROTOCOL_VERSION,
                shards: 4,
                slot: 17,
            },
            Response::SubmitOk { pending: 3 },
            Response::ResetOk,
            Response::AdviseOk { advisories: 2 },
            Response::Degraded {
                slot: 12,
                dark_nodes: vec![3, 4],
            },
            Response::ShutdownOk,
            Response::Error {
                message: "nope".into(),
            },
            Response::StatsOk {
                stats: ServeStats {
                    slot: 9,
                    pending: 0,
                    served: 40,
                    unserved: 2,
                    spent: 812,
                    queue_values: vec![0.5, 12.25],
                },
            },
        ];
        for resp in resps {
            let wire = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&wire).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn advisory_window_is_half_open() {
        let a = Advisory {
            start: 5,
            end: 8,
            nodes: vec![1],
        };
        assert!(!a.covers(4));
        assert!(a.covers(5));
        assert!(a.covers(7));
        assert!(!a.covers(8));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(serde_json::from_str::<Request>("{\"Hello\":").is_err());
        assert!(serde_json::from_str::<Request>("{\"NoSuchVerb\":{}}").is_err());
        assert!(serde_json::from_str::<Request>("42").is_err());
    }
}
