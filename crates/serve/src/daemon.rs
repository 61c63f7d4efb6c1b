//! The controller daemon: slot clock, arrival queue, shard decisions,
//! and the blocking socket server.
//!
//! [`Daemon`] is the transport-free core — one instance per process,
//! owning the network, the dynamics process, and the [`ShardPool`]. The
//! socket layer ([`serve`]) is a thin loop: accept a connection, demand
//! a `Hello`, then alternate read-frame → [`Daemon::handle`] →
//! write-frame until the peer hangs up or asks for `Shutdown`.
//! Connections are served one at a time on one thread, which also
//! decides every shard of a slot in turn: the daemon is the slot clock,
//! and a slot tick is a global barrier across shards.
//!
//! ## Capacity semantics across shards
//!
//! Every shard decides a slot against the *same* capacity snapshot: a
//! shard does not observe allocations made by its siblings in the same
//! slot. Cross-shard contention for one link is therefore not
//! coordinated — matching the paper's deployment intent, where regions
//! (here: canonical-source groups) are operated as disjoint slices of
//! the network. The budget is likewise partitioned: each shard prices
//! its own virtual queue over `total_budget / shards`.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;

use qdn_net::dynamics::ResourceDynamics;
use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
use rand::SeedableRng;

use crate::config::ServeConfig;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{
    Advisory, Request, Response, ServeSnapshot, ServeStats, PROTOCOL_VERSION,
    SERVE_SNAPSHOT_VERSION,
};
use crate::shard::{slot_rng, ShardPool};

/// RNG stream id for the dynamics process — outside the shard index
/// range (shard counts are `u32`), so the capacity draw never collides
/// with a shard's decision stream. Slot `t`'s capacities are drawn with
/// `slot_rng(seed, t, DYNAMICS_STREAM)`.
pub const DYNAMICS_STREAM: u64 = 1 << 40;

/// The transport-free daemon core.
pub struct Daemon {
    config: ServeConfig,
    network: QdnNetwork,
    dynamics: Box<dyn ResourceDynamics>,
    pool: ShardPool,
    slot: u64,
    pending: Vec<SdPair>,
    served: u64,
    unserved: u64,
    spent: u64,
    /// Declared outage windows (maintenance or reactive), pruned of
    /// expired entries on every tick. Darkness at a slot is the union
    /// of the covering windows' node sets, overlaid on the dynamics
    /// snapshot.
    advisories: Vec<Advisory>,
}

impl Daemon {
    /// Builds the network from the configuration and cold shards.
    pub fn new(config: ServeConfig) -> Result<Daemon, String> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let network = config
            .network
            .build(&mut rng)
            .map_err(|e| format!("network build failed: {e:?}"))?;
        let dynamics = config.dynamics.build();
        let pool = ShardPool::new(config.seed, config.shards, &config.oscar);
        Ok(Daemon {
            config,
            network,
            dynamics,
            pool,
            slot: 0,
            pending: Vec::new(),
            served: 0,
            unserved: 0,
            spent: 0,
            advisories: Vec::new(),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The installed network (e.g. for a co-located load generator).
    pub fn network(&self) -> &QdnNetwork {
        &self.network
    }

    /// The next slot index to be decided.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Answers one post-handshake request. `Hello` is handled by the
    /// connection layer; reaching here twice is an error answered in
    /// kind, not a panic.
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Hello { .. } => Response::Error {
                message: "already greeted".into(),
            },
            Request::Submit { pairs } => self.submit(&pairs),
            Request::Tick => self.tick(),
            Request::Stats => self.stats(),
            Request::Snapshot => Response::SnapshotOk {
                snapshot: self.snapshot(),
            },
            Request::Restore { snapshot } => match self.restore(&snapshot) {
                Ok(slot) => Response::RestoreOk { slot },
                Err(message) => Response::Error { message },
            },
            Request::Reset => {
                self.reset();
                Response::ResetOk
            }
            Request::Advise { advisory } => self.advise(advisory),
            Request::Shutdown => Response::ShutdownOk,
        }
    }

    /// Nodes dark at slot `t`: the union of every covering advisory's
    /// node set, ascending and deduplicated.
    fn dark_nodes(&self, t: u64) -> Vec<u32> {
        let mut dark: Vec<u32> = self
            .advisories
            .iter()
            .filter(|a| a.covers(t))
            .flat_map(|a| a.nodes.iter().copied())
            .collect();
        dark.sort_unstable();
        dark.dedup();
        dark
    }

    /// Records an outage window.
    ///
    /// Validation is loud: an empty or out-of-range node list, or an
    /// empty window, is an error — a silently ignored advisory would
    /// leave the operator believing the region is covered. Candidate
    /// lists of pairs the window cuts are recomputed when a request
    /// needs them, as for any other change to the dead-edge set.
    fn advise(&mut self, advisory: Advisory) -> Response {
        let nodes = self.network.node_count() as u32;
        if advisory.nodes.is_empty() {
            return Response::Error {
                message: "advisory lists no nodes".into(),
            };
        }
        if let Some(&bad) = advisory.nodes.iter().find(|&&n| n >= nodes) {
            return Response::Error {
                message: format!("advisory node {bad} out of range: {nodes} nodes"),
            };
        }
        if advisory.start >= advisory.end {
            return Response::Error {
                message: format!(
                    "advisory window [{}, {}) is empty",
                    advisory.start, advisory.end
                ),
            };
        }
        self.advisories.push(advisory);
        self.advisories
            .sort_unstable_by_key(|a| (a.start, a.end, a.nodes.clone()));
        Response::AdviseOk {
            advisories: self.advisories.len() as u32,
        }
    }

    fn submit(&mut self, pairs: &[(u32, u32)]) -> Response {
        let nodes = self.network.node_count() as u32;
        let mut batch = Vec::with_capacity(pairs.len());
        for &(s, d) in pairs {
            if s >= nodes || d >= nodes {
                return Response::Error {
                    message: format!("node index out of range in ({s}, {d}): {nodes} nodes"),
                };
            }
            match SdPair::new(qdn_graph::NodeId(s), qdn_graph::NodeId(d)) {
                Ok(pair) => batch.push(pair),
                Err(_) => {
                    return Response::Error {
                        message: format!("invalid pair ({s}, {d}): endpoints must differ"),
                    };
                }
            }
        }
        // Graceful degradation: a batch with an endpoint inside a dark
        // region cannot be served this slot, and queueing it would
        // only decide it against zeroed capacities. Answer typed so
        // the client can filter the batch or wait the window out.
        let dark = self.dark_nodes(self.slot);
        if !dark.is_empty()
            && batch.iter().any(|p| {
                dark.binary_search(&p.source().0).is_ok()
                    || dark.binary_search(&p.destination().0).is_ok()
            })
        {
            return Response::Degraded {
                slot: self.slot,
                dark_nodes: dark,
            };
        }
        self.pending.extend(batch);
        Response::SubmitOk {
            pending: self.pending.len() as u32,
        }
    }

    fn tick(&mut self) -> Response {
        let t = self.slot;
        let mut dyn_rng = slot_rng(self.config.seed, t, DYNAMICS_STREAM);
        let mut snapshot = self.dynamics.snapshot(t, &self.network, &mut dyn_rng);
        // Overlay declared darkness on the dynamics draw: advisory
        // nodes lose their qubits and every incident link. The
        // dynamics RNG has already been consumed, so the overlay never
        // perturbs the capacity process outside the window.
        let dark = self.dark_nodes(t);
        if !dark.is_empty() {
            let qubits: Vec<u32> = self
                .network
                .graph()
                .node_ids()
                .map(|v| {
                    if dark.binary_search(&v.0).is_ok() {
                        0
                    } else {
                        snapshot.qubits(v)
                    }
                })
                .collect();
            let channels: Vec<u32> = self
                .network
                .graph()
                .edges()
                .map(|(e, u, v)| {
                    if dark.binary_search(&u.0).is_ok() || dark.binary_search(&v.0).is_ok() {
                        0
                    } else {
                        snapshot.channels(e)
                    }
                })
                .collect();
            snapshot = CapacitySnapshot::clamped(&self.network, qubits, channels);
        }
        // Windows entirely in the past can never darken a future slot.
        self.advisories.retain(|a| a.end > t);
        self.close_slot(&snapshot)
    }

    /// Decides the pending arrivals of the current slot against
    /// `snapshot` and advances the clock. A panic inside a shard's
    /// decision is answered with an error, and the daemon restarts from
    /// cold shards at slot 0 (see `Daemon::rebuild`).
    pub(crate) fn close_slot(&mut self, snapshot: &CapacitySnapshot) -> Response {
        let t = self.slot;
        let decided = self.pool.decide_slot(
            &self.network,
            &self.config.oscar,
            t,
            &self.pending,
            snapshot,
        );
        let decision = match decided {
            Ok(decision) => decision,
            Err(error) => return self.rebuild(error),
        };
        self.pending.clear();
        let cost = decision.total_cost();
        self.served += decision.assignments().len() as u64;
        self.unserved += decision.unserved().len() as u64;
        self.spent += cost;
        self.slot = t + 1;
        Response::TickOk {
            slot: t,
            decision,
            cost,
        }
    }

    fn stats(&self) -> Response {
        Response::StatsOk {
            stats: ServeStats {
                slot: self.slot,
                pending: self.pending.len() as u32,
                served: self.served,
                unserved: self.unserved,
                spent: self.spent,
                queue_values: self.pool.queue_values(),
            },
        }
    }

    /// Serializes the full warm state (see [`ServeSnapshot`] for what
    /// is — and deliberately is not — captured).
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            version: SERVE_SNAPSHOT_VERSION,
            slot: self.slot,
            shards: self.pool.snapshot(),
            advisories: self.advisories.clone(),
        }
    }

    /// Installs a snapshot: per-shard warm state, the slot counter, and
    /// the dynamics process fast-forwarded by replaying its first
    /// `slot` draws (its RNG streams are derived from the config seed,
    /// so the replay reproduces internal state exactly). Pending
    /// arrivals and the served/unserved tallies restart at zero —
    /// they are reporting, not decision state.
    ///
    /// A rejected snapshot (wrong version, wrong shard count, or any
    /// shard's engine state that does not restore) leaves the daemon
    /// exactly as it was: every check runs before anything is installed.
    pub fn restore(&mut self, snapshot: &ServeSnapshot) -> Result<u64, String> {
        if snapshot.version != SERVE_SNAPSHOT_VERSION {
            return Err(format!(
                "serve snapshot version {} (expected {SERVE_SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        self.pool.restore(&snapshot.shards)?;
        self.dynamics.reset();
        for t in 0..snapshot.slot {
            let mut dyn_rng = slot_rng(self.config.seed, t, DYNAMICS_STREAM);
            let _ = self.dynamics.snapshot(t, &self.network, &mut dyn_rng);
        }
        self.slot = snapshot.slot;
        self.pending.clear();
        self.served = 0;
        self.unserved = 0;
        self.spent = snapshot.shards.iter().map(|s| s.spent).sum();
        // Darkness is a pure function of (advisories, slot), so
        // installing the windows restores the overlay exactly.
        self.advisories = snapshot.advisories.clone();
        Ok(self.slot)
    }

    /// Back to cold slot 0, as if freshly started.
    pub fn reset(&mut self) {
        self.pool.reset();
        self.dynamics.reset();
        self.slot = 0;
        self.pending.clear();
        self.served = 0;
        self.unserved = 0;
        self.spent = 0;
        self.advisories.clear();
    }

    /// A shard's decision panicked mid-slot, so the shards are torn:
    /// replace them with cold ones, restart at slot 0, and answer with
    /// an error. The daemon keeps serving — a panic must not take the
    /// connection loop down.
    fn rebuild(&mut self, error: String) -> Response {
        self.pool = ShardPool::new(self.config.seed, self.config.shards, &self.config.oscar);
        self.reset();
        Response::Error {
            message: format!("{error}; shards rebuilt cold at slot 0"),
        }
    }
}

/// The daemon's listening socket.
pub enum Listener {
    /// A Unix domain socket (the default transport).
    Unix(UnixListener),
    /// A TCP socket.
    Tcp(TcpListener),
}

/// Accepts and serves connections until a client asks for `Shutdown`.
/// Connections are handled one at a time (see module docs for why).
pub fn serve(daemon: &mut Daemon, listener: &Listener) -> std::io::Result<()> {
    loop {
        let shutdown = match listener {
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                serve_connection(daemon, stream)
            }
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).ok();
                serve_connection(daemon, stream)
            }
        };
        if shutdown {
            return Ok(());
        }
    }
}

/// Serves one connection; returns `true` if the peer asked the daemon
/// to shut down.
pub fn serve_connection<S: Read + Write>(daemon: &mut Daemon, mut stream: S) -> bool {
    // Handshake: the first frame must be a version-matched Hello.
    match read_request(&mut stream) {
        Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            let ok = Response::HelloOk {
                version: PROTOCOL_VERSION,
                shards: daemon.pool.len() as u32,
                slot: daemon.slot,
            };
            if write_response(&mut stream, &ok).is_err() {
                return false;
            }
        }
        Ok(Request::Hello { version }) => {
            let _ = write_response(
                &mut stream,
                &Response::Error {
                    message: format!(
                        "protocol version {version} not supported (daemon speaks {PROTOCOL_VERSION})"
                    ),
                },
            );
            return false;
        }
        Ok(_) => {
            let _ = write_response(
                &mut stream,
                &Response::Error {
                    message: "first request must be Hello".into(),
                },
            );
            return false;
        }
        Err(ReadError::Closed) | Err(ReadError::Transport) => return false,
        Err(ReadError::Malformed(message)) | Err(ReadError::Fatal(message)) => {
            let _ = write_response(&mut stream, &Response::Error { message });
            return false;
        }
    }

    loop {
        let request = match read_request(&mut stream) {
            Ok(r) => r,
            Err(ReadError::Closed) | Err(ReadError::Transport) => return false,
            Err(ReadError::Malformed(message)) => {
                // The frame layer is intact (we got a complete frame
                // that failed to parse), so the error is answerable and
                // the connection stays usable.
                if write_response(&mut stream, &Response::Error { message }).is_err() {
                    return false;
                }
                continue;
            }
            Err(ReadError::Fatal(message)) => {
                // An oversize length word leaves unread payload bytes in
                // the stream — answering and continuing would desync the
                // framing, so answer and hang up.
                let _ = write_response(&mut stream, &Response::Error { message });
                return false;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = daemon.handle(request);
        if write_response(&mut stream, &response).is_err() {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

enum ReadError {
    Closed,
    Transport,
    /// A complete frame arrived but its payload didn't parse — the
    /// connection is still frame-aligned and stays usable.
    Malformed(String),
    /// The framing itself is broken (oversize length word) — answer,
    /// then close.
    Fatal(String),
}

fn read_request<S: Read>(stream: &mut S) -> Result<Request, ReadError> {
    let payload = match read_frame(stream) {
        Ok(p) => p,
        Err(FrameError::Closed) => return Err(ReadError::Closed),
        Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return Err(ReadError::Transport),
        Err(e @ FrameError::Oversize(_)) => {
            return Err(ReadError::Fatal(e.to_string()));
        }
    };
    let text = String::from_utf8(payload)
        .map_err(|_| ReadError::Malformed("request payload is not UTF-8".into()))?;
    serde_json::from_str(&text).map_err(|e| ReadError::Malformed(format!("bad request: {e:?}")))
}

fn write_response<S: Write>(stream: &mut S, response: &Response) -> std::io::Result<()> {
    let wire = serde_json::to_string(response)
        .map_err(|e| std::io::Error::other(format!("encode response: {e:?}")))?;
    write_frame(stream, wire.as_bytes())
}
