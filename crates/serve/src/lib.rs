//! OSCAR as a long-running controller daemon.
//!
//! The library side of the `qdn-served` / `qdn-serve-load` binaries:
//!
//! * [`frame`] — length-prefixed (u32 BE + JSON) frame codec with a
//!   hard size bound and truncation-vs-close discrimination;
//! * [`proto`] — the versioned request/response verbs and the
//!   [`proto::ServeSnapshot`] warm-state image;
//! * [`config`] — [`config::ServeConfig`]: seed, topology, dynamics,
//!   OSCAR parameters, shard count;
//! * [`shard`] — shard-per-core warm sessions: one blocking thread per
//!   shard, each owning an `EngineState` and its slice of the budget,
//!   keyed by canonical source node so a pair's warm state never migrates;
//! * [`daemon`] — the transport-free [`daemon::Daemon`] core plus the
//!   blocking Unix/TCP socket server;
//! * [`client`] — a blocking client for tests, tools, and the load
//!   generator;
//! * [`loadgen`] — workload replay with p50/p99 tick latency and
//!   decisions/sec reporting.
//!
//! No async runtime anywhere: the daemon is a slot clock, a slot tick
//! is a global barrier across shards, and blocking threads rendezvous
//! over plain channels.
//!
//! ## Warm restarts
//!
//! `Snapshot` returns every byte of decision-relevant state (each
//! candidate cache's dead-edge set and current pairs, previous profiles,
//! virtual queues, the slot counter — evaluation memos live for one
//! slot and are never part of it);
//! `Restore` installs it and fast-forwards the dynamics process by
//! replay. A daemon restarted this way produces decisions bit-identical
//! to the uninterrupted run — pinned by the integration tests in
//! `tests/daemon.rs` and by the repository's differential harness
//! (`tests/differential.rs`), which restores a `shards: 1` daemon
//! mid-trace and checks every slot against the reference decision.

#![forbid(unsafe_code)]
pub mod client;
pub mod config;
pub mod daemon;
pub mod frame;
pub mod loadgen;
pub mod proto;
pub mod shard;

pub use client::{Client, ClientError, SubmitOutcome};
pub use config::ServeConfig;
pub use daemon::{serve, serve_connection, Daemon, Listener};
pub use loadgen::{LoadConfig, LoadReport};
pub use proto::{Advisory, Request, Response, ServeSnapshot, PROTOCOL_VERSION};
