//! Blocking client for the daemon's wire protocol.

use std::io::{Read, Write};

use qdn_core::types::Decision;
use qdn_net::SdPair;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Advisory, Request, Response, ServeSnapshot, ServeStats, PROTOCOL_VERSION};

/// What the daemon did with a `Submit` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The batch is queued for the next tick.
    Queued {
        /// Arrivals now pending (including earlier batches).
        pending: u32,
    },
    /// The batch touches a dark region and was refused — resubmit
    /// after the window closes, or drop the dark endpoints.
    Degraded {
        /// The slot the batch would have entered.
        slot: u64,
        /// Nodes dark at that slot, ascending.
        dark_nodes: Vec<u32>,
    },
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing broke.
    Frame(FrameError),
    /// The daemon answered something the verb does not admit.
    Protocol(String),
    /// The daemon answered [`Response::Error`].
    Remote(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote(m) => write!(f, "daemon: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A connected client. [`Client::hello`] must be called (and succeed)
/// before any other verb — the daemon enforces it.
pub struct Client<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    /// Wraps a connected stream (Unix or TCP — anything `Read + Write`).
    pub fn new(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Sends one raw request and returns whatever the daemon answers —
    /// including [`Response::Error`], which the typed verbs below turn
    /// into [`ClientError::Remote`]. For tools and tests that need the
    /// un-interpreted wire exchange.
    pub fn call_raw(&mut self, request: &Request) -> Result<Response, ClientError> {
        let wire = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("encode request: {e:?}")))?;
        write_frame(&mut self.stream, wire.as_bytes())?;
        let payload = read_frame(&mut self.stream)?;
        let text = String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol("response payload is not UTF-8".into()))?;
        serde_json::from_str(&text)
            .map_err(|e| ClientError::Protocol(format!("bad response: {e:?}")))
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call_raw(request)? {
            Response::Error { message } => Err(ClientError::Remote(message)),
            response => Ok(response),
        }
    }

    /// Handshake; returns `(shards, next slot)`.
    pub fn hello(&mut self) -> Result<(u32, u64), ClientError> {
        match self.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { shards, slot, .. } => Ok((shards, slot)),
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Queues EC requests for the next tick. A batch touching a dark
    /// region is answered with [`SubmitOutcome::Degraded`] — typed, not
    /// an error, because the connection (and the daemon) are healthy;
    /// the batch just cannot be served during the window.
    pub fn submit(&mut self, pairs: &[SdPair]) -> Result<SubmitOutcome, ClientError> {
        let raw: Vec<(u32, u32)> = pairs
            .iter()
            .map(|p| (p.source().0, p.destination().0))
            .collect();
        match self.call(&Request::Submit { pairs: raw })? {
            Response::SubmitOk { pending } => Ok(SubmitOutcome::Queued { pending }),
            Response::Degraded { slot, dark_nodes } => {
                Ok(SubmitOutcome::Degraded { slot, dark_nodes })
            }
            other => Err(unexpected("SubmitOk or Degraded", &other)),
        }
    }

    /// Declares an outage window; returns the advisories on file.
    pub fn advise(&mut self, advisory: Advisory) -> Result<u32, ClientError> {
        match self.call(&Request::Advise { advisory })? {
            Response::AdviseOk { advisories } => Ok(advisories),
            other => Err(unexpected("AdviseOk", &other)),
        }
    }

    /// Closes the current slot; returns `(slot, merged decision, cost)`.
    pub fn tick(&mut self) -> Result<(u64, Decision, u64), ClientError> {
        match self.call(&Request::Tick)? {
            Response::TickOk {
                slot,
                decision,
                cost,
            } => Ok((slot, decision, cost)),
            other => Err(unexpected("TickOk", &other)),
        }
    }

    /// Daemon counters.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsOk { stats } => Ok(stats),
            other => Err(unexpected("StatsOk", &other)),
        }
    }

    /// Takes a full warm-state snapshot.
    pub fn snapshot(&mut self) -> Result<ServeSnapshot, ClientError> {
        match self.call(&Request::Snapshot)? {
            Response::SnapshotOk { snapshot } => Ok(snapshot),
            other => Err(unexpected("SnapshotOk", &other)),
        }
    }

    /// Installs a snapshot; returns the next slot index.
    pub fn restore(&mut self, snapshot: ServeSnapshot) -> Result<u64, ClientError> {
        match self.call(&Request::Restore { snapshot })? {
            Response::RestoreOk { slot } => Ok(slot),
            other => Err(unexpected("RestoreOk", &other)),
        }
    }

    /// Resets the daemon to cold slot 0.
    pub fn reset(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Reset)? {
            Response::ResetOk => Ok(()),
            other => Err(unexpected("ResetOk", &other)),
        }
    }

    /// Asks the daemon to stop after answering.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected("ShutdownOk", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
