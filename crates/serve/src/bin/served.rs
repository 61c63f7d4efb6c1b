//! `qdn-served` — the OSCAR controller daemon.
//!
//! ```text
//! qdn-served --socket /tmp/qdn.sock [options]
//! qdn-served --tcp 127.0.0.1:7117 [options]
//!
//! Options:
//!   --socket PATH     listen on a Unix domain socket at PATH
//!   --tcp ADDR:PORT   listen on TCP instead
//!   --seed N          master seed (default 7)
//!   --shards N        session shards / worker threads (default 4)
//!   --threads N       accepted and ignored (the daemon has no solve
//!                     pool; kept so existing command lines still start)
//!   --config FILE     full ServeConfig as JSON (overrides the flags
//!                     above except --socket/--tcp)
//!   --churn RATE:MTTR layer Poisson link failures (RATE per slot,
//!                     geometric outages with mean MTTR slots) over
//!                     static dynamics
//! ```
//!
//! Exactly one of `--socket` / `--tcp` is required. The daemon serves
//! until a client sends `Shutdown`.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;

use qdn_net::dynamics::DynamicsConfig;
use qdn_serve::daemon::{serve, Daemon, Listener};
use qdn_serve::ServeConfig;

fn fail(message: &str) -> ExitCode {
    eprintln!("qdn-served: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut config = ServeConfig::paper_default();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--socket" => match take(&mut i) {
                Some(p) => socket = Some(p),
                None => return fail("--socket needs a path"),
            },
            "--tcp" => match take(&mut i) {
                Some(a) => tcp = Some(a),
                None => return fail("--tcp needs an address:port"),
            },
            "--seed" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => return fail("--seed needs an integer"),
            },
            "--shards" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(s) => config.shards = s,
                None => return fail("--shards needs an integer"),
            },
            "--threads" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(t) => config.threads = t,
                None => return fail("--threads needs an integer"),
            },
            "--config" => {
                let Some(path) = take(&mut i) else {
                    return fail("--config needs a file path");
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => return fail(&format!("read {path}: {e}")),
                };
                config = match serde_json::from_str(&text) {
                    Ok(c) => c,
                    Err(e) => return fail(&format!("parse {path}: {e:?}")),
                };
            }
            "--churn" => {
                let Some(spec) = take(&mut i) else {
                    return fail("--churn needs RATE:MTTR");
                };
                let parts: Vec<&str> = spec.split(':').collect();
                let parsed = match parts.as_slice() {
                    [r, m] => r.parse::<f64>().ok().zip(m.parse::<f64>().ok()),
                    _ => None,
                };
                let Some((rate, mttr)) = parsed else {
                    return fail("--churn needs RATE:MTTR (two numbers)");
                };
                config.dynamics = DynamicsConfig::Churn {
                    failure_rate: rate,
                    mttr,
                    seed: config.seed ^ 0xc4e1,
                    base: Box::new(DynamicsConfig::Static),
                };
            }
            other => return fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let listener = match (socket.as_deref(), tcp.as_deref()) {
        (Some(path), None) => {
            // A stale socket file from a previous run blocks bind.
            let _ = std::fs::remove_file(path);
            match UnixListener::bind(path) {
                Ok(l) => Listener::Unix(l),
                Err(e) => return fail(&format!("bind {path}: {e}")),
            }
        }
        (None, Some(addr)) => match TcpListener::bind(addr) {
            Ok(l) => Listener::Tcp(l),
            Err(e) => return fail(&format!("bind {addr}: {e}")),
        },
        _ => return fail("exactly one of --socket PATH / --tcp ADDR:PORT is required"),
    };

    let mut daemon = match Daemon::new(config) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    eprintln!(
        "qdn-served: {} nodes, {} shards, serving",
        daemon.network().node_count(),
        daemon.config().shards
    );
    match serve(&mut daemon, &listener) {
        Ok(()) => {
            if let (Listener::Unix(_), Some(path)) = (&listener, socket.as_deref()) {
                let _ = std::fs::remove_file(path);
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}
