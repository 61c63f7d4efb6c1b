//! `qdn-serve-load` — replay a workload against a running daemon.
//!
//! ```text
//! qdn-serve-load --socket /tmp/qdn.sock [options]
//! qdn-serve-load --tcp 127.0.0.1:7117 [options]
//!
//! Options:
//!   --socket PATH       connect to a Unix domain socket
//!   --tcp ADDR:PORT     connect over TCP instead
//!   --slots N           slots to drive (default 64)
//!   --seed N            workload draw seed (default 11)
//!   --net-seed N        daemon's master seed, to rebuild the same
//!                       topology locally (default 7)
//!   --workload KIND     uniform (default) | persistent | pinned:S-D,S-D,...
//!   --reset             reset the daemon to slot 0 before driving
//!   --shutdown          ask the daemon to stop after the run
//!
//! Fault injection (each may be repeated; windows are advised before
//! driving and the report counts degraded requests):
//!   --kill-node N            node cut over the middle third of the
//!                            run ([slots/3, 2*slots/3))
//!   --blackout-region N0,N1,...
//!                            regional outage, same window
//!   --maintenance START:END:N0,N1,...
//!                            explicit window [START, END) over the
//!                            listed nodes
//! ```
//!
//! Prints the [`qdn_serve::LoadReport`] as JSON on stdout. The local
//! topology rebuild must match the daemon's (same NetworkConfig + seed),
//! since workloads draw requests against the node set.

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;

use qdn_net::workload::WorkloadConfig;
use qdn_net::NetworkConfig;
use qdn_serve::loadgen::{run, LoadConfig};
use qdn_serve::{Advisory, Client};
use rand::SeedableRng;

fn fail(message: &str) -> ExitCode {
    eprintln!("qdn-serve-load: {message}");
    ExitCode::FAILURE
}

fn parse_nodes(spec: &str) -> Option<Vec<u32>> {
    let nodes: Option<Vec<u32>> = spec.split(',').map(|n| n.parse().ok()).collect();
    nodes.filter(|n| !n.is_empty())
}

/// `START:END:N0,N1,...` → an explicit window.
fn parse_maintenance(spec: &str) -> Option<Advisory> {
    let mut parts = spec.splitn(3, ':');
    let start = parts.next()?.parse().ok()?;
    let end = parts.next()?.parse().ok()?;
    let nodes = parse_nodes(parts.next()?)?;
    (start < end).then_some(Advisory { start, end, nodes })
}

fn parse_workload(spec: &str) -> Option<WorkloadConfig> {
    match spec {
        "uniform" => Some(WorkloadConfig::paper_default()),
        "persistent" => Some(WorkloadConfig::Persistent {
            pairs_per_slot: 10,
            keep_probability: 0.8,
        }),
        other => {
            let pinned = other.strip_prefix("pinned:")?;
            let mut pairs = Vec::new();
            for part in pinned.split(',') {
                let (s, d) = part.split_once('-')?;
                pairs.push((s.parse().ok()?, d.parse().ok()?));
            }
            Some(WorkloadConfig::Pinned { pairs })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut net_seed: u64 = 7;
    let mut reset = false;
    let mut shutdown = false;
    let mut load = LoadConfig::paper_default();
    // Node and region cuts take the middle third of the run; resolved
    // after flag parsing so --slots order doesn't matter.
    let mut cuts: Vec<Vec<u32>> = Vec::new();
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
            "--slots" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => load.slots = n,
                None => return fail("--slots needs an integer"),
            },
            "--seed" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(s) => load.seed = s,
                None => return fail("--seed needs an integer"),
            },
            "--net-seed" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(s) => net_seed = s,
                None => return fail("--net-seed needs an integer"),
            },
            "--workload" => match take(&mut i).as_deref().and_then(parse_workload) {
                Some(w) => load.workload = w,
                None => {
                    return fail("--workload needs uniform | persistent | pinned:S-D,...");
                }
            },
            "--kill-node" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cuts.push(vec![n]),
                None => return fail("--kill-node needs a node index"),
            },
            "--blackout-region" => match take(&mut i).as_deref().and_then(parse_nodes) {
                Some(nodes) => cuts.push(nodes),
                None => return fail("--blackout-region needs N0,N1,..."),
            },
            "--maintenance" => match take(&mut i).as_deref().and_then(parse_maintenance) {
                Some(advisory) => load.faults.push(advisory),
                None => return fail("--maintenance needs START:END:N0,N1,... with START < END"),
            },
            "--reset" => reset = true,
            "--shutdown" => shutdown = true,
            other => return fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    for nodes in cuts {
        load.faults.push(Advisory {
            start: load.slots / 3,
            end: (2 * load.slots / 3).max(load.slots / 3 + 1),
            nodes,
        });
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(net_seed);
    let network = match NetworkConfig::paper_default().build(&mut rng) {
        Ok(n) => n,
        Err(e) => return fail(&format!("network build: {e:?}")),
    };

    fn drive<S: std::io::Read + std::io::Write>(
        mut client: Client<S>,
        network: &qdn_net::QdnNetwork,
        load: &LoadConfig,
        reset: bool,
        shutdown: bool,
    ) -> Result<String, String> {
        client.hello().map_err(|e| e.to_string())?;
        if reset {
            client.reset().map_err(|e| e.to_string())?;
        }
        let report = run(&mut client, network, load).map_err(|e| e.to_string())?;
        if shutdown {
            client.shutdown().map_err(|e| e.to_string())?;
        }
        serde_json::to_string_pretty(&report).map_err(|e| format!("encode report: {e:?}"))
    }

    let result = match (socket.as_deref(), tcp.as_deref()) {
        (Some(path), None) => match UnixStream::connect(path) {
            Ok(stream) => drive(Client::new(stream), &network, &load, reset, shutdown),
            Err(e) => return fail(&format!("connect {path}: {e}")),
        },
        (None, Some(addr)) => match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                drive(Client::new(stream), &network, &load, reset, shutdown)
            }
            Err(e) => return fail(&format!("connect {addr}: {e}")),
        },
        _ => return fail("exactly one of --socket PATH / --tcp ADDR:PORT is required"),
    };

    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}
