//! Daemon integration: wire-level round-trips over a real Unix socket,
//! malformed-input behavior, a decoder fuzz, and warm-restart
//! bit-identity.

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use qdn_net::dynamics::DynamicsConfig;
use qdn_net::workload::{Workload, WorkloadConfig};
use qdn_serve::daemon::{serve, serve_connection, Daemon, Listener};
use qdn_serve::frame::{read_frame, write_frame, FrameError};
use qdn_serve::proto::{Advisory, Request, Response, PROTOCOL_VERSION};
use qdn_serve::{Client, ServeConfig, SubmitOutcome};

fn socket_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qdn-serve-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spawn_daemon(config: ServeConfig, tag: &str) -> (PathBuf, std::thread::JoinHandle<()>) {
    let path = socket_path(tag);
    let listener = Listener::Unix(UnixListener::bind(&path).unwrap());
    let join = std::thread::spawn(move || {
        let mut daemon = Daemon::new(config).unwrap();
        serve(&mut daemon, &listener).unwrap();
    });
    (path, join)
}

#[test]
fn end_to_end_over_unix_socket() {
    let (path, join) = spawn_daemon(ServeConfig::paper_default(), "e2e");
    let mut client = Client::new(UnixStream::connect(&path).unwrap());
    let (shards, slot) = client.hello().unwrap();
    assert_eq!(shards, 4);
    assert_eq!(slot, 0);

    let mut workload = WorkloadConfig::paper_default().build();
    let network = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        qdn_net::NetworkConfig::paper_default()
            .build(&mut rng)
            .unwrap()
    };
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(3)
    };
    let mut decided = 0usize;
    for t in 0..8u64 {
        let requests = workload.requests(t, &network, &mut rng);
        let outcome = client.submit(&requests).unwrap();
        assert_eq!(
            outcome,
            SubmitOutcome::Queued {
                pending: requests.len() as u32
            }
        );
        let (slot, decision, cost) = client.tick().unwrap();
        assert_eq!(slot, t);
        assert_eq!(decision.request_count(), requests.len());
        assert_eq!(decision.total_cost(), cost);
        decided += decision.request_count();
    }
    assert!(decided > 0, "eight paper-scale slots must decide something");

    let stats = client.stats().unwrap();
    assert_eq!(stats.slot, 8);
    assert_eq!(stats.served + stats.unserved, decided as u64);
    assert_eq!(stats.queue_values.len(), 4);

    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hello_version_mismatch_rejected() {
    let (path, join) = spawn_daemon(ServeConfig::paper_default(), "ver");
    let mut stream = UnixStream::connect(&path).unwrap();
    let wire = serde_json::to_string(&Request::Hello { version: 999 }).unwrap();
    write_frame(&mut stream, wire.as_bytes()).unwrap();
    let payload = read_frame(&mut stream).unwrap();
    let response: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(response, Response::Error { .. }));
    // The daemon hung up: the next read sees EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);

    // And it still accepts fresh connections.
    let mut client = Client::new(UnixStream::connect(&path).unwrap());
    client.hello().unwrap();
    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_and_truncated_frames() {
    let (path, join) = spawn_daemon(ServeConfig::paper_default(), "bad");

    // Malformed JSON in a well-formed frame: answered with Error, and
    // the connection stays usable.
    let mut stream = UnixStream::connect(&path).unwrap();
    let hello = serde_json::to_string(&Request::Hello {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    write_frame(&mut stream, hello.as_bytes()).unwrap();
    let _ = read_frame(&mut stream).unwrap();
    write_frame(&mut stream, b"{\"Tick\"").unwrap();
    let payload = read_frame(&mut stream).unwrap();
    let response: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(response, Response::Error { .. }));
    write_frame(
        &mut stream,
        serde_json::to_string(&Request::Stats).unwrap().as_bytes(),
    )
    .unwrap();
    let payload = read_frame(&mut stream).unwrap();
    let response: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(response, Response::StatsOk { .. }));
    drop(stream);

    // A truncated frame (header promises more than arrives) drops the
    // connection without wedging the daemon.
    let mut stream = UnixStream::connect(&path).unwrap();
    write_frame(&mut stream, hello.as_bytes()).unwrap();
    let _ = read_frame(&mut stream).unwrap();
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"only ten b").unwrap();
    drop(stream);

    // An oversize length word is answered with Error, then close.
    let mut stream = UnixStream::connect(&path).unwrap();
    write_frame(&mut stream, hello.as_bytes()).unwrap();
    let _ = read_frame(&mut stream).unwrap();
    stream
        .write_all(&(qdn_serve::frame::MAX_FRAME_LEN + 1).to_be_bytes())
        .unwrap();
    let payload = read_frame(&mut stream).unwrap();
    let response: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(response, Response::Error { .. }));
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);

    // Invalid submissions are rejected without queueing anything.
    let mut client = Client::new(UnixStream::connect(&path).unwrap());
    client.hello().unwrap();
    assert!(client
        .submit(&[qdn_net::SdPair::new(qdn_graph::NodeId(0), qdn_graph::NodeId(1)).unwrap()])
        .is_ok());
    // Equal endpoints can't be built as an SdPair client-side, so drive
    // the raw verb.
    let err = match client
        .call_raw(&Request::Submit {
            pairs: vec![(2, 2)],
        })
        .unwrap()
    {
        Response::Error { message } => message,
        other => panic!("expected Error, got {other:?}"),
    };
    assert!(err.contains("endpoints"), "unexpected message: {err}");
    let err = match client
        .call_raw(&Request::Submit {
            pairs: vec![(0, 4096)],
        })
        .unwrap()
    {
        Response::Error { message } => message,
        other => panic!("expected Error, got {other:?}"),
    };
    assert!(err.contains("out of range"), "unexpected message: {err}");

    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restart_warm_is_bit_identical() {
    // Churn dynamics so the restore path must also replay the failure
    // process; persistent workload so the sessions are genuinely warm.
    let mut config = ServeConfig::paper_default();
    config.dynamics = DynamicsConfig::Churn {
        failure_rate: 0.3,
        mttr: 3.0,
        seed: 99,
        base: Box::new(DynamicsConfig::Static),
    };
    let workload_cfg = WorkloadConfig::Persistent {
        pairs_per_slot: 5,
        keep_probability: 0.8,
    };

    let mut original = Daemon::new(config.clone()).unwrap();

    // Drive the first 6 slots, capturing the submissions so the
    // restored daemon sees the identical arrivals.
    let mut workload = workload_cfg.build();
    let mut arrivals: Vec<Vec<(u32, u32)>> = Vec::new();
    for t in 0..12u64 {
        let mut rng = qdn_serve::shard::slot_rng(5, t, 1);
        let requests = workload.requests(t, original.network(), &mut rng);
        arrivals.push(
            requests
                .iter()
                .map(|p| (p.source().0, p.destination().0))
                .collect(),
        );
    }
    for pairs in arrivals.iter().take(6) {
        let _ = original.handle(Request::Submit {
            pairs: pairs.clone(),
        });
        let _ = original.handle(Request::Tick);
    }
    let snapshot = original.snapshot().unwrap();
    let wire = serde_json::to_string(&snapshot).unwrap();

    // Continue the original for 6 more slots.
    let mut continued = Vec::new();
    for pairs in arrivals.iter().skip(6) {
        let _ = original.handle(Request::Submit {
            pairs: pairs.clone(),
        });
        continued.push(original.handle(Request::Tick));
    }

    // Cold process + restore from the wire snapshot, same 6 slots.
    let mut restored = Daemon::new(config).unwrap();
    let decoded = serde_json::from_str(&wire).unwrap();
    assert_eq!(restored.restore(&decoded).unwrap(), 6);
    let mut resumed = Vec::new();
    for pairs in arrivals.iter().skip(6) {
        let _ = restored.handle(Request::Submit {
            pairs: pairs.clone(),
        });
        resumed.push(restored.handle(Request::Tick));
    }

    assert_eq!(continued, resumed, "post-restore decisions diverged");
    // And the end states themselves re-snapshot identically.
    assert_eq!(
        serde_json::to_string(&original.snapshot().unwrap()).unwrap(),
        serde_json::to_string(&restored.snapshot().unwrap()).unwrap()
    );
}

#[test]
fn regional_blackout_then_recovery() {
    // Full socket round-trip of the PR 9 degradation path: declare a
    // regional outage ahead of time, watch submits touching the region
    // turn into typed Degraded answers for exactly the window's slots,
    // and turn back into ordinary decisions when the region recovers.
    let (path, join) = spawn_daemon(ServeConfig::paper_default(), "blackout");
    let mut client = Client::new(UnixStream::connect(&path).unwrap());
    client.hello().unwrap();

    let pair =
        |s: u32, d: u32| qdn_net::SdPair::new(qdn_graph::NodeId(s), qdn_graph::NodeId(d)).unwrap();
    let inside = pair(1, 2); // endpoints in the region going dark
    let outside = pair(5, 9); // avoids the region entirely
    let batch = [inside, outside];

    // Warm the shards on both pairs before declaring the outage.
    for t in 0..2u64 {
        assert!(matches!(
            client.submit(&batch).unwrap(),
            SubmitOutcome::Queued { .. }
        ));
        let (slot, decision, _) = client.tick().unwrap();
        assert_eq!(slot, t);
        assert_eq!(decision.request_count(), 2);
    }

    // Region {1, 2} goes dark over [3, 6); the window is still ahead.
    let advisories = client
        .advise(Advisory {
            start: 3,
            end: 6,
            nodes: vec![1, 2],
            planned: false,
        })
        .unwrap();
    assert_eq!(advisories, 1);

    // Slot 2: window not open yet — business as usual.
    assert!(matches!(
        client.submit(&batch).unwrap(),
        SubmitOutcome::Queued { .. }
    ));
    let (_, decision, _) = client.tick().unwrap();
    assert_eq!(decision.request_count(), 2);

    // Slots 3..6: submits touching the dark region answer Degraded;
    // the filtered remainder still queues and still decides.
    for t in 3..6u64 {
        match client.submit(&batch).unwrap() {
            SubmitOutcome::Degraded { slot, dark_nodes } => {
                assert_eq!(slot, t);
                assert_eq!(dark_nodes, vec![1, 2]);
            }
            other => panic!("slot {t}: expected Degraded, got {other:?}"),
        }
        assert!(matches!(
            client.submit(&[outside]).unwrap(),
            SubmitOutcome::Queued { .. }
        ));
        let (slot, decision, _) = client.tick().unwrap();
        assert_eq!(slot, t);
        assert_eq!(decision.request_count(), 1, "only the outside pair decided");
    }

    // Slot 6: the window closed — Degraded turns back into decisions
    // covering the region pair.
    assert!(matches!(
        client.submit(&batch).unwrap(),
        SubmitOutcome::Queued { .. }
    ));
    let (slot, decision, _) = client.tick().unwrap();
    assert_eq!(slot, 6);
    assert_eq!(decision.request_count(), 2);

    client.shutdown().unwrap();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_rejects_mismatched_snapshots() {
    let mut daemon = Daemon::new(ServeConfig::paper_default()).unwrap();
    let mut snapshot = daemon.snapshot().unwrap();
    snapshot.version += 1;
    assert!(daemon.restore(&snapshot).is_err());

    let mut snapshot = daemon.snapshot().unwrap();
    snapshot.shards.pop();
    let err = daemon.restore(&snapshot).unwrap_err();
    assert!(err.contains("shards"), "unexpected error: {err}");
    // The failed restore reset the daemon rather than leaving a mixed
    // state.
    assert_eq!(daemon.slot(), 0);
}

/// A 1 MiB request of nested `[`: before the parser's recursion limit,
/// one such frame overflowed the stack of the thread serving it.
fn deep_payload() -> Vec<u8> {
    vec![b'['; 1 << 20]
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload).unwrap();
    bytes
}

/// A frame as the daemon decodes it: `read_frame`, UTF-8, `Request`.
fn decode(mut bytes: &[u8]) -> Result<Request, String> {
    let payload = read_frame(&mut bytes).map_err(|e| e.to_string())?;
    let text = String::from_utf8(payload).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// Every `Request` variant, `Restore` carrying a warm two-slot snapshot.
fn requests() -> &'static [Request] {
    static REQUESTS: OnceLock<Vec<Request>> = OnceLock::new();
    REQUESTS.get_or_init(|| {
        let mut daemon = Daemon::new(ServeConfig {
            shards: 1,
            ..ServeConfig::paper_default()
        })
        .unwrap();
        for _ in 0..2 {
            daemon.handle(Request::Submit {
                pairs: vec![(0, 3), (5, 1)],
            });
            daemon.handle(Request::Tick);
        }
        vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Submit {
                pairs: vec![(0, 3), (7, 2)],
            },
            Request::Tick,
            Request::Stats,
            Request::Snapshot,
            Request::Restore {
                snapshot: daemon.snapshot().unwrap(),
            },
            Request::Reset,
            Request::Advise {
                advisory: Advisory {
                    start: 3,
                    end: 9,
                    nodes: vec![4, 2],
                    planned: false,
                },
            },
            Request::Shutdown,
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frame decoder and the `Request` parser answer arbitrary
    /// bytes, truncations and bit flips of every variant's encoding, and
    /// the 1 MiB nesting bomb with a typed error or a value, never a
    /// panic or a stack overflow.
    #[test]
    fn decoder_answers_every_input(
        noise in proptest::collection::vec(0u16..256, 0usize..96),
        which in 0usize..10,
        cut in 0.0f64..1.0,
        bit in 0u64..u64::MAX,
    ) {
        let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        let _ = decode(&noise);
        let _ = decode(&framed(&noise));
        let valid = match requests().get(which) {
            Some(request) => {
                let valid = framed(serde_json::to_string(request).unwrap().as_bytes());
                prop_assert_eq!(&decode(&valid), &Ok(request.clone()));
                valid
            }
            None => {
                let deep = framed(&deep_payload());
                prop_assert!(decode(&deep).unwrap_err().contains("recursion limit"));
                deep
            }
        };
        let _ = decode(&valid[..(cut * valid.len() as f64) as usize]);
        let mut flipped = valid;
        let at = bit as usize % (flipped.len() * 8);
        flipped[at / 8] ^= 1 << (at % 8);
        let _ = decode(&flipped);
    }
}

/// The nesting bomb as a connection's first frame is answered with an
/// error or a close, and the daemon goes on answering connections.
#[test]
fn deep_frame_leaves_the_daemon_serving() {
    let mut daemon = Daemon::new(ServeConfig {
        shards: 1,
        ..ServeConfig::paper_default()
    })
    .unwrap();
    let mut connect = |client: &mut dyn FnMut(UnixStream)| {
        let (ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| serve_connection(&mut daemon, theirs));
            client(ours.try_clone().unwrap());
            ours.shutdown(std::net::Shutdown::Both).unwrap();
        });
    };
    connect(&mut |mut stream| {
        write_frame(&mut stream, &deep_payload()).unwrap();
        match read_frame(&mut stream) {
            Ok(payload) => {
                let text = String::from_utf8(payload).unwrap();
                let response: Response = serde_json::from_str(&text).unwrap();
                assert!(matches!(response, Response::Error { .. }), "{response:?}");
            }
            Err(FrameError::Closed) => {}
            Err(e) => panic!("neither an error nor a clean close: {e}"),
        }
    });
    connect(&mut |stream| {
        let mut client = Client::new(stream);
        client.hello().unwrap();
        assert_eq!(client.stats().unwrap().slot, 0);
    });
}
