//! Codec regression tests: the JSON the `serde_json` shim writes and
//! the answers its decoder gives.
//!
//! * **Goldens.** FNV-1a hashes of `serde_json::to_string` output for
//!   every `Request` and `Response` variant, a warm churn
//!   `ServeSnapshot` carrying one advisory, a `--quick`-scale
//!   `ExperimentResults` (compact and `to_string_pretty`) and the
//!   paper-default `OscarConfig`, `GibbsConfig` and `RelaxedOptions`.
//!   The wire format is frozen: a codec change that moves one byte of
//!   these fails here. A deliberate format change must update the
//!   goldens and say why.
//! * **Decoder agreement.** Every wire type reads back its own encoding.
//!   Encodings are then truncated, bit-flipped, given duplicate keys,
//!   number edge cases and string escapes, and mixed with random bytes;
//!   on every such input `from_str` must not panic, and wherever
//!   `parse_value` rejects the text `from_str` must return the same
//!   message, so syntax errors win over shape errors. The answers
//!   (decoded value re-encoded, or error message) are folded into one
//!   more golden, so a decoder change that alters which error a
//!   malformed document gets, or what a lenient one decodes to, fails
//!   here too.

use std::fmt::Debug;
use std::sync::OnceLock;

use qdn::core::oscar::OscarConfig;
use qdn::core::profile_eval::EvalOptions;
use qdn::core::route_selection::GibbsConfig;
use qdn::net::dynamics::DynamicsConfig;
use qdn::sim::engine::SimConfig;
use qdn::sim::experiment::{Experiment, ExperimentResults};
use qdn::sim::trial::TrialConfig;
use qdn::solve::RelaxedOptions;
use qdn_serve::proto::ServeStats;
use qdn_serve::{Advisory, Daemon, Request, Response, ServeConfig, ServeSnapshot};
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Every `Request` variant's encoding, newline-separated.
const REQUESTS_GOLDEN: u64 = 0x01ee_87cf_52dc_e517;
/// Every `Response` variant's encoding, newline-separated.
const RESPONSES_GOLDEN: u64 = 0xa0ee_fd9d_cc49_f271;
/// The warm churn snapshot.
const SNAPSHOT_GOLDEN: u64 = 0xb881_3ded_40a3_f0e0;
/// The `--quick`-scale results, compact.
const RESULTS_GOLDEN: u64 = 0xc2df_2148_439d_9bc9;
/// The `--quick`-scale results, `to_string_pretty`.
const RESULTS_PRETTY_GOLDEN: u64 = 0xb1e9_956b_0f26_fef7;
/// Paper-default `OscarConfig`, `GibbsConfig` and `RelaxedOptions`,
/// newline-separated.
const CONFIGS_GOLDEN: u64 = 0x63a8_ba92_0493_e1ac;
/// Every decoder answer of `decoder_agrees_with_parse_value`.
const ANSWERS_GOLDEN: u64 = 0x7eda_656a_1dd9_e2f9;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn hash_lines(lines: &[String]) -> u64 {
    lines.iter().fold(FNV_OFFSET, |h, line| {
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// A two-shard daemon warmed by eight churn slots of ten sticky pairs,
/// with one advisory on file; and the responses it gave.
struct Fixture {
    snapshot: ServeSnapshot,
    tick: Response,
    stats: Response,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut daemon = Daemon::new(ServeConfig {
            shards: 2,
            dynamics: DynamicsConfig::Churn {
                failure_rate: 0.5,
                mttr: 5.0,
                seed: 11,
                base: Box::new(DynamicsConfig::Static),
            },
            ..ServeConfig::paper_default()
        })
        .unwrap();
        let pairs = vec![
            (0, 3),
            (5, 1),
            (7, 12),
            (2, 19),
            (4, 9),
            (6, 15),
            (8, 11),
            (10, 13),
            (14, 17),
            (16, 18),
        ];
        let mut tick = None;
        for _ in 0..8 {
            daemon.handle(Request::Submit {
                pairs: pairs.clone(),
            });
            tick = Some(daemon.handle(Request::Tick));
        }
        let advised = daemon.handle(Request::Advise {
            advisory: Advisory {
                start: 20,
                end: 30,
                nodes: vec![4, 13],
            },
        });
        assert_eq!(advised, Response::AdviseOk { advisories: 1 });
        let snapshot = daemon.snapshot();
        assert_eq!(snapshot.advisories.len(), 1);
        Fixture {
            snapshot,
            tick: tick.unwrap(),
            stats: daemon.handle(Request::Stats),
        }
    })
}

fn requests() -> Vec<Request> {
    vec![
        Request::Hello { version: 6 },
        Request::Submit {
            pairs: vec![(0, 3), (7, 2)],
        },
        Request::Tick,
        Request::Stats,
        Request::Snapshot,
        Request::Restore {
            snapshot: fixture().snapshot.clone(),
        },
        Request::Reset,
        Request::Advise {
            advisory: Advisory {
                start: 3,
                end: 9,
                nodes: vec![4, 2],
            },
        },
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    let fixture = fixture();
    assert!(matches!(fixture.tick, Response::TickOk { .. }));
    assert!(matches!(fixture.stats, Response::StatsOk { .. }));
    vec![
        Response::HelloOk {
            version: 6,
            shards: 2,
            slot: 8,
        },
        Response::SubmitOk { pending: 10 },
        fixture.tick.clone(),
        fixture.stats.clone(),
        Response::StatsOk {
            stats: ServeStats {
                slot: 0,
                pending: 0,
                served: 0,
                unserved: 0,
                spent: 0,
                queue_values: vec![0.0, -0.0, 1.5e-7, 12_345_678.9, 1e21, 0.1 + 0.2],
            },
        },
        Response::SnapshotOk {
            snapshot: fixture.snapshot.clone(),
        },
        Response::RestoreOk { slot: 8 },
        Response::ResetOk,
        Response::AdviseOk { advisories: 1 },
        Response::Degraded {
            slot: 21,
            dark_nodes: vec![4, 13],
        },
        Response::ShutdownOk,
        Response::Error {
            message: "bad \"frame\"\\ at\tbyte 7\n\u{1} é ✓ 😀".into(),
        },
    ]
}

/// The paper's three policies over `--quick` scale: 2 trials × 60 slots
/// at `run_all`'s base seed.
fn quick_results() -> &'static ExperimentResults {
    static RESULTS: OnceLock<ExperimentResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let mut experiment = Experiment::paper_default("codec");
        experiment.trials = TrialConfig {
            trials: 2,
            base_seed: 0x0DD5_EED5,
            threads: 0,
            sim: SimConfig {
                horizon: 60,
                realize_outcomes: true,
            },
        };
        experiment.run()
    })
}

#[test]
fn requests_and_responses_match_goldens() {
    let requests: Vec<String> = requests().iter().map(json).collect();
    let responses: Vec<String> = responses().iter().map(json).collect();
    assert_eq!(hash_lines(&requests), REQUESTS_GOLDEN, "requests");
    assert_eq!(hash_lines(&responses), RESPONSES_GOLDEN, "responses");
}

#[test]
fn churn_snapshot_matches_golden() {
    let text = json(&fixture().snapshot);
    assert_eq!(fnv1a(FNV_OFFSET, text.as_bytes()), SNAPSHOT_GOLDEN);
}

#[test]
fn quick_results_match_goldens() {
    let results = quick_results();
    let compact = json(results);
    let pretty = serde_json::to_string_pretty(results).unwrap();
    assert_eq!(fnv1a(FNV_OFFSET, compact.as_bytes()), RESULTS_GOLDEN);
    assert_eq!(fnv1a(FNV_OFFSET, pretty.as_bytes()), RESULTS_PRETTY_GOLDEN);
}

#[test]
fn paper_default_configs_match_golden() {
    let configs = vec![
        json(&OscarConfig::paper_default()),
        json(&GibbsConfig::paper_default()),
        json(&RelaxedOptions::default()),
    ];
    assert_eq!(hash_lines(&configs), CONFIGS_GOLDEN);
}

// ------------------------------------------------------------ decoding

/// Number tokens spliced over a number in an encoding.
const NUMBERS: &[&str] = &[
    "-0",
    "9007199254740993",
    "1e400",
    "18446744073709551616",
    "007",
    "-9223372036854775808",
    "-9223372036854775809",
    "+1",
    "1.",
    "1e",
    "-",
    "--1",
    "1E2",
    "-0.0",
    "4294967296",
    "256",
    "-1",
    "0.5",
];

/// String bodies spliced over a string in an encoding (keys included).
const STRINGS: &[&str] = &[
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\ud83d\\u0041",
    "\\/\\b\\f\\n\\r\\t",
    "\\u0000",
    "é✓",
    "\\x",
    "\\u12",
    "",
    "slot",
    "Tick",
];

/// Values spliced in as a duplicate key's value.
const DUPLICATE_VALUES: &[&str] = &["null", "0", "\"x\"", "[]", "{}", "-0", "1e400", "[[1]]"];

/// Byte ranges of the number and string tokens of `text`, and the
/// positions just after each `{`.
#[derive(Default)]
struct Tokens {
    numbers: Vec<(usize, usize)>,
    strings: Vec<(usize, usize)>,
    objects: Vec<usize>,
}

fn tokens(text: &str) -> Tokens {
    let bytes = text.as_bytes();
    let mut found = Tokens::default();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                found.strings.push((start, i.min(bytes.len())));
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                found.numbers.push((start, i));
            }
            b'{' => {
                found.objects.push(i + 1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    found
}

fn splice(text: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// The malformed and edge-case variants of one valid encoding.
fn variants(text: &str, rng: &mut rand::rngs::StdRng) -> Vec<String> {
    let mut out = vec![text.to_owned()];
    let bytes = text.as_bytes();
    for _ in 0..6 {
        let cut = rng.random_range(0..=bytes.len());
        out.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
        let mut flipped = bytes.to_vec();
        if !flipped.is_empty() {
            let at = rng.random_range(0..flipped.len() * 8);
            flipped[at / 8] ^= 1 << (at % 8);
        }
        out.push(String::from_utf8_lossy(&flipped).into_owned());
    }
    let found = tokens(text);
    for _ in 0..8 {
        if !found.numbers.is_empty() {
            let at = found.numbers[rng.random_range(0..found.numbers.len())];
            out.push(splice(
                text,
                at,
                NUMBERS[rng.random_range(0..NUMBERS.len())],
            ));
        }
        if !found.strings.is_empty() {
            let at = found.strings[rng.random_range(0..found.strings.len())];
            out.push(splice(
                text,
                at,
                STRINGS[rng.random_range(0..STRINGS.len())],
            ));
        }
    }
    for _ in 0..6 {
        if found.objects.is_empty() {
            break;
        }
        // A copy of the object's first key, with another value, either
        // before the original (so the copy comes first) or after it.
        let at = found.objects[rng.random_range(0..found.objects.len())];
        let Some(key) = found.strings.iter().find(|s| s.0 == at + 1) else {
            continue;
        };
        let key = &text[key.0..key.1];
        let value = DUPLICATE_VALUES[rng.random_range(0..DUPLICATE_VALUES.len())];
        out.push(format!("{}\"{key}\":{value},{}", &text[..at], &text[at..]));
        if let Some(close) = text.rfind('}') {
            out.push(format!(
                "{},\"{key}\":{value}{}",
                &text[..close],
                &text[close..]
            ));
        }
    }
    out
}

/// Random short documents over JSON's punctuation and a few words.
fn noise(rng: &mut rand::rngs::StdRng) -> String {
    const PIECES: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\"a\"",
        "\"Tick\"",
        "0",
        "-1",
        "2.5",
        "1e3",
        "null",
        "true",
        "fals",
        " ",
        "\\",
        "\\u",
        "é",
        "\"version\"",
        "\"Hello\"",
    ];
    (0..rng.random_range(0..24usize))
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

/// `from_str::<T>` over `text`, checked against `parse_value`, as one
/// answer line.
fn answer<T: Serialize + Deserialize + Debug>(text: &str) -> String {
    let decoded = serde_json::from_str::<T>(text);
    if let Err(syntax) = serde_json::parse_value(text) {
        assert_eq!(
            decoded.as_ref().map_err(ToString::to_string).err(),
            Some(syntax.to_string()),
            "from_str and parse_value disagree on {text:?}"
        );
    }
    match decoded {
        Ok(value) => match serde_json::to_string(&value) {
            Ok(text) => format!("ok {text}"),
            Err(e) => format!("ok unencodable ({e}): {value:?}"),
        },
        Err(e) => format!("err {e}"),
    }
}

/// Every variant of `value`'s encoding through `from_str::<T>`.
fn answers<T>(value: &T, seed: u64, lines: &mut Vec<String>)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = json(value);
    let back: T = serde_json::from_str(&text).unwrap();
    assert_eq!(&back, value, "round trip of {text}");
    let pretty: T = serde_json::from_str(&serde_json::to_string_pretty(value).unwrap()).unwrap();
    assert_eq!(&pretty, value, "pretty round trip of {text}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for variant in variants(&text, &mut rng) {
        lines.push(answer::<T>(&variant));
    }
    for _ in 0..16 {
        lines.push(answer::<T>(&noise(&mut rng)));
    }
}

#[test]
fn decoder_agrees_with_parse_value() {
    let mut lines = Vec::new();
    for (i, request) in requests().iter().enumerate() {
        answers(request, i as u64, &mut lines);
    }
    for (i, response) in responses().iter().enumerate() {
        answers(response, 100 + i as u64, &mut lines);
    }
    answers(&fixture().snapshot, 200, &mut lines);
    answers(&ServeConfig::paper_default(), 201, &mut lines);
    answers(&OscarConfig::paper_default(), 202, &mut lines);
    answers(&GibbsConfig::paper_default(), 203, &mut lines);
    answers(&RelaxedOptions::default(), 204, &mut lines);
    answers(&EvalOptions::warm_seeded(), 205, &mut lines);
    answers(&Experiment::paper_default("codec"), 206, &mut lines);
    answers(
        &quick_results().runs[0].trials[0].slots()[..4].to_vec(),
        207,
        &mut lines,
    );
    answers(&vec![0.5f64, -0.0, 1e300], 208, &mut lines);
    answers(&(7u32, -3i64), 209, &mut lines);
    answers(&Some("é\u{1}😀".to_string()), 210, &mut lines);
    assert_eq!(
        hash_lines(&lines),
        ANSWERS_GOLDEN,
        "{} answers",
        lines.len()
    );
}

#[test]
fn number_edge_cases_read_as_integers_first() {
    // An integer token is an integer before it is a float: `-0` is the
    // integer 0, so an f64 field reads +0.0, not -0.0.
    assert_eq!(serde_json::from_str::<f64>("-0").unwrap().to_bits(), 0);
    assert_eq!(
        serde_json::from_str::<f64>("-0.0").unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(
        serde_json::from_str::<f64>("9007199254740993").unwrap(),
        9_007_199_254_740_992.0
    );
    assert_eq!(serde_json::from_str::<f64>("1e400").unwrap(), f64::INFINITY);
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551616").unwrap(),
        18_446_744_073_709_551_616.0
    );
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551616")
            .unwrap_err()
            .to_string(),
        "expected u64"
    );
    assert_eq!(serde_json::from_str::<u32>("007").unwrap(), 7);
    assert_eq!(serde_json::from_str::<u32>("-0").unwrap(), 0);
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775809")
            .unwrap_err()
            .to_string(),
        "expected i64"
    );
    assert_eq!(
        serde_json::from_str::<u8>("256").unwrap_err().to_string(),
        "u8 out of range"
    );
    assert_eq!(serde_json::from_str::<f64>("+1").unwrap(), 1.0);
    assert_eq!(
        serde_json::from_str::<f64>("1.2.3")
            .unwrap_err()
            .to_string(),
        "invalid number `1.2.3`"
    );
}

#[test]
fn escapes_and_surrogate_pairs_decode() {
    assert_eq!(
        serde_json::from_str::<String>(r#""é😀\/\b\f\n\r\t\"\\""#).unwrap(),
        "é😀/\u{8}\u{c}\n\r\t\"\\"
    );
    assert!(serde_json::from_str::<String>(r#""\ud83d""#).is_err());
    let text = json(&"\u{1f}\"é😀".to_string());
    assert_eq!(text, "\"\\u001f\\\"é😀\"");
    assert_eq!(
        serde_json::from_str::<String>(&text).unwrap(),
        "\u{1f}\"é😀"
    );
}

#[test]
fn shape_errors_keep_their_messages() {
    let unknown = serde_json::from_str::<RelaxedOptions>(
        r#"{"max_iterations":"x","method":1,"gap_tolerance":0.1}"#,
    );
    assert_eq!(
        unknown.unwrap_err().to_string(),
        "unknown field `method`, expected one of `max_iterations`, `gap_tolerance`"
    );
    let missing = serde_json::from_str::<Advisory>(r#"{"start":1,"end":2}"#);
    assert_eq!(missing.unwrap_err().to_string(), "missing field `nodes`");
    let deleted =
        serde_json::from_str::<Advisory>(r#"{"start":1,"end":2,"nodes":[],"planned":true}"#);
    assert_eq!(
        deleted.unwrap_err().to_string(),
        "unknown field `planned`, expected one of `start`, `end`, `nodes`"
    );
    // The first of two equal keys wins; the second is not decoded.
    let first = serde_json::from_str::<Advisory>(r#"{"start":1,"start":"x","end":2,"nodes":[]}"#);
    assert_eq!(first.unwrap().start, 1);
    // A syntax error anywhere wins over a shape error before it.
    let syntax = serde_json::from_str::<Advisory>(r#"{"start":"x","end":2,"nodes":[1,,]}"#);
    assert_eq!(
        syntax.unwrap_err().to_string(),
        serde_json::parse_value(r#"{"start":"x","end":2,"nodes":[1,,]}"#)
            .unwrap_err()
            .to_string()
    );
    assert!(serde_json::from_str::<Request>("\"Tick\" x")
        .unwrap_err()
        .to_string()
        .contains("trailing characters"));
}
