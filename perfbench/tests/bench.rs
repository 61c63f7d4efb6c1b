//! The benchmark's own tests: its inputs, its statistics, its metric
//! names, and a tiny end-to-end run of every workload in both modes.

use std::time::Duration;

use qdn_perfbench::metrics::{END_TO_END, PER_LAYER};
use qdn_perfbench::stats::{beyond, tail_per_mille};
use qdn_perfbench::workload::{self, Scale, Workload};
use serde_json::Value;

#[test]
fn trace_is_a_pure_function_of_the_seed() {
    for w in [Workload::ServeUniform, Workload::ServePersistentChurn] {
        let spec = workload::serve_spec(w, 5, Scale::Full).expect("serve workload");
        let net = workload::network(&spec.config).expect("network");
        let again = workload::serve_spec(w, 5, Scale::Full).expect("serve workload");
        let other = workload::serve_spec(w, 6, Scale::Full).expect("serve workload");
        let a = workload::request_trace(&spec.requests, &net, spec.trace_seed, 64).0;
        let b = workload::request_trace(&again.requests, &net, again.trace_seed, 64).0;
        let c = workload::request_trace(&other.requests, &net, other.trace_seed, 64).0;
        assert_eq!(a, b, "{}: same seed, same trace", w.name());
        assert_ne!(a, c, "{}: another seed, another trace", w.name());
        assert_eq!(spec.config, again.config);
    }
    let a = workload::repro_experiments(5, Scale::Full);
    assert_eq!(a, workload::repro_experiments(5, Scale::Full));
    assert_ne!(a, workload::repro_experiments(6, Scale::Full));
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(tail_per_mille(19), None);
    assert_eq!(tail_per_mille(20), Some(500));
    assert_eq!(tail_per_mille(199), Some(900));
    assert_eq!(tail_per_mille(999), Some(950));
    assert_eq!(tail_per_mille(1000), Some(990));
    assert_eq!(tail_per_mille(9999), Some(990));
    assert_eq!(tail_per_mille(10_000), Some(999));
    for n in [20, 100, 999, 1000, 25_000] {
        let pm = tail_per_mille(n).expect("enough samples");
        assert!(beyond(n, pm) >= 10);
    }
}

fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    match object {
        Value::Object(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("not an object"),
    }
}

fn names(list: &Value, with_unit: bool) -> Vec<(String, String)> {
    let Value::Array(items) = list else {
        panic!("not a list")
    };
    items
        .iter()
        .map(|item| {
            let text = |k: &str| match field(item, k) {
                Value::Str(s) => s.clone(),
                _ => panic!("{k} is not a string"),
            };
            (
                text("name"),
                if with_unit {
                    text("unit")
                } else {
                    String::new()
                },
            )
        })
        .collect()
}

#[test]
fn emitted_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("valid JSON");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(field(&doc, "end_to_end"), true), owned(&END_TO_END));
    assert_eq!(names(field(&doc, "per_layer"), true), owned(&PER_LAYER));
    let workloads: Vec<String> = names(field(&doc, "workloads"), false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn smoke_configuration_runs_end_to_end() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = qdn_perfbench::run(w, 3, Duration::ZERO, trace, Scale::Smoke)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            let line = report
                .json(if trace { &PER_LAYER } else { &END_TO_END })
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            assert!(report.attempted() > 0);
            assert_eq!(
                report.failed(),
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                report.summary()
            );
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }
}
