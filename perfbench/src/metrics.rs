//! Metric names, operation accounting, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("decisions_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("sim_slots_per_s", "1/s"),
    ("mean_success_prob", "prob"),
    ("budget_use", "ratio"),
    ("served_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("solve.relaxed_us", "us"),
    ("solve.dual_iterations", "count"),
    ("solve.round_us", "us"),
    ("core.cold_eval_ms", "ms"),
    ("core.components_solved", "count"),
    ("core.memo_hits", "count"),
    ("core.decide_ms.p50", "ms"),
    ("core.decide_ms.p99", "ms"),
    ("core.select_ms", "ms"),
    ("net.candidate_sync_us", "us"),
    ("net.repaired_pairs", "count"),
    ("graph.yen_us", "us"),
    ("graph.yen_calls", "count"),
    ("net.dynamics_draw_us", "us"),
    ("net.workload_draw_us", "us"),
    ("serve.handle_tick_ms", "ms"),
    ("serve.request_encode_us", "us"),
    ("serve.response_decode_us", "us"),
    ("serve.frame_bytes_per_tick", "bytes"),
    ("serve.transport_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.snapshot_encode_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.restore_ms", "ms"),
    ("sim.policy_slot_ms.oscar", "ms"),
    ("sim.policy_slot_ms.mf", "ms"),
    ("sim.policy_slot_ms.ma", "ms"),
    ("sim.trial_s", "s"),
    ("pool.tasks_executed", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.fanout_efficiency", "ratio"),
    ("trace_overhead", "ratio"),
    ("serve.tick_samples", "count"),
    ("sim.slot_samples", "count"),
    ("core.decide_samples", "count"),
];

/// Operations attempted and failed, the metric values, and notes for
/// the human-readable summary.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failed output check on an operation already counted.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable summary: notes, failures, then every metric.
    pub fn summary(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        lines.extend(self.failures.iter().map(|f| format!("FAILED: {f}")));
        lines.extend(
            self.values
                .iter()
                .map(|(name, value)| format!("{name:<28} {value:.6}")),
        );
        lines
    }

    /// The result line: exactly the metrics of `names`, each present and
    /// finite, else an error naming the first one that is not.
    pub fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !names.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in this run's metric set"));
        }
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
