//! Per-slot records and derived series.

use qdn_core::policy::ChurnDiagnostics;
use serde::{Deserialize, Serialize};

/// Everything recorded about one simulated slot.
///
/// **Loud compat break (PR 6):** the `churn` field is required when
/// deserializing recorded runs, and unknown keys are rejected, so a
/// record with a deleted field fails loudly. See MIGRATION.md.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SlotRecord {
    /// Slot index.
    pub t: u64,
    /// Number of EC requests in `Φ_t`.
    pub requests: usize,
    /// Requests actually served (route + allocation assigned).
    pub served: usize,
    /// Slot utility `Σ_φ log P` over served pairs.
    pub utility: f64,
    /// Per-slot cost `c_t` in qubit-channel units.
    pub cost: u64,
    /// Analytic success probability per request (0 for unserved).
    pub success_probs: Vec<f64>,
    /// Realized (Bernoulli) EC successes, when outcome realization is on.
    pub realized_successes: Option<usize>,
    /// Policy's virtual queue after the slot, if it has one.
    pub virtual_queue: Option<f64>,
    /// Topology-churn handling this slot, for session policies.
    pub churn: Option<ChurnDiagnostics>,
}

/// One failure event and how the policy recovered from it, derived from
/// the per-slot [`ChurnDiagnostics`] by
/// [`RunMetrics::recovery_records`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RecoveryRecord {
    /// Slot at which the cut landed.
    pub cut_slot: u64,
    /// Links that failed in that slot.
    pub failed_edges: u32,
    /// Pairs whose candidate sets the cut touched.
    pub affected_pairs: u32,
    /// Mean slot utility over the pre-cut window (the recovery target).
    pub pre_cut_utility: f64,
    /// Slots from the cut until utility re-entered the tolerance band
    /// around `pre_cut_utility` (0 = the cut slot itself never left it);
    /// `None` if the run ended first.
    pub recovery_slots: Option<u64>,
}

/// The full record of one simulation run for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    policy: String,
    slots: Vec<SlotRecord>,
}

impl RunMetrics {
    /// Creates an empty record for `policy`.
    pub fn new(policy: impl Into<String>) -> Self {
        RunMetrics {
            policy: policy.into(),
            slots: Vec::new(),
        }
    }

    /// The policy name this run belongs to.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Appends a slot record.
    pub fn push(&mut self, record: SlotRecord) {
        self.slots.push(record);
    }

    /// The raw slot records.
    pub fn slots(&self) -> &[SlotRecord] {
        &self.slots
    }

    /// Running average of slot utility up to each `t` (Fig. 3a's series).
    pub fn running_avg_utility(&self) -> Vec<f64> {
        running_mean(self.slots.iter().map(|s| s.utility))
    }

    /// Running average EC success probability over all requests seen so
    /// far (Fig. 3b's series). Unserved requests count as 0.
    pub fn running_avg_success(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut sum = 0.0;
        let mut count = 0usize;
        for s in &self.slots {
            sum += s.success_probs.iter().sum::<f64>();
            count += s.success_probs.len();
            out.push(if count == 0 { 0.0 } else { sum / count as f64 });
        }
        out
    }

    /// Cumulative qubit usage after each slot (Fig. 3c's series).
    pub fn cumulative_cost(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut sum = 0u64;
        for s in &self.slots {
            sum += s.cost;
            out.push(sum);
        }
        out
    }

    /// Total qubit usage over the whole run.
    pub fn total_cost(&self) -> u64 {
        self.slots.iter().map(|s| s.cost).sum()
    }

    /// Mean slot utility over the run.
    pub fn avg_utility(&self) -> f64 {
        mean(self.slots.iter().map(|s| s.utility))
    }

    /// Mean success probability over every request of the run.
    pub fn avg_success(&self) -> f64 {
        let probs = self.all_success_probs();
        if probs.is_empty() {
            0.0
        } else {
            probs.iter().sum::<f64>() / probs.len() as f64
        }
    }

    /// Fraction of realized EC successes over all requests (only
    /// meaningful when outcome realization was enabled).
    pub fn realized_success_rate(&self) -> Option<f64> {
        let mut successes = 0usize;
        let mut total = 0usize;
        for s in &self.slots {
            successes += s.realized_successes?;
            total += s.requests;
        }
        if total == 0 {
            Some(0.0)
        } else {
            Some(successes as f64 / total as f64)
        }
    }

    /// Every per-request success probability of the run (Fig. 4's
    /// distribution).
    pub fn all_success_probs(&self) -> Vec<f64> {
        self.slots
            .iter()
            .flat_map(|s| s.success_probs.iter().copied())
            .collect()
    }

    /// Jain's fairness index over the per-request success probabilities:
    /// `(Σx)² / (n·Σx²)`; 1.0 = perfectly even.
    pub fn jain_fairness(&self) -> f64 {
        let probs = self.all_success_probs();
        if probs.is_empty() {
            return 1.0;
        }
        let sum: f64 = probs.iter().sum();
        let sum_sq: f64 = probs.iter().map(|p| p * p).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (probs.len() as f64 * sum_sq)
        }
    }

    /// The virtual-queue series (empty entries skipped).
    pub fn queue_series(&self) -> Vec<f64> {
        self.slots.iter().filter_map(|s| s.virtual_queue).collect()
    }

    /// Total number of requests over the run.
    pub fn total_requests(&self) -> usize {
        self.slots.iter().map(|s| s.requests).sum()
    }

    /// Total unserved requests over the run.
    pub fn total_unserved(&self) -> usize {
        self.slots.iter().map(|s| s.requests - s.served).sum()
    }

    /// Extracts one [`RecoveryRecord`] per failure event (a slot whose
    /// churn diagnostics report newly failed links).
    ///
    /// `window` is the number of pre-cut slots averaged into the
    /// recovery target; `tolerance` is the relative band — the run has
    /// recovered at the first slot `t ≥ cut` with
    /// `utility(t) ≥ pre − tolerance·|pre|` (utilities are
    /// log-probability sums, so ≤ 0). Cuts in slot 0 have no baseline
    /// and are skipped; `recovery_slots` is `None` when the run ends
    /// below the band.
    pub fn recovery_records(&self, window: usize, tolerance: f64) -> Vec<RecoveryRecord> {
        let window = window.max(1);
        let mut out = Vec::new();
        for (i, s) in self.slots.iter().enumerate() {
            let Some(churn) = s.churn.filter(|c| c.failed_edges > 0) else {
                continue;
            };
            if i == 0 {
                continue; // no pre-cut baseline to recover to
            }
            let lo = i.saturating_sub(window);
            let pre = mean(self.slots[lo..i].iter().map(|s| s.utility));
            let floor = pre - tolerance * pre.abs();
            let recovery_slots = self.slots[i..]
                .iter()
                .position(|s| s.utility >= floor)
                .map(|d| d as u64);
            out.push(RecoveryRecord {
                cut_slot: s.t,
                failed_edges: churn.failed_edges,
                affected_pairs: churn.affected_pairs,
                pre_cut_utility: pre,
                recovery_slots,
            });
        }
        out
    }

    /// Mean recovery time in slots over the events of
    /// [`RunMetrics::recovery_records`] that did recover; `None` when no
    /// event recovered (or none occurred).
    pub fn mean_recovery_slots(&self, window: usize, tolerance: f64) -> Option<f64> {
        let recovered: Vec<u64> = self
            .recovery_records(window, tolerance)
            .iter()
            .filter_map(|r| r.recovery_slots)
            .collect();
        if recovered.is_empty() {
            None
        } else {
            Some(recovered.iter().sum::<u64>() as f64 / recovered.len() as f64)
        }
    }
}

fn running_mean<I: Iterator<Item = f64>>(values: I) -> Vec<f64> {
    let mut out = Vec::new();
    let mut sum = 0.0;
    for (i, v) in values.enumerate() {
        sum += v;
        out.push(sum / (i + 1) as f64);
    }
    out
}

fn mean<I: Iterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: u64, utility: f64, cost: u64, probs: Vec<f64>) -> SlotRecord {
        SlotRecord {
            t,
            requests: probs.len(),
            served: probs.iter().filter(|&&p| p > 0.0).count(),
            utility,
            cost,
            success_probs: probs,
            realized_successes: None,
            virtual_queue: Some(t as f64),
            churn: None,
        }
    }

    fn cut_record(t: u64, utility: f64, failed: u32) -> SlotRecord {
        SlotRecord {
            churn: Some(ChurnDiagnostics {
                failed_edges: failed,
                affected_pairs: failed,
                ..ChurnDiagnostics::default()
            }),
            ..record(t, utility, 0, vec![])
        }
    }

    fn sample_run() -> RunMetrics {
        let mut m = RunMetrics::new("test");
        m.push(record(0, -1.0, 10, vec![0.9, 0.8]));
        m.push(record(1, -3.0, 20, vec![0.5]));
        m
    }

    #[test]
    fn running_series() {
        let m = sample_run();
        assert_eq!(m.running_avg_utility(), vec![-1.0, -2.0]);
        let s = m.running_avg_success();
        assert!((s[0] - 0.85).abs() < 1e-12);
        assert!((s[1] - (0.9 + 0.8 + 0.5) / 3.0).abs() < 1e-12);
        assert_eq!(m.cumulative_cost(), vec![10, 30]);
    }

    #[test]
    fn aggregates() {
        let m = sample_run();
        assert_eq!(m.total_cost(), 30);
        assert!((m.avg_utility() + 2.0).abs() < 1e-12);
        assert!((m.avg_success() - 2.2 / 3.0).abs() < 1e-12);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_unserved(), 0);
    }

    #[test]
    fn fairness_index() {
        let mut even = RunMetrics::new("even");
        even.push(record(0, 0.0, 0, vec![0.7, 0.7, 0.7]));
        assert!((even.jain_fairness() - 1.0).abs() < 1e-12);

        let mut uneven = RunMetrics::new("uneven");
        uneven.push(record(0, 0.0, 0, vec![1.0, 0.0, 0.0]));
        assert!((uneven.jain_fairness() - 1.0 / 3.0).abs() < 1e-12);

        assert_eq!(RunMetrics::new("empty").jain_fairness(), 1.0);
    }

    #[test]
    fn realized_rate() {
        let mut m = RunMetrics::new("r");
        m.push(SlotRecord {
            realized_successes: Some(1),
            ..record(0, 0.0, 0, vec![0.9, 0.9])
        });
        assert_eq!(m.realized_success_rate(), Some(0.5));

        let no_realization = sample_run();
        assert_eq!(no_realization.realized_success_rate(), None);
    }

    #[test]
    fn queue_series_collected() {
        let m = sample_run();
        assert_eq!(m.queue_series(), vec![0.0, 1.0]);
    }

    #[test]
    fn recovery_records_measure_slots_to_regain_utility() {
        let mut m = RunMetrics::new("r");
        // Steady state at -2, a cut at t=3 dropping utility to -6, then
        // recovery over two slots.
        m.push(record(0, -2.0, 0, vec![]));
        m.push(record(1, -2.0, 0, vec![]));
        m.push(record(2, -2.0, 0, vec![]));
        m.push(cut_record(3, -6.0, 1));
        m.push(record(4, -4.0, 0, vec![]));
        m.push(record(5, -2.05, 0, vec![]));
        let recs = m.recovery_records(3, 0.05);
        assert_eq!(recs.len(), 1);
        let r = recs[0];
        assert_eq!(r.cut_slot, 3);
        assert_eq!(r.failed_edges, 1);
        assert!((r.pre_cut_utility + 2.0).abs() < 1e-12);
        // Band floor is -2.1; regained at t=5, two slots after the cut.
        assert_eq!(r.recovery_slots, Some(2));
        assert_eq!(m.mean_recovery_slots(3, 0.05), Some(2.0));
    }

    #[test]
    fn recovery_records_edge_cases() {
        // A run that never recovers reports None; a cut at slot 0 has no
        // baseline and is skipped; cut-free runs produce no records.
        let mut never = RunMetrics::new("n");
        never.push(cut_record(0, -1.0, 2));
        never.push(record(1, -1.0, 0, vec![]));
        never.push(cut_record(2, -9.0, 2));
        never.push(record(3, -9.0, 0, vec![]));
        let recs = never.recovery_records(2, 0.05);
        assert_eq!(recs.len(), 1, "slot-0 cut skipped, slot-2 cut kept");
        assert_eq!(recs[0].cut_slot, 2);
        assert_eq!(recs[0].recovery_slots, None);
        assert_eq!(never.mean_recovery_slots(2, 0.05), None);

        assert!(sample_run().recovery_records(2, 0.05).is_empty());

        // A cut whose slot never left the band recovers in 0 slots.
        let mut instant = RunMetrics::new("i");
        instant.push(record(0, -2.0, 0, vec![]));
        instant.push(cut_record(1, -2.0, 1));
        let recs = instant.recovery_records(4, 0.05);
        assert_eq!(recs[0].recovery_slots, Some(0));
    }

    #[test]
    fn deleted_record_keys_are_rejected() {
        let slot = serde_json::to_string(&cut_record(3, -6.0, 1)).unwrap();
        assert_eq!(
            serde_json::from_str::<SlotRecord>(&slot).unwrap(),
            cut_record(3, -6.0, 1)
        );
        let stale = format!("{},\"outage_class\":null}}", &slot[..slot.len() - 1]);
        let err = serde_json::from_str::<SlotRecord>(&stale).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown field `outage_class`"),
            "{err}"
        );

        let mut m = RunMetrics::new("r");
        m.push(record(0, -2.0, 0, vec![]));
        m.push(cut_record(1, -4.0, 1));
        let rec = serde_json::to_string(&m.recovery_records(2, 0.05)[0]).unwrap();
        let stale = format!("{},\"class\":\"Link\"}}", &rec[..rec.len() - 1]);
        let err = serde_json::from_str::<RecoveryRecord>(&stale).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown field `class`"),
            "{err}"
        );
    }

    #[test]
    fn empty_run_defaults() {
        let m = RunMetrics::new("empty");
        assert_eq!(m.avg_utility(), 0.0);
        assert_eq!(m.avg_success(), 0.0);
        assert!(m.running_avg_success().is_empty());
        assert_eq!(m.total_cost(), 0);
    }
}
