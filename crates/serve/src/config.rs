//! Daemon configuration.

use qdn_core::OscarConfig;
use qdn_net::dynamics::DynamicsConfig;
use qdn_net::NetworkConfig;
use serde::{Deserialize, Serialize};

/// Everything a daemon needs to reconstruct its world deterministically:
/// the topology draw, the resource dynamics, the OSCAR parameters, and
/// the master seed every per-slot RNG is derived from.
///
/// Two daemons started from equal configurations build bit-identical
/// networks and observe bit-identical capacity processes — which is what
/// lets [`crate::proto::ServeSnapshot`] omit both and still restore to a
/// state whose decisions match the uninterrupted run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Master seed: topology draw and all per-slot RNG derivation.
    pub seed: u64,
    /// Number of session shards (worker threads). SD pairs are mapped
    /// to shards by canonical source node, so a pair's warm state
    /// always lives on the same shard.
    pub shards: u32,
    /// Topology + capacity draw.
    pub network: NetworkConfig,
    /// Exogenous per-slot capacity process.
    pub dynamics: DynamicsConfig,
    /// Affects nothing: the daemon has no solve pool, and every shard
    /// decides on its own thread. Still **required** in the wire form (a
    /// deliberate loud serde break, see MIGRATION.md) and accepted at
    /// any value, so existing configs and struct literals keep working.
    /// Due for deletion together with `shards`.
    pub threads: usize,
    /// OSCAR parameters (`V`, `q0`, budget, horizon, selector,
    /// allocation, fidelity target). The budget is split evenly across
    /// shards: each shard runs its own virtual queue over
    /// `total_budget / shards`.
    pub oscar: OscarConfig,
}

impl ServeConfig {
    /// Paper-scale defaults: the §V-A network and OSCAR parameters,
    /// static dynamics, four shards, seed 7.
    pub fn paper_default() -> Self {
        ServeConfig {
            seed: 7,
            shards: 4,
            network: NetworkConfig::paper_default(),
            dynamics: DynamicsConfig::Static,
            threads: 0,
            oscar: OscarConfig::paper_default(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_field_is_required_in_wire_form() {
        // PR 10's deliberate loud break: a daemon config without
        // `threads` must be rejected, not silently defaulted.
        let wire = serde_json::to_string(&ServeConfig::paper_default()).unwrap();
        assert!(wire.contains("\"threads\":0"), "wire form: {wire}");
        let legacy = wire
            .replace("\"threads\":0,", "")
            .replace(",\"threads\":0", "");
        assert!(!legacy.contains("threads"));
        assert!(serde_json::from_str::<ServeConfig>(&legacy).is_err());
        let current = wire.replace("\"threads\":0", "\"threads\":2");
        let parsed: ServeConfig = serde_json::from_str(&current).unwrap();
        assert_eq!(parsed.threads, 2);
    }
}
