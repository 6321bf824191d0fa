//! The per-layer metrics of the traced run.
//!
//! Every name below is printed on every traced run. Counters and span
//! self times come from the `ccs-telemetry` registry over the traced
//! phase, divided by the phase's operations ("per op"); timings of public
//! layer functions come from the workload's probes. A layer that a
//! workload never reaches reads 0 there: that is the measurement.

use ccs_telemetry::RunReport;
use std::time::Instant;

/// Every per-layer metric, with its unit.
pub const LAYER_METRICS: [(&str, &str); 47] = [
    ("wrsn.generate_ms", "ms"),
    ("tables.build_ms", "ms"),
    ("tables.gather_hits", "count/op"),
    ("tables.gather_misses", "count/op"),
    ("tables.gather_hit_ratio", "ratio"),
    ("gathering.solve_us", "us"),
    ("cost.best_facility_us", "us"),
    ("ccsa.facility_evals", "count/op"),
    ("ccsa.facility_pruned", "count/op"),
    ("ccsa.facilities_skipped", "count/op"),
    ("ccsa.rounds", "count/op"),
    ("ccsa.greedy.self_ms", "ms/op"),
    ("ccsa.local_improvement.self_ms", "ms/op"),
    ("ccsa.ir_repair.self_ms", "ms/op"),
    ("coalition_run.self_ms", "ms/op"),
    ("coalition.rounds", "count/op"),
    ("coalition.switch_ops", "count/op"),
    ("coalition.switch_ops_attempted", "count/op"),
    ("coalition.preference_evals", "count/op"),
    ("coalition.probes_skipped", "count/op"),
    ("coalition.probes_partial", "count/op"),
    ("cache.hits", "count/op"),
    ("cache.misses", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("ccsga.scale_ir_violations", "count/op"),
    ("par.speedup", "x"),
    ("online.replans", "count/op"),
    ("online.commitments", "count/op"),
    ("online.degraded", "count/op"),
    ("online.refills", "count/op"),
    ("online.replan_ms", "ms"),
    ("online.served_requests", "count"),
    ("online.energy_per_served_kj", "kJ"),
    ("schedule.validate_us", "us"),
    ("schedule.serialize_us", "us"),
    ("serve.execute_us_hit", "us"),
    ("serve.execute_us_miss", "us"),
    ("serve.cache.plan_hits", "count/op"),
    ("serve.cache.scenario_hits", "count/op"),
    ("serve.jsonl_rtt_ms_p50", "ms"),
    ("gateway.http_rtt_ms_p50", "ms"),
    ("gateway.transport_ms", "ms"),
    ("gateway.batches", "count/op"),
    ("gateway.batch_items", "count/op"),
    ("telemetry.overhead_pct", "%"),
    ("run.ops_traced", "count"),
    ("run.op_ms_tail", "ms"),
];

/// Counters read per traced operation: `(metric, registry counter)`.
const COUNTERS: [(&str, &str); 20] = [
    ("tables.gather_hits", "tables.gather_hits"),
    ("tables.gather_misses", "tables.gather_misses"),
    ("ccsa.facility_evals", "ccsa.facility_evals"),
    ("ccsa.facility_pruned", "ccsa.facility_pruned"),
    ("ccsa.facilities_skipped", "ccsa.facilities_skipped"),
    ("ccsa.rounds", "ccsa.rounds"),
    ("coalition.rounds", "coalition.rounds"),
    ("coalition.switch_ops", "coalition.switch_ops"),
    (
        "coalition.switch_ops_attempted",
        "coalition.switch_ops_attempted",
    ),
    ("coalition.preference_evals", "coalition.preference_evals"),
    ("coalition.probes_skipped", "coalition.probes_skipped"),
    ("coalition.probes_partial", "coalition.probes_partial"),
    ("cache.hits", "cache.hits"),
    ("cache.misses", "cache.misses"),
    ("online.replans", "online.replans"),
    ("online.commitments", "online.commitments"),
    ("online.degraded", "online.degraded"),
    ("online.refills", "online.refills"),
    ("serve.cache.plan_hits", "serve.cache.plan_hits"),
    ("serve.cache.scenario_hits", "serve.cache.scenario_hits"),
];

/// Span self times read per traced operation: `(metric, span leaf)`.
const SELF_TIMES: [(&str, &str); 4] = [
    ("ccsa.greedy.self_ms", "greedy"),
    ("ccsa.local_improvement.self_ms", "local_improvement"),
    ("ccsa.ir_repair.self_ms", "ir_repair"),
    ("coalition_run.self_ms", "coalition_run"),
];

/// The per-layer values being filled in.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Layers {
    /// All metrics at zero.
    pub fn new() -> Self {
        Layers {
            values: LAYER_METRICS.iter().map(|&(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|v| v.0 == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        slot.1 = value;
    }

    /// Reads the registry's counters and span self times over `ops`
    /// traced operations.
    pub fn read_report(&mut self, report: &RunReport, ops: u64) {
        let ops = ops.max(1) as f64;
        for (metric, counter) in COUNTERS {
            self.set(metric, report.counter(counter) as f64 / ops);
        }
        for (metric, leaf) in SELF_TIMES {
            let ms: f64 = report
                .profile
                .iter()
                .filter(|row| row.name == leaf)
                .map(|row| row.self_ms)
                .sum();
            self.set(metric, ms / ops);
        }
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        self.set(
            "tables.gather_hit_ratio",
            ratio(
                report.counter("tables.gather_hits"),
                report.counter("tables.gather_misses"),
            ),
        );
        self.set(
            "cache.hit_ratio",
            ratio(report.counter("cache.hits"), report.counter("cache.misses")),
        );
        let (count, total_ms) = report
            .spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some("online.replan"))
            .fold((0u64, 0.0), |acc, (_, s)| {
                (acc.0 + s.count, acc.1 + s.total_ms)
            });
        if count > 0 {
            self.set("online.replan_ms", total_ms / count as f64);
        }
    }

    /// The metrics in print order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        self.values
    }
}

/// Median wall time of `f` over `reps` calls, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run prints exactly the per-layer metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn layer_metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let def: serde::value::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde::value::Value::Array(layers) = def.field("per_layer") else {
            panic!("per_layer is an array");
        };
        let declared: Vec<(String, String)> = layers
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (serde::value::Value::String(n), serde::value::Value::String(u)) => {
                    (n.clone(), u.clone())
                }
                _ => panic!("per_layer entry without name/unit"),
            })
            .collect();
        let ours: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }
}
