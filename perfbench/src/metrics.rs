//! The metric registry: every name the benchmark may emit, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same names; the
//! self-test keeps the two in step.

use std::collections::BTreeMap;

use serde_json::{Map, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("search_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("slo_qps", "1/s", Higher, 0.25),
    e2e("deadline_met_pct", "%", Higher, 0.1),
    e2e("exact_pct", "%", Higher, 0.1),
];

/// Metrics of a traced run (`--trace 1`). A layer the workload never calls
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.generate_s", "s", Lower),
    layer("workload.build_s", "s", Lower),
    layer("engine.prepare_s", "s", Lower),
    layer("engine.spmm_us", "us", Lower),
    layer("engine.sddmm_us", "us", Lower),
    layer("engine.gemm_us", "us", Lower),
    layer("engine.class_replays", "count", Lower),
    layer("evaluate.cold_us", "us", Lower),
    layer("evaluate.compose_us", "us", Lower),
    layer("evaluate.phase_reuse_ratio", "ratio", Higher),
    layer("dse.explore_s", "s", Lower),
    layer("dse.explore_1t_s", "s", Lower),
    layer("dse.evaluated", "count", Lower),
    layer("dse.pruned", "count", Higher),
    layer("dse.phase_sims", "count", Lower),
    layer("dse.phase_cache_hits", "count", Higher),
    layer("dse.prune_ratio", "ratio", Higher),
    layer("model.layer_search_s", "s", Lower),
    layer("model.chain_s", "s", Lower),
    layer("model.evaluate_mapping_us", "us", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.workload_us", "us", Lower),
    layer("serve.lookup_us", "us", Lower),
    layer("serve.search_ms", "ms", Lower),
    layer("serve.encode_us", "us", Lower),
    layer("serve.handle_us", "us", Lower),
    layer("serve.wire_us", "us", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("serve.hit", "count", Higher),
    layer("serve.search", "count", Lower),
    layer("serve.coalesced", "count", Higher),
    layer("serve.warm", "count", Lower),
    layer("serve.preset", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("loadgen.late_ms", "ms", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_s", "s", Lower),
];

/// The registry of one run mode.
pub fn registry(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric values of one run, checked against the mode's registry: an
/// unknown name, a non-finite value or a missing metric fails [`Self::finish`].
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
}

impl Metrics {
    pub fn new(traced: bool) -> Self {
        Metrics {
            defs: registry(traced),
            values: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Records `name`; names outside the registry are rejected at finish.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.defs.iter().find(|d| d.name == name) {
            None => self.errors.push(format!("unknown metric `{name}`")),
            Some(_) if !value.is_finite() => self
                .errors
                .push(format!("metric `{name}` is not finite ({value})")),
            Some(def) => {
                self.values.insert(def.name, value);
            }
        }
    }

    /// Sets every registered metric not yet set to 0: for per-layer metrics
    /// of layers the workload never calls.
    pub fn zero_rest(&mut self) {
        for def in self.defs {
            self.values.entry(def.name).or_insert(0.0);
        }
    }

    /// The `metrics` object of the result line: `{name: {value, unit}}`.
    pub fn finish(&self) -> Result<Value, String> {
        let mut errors = self.errors.clone();
        errors.extend(
            self.defs
                .iter()
                .filter(|d| !self.values.contains_key(d.name))
                .map(|d| format!("metric `{}` was not measured", d.name)),
        );
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        let mut out = Map::new();
        for def in self.defs {
            let mut entry = Map::new();
            entry.insert("value".to_string(), number(self.values[def.name]));
            entry.insert("unit".to_string(), Value::String(def.unit.to_string()));
            out.insert(def.name.to_string(), Value::Object(entry));
        }
        Ok(Value::Object(out))
    }

    /// The measured metrics with their values, in registry order.
    pub fn rows(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .filter_map(|d| self.values.get(d.name).map(|&v| (d, v)))
            .collect()
    }
}

/// A JSON number.
pub fn number(x: f64) -> Value {
    serde_json::to_value(x).expect("a finite f64 always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let json = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}: metric count");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.label())
                );
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn every_metric_is_emitted_with_unit() {
        for traced in [false, true] {
            let mut m = Metrics::new(traced);
            for def in registry(traced) {
                m.set(def.name, 1.5);
            }
            let out = m.finish().expect("complete metric set");
            for def in registry(traced) {
                let entry = out.get(def.name).expect("emitted");
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(entry.get("value").and_then(Value::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn unknown_missing_and_non_finite_metrics_are_rejected() {
        let mut m = Metrics::new(false);
        m.zero_rest();
        m.set("latency_p42_ms", 1.0);
        assert!(m
            .finish()
            .unwrap_err()
            .contains("unknown metric `latency_p42_ms`"));

        let mut m = Metrics::new(false);
        m.set("setup_s", 1.0);
        assert!(m
            .finish()
            .unwrap_err()
            .contains("`search_s` was not measured"));

        let mut m = Metrics::new(true);
        m.zero_rest();
        m.set("serve.parse_us", f64::NAN);
        assert!(m.finish().is_err());

        // An end-to-end name is not a per-layer name, and vice versa.
        let mut m = Metrics::new(true);
        m.zero_rest();
        m.set("setup_s", 1.0);
        assert!(m.finish().is_err());
    }
}
