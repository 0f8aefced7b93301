//! The metric table and the result lines the benchmark prints.
//!
//! The JSON is written here rather than through `evcap_obs`, so a change to
//! the program's serializer cannot change how a measurement is printed.

use std::collections::BTreeMap;

/// One reported metric: its name and unit, exactly as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("req_per_s", "req/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Printed by traced runs (`--trace 1`), on every workload; a layer that
/// does no work on a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("serve.cpu_us_per_req", "us"),
    m("serve.req_parse_us", "us"),
    m("serve.req_canonicalize_us", "us"),
    m("serve.route_self_us", "us"),
    m("serve.transport_us", "us"),
    m("serve.solve_cache.hit_ratio", "fraction"),
    m("serve.sim_cache.hit_ratio", "fraction"),
    m("serve.artifact_cache.hit_ratio", "fraction"),
    m("serve.cache.evictions_per_kreq", "1/kreq"),
    m("serve.coalesced", "count"),
    m("serve.coalesce_timeouts", "count"),
    m("serve.metrics_json_us", "us"),
    m("serve.metrics_prom_us", "us"),
    m("store.load_us", "us"),
    m("store.tier.hit_ratio", "fraction"),
    m("store.rejects", "count"),
    m("store.append_ms", "ms"),
    m("spec.rehydrate_us", "us"),
    m("spec.table_us", "us"),
    m("spec.solve_ms.greedy", "ms"),
    m("spec.solve_ms.clustering", "ms"),
    m("spec.solve_ms.myopic", "ms"),
    m("dist.parse_us", "us"),
    m("audit.certify_us", "us"),
    m("core.clustering.search_ms", "ms"),
    m("core.clustering.candidates", "count"),
    m("core.clustering.candidates_cold", "count"),
    m("core.clustering.candidates_warm", "count"),
    m("core.clustering.us_per_candidate", "us"),
    m("core.clustering.warm_hit_ratio", "fraction"),
    m("sim.slots_per_cpu_s", "slots/s"),
    m("sim.phase.generate_ms", "ms"),
    m("sim.phase.recharge_ms", "ms"),
    m("sim.phase.decide_ms", "ms"),
    m("sim.phase.events_ms", "ms"),
    m("sim.parallel_efficiency", "fraction"),
    m("sim.short_run_us", "us"),
    m("obs.trace_overhead", "fraction"),
    m("obs.coverage", "fraction"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed, plus failed output checks.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the run mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Self-description printed on the line before the result, as
    /// `(key, JSON value)` pairs.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "`{name}` is not in the metric table"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_owned(), value.into().0));
    }

    /// The info line and the result line, in the order they are printed.
    /// Every end-to-end metric must have been set; per-layer metrics that
    /// were not set read 0.
    pub fn render(&self, trace: bool) -> (String, String) {
        let mut info = String::from("{\"type\":\"perfbench\"");
        for (k, v) in &self.info {
            info.push_str(&format!(",{}:{v}", quote(k)));
        }
        info.push('}');

        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let value = match self.metrics.get(m.name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric `{}` was not measured", m.name),
                };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(m.name),
                    number(value),
                    quote(m.unit)
                )
            })
            .collect();
        let result = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        (info, result)
    }
}

/// A rendered JSON value.
#[derive(Debug, Clone)]
pub struct Json(pub String);

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json(number(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json(v.to_string())
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json(quote(v))
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json(quote(&v))
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: &[(&str, Json)]) -> Json {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), v.0))
        .collect();
    Json(format!("{{{}}}", body.join(",")))
}

/// Every digit Rust's shortest round-trip formatting gives; a value that
/// is not finite (a percentile over failed requests) prints as `1e300`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_owned()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_obs::JsonValue;

    fn names_units(value: &JsonValue, list: &str) -> Vec<(String, String)> {
        let JsonValue::Object(root) = value else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some(JsonValue::Array(items)) = root.get(list) else {
            panic!("BENCHMARK.json has no `{list}` list")
        };
        items
            .iter()
            .map(|item| {
                let JsonValue::Object(f) = item else {
                    panic!("`{list}` entry is not an object")
                };
                let text = |k: &str| match f.get(k) {
                    Some(JsonValue::String(s)) => s.clone(),
                    other => panic!("`{list}` entry field `{k}` is {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let parsed = evcap_obs::parse_line(text.trim()).expect("BENCHMARK.json parses");
        let table = |t: &[Metric]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        assert_eq!(names_units(&parsed, "end_to_end"), table(END_TO_END));
        assert_eq!(names_units(&parsed, "per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in END_TO_END {
            out.set(m.name, 1.5);
        }
        out.note("seed", 7u64);
        for trace in [false, true] {
            let (info, result) = out.render(trace);
            assert!(evcap_obs::parse_line(&info).is_ok(), "{info}");
            let Ok(JsonValue::Object(root)) = evcap_obs::parse_line(&result) else {
                panic!("result line is not a JSON object: {result}")
            };
            let mut keys: Vec<&str> = root.keys().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(JsonValue::Object(metrics)) = root.get("metrics") else {
                panic!("no metrics object")
            };
            let table = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), table.len());
            for m in table {
                let Some(JsonValue::Object(entry)) = metrics.get(m.name) else {
                    panic!("`{}` missing", m.name)
                };
                assert_eq!(
                    entry.get("unit"),
                    Some(&JsonValue::String(m.unit.to_owned()))
                );
                assert!(matches!(entry.get("value"), Some(JsonValue::Number(_))));
            }
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.123456789012345), "0.123456789012345");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::INFINITY), "1e300");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
