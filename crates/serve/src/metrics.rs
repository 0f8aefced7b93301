//! Server-wide counters and latency, rendered for `GET /metrics`.
//!
//! Everything is atomics plus two [`LatencyHistogram`]s, so the hot path
//! never takes a lock to record a request. `/metrics` renders one flat JSON
//! object (the same JSONL dialect every evcap tool emits), which the CI
//! smoke test and the e2e suite parse with [`evcap_obs::parse_line`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use evcap_obs::{JsonObject, LatencyHistogram};
use evcap_spec::Objective;

use crate::cache::{ShardSnapshot, StatsSnapshot};
use crate::prometheus;

/// A point-in-time view of the persistent artifact store (disk tier):
/// size gauges read under the store lock at render time. The hit/miss/
/// reject/append *counters* live in [`Metrics`] so the request path never
/// touches the lock just to count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Whether `--store` is configured at all.
    pub enabled: bool,
    /// Distinct scenario keys indexed on disk.
    pub entries: u64,
    /// Logical size of the record log in bytes.
    pub bytes: u64,
}

/// Atomic request/response counters plus latency histograms.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests: AtomicU64,
    solve_requests: AtomicU64,
    simulate_requests: AtomicU64,
    health_requests: AtomicU64,
    metrics_requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    connections: AtomicU64,
    timeouts: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_rejects: AtomicU64,
    store_appends: AtomicU64,
    /// Scenario-bearing requests by solve objective, indexed by
    /// [`Objective::index`]. Mixed-objective traffic shares every other
    /// counter (same endpoints, same caches), so this is the one place it
    /// stays distinguishable.
    objective_requests: [AtomicU64; 3],
    /// `/v1/solve` artifact fetches by outcome, indexed like [`SOLVE_FETCHES`].
    solve_fetches: [AtomicU64; 4],
    /// All requests, wire-to-wire.
    pub latency: LatencyHistogram,
    /// Artifact computes on either route: a certified store load or a fresh solve.
    pub solve_latency: LatencyHistogram,
}

/// Each `/v1/solve` fetch outcome (`x-evcap-cache` label) and its `/metrics`
/// field. A coalescing timeout counts in `coalesce_timeouts` instead.
const SOLVE_FETCHES: [(&str, &str); 4] = [
    ("hit", "solve_cache_hits"),
    ("miss", "solve_cache_misses"),
    ("coalesced", "solve_cache_coalesced"),
    ("failed", "solve_cache_failures"),
];

impl Metrics {
    /// Fresh metrics; `started` anchors the uptime field.
    pub fn new() -> Self {
        Self {
            started: Instant::now(), // deepcheck:allow(instant-now): uptime epoch for the /metrics endpoint
            requests: AtomicU64::new(0),
            solve_requests: AtomicU64::new(0),
            simulate_requests: AtomicU64::new(0),
            health_requests: AtomicU64::new(0),
            metrics_requests: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_rejects: AtomicU64::new(0),
            store_appends: AtomicU64::new(0),
            objective_requests: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            solve_fetches: Default::default(),
            latency: LatencyHistogram::new(),
            solve_latency: LatencyHistogram::new(),
        }
    }

    /// Records one disk-tier load served after passing certification.
    pub fn store_hit(&self) {
        self.store_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one disk-tier lookup that found no record.
    pub fn store_miss(&self) {
        self.store_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stored artifact refused (checksum, rehydration, or
    /// certification failure) and re-solved fresh.
    pub fn store_reject(&self) {
        self.store_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fresh solve written through to the disk tier.
    pub fn store_append(&self) {
        self.store_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one scenario-bearing request (`/v1/solve` or
    /// `/v1/simulate`) under its solve objective.
    pub fn objective_request(&self, objective: Objective) {
        // deepcheck:allow(panic-path): Objective::index() is a dense enum index; the array is sized to match
        self.objective_requests[objective.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `/v1/solve` artifact fetch under its cache label.
    pub fn solve_fetch(&self, label: &str) {
        let slot = SOLVE_FETCHES.iter().position(|(l, _)| *l == label);
        if let Some(counter) = slot.and_then(|i| self.solve_fetches.get(i)) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one accepted connection.
    pub fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one coalescing-wait timeout (a 503 was served).
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one routed request and its response status.
    pub fn request(&self, path: &str, status: u16, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let endpoint = match path {
            "/v1/solve" => Some(&self.solve_requests),
            "/v1/simulate" => Some(&self.simulate_requests),
            "/healthz" => Some(&self.health_requests),
            "/metrics" => Some(&self.metrics_requests),
            _ => None,
        };
        if let Some(counter) = endpoint {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.observe(elapsed);
    }

    /// Renders the `/metrics` body given each cache tier's counters: the
    /// simulate response cache, the artifact cache, and the persistent
    /// store tier's size gauges.
    pub fn render(
        &self,
        sim_cache: &StatsSnapshot,
        artifact_cache: &StatsSnapshot,
        store: &StoreSnapshot,
    ) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut obj = JsonObject::with_type("metrics");
        obj.field_f64("uptime_seconds", self.started.elapsed().as_secs_f64());
        obj.field_u64("connections", get(&self.connections));
        obj.field_u64("requests", get(&self.requests));
        obj.field_u64("solve_requests", get(&self.solve_requests));
        obj.field_u64("simulate_requests", get(&self.simulate_requests));
        obj.field_u64("health_requests", get(&self.health_requests));
        obj.field_u64("metrics_requests", get(&self.metrics_requests));
        obj.field_u64("responses_2xx", get(&self.responses_2xx));
        obj.field_u64("responses_4xx", get(&self.responses_4xx));
        obj.field_u64("responses_5xx", get(&self.responses_5xx));
        obj.field_u64("coalesce_timeouts", get(&self.timeouts));
        for (objective, counter) in Objective::ALL.iter().zip(&self.objective_requests) {
            let field = format!("objective_requests_{}", objective.name().replace('-', "_"));
            obj.field_u64(&field, get(counter));
        }

        for ((_, field), counter) in SOLVE_FETCHES.iter().zip(&self.solve_fetches) {
            obj.field_u64(field, get(counter));
        }
        obj.field_u64("sim_cache_hits", sim_cache.hits);
        obj.field_u64("sim_cache_misses", sim_cache.misses);
        obj.field_u64("sim_cache_coalesced", sim_cache.coalesced);
        obj.field_u64("sim_cache_evictions", sim_cache.evictions);
        obj.field_u64("artifact_cache_hits", artifact_cache.hits);
        obj.field_u64("artifact_cache_misses", artifact_cache.misses);
        obj.field_u64("artifact_cache_coalesced", artifact_cache.coalesced);
        obj.field_u64("artifact_cache_evictions", artifact_cache.evictions);
        obj.field_u64("artifact_cache_failures", artifact_cache.failures);

        obj.field_bool("store_enabled", store.enabled);
        obj.field_u64("store_hits", get(&self.store_hits));
        obj.field_u64("store_misses", get(&self.store_misses));
        obj.field_u64("store_rejects", get(&self.store_rejects));
        obj.field_u64("store_appends", get(&self.store_appends));
        obj.field_u64("store_entries", store.entries);
        obj.field_u64("store_bytes", store.bytes);

        obj.field_u64("latency_count", self.latency.count());
        obj.field_f64("latency_mean_us", self.latency.mean_ns() / 1e3);
        obj.field_f64(
            "latency_p50_us",
            self.latency.quantile_ns(0.50) as f64 / 1e3,
        );
        obj.field_f64(
            "latency_p99_us",
            self.latency.quantile_ns(0.99) as f64 / 1e3,
        );
        obj.field_u64("solve_compute_count", self.solve_latency.count());
        obj.field_f64("solve_compute_mean_us", self.solve_latency.mean_ns() / 1e3);
        obj.finish()
    }

    /// Renders the Prometheus text exposition (version 0.0.4) of the same
    /// counters, plus per-shard gauges for every cache tier. `tiers` pairs
    /// a tier name (`sim`, `artifact`) with its shard snapshots.
    pub fn render_prometheus(
        &self,
        tiers: &[(&str, Vec<ShardSnapshot>)],
        store: &StoreSnapshot,
    ) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let mut out = String::with_capacity(4096);

        prometheus::type_line(&mut out, "evcap_uptime_seconds", "gauge");
        prometheus::sample(
            &mut out,
            "evcap_uptime_seconds",
            self.started.elapsed().as_secs_f64(),
        );
        prometheus::type_line(&mut out, "evcap_connections_total", "counter");
        prometheus::sample(&mut out, "evcap_connections_total", get(&self.connections));
        prometheus::type_line(&mut out, "evcap_requests_total", "counter");
        prometheus::sample(&mut out, "evcap_requests_total", get(&self.requests));
        prometheus::type_line(&mut out, "evcap_endpoint_requests_total", "counter");
        for (endpoint, counter) in [
            ("solve", &self.solve_requests),
            ("simulate", &self.simulate_requests),
            ("healthz", &self.health_requests),
            ("metrics", &self.metrics_requests),
        ] {
            prometheus::sample_with(
                &mut out,
                "evcap_endpoint_requests_total",
                &[("endpoint", endpoint)],
                get(counter),
            );
        }
        prometheus::type_line(&mut out, "evcap_responses_total", "counter");
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            prometheus::sample_with(
                &mut out,
                "evcap_responses_total",
                &[("class", class)],
                get(counter),
            );
        }
        prometheus::type_line(&mut out, "evcap_coalesce_timeouts_total", "counter");
        prometheus::sample(
            &mut out,
            "evcap_coalesce_timeouts_total",
            get(&self.timeouts),
        );
        prometheus::type_line(&mut out, "evcap_objective_requests_total", "counter");
        for (objective, counter) in Objective::ALL.iter().zip(&self.objective_requests) {
            prometheus::sample_with(
                &mut out,
                "evcap_objective_requests_total",
                &[("objective", objective.name())],
                get(counter),
            );
        }

        for (metric, kind, read) in CACHE_SERIES {
            prometheus::type_line(&mut out, metric, kind);
            for (tier, shards) in tiers {
                for (index, shard) in shards.iter().enumerate() {
                    let shard_label = format!("{index}");
                    prometheus::sample_with(
                        &mut out,
                        metric,
                        &[("cache", tier), ("shard", shard_label.as_str())],
                        read(shard),
                    );
                }
            }
        }

        for (metric, counter) in [
            ("evcap_store_hits_total", &self.store_hits),
            ("evcap_store_misses_total", &self.store_misses),
            ("evcap_store_rejects_total", &self.store_rejects),
            ("evcap_store_appends_total", &self.store_appends),
        ] {
            prometheus::type_line(&mut out, metric, "counter");
            prometheus::sample(&mut out, metric, get(counter));
        }
        prometheus::type_line(&mut out, "evcap_store_enabled", "gauge");
        prometheus::sample(
            &mut out,
            "evcap_store_enabled",
            if store.enabled { 1.0 } else { 0.0 },
        );
        prometheus::type_line(&mut out, "evcap_store_entries", "gauge");
        prometheus::sample(&mut out, "evcap_store_entries", store.entries as f64);
        prometheus::type_line(&mut out, "evcap_store_bytes", "gauge");
        prometheus::sample(&mut out, "evcap_store_bytes", store.bytes as f64);

        prometheus::histogram(
            &mut out,
            "evcap_request_latency_seconds",
            &self.latency.cumulative_buckets(),
            self.latency.total_ns(),
            self.latency.count(),
        );
        prometheus::histogram(
            &mut out,
            "evcap_solve_compute_seconds",
            &self.solve_latency.cumulative_buckets(),
            self.solve_latency.total_ns(),
            self.solve_latency.count(),
        );
        out
    }
}

/// Reads one exported value out of a [`ShardSnapshot`].
type ShardField = fn(&ShardSnapshot) -> f64;

/// The per-shard cache series: metric name, Prometheus type, and the
/// field each reads from a [`ShardSnapshot`].
const CACHE_SERIES: [(&str, &str, ShardField); 6] = [
    ("evcap_cache_hits_total", "counter", |s| s.stats.hits as f64),
    ("evcap_cache_misses_total", "counter", |s| {
        s.stats.misses as f64
    }),
    ("evcap_cache_coalesced_total", "counter", |s| {
        s.stats.coalesced as f64
    }),
    ("evcap_cache_evictions_total", "counter", |s| {
        s.stats.evictions as f64
    }),
    ("evcap_cache_occupancy", "gauge", |s| s.occupancy as f64),
    ("evcap_cache_capacity", "gauge", |s| s.capacity as f64),
];

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_obs::{parse_line, JsonValue};

    #[test]
    fn render_round_trips_and_counts() {
        let m = Metrics::new();
        m.connection();
        m.request("/v1/solve", 200, Duration::from_micros(250));
        m.request("/v1/solve", 400, Duration::from_micros(50));
        m.request("/healthz", 200, Duration::from_micros(10));
        m.request("/nope", 404, Duration::from_micros(10));
        m.store_hit();
        m.store_miss();
        m.store_reject();
        m.store_reject();
        m.store_append();
        m.objective_request(Objective::Qom);
        m.objective_request(Objective::Qom);
        m.objective_request(Objective::AoiMean);
        let empty = StatsSnapshot::default();
        let store = StoreSnapshot {
            enabled: true,
            entries: 3,
            bytes: 4096,
        };
        let body = m.render(&empty, &empty, &store);
        let v = parse_line(&body).unwrap();
        let f = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("metrics"));
        assert_eq!(f("requests"), 4.0);
        assert_eq!(f("solve_requests"), 2.0);
        assert_eq!(f("health_requests"), 1.0);
        assert_eq!(f("responses_2xx"), 2.0);
        assert_eq!(f("responses_4xx"), 2.0);
        assert_eq!(f("connections"), 1.0);
        assert_eq!(f("latency_count"), 4.0);
        assert!(f("latency_p99_us") > 0.0);
        assert_eq!(f("store_hits"), 1.0);
        assert_eq!(f("store_misses"), 1.0);
        assert_eq!(f("store_rejects"), 2.0);
        assert_eq!(f("store_appends"), 1.0);
        assert_eq!(f("store_entries"), 3.0);
        assert_eq!(f("store_bytes"), 4096.0);
        assert_eq!(f("objective_requests_qom"), 2.0);
        assert_eq!(f("objective_requests_aoi_mean"), 1.0);
        assert_eq!(f("objective_requests_aoi_peak"), 0.0);
    }

    #[test]
    fn prometheus_render_round_trips_and_matches_json() {
        let m = Metrics::new();
        m.connection();
        m.request("/v1/solve", 200, Duration::from_micros(250));
        m.request("/healthz", 200, Duration::from_micros(10));
        let shard = ShardSnapshot {
            stats: StatsSnapshot {
                hits: 3,
                misses: 1,
                ..StatsSnapshot::default()
            },
            occupancy: 1,
            capacity: 16,
        };
        let tiers = vec![
            ("solve", vec![shard, ShardSnapshot::default()]),
            ("sim", vec![ShardSnapshot::default(); 2]),
        ];
        m.store_hit();
        m.store_reject();
        m.objective_request(Objective::AoiPeak);
        let store = StoreSnapshot {
            enabled: true,
            entries: 5,
            bytes: 2048,
        };
        let text = m.render_prometheus(&tiers, &store);
        let samples = prometheus::parse(&text).expect("renderer emits valid exposition");
        let f = |name: &str, labels: &[(&str, &str)]| {
            prometheus::find(&samples, name, labels).expect(name)
        };
        assert_eq!(f("evcap_requests_total", &[]), 2.0);
        assert_eq!(
            f("evcap_endpoint_requests_total", &[("endpoint", "solve")]),
            1.0
        );
        assert_eq!(f("evcap_responses_total", &[("class", "2xx")]), 2.0);
        assert_eq!(
            f(
                "evcap_cache_hits_total",
                &[("cache", "solve"), ("shard", "0")]
            ),
            3.0
        );
        assert_eq!(
            f(
                "evcap_cache_occupancy",
                &[("cache", "solve"), ("shard", "0")]
            ),
            1.0
        );
        assert_eq!(
            f("evcap_cache_capacity", &[("cache", "sim"), ("shard", "1")]),
            0.0
        );
        assert_eq!(f("evcap_request_latency_seconds_count", &[]), 2.0);
        assert_eq!(
            f("evcap_request_latency_seconds_bucket", &[("le", "+Inf")]),
            2.0
        );
        assert_eq!(
            f(
                "evcap_objective_requests_total",
                &[("objective", "aoi-peak")]
            ),
            1.0
        );
        assert_eq!(
            f("evcap_objective_requests_total", &[("objective", "qom")]),
            0.0
        );
        assert_eq!(f("evcap_store_hits_total", &[]), 1.0);
        assert_eq!(f("evcap_store_rejects_total", &[]), 1.0);
        assert_eq!(f("evcap_store_enabled", &[]), 1.0);
        assert_eq!(f("evcap_store_entries", &[]), 5.0);
        assert_eq!(f("evcap_store_bytes", &[]), 2048.0);
        // Consistency with the JSON body (same atomics, same instant).
        let empty = StatsSnapshot::default();
        let json = parse_line(&m.render(&empty, &empty, &store)).unwrap();
        assert_eq!(
            json.get("requests").and_then(JsonValue::as_f64),
            Some(f("evcap_requests_total", &[]))
        );
    }
}
