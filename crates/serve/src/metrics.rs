//! Server-wide counters and latency for `GET /metrics`, each series declared
//! once in `FAMILIES`, which [`Metrics::render`] (JSON) and
//! [`Metrics::render_prometheus`] (text format 0.0.4) each walk once. It also
//! owns the vocabularies a request resolves to once ([`Route`], [`Outcome`],
//! the objective tag, [`STAGES`]) for the counters, the flight recorder and
//! `/debug/recent`. Recording is relaxed atomic adds: no lock, no allocation.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use evcap_obs::{JsonObject, LatencyHistogram};
use evcap_spec::Objective;

use crate::cache::ShardSnapshot;
use crate::prometheus;
use Source::{Cache, Counter, Histogram, Store, StoreEnabled, Timeouts, Uptime};

/// The persistent store tier's size gauges, read under the store lock at
/// render time; its counters live in [`Metrics`], off the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Whether `--store` is configured at all.
    pub enabled: bool,
    /// Distinct scenario keys indexed on disk.
    pub entries: u64,
    /// Logical size of the record log in bytes.
    pub bytes: u64,
}

/// The routes the server answers, in flight-recorder tag order (`route as
/// u8`). Endpoint counters count a route whatever the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Solve,
    Simulate,
    Healthz,
    Metrics,
    Recent,
    /// Every other path, counted only in the request total.
    Other,
}

impl Route {
    /// Every route in tag order, with its path.
    const PATHS: [(Route, &'static str); 6] = [
        (Route::Solve, "/v1/solve"),
        (Route::Simulate, "/v1/simulate"),
        (Route::Healthz, "/healthz"),
        (Route::Metrics, "/metrics"),
        (Route::Recent, "/debug/recent"),
        (Route::Other, "other"),
    ];

    /// The route of `path`, a request target without its query.
    pub fn of(path: &str) -> Route {
        let found = Route::PATHS.iter().find(|(_, p)| *p == path);
        found.map_or(Route::Other, |&(route, _)| route)
    }

    /// The path of the route a flight-recorder tag names.
    pub fn path_of(tag: u8) -> &'static str {
        Route::PATHS.get(usize::from(tag)).map_or("other", |r| r.1)
    }
}

/// How a request's cache fetch ended, in flight-recorder tag order: its
/// `x-evcap-cache` header, `/debug/recent` cache and solve-fetch label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Hit,
    Miss,
    Coalesced,
    Failed,
    Timeout,
    /// The route has no cache (and sends no `x-evcap-cache` header).
    None,
}

impl Outcome {
    /// Every outcome's label, in tag order.
    const LABELS: [&'static str; 6] = ["hit", "miss", "coalesced", "failed", "timeout", "none"];

    /// The outcome's label.
    pub fn label(self) -> &'static str {
        Outcome::label_of(self as u8)
    }

    /// The label of the outcome a flight-recorder tag names.
    pub fn label_of(tag: u8) -> &'static str {
        Outcome::LABELS.get(usize::from(tag)).map_or("none", |l| l)
    }
}

/// A request's objective tag: 0 without a scenario, else its index + 1.
pub fn objective_tag(objective: Option<Objective>) -> u8 {
    objective.map_or(0, |o| o.index() as u8 + 1)
}

/// The label of an objective tag: the objective's name, or `none`.
pub fn objective_label(tag: u8) -> &'static str {
    let objective = usize::from(tag)
        .checked_sub(1)
        .and_then(Objective::from_index);
    objective.map_or("none", Objective::name)
}

/// The solve stages the flight recorder breaks out per request, in
/// `RequestSample::stage_us` order: span name and `/debug/recent` field.
pub const STAGES: [(&str, &str); 5] = [
    ("req.parse", "req_parse_us"),
    ("req.canonicalize", "req_canonicalize_us"),
    ("lp.solve", "lp_solve_us"),
    ("clustering.search", "clustering_search_us"),
    ("spec.table", "spec_table_us"),
];

/// Each cache tier's shard snapshots, indexed by [`SIM`] and [`ARTIFACT`].
pub type Caches = [Vec<ShardSnapshot>; 2];
/// The simulate response cache's index in [`Caches`].
pub const SIM: usize = 0;
/// The artifact cache's index in [`Caches`].
pub const ARTIFACT: usize = 1;

// Slots in `Metrics::counters`: single counters, then a run per vocabulary.
const CONNECTIONS: usize = 0;
const REQUESTS: usize = 1;
const STORE_HITS: usize = 2;
const STORE_MISSES: usize = 3;
const STORE_REJECTS: usize = 4;
const STORE_APPENDS: usize = 5;
const ENDPOINTS: usize = 6; // + `Route as usize`, every route but `Other`
const CLASSES: usize = ENDPOINTS + Route::Other as usize; // + 0 (2xx), 1 (4xx), 2 (the rest)
const OBJECTIVES: usize = CLASSES + 3; // + `Objective::index()`
const FETCHES: usize = OBJECTIVES + Objective::ALL.len(); // + `Outcome as usize`, `Hit` to `Failed`
const COUNTERS: usize = FETCHES + Outcome::Timeout as usize;

const REQUEST_LATENCY: usize = 0; // indices into `Metrics::histograms`
const SOLVE_COMPUTE: usize = 1;

/// Where a series reads its value: a float, as Prometheus and JSON readers
/// hold it, except `store.enabled`, which JSON spells as a boolean.
#[derive(Clone, Copy)]
enum Source {
    /// Seconds since the server started.
    Uptime,
    Counter(usize),
    /// A stat of a cache tier: summed in JSON, per shard in Prometheus.
    Cache(usize, fn(&ShardSnapshot) -> u64),
    /// Coalescing timeouts, which every cache shard counts itself.
    Timeouts,
    StoreEnabled,
    Store(fn(&StoreSnapshot) -> u64),
    /// A histogram reading; Prometheus writes the whole histogram instead.
    Histogram(usize, fn(&LatencyHistogram) -> f64),
}

/// A series: its JSON field, its label value and its source.
type Series = (&'static str, &'static str, Source);

/// Every `/metrics` series, declared once, in exposition order: each
/// Prometheus family's name, type and label name (empty for none), then each
/// of its series.
#[rustfmt::skip]
const FAMILIES: [(&str, &str, &str, &[Series]); 24] = [
    ("evcap_uptime_seconds", "gauge", "", &[("uptime_seconds", "", Uptime)]),
    ("evcap_connections_total", "counter", "", &[("connections", "", Counter(CONNECTIONS))]),
    ("evcap_requests_total", "counter", "", &[("requests", "", Counter(REQUESTS))]),
    ("evcap_endpoint_requests_total", "counter", "endpoint", &[
        ("solve_requests", "solve", Counter(ENDPOINTS + Route::Solve as usize)),
        ("simulate_requests", "simulate", Counter(ENDPOINTS + Route::Simulate as usize)),
        ("health_requests", "healthz", Counter(ENDPOINTS + Route::Healthz as usize)),
        ("metrics_requests", "metrics", Counter(ENDPOINTS + Route::Metrics as usize)),
        ("recent_requests", "recent", Counter(ENDPOINTS + Route::Recent as usize))]),
    ("evcap_responses_total", "counter", "class", &[
        ("responses_2xx", "2xx", Counter(CLASSES)),
        ("responses_4xx", "4xx", Counter(CLASSES + 1)),
        ("responses_5xx", "5xx", Counter(CLASSES + 2))]),
    ("evcap_coalesce_timeouts_total", "counter", "", &[("coalesce_timeouts", "", Timeouts)]),
    ("evcap_objective_requests_total", "counter", "objective", &[
        ("objective_requests_qom", "qom", Counter(OBJECTIVES + Objective::Qom.index())),
        ("objective_requests_aoi_mean", "aoi-mean", Counter(OBJECTIVES + Objective::AoiMean.index())),
        ("objective_requests_aoi_peak", "aoi-peak", Counter(OBJECTIVES + Objective::AoiPeak.index()))]),
    ("evcap_solve_fetches_total", "counter", "outcome", &[
        ("solve_cache_hits", "hit", Counter(FETCHES + Outcome::Hit as usize)),
        ("solve_cache_misses", "miss", Counter(FETCHES + Outcome::Miss as usize)),
        ("solve_cache_coalesced", "coalesced", Counter(FETCHES + Outcome::Coalesced as usize)),
        ("solve_cache_failures", "failed", Counter(FETCHES + Outcome::Failed as usize))]),
    ("evcap_cache_hits_total", "counter", "cache", &[
        ("sim_cache_hits", "sim", Cache(SIM, |s| s.stats.hits)),
        ("artifact_cache_hits", "artifact", Cache(ARTIFACT, |s| s.stats.hits))]),
    ("evcap_cache_misses_total", "counter", "cache", &[
        ("sim_cache_misses", "sim", Cache(SIM, |s| s.stats.misses)),
        ("artifact_cache_misses", "artifact", Cache(ARTIFACT, |s| s.stats.misses))]),
    ("evcap_cache_coalesced_total", "counter", "cache", &[
        ("sim_cache_coalesced", "sim", Cache(SIM, |s| s.stats.coalesced)),
        ("artifact_cache_coalesced", "artifact", Cache(ARTIFACT, |s| s.stats.coalesced))]),
    ("evcap_cache_evictions_total", "counter", "cache", &[
        ("sim_cache_evictions", "sim", Cache(SIM, |s| s.stats.evictions)),
        ("artifact_cache_evictions", "artifact", Cache(ARTIFACT, |s| s.stats.evictions))]),
    ("evcap_cache_failures_total", "counter", "cache", &[
        ("sim_cache_failures", "sim", Cache(SIM, |s| s.stats.failures)),
        ("artifact_cache_failures", "artifact", Cache(ARTIFACT, |s| s.stats.failures))]),
    ("evcap_cache_occupancy", "gauge", "cache", &[
        ("sim_cache_occupancy", "sim", Cache(SIM, |s| s.occupancy as u64)),
        ("artifact_cache_occupancy", "artifact", Cache(ARTIFACT, |s| s.occupancy as u64))]),
    ("evcap_cache_capacity", "gauge", "cache", &[
        ("sim_cache_capacity", "sim", Cache(SIM, |s| s.capacity as u64)),
        ("artifact_cache_capacity", "artifact", Cache(ARTIFACT, |s| s.capacity as u64))]),
    ("evcap_store_hits_total", "counter", "", &[("store_hits", "", Counter(STORE_HITS))]),
    ("evcap_store_misses_total", "counter", "", &[("store_misses", "", Counter(STORE_MISSES))]),
    ("evcap_store_rejects_total", "counter", "", &[("store_rejects", "", Counter(STORE_REJECTS))]),
    ("evcap_store_appends_total", "counter", "", &[("store_appends", "", Counter(STORE_APPENDS))]),
    ("evcap_store_enabled", "gauge", "", &[("store_enabled", "", StoreEnabled)]),
    ("evcap_store_entries", "gauge", "", &[("store_entries", "", Store(|s| s.entries))]),
    ("evcap_store_bytes", "gauge", "", &[("store_bytes", "", Store(|s| s.bytes))]),
    ("evcap_request_latency_seconds", "histogram", "", &[
        ("latency_count", "", Histogram(REQUEST_LATENCY, |h| h.count() as f64)),
        ("latency_mean_us", "", Histogram(REQUEST_LATENCY, |h| h.mean_ns() / 1e3)),
        ("latency_p50_us", "", Histogram(REQUEST_LATENCY, |h| h.quantile_ns(0.50) as f64 / 1e3)),
        ("latency_p99_us", "", Histogram(REQUEST_LATENCY, |h| h.quantile_ns(0.99) as f64 / 1e3))]),
    ("evcap_solve_compute_seconds", "histogram", "", &[
        ("solve_compute_count", "", Histogram(SOLVE_COMPUTE, |h| h.count() as f64)),
        ("solve_compute_mean_us", "", Histogram(SOLVE_COMPUTE, |h| h.mean_ns() / 1e3))]),
];

/// Atomic counters, one slot per counted series, and latency histograms.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    counters: [AtomicU64; COUNTERS],
    /// Requests wire to wire; artifact computes (store load or fresh solve).
    histograms: [LatencyHistogram; 2],
}

impl Metrics {
    /// Fresh metrics; `started` anchors the uptime series.
    pub fn new() -> Self {
        Self {
            started: Instant::now(), // deepcheck:allow(instant-now): uptime epoch for the /metrics endpoint
            counters: [const { AtomicU64::new(0) }; COUNTERS],
            histograms: [const { LatencyHistogram::new() }; 2],
        }
    }

    fn bump(&self, slot: usize) {
        if let Some(counter) = self.counters.get(slot) {
            counter.fetch_add(1, Relaxed);
        }
    }

    /// Records one disk-tier load served after passing certification.
    pub fn store_hit(&self) {
        self.bump(STORE_HITS);
    }

    /// Records one disk-tier lookup that found no record.
    pub fn store_miss(&self) {
        self.bump(STORE_MISSES);
    }

    /// Records one stored artifact refused (corrupt or uncertified) and re-solved.
    pub fn store_reject(&self) {
        self.bump(STORE_REJECTS);
    }

    /// Records one fresh solve written through to the disk tier.
    pub fn store_append(&self) {
        self.bump(STORE_APPENDS);
    }

    /// Records one scenario-bearing request under its solve objective, the one
    /// counter that tells mixed-objective traffic apart.
    pub fn objective_request(&self, objective: Objective) {
        self.bump(OBJECTIVES + objective.index());
    }

    /// Records one `/v1/solve` artifact fetch; its cache shard counts a timeout.
    pub fn solve_fetch(&self, outcome: Outcome) {
        if (outcome as usize) < Outcome::Timeout as usize {
            self.bump(FETCHES + outcome as usize);
        }
    }

    /// Records one artifact compute: a certified store load or a fresh solve.
    pub fn solve_compute(&self, elapsed: Duration) {
        let [_, compute] = &self.histograms;
        compute.observe(elapsed);
    }

    /// Records one accepted connection.
    pub fn connection(&self) {
        self.bump(CONNECTIONS);
    }

    /// Records one routed request, its response status and its latency.
    pub fn request(&self, route: Route, status: u16, elapsed: Duration) {
        self.bump(REQUESTS);
        if route != Route::Other {
            self.bump(ENDPOINTS + route as usize);
        }
        self.bump(match status {
            200..=299 => CLASSES,
            400..=499 => CLASSES + 1,
            _ => CLASSES + 2,
        });
        let [latency, _] = &self.histograms;
        latency.observe(elapsed);
    }

    /// Reads one series; a cache stat is summed over the tier's shards.
    fn read(&self, source: Source, caches: &Caches, store: &StoreSnapshot) -> f64 {
        let value = match source {
            Uptime => return self.started.elapsed().as_secs_f64(),
            Counter(slot) => self.counters.get(slot).map_or(0, |c| c.load(Relaxed)),
            Cache(tier, stat) => caches.get(tier).into_iter().flatten().map(stat).sum(),
            Timeouts => caches.iter().flatten().map(|s| s.stats.timeouts).sum(),
            StoreEnabled => u64::from(store.enabled),
            Store(gauge) => gauge(store),
            Histogram(index, reading) => return self.histograms.get(index).map_or(0.0, reading),
        };
        value as f64
    }

    /// Renders the JSON `/metrics` body: one field per series of `FAMILIES`.
    pub fn render(&self, caches: &Caches, store: &StoreSnapshot) -> String {
        let mut obj = JsonObject::with_type("metrics");
        for &(json, _, source) in FAMILIES.iter().flat_map(|family| family.3) {
            match source {
                StoreEnabled => obj.field_bool(json, store.enabled),
                source => obj.field_f64(json, self.read(source, caches, store)),
            };
        }
        obj.finish()
    }

    /// Renders the same series in the Prometheus text format, 0.0.4.
    pub fn render_prometheus(&self, caches: &Caches, store: &StoreSnapshot) -> String {
        let mut out = String::with_capacity(8192);
        let mut shard = String::new();
        for &(family, kind, name, series) in &FAMILIES {
            prometheus::type_line(&mut out, family, kind);
            let label = |value| (!name.is_empty()).then_some((name, value));
            for &(_, value, source) in series {
                match source {
                    Histogram(index, _) => {
                        if let Some(h) = self.histograms.get(index) {
                            let buckets = h.cumulative_buckets();
                            prometheus::histogram(&mut out, family, &buckets, h.total_ns());
                        }
                        break;
                    }
                    Cache(tier, stat) => {
                        for (i, snapshot) in caches.get(tier).into_iter().flatten().enumerate() {
                            shard.clear();
                            let _ = write!(shard, "{i}");
                            let labels = label(value).into_iter().chain([("shard", &*shard)]);
                            prometheus::sample(&mut out, family, labels, stat(snapshot) as f64);
                        }
                    }
                    source => {
                        let v = self.read(source, caches, store);
                        prometheus::sample(&mut out, family, label(value), v);
                    }
                }
            }
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StatsSnapshot;
    use evcap_obs::{parse_line, JsonValue};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn render_round_trips_and_counts() {
        let m = Metrics::new();
        m.connection();
        m.request(Route::of("/v1/solve"), 200, Duration::from_micros(250));
        m.request(Route::of("/v1/solve"), 400, Duration::from_micros(50));
        m.request(Route::of("/healthz"), 200, Duration::from_micros(10));
        m.request(Route::of("/nope"), 404, Duration::from_micros(10));
        m.store_hit();
        m.store_miss();
        m.store_reject();
        m.store_reject();
        m.store_append();
        m.objective_request(Objective::Qom);
        m.objective_request(Objective::Qom);
        m.objective_request(Objective::AoiMean);
        let store = StoreSnapshot {
            enabled: true,
            entries: 3,
            bytes: 4096,
        };
        let body = m.render(&Caches::default(), &store);
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

    /// The contract between the two encodings: every series of `FAMILIES`
    /// appears in both with the same value (per shard for a cache series),
    /// every counter slot backs exactly one series, and neither body carries
    /// anything the table does not declare.
    #[test]
    fn every_series_appears_in_both_encodings_with_equal_values() {
        let m = Metrics::new();
        m.connection();
        m.request(Route::Solve, 200, Duration::from_micros(250));
        m.request(Route::Healthz, 200, Duration::from_micros(10));
        m.store_hit();
        m.store_reject();
        m.objective_request(Objective::AoiPeak);
        m.solve_compute(Duration::from_millis(2));
        let outcomes = [
            Outcome::Hit,
            Outcome::Miss,
            Outcome::Coalesced,
            Outcome::Failed,
        ];
        for (n, outcome) in outcomes.into_iter().chain([Outcome::Timeout]).enumerate() {
            (0..=n).for_each(|_| m.solve_fetch(outcome));
        }
        let shard = ShardSnapshot {
            stats: StatsSnapshot {
                hits: 3,
                misses: 1,
                failures: 2,
                timeouts: 4,
                ..StatsSnapshot::default()
            },
            occupancy: 1,
            capacity: 16,
        };
        let caches: Caches = [
            vec![shard, ShardSnapshot::default()],
            vec![ShardSnapshot::default(), shard, shard],
        ];
        let store = StoreSnapshot {
            enabled: true,
            entries: 5,
            bytes: 2048,
        };
        let json = parse_line(&m.render(&caches, &store)).unwrap();
        let text = m.render_prometheus(&caches, &store);
        let samples = prometheus::parse(&text).expect("renderer emits valid exposition");
        let f = |name: &str, labels: &[(&str, &str)]| {
            prometheus::find(&samples, name, labels)
                .unwrap_or_else(|| panic!("no sample {name}{labels:?}"))
        };

        let mut fields = 1; // `type`
        let mut slots = Vec::new();
        for &(family, kind, label, series) in &FAMILIES {
            assert!(
                text.contains(&format!("# TYPE {family} {kind}\n")),
                "{family}"
            );
            for &(field, value, source) in series {
                fields += 1;
                let in_json = match json.get(field) {
                    Some(JsonValue::Bool(flag)) => f64::from(u8::from(*flag)),
                    other => other.and_then(JsonValue::as_f64).expect(field),
                };
                let labels: Vec<_> = (!label.is_empty())
                    .then_some((label, value))
                    .into_iter()
                    .collect();
                match source {
                    Uptime => assert!(f(family, &labels) >= in_json, "{field}"),
                    Cache(tier, stat) => {
                        let mut sum = 0.0;
                        for (i, snapshot) in caches[tier].iter().enumerate() {
                            let i = i.to_string();
                            let labels = [labels[0], ("shard", &i)];
                            assert_eq!(f(family, &labels), stat(snapshot) as f64, "{labels:?}");
                            sum += stat(snapshot) as f64;
                        }
                        assert_eq!(in_json, sum, "{field}");
                    }
                    Histogram(index, reading) => {
                        let h = &m.histograms[index];
                        assert_eq!(in_json, reading(h), "{field}");
                        let count = h.count() as f64;
                        assert_eq!(f(&format!("{family}_count"), &[]), count);
                        assert_eq!(f(&format!("{family}_bucket"), &[("le", "+Inf")]), count);
                        assert_eq!(f(&format!("{family}_sum"), &[]), h.total_ns() as f64 / 1e9);
                    }
                    Counter(slot) => {
                        slots.push(slot);
                        assert_eq!(f(family, &labels), in_json, "{field}");
                    }
                    _ => assert_eq!(f(family, &labels), in_json, "{field}"),
                }
            }
        }
        let JsonValue::Object(body) = &json else {
            panic!("JSON body is not an object")
        };
        assert_eq!(body.len(), fields, "JSON carries only the table's series");
        let families: Vec<&str> = FAMILIES.iter().map(|family| family.0).collect();
        for sample in &samples {
            let name = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| sample.name.strip_suffix(suffix))
                .filter(|name| families.contains(name))
                .unwrap_or(&sample.name);
            assert!(
                families.contains(&name),
                "undeclared series {}",
                sample.name
            );
        }
        slots.sort_unstable();
        assert_eq!(slots, (0..COUNTERS).collect::<Vec<_>>());

        // Each vocabulary index lands on the series that carries its label.
        for (n, outcome) in outcomes.into_iter().enumerate() {
            let labels = [("outcome", outcome.label())];
            assert_eq!(f("evcap_solve_fetches_total", &labels), n as f64 + 1.0);
        }
        for objective in Objective::ALL {
            let labels = [("objective", objective.name())];
            let expected = f64::from(u8::from(objective == Objective::AoiPeak));
            assert_eq!(f("evcap_objective_requests_total", &labels), expected);
        }
        // Timeouts are the caches' own count, not the solve route's.
        assert_eq!(f("evcap_coalesce_timeouts_total", &[]), 12.0);

        assert_eq!(f("evcap_requests_total", &[]), 2.0);
        assert_eq!(
            f("evcap_endpoint_requests_total", &[("endpoint", "solve")]),
            1.0
        );
        assert_eq!(f("evcap_responses_total", &[("class", "2xx")]), 2.0);
        assert_eq!(
            f(
                "evcap_cache_hits_total",
                &[("cache", "sim"), ("shard", "0")]
            ),
            3.0
        );
        assert_eq!(
            f("evcap_cache_occupancy", &[("cache", "sim"), ("shard", "0")]),
            1.0
        );
        assert_eq!(
            f(
                "evcap_cache_capacity",
                &[("cache", "artifact"), ("shard", "0")]
            ),
            0.0
        );
        assert_eq!(f("evcap_request_latency_seconds_count", &[]), 2.0);
        assert_eq!(
            f("evcap_request_latency_seconds_bucket", &[("le", "+Inf")]),
            2.0
        );
        assert_eq!(f("evcap_store_hits_total", &[]), 1.0);
        assert_eq!(f("evcap_store_rejects_total", &[]), 1.0);
        assert_eq!(f("evcap_store_enabled", &[]), 1.0);
        assert_eq!(f("evcap_store_entries", &[]), 5.0);
        assert_eq!(f("evcap_store_bytes", &[]), 2048.0);
        assert_eq!(json.get("store_enabled"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            json.get("requests").and_then(JsonValue::as_f64),
            Some(f("evcap_requests_total", &[]))
        );
    }

    #[test]
    fn vocabularies_round_trip_through_their_tags() {
        for (tag, &(route, path)) in Route::PATHS.iter().enumerate() {
            assert_eq!(route as usize, tag);
            assert_eq!((Route::of(path), Route::path_of(tag as u8)), (route, path));
        }
        let fetches: [crate::cache::Fetch<(), ()>; 5] = [
            crate::cache::Fetch::Hit(()),
            crate::cache::Fetch::Computed(()),
            crate::cache::Fetch::Coalesced(()),
            crate::cache::Fetch::Failed(()),
            crate::cache::Fetch::TimedOut,
        ];
        for (tag, fetch) in fetches.iter().enumerate() {
            assert_eq!(fetch.outcome() as usize, tag);
            assert_eq!(Outcome::label_of(tag as u8), fetch.label());
        }
        assert_eq!(Outcome::None.label(), "none");
        assert_eq!(objective_label(objective_tag(None)), "none");
        for objective in Objective::ALL {
            assert_eq!(
                objective_label(objective_tag(Some(objective))),
                objective.name()
            );
        }
        // `/debug/recent` names each stage field after its span.
        for (span, field) in STAGES {
            assert_eq!(field, format!("{}_us", span.replace('.', "_")));
        }
    }

    /// A scrape racing requests must not see a bucket ahead of `_count`:
    /// `+Inf` and `_count` come from the same bucket snapshot as the `le`
    /// series.
    #[test]
    fn histogram_scrapes_stay_monotone_while_requests_land() {
        let m = Metrics::new();
        let (caches, store) = (Caches::default(), StoreSnapshot::default());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut i = 0u32;
                    while !done.load(Relaxed) {
                        m.request(Route::Solve, 200, Duration::from_nanos(1 << (i % 24)));
                        i = i.wrapping_add(1);
                    }
                });
            }
            for _ in 0..2_000 {
                let samples = prometheus::parse(&m.render_prometheus(&caches, &store)).unwrap();
                let buckets: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.name == "evcap_request_latency_seconds_bucket")
                    .map(|s| s.value)
                    .collect();
                let count = prometheus::find(&samples, "evcap_request_latency_seconds_count", &[]);
                assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
                assert_eq!(buckets.last().copied(), count, "{buckets:?}");
            }
            done.store(true, Relaxed);
        });
    }
}
