//! The daemon: listener, worker pool, routing, and graceful shutdown.
//!
//! Architecture: the listener socket is nonblocking and shared (via
//! `try_clone`) by a fixed pool of worker threads. Each worker loops on
//! `accept`; `WouldBlock` means "no connection pending", so the worker
//! naps briefly and re-checks the shutdown flag — that poll loop is what
//! makes shutdown deterministic without platform-specific selectors.
//!
//! An accepted connection is handled to completion by one worker
//! (keep-alive requests loop in place), so peak concurrency equals the
//! pool size and everything beyond that waits in the kernel backlog.
//! Blocking reads carry a socket timeout, bounding how long a quiet or
//! trickling client can pin a worker.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evcap_obs::trace::TraceRecord;
use evcap_obs::{FlightRecorder, JsonObject, JsonlSink, RequestSample};
use evcap_spec::{Scenario, SolvedPolicy};

use crate::cache::{Fetch, ShardedCache};
use crate::handlers;
use crate::http::{self, Limits, ReadError, Request};
use crate::metrics::Metrics;
use crate::prometheus;
use crate::scenario::{ApiError, SimulateScenario, SolveScenario};

/// Everything `evcap serve` can tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads (= peak concurrent connections).
    pub threads: usize,
    /// Entries per cache tier (simulate responses; artifacts with solve bodies).
    pub cache_cap: usize,
    /// Lock shards per cache tier.
    pub shards: usize,
    /// Request framing limits.
    pub limits: Limits,
    /// Socket read timeout: bounds idle keep-alive and trickling clients.
    pub read_timeout: Duration,
    /// How long a coalesced request waits on the leader before a 503.
    pub coalesce_timeout: Duration,
    /// Largest `slots` a `/v1/simulate` request may ask for.
    pub max_slots: u64,
    /// Optional JSONL access-log path (one `request` record per request).
    pub access_log: Option<String>,
    /// Audit every freshly solved artifact against the paper's analytic
    /// invariants (`evcap-audit`) before it enters the artifact cache.
    /// A violation answers 500 and — like every compute failure — is never
    /// cached, so a fixed solver serves clean artifacts immediately.
    pub validate_artifacts: bool,
    /// Collect a per-request span tree (trace context). On by default;
    /// disabling skips span/event collection entirely (the flight recorder
    /// then records zeroed stage breakdowns).
    pub trace: bool,
    /// Flight-recorder capacity: how many recent request summaries
    /// `GET /debug/recent` (and the drain report) can show.
    pub recent: usize,
    /// Slow-request threshold in milliseconds; requests at or above it
    /// dump their full span tree to stderr (and tag the access log).
    /// 0 disables.
    pub slow_ms: u64,
    /// Optional persistent artifact store directory (`evcap-store`). When
    /// set, the artifact lookup becomes three-tiered: hot in-memory cache →
    /// disk store → fresh solve. Every disk load must pass
    /// `evcap_audit::certify` before being served; rejected records are
    /// counted and re-solved, and fresh solves are written through.
    pub store: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_cap: 1024,
            shards: 8,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            coalesce_timeout: Duration::from_secs(30),
            max_slots: 2_000_000,
            access_log: None,
            validate_artifacts: false,
            trace: true,
            recent: 64,
            slow_ms: 0,
            store: None,
        }
    }
}

/// One artifact-tier entry: a solved policy and its `/v1/solve` body, a
/// function of the key rendered at most once per residency.
struct Artifact {
    solved: SolvedPolicy,
    solve_body: OnceLock<String>,
}

/// State shared by every worker.
struct Shared {
    config: ServeConfig,
    metrics: Metrics,
    sim_cache: ShardedCache<String, ApiError>,
    /// Solved artifacts keyed by `Scenario::canonical_key()`. `/v1/solve`
    /// answers from here, and every `/v1/simulate` miss of one scenario
    /// (e.g. varying only in slots/seed) shares one clustering/LP solve.
    artifact_cache: ShardedCache<Arc<Artifact>, ApiError>,
    /// Behind the artifact tier: the persistent on-disk artifact store
    /// (`--store`). A mutex is fine here — the disk tier is only consulted
    /// on artifact-cache misses, which already coalesce to one leader.
    store: Option<Mutex<evcap_store::Store>>,
    shutdown: AtomicBool,
    access_log: Option<Mutex<JsonlSink>>,
    /// Last-N request summaries (see [`FlightRecorder`]).
    flight: FlightRecorder,
}

/// A running policy server.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

/// How long an idle worker naps between accept attempts (also the grain of
/// shutdown responsiveness).
const ACCEPT_NAP: Duration = Duration::from_millis(2);

impl Server {
    /// Binds the address and starts the worker pool. Returns as soon as the
    /// socket is listening — a client may connect immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone failures and access-log creation failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let access_log = match &config.access_log {
            Some(path) => Some(Mutex::new(JsonlSink::create(path)?)),
            None => None,
        };
        let store = match &config.store {
            Some(dir) => Some(Mutex::new(
                evcap_store::Store::open(std::path::Path::new(dir))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            )),
            None => None,
        };
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            sim_cache: ShardedCache::new(config.cache_cap, config.shards),
            artifact_cache: ShardedCache::new(config.cache_cap, config.shards),
            store,
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            access_log,
            flight: FlightRecorder::new(config.recent),
            config,
        });
        let workers = (0..threads)
            .map(|i| {
                let listener = listener.try_clone()?;
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("evcap-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            workers,
            addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters for the `SolvedPolicy` artifact cache.
    pub fn artifact_cache_stats(&self) -> crate::cache::StatsSnapshot {
        self.shared.artifact_cache.stats()
    }

    /// The flight recorder's retained request summaries, oldest first
    /// (the same data `GET /debug/recent` serves; used for the drain
    /// report).
    pub fn recent_requests(&self) -> Vec<RecentRequest> {
        decode_recent(&self.shared)
    }

    /// A flag that makes the server drain and stop when set; safe to hand
    /// to a signal handler loop.
    pub fn stop_flag(&self) -> StopFlag {
        StopFlag {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Requests shutdown and joins every worker. In-flight requests finish;
    /// idle workers exit within one accept nap; a worker blocked reading
    /// exits after at most the configured read timeout.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(log) = &self.shared.access_log {
            if let Ok(sink) = log.lock() {
                // Flush happens on drop of the BufWriter; nothing to do
                // beyond holding the lock so no worker is mid-write.
                drop(sink);
            }
        }
    }

    /// Whether shutdown has been requested (by [`Server::shutdown`] or a
    /// [`StopFlag`]).
    pub fn is_stopping(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// A cloneable handle that can stop a [`Server`] from another thread.
pub struct StopFlag {
    shared: Arc<Shared>,
}

impl StopFlag {
    /// Requests shutdown (workers drain; the owner still calls
    /// [`Server::shutdown`] to join them).
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Routes the flight recorder can tag (index = `path_tag`).
const ROUTES: [&str; 6] = [
    "other",
    "/healthz",
    "/metrics",
    "/v1/solve",
    "/v1/simulate",
    "/debug/recent",
];

/// Cache-outcome labels the flight recorder can tag (index = `cache_tag`).
const CACHE_LABELS: [&str; 6] = ["none", "hit", "miss", "coalesced", "failed", "timeout"];

/// Objective labels the flight recorder can tag (index = `objective_tag`).
/// Slot 0 is "no scenario attached" (non-scenario routes and parse
/// failures); scenario-bearing requests use `Objective::index() + 1`.
const OBJECTIVE_LABELS: [&str; 4] = ["none", "qom", "aoi-mean", "aoi-peak"];

/// Solve stages broken out per request (order matches
/// [`RequestSample::stage_us`]): body parse, scenario canonicalization,
/// LP solve, clustering search, table compilation.
const STAGES: [&str; 5] = [
    "req.parse",
    "req.canonicalize",
    "lp.solve",
    "clustering.search",
    "spec.table",
];

fn route_tag(path: &str) -> u8 {
    ROUTES.iter().position(|r| *r == path).unwrap_or(0) as u8
}

fn cache_tag(label: &str) -> u8 {
    CACHE_LABELS.iter().position(|l| *l == label).unwrap_or(0) as u8
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RecentRequest {
    /// Route (one of the server's paths, or `other`).
    pub path: &'static str,
    /// Response status.
    pub status: u16,
    /// Cache outcome label (`none` when the route has no cache).
    pub cache: &'static str,
    /// Solve objective label (`none` when no scenario parsed).
    pub objective: &'static str,
    /// End-to-end latency, microseconds.
    pub latency_us: f64,
    /// The request's trace id.
    pub trace_id: String,
    /// Per-stage microseconds: parse, canonicalize, lp, clustering,
    /// table-compile (zero when tracing is disabled or the stage did not
    /// run).
    pub stage_us: [u32; 5],
}

impl RecentRequest {
    fn from_sample(s: &RequestSample) -> Self {
        RecentRequest {
            path: ROUTES.get(s.path_tag as usize).copied().unwrap_or("other"),
            status: s.status,
            cache: CACHE_LABELS
                .get(s.cache_tag as usize)
                .copied()
                .unwrap_or("none"),
            objective: OBJECTIVE_LABELS
                .get(s.objective_tag as usize)
                .copied()
                .unwrap_or("none"),
            latency_us: s.latency_ns as f64 / 1e3,
            trace_id: s.trace_id(),
            stage_us: s.stage_us,
        }
    }

    /// One-line summary for drain reports.
    pub fn summary(&self) -> String {
        format!(
            "{} {} {} obj={} {:.1}ms trace={} stages[us] parse={} canon={} lp={} cluster={} table={}",
            self.path,
            self.status,
            self.cache,
            self.objective,
            self.latency_us / 1e3,
            self.trace_id,
            self.stage_us[0],
            self.stage_us[1],
            self.stage_us[2],
            self.stage_us[3],
            self.stage_us[4],
        )
    }
}

fn decode_recent(shared: &Shared) -> Vec<RecentRequest> {
    shared
        .flight
        .recent()
        .iter()
        .map(RecentRequest::from_sample)
        .collect()
}

/// Renders `GET /debug/recent`: the retained summaries, oldest first.
fn render_recent(shared: &Shared) -> String {
    let requests: Vec<String> = decode_recent(shared)
        .iter()
        .map(|r| {
            let mut obj = JsonObject::new();
            obj.field_str("path", r.path);
            obj.field_u64("status", u64::from(r.status));
            obj.field_str("cache", r.cache);
            obj.field_str("objective", r.objective);
            obj.field_f64("latency_us", r.latency_us);
            obj.field_str("trace_id", &r.trace_id);
            for (stage, us) in STAGES.iter().zip(r.stage_us) {
                let field = format!("{}_us", stage.replace('.', "_"));
                obj.field_u64(&field, u64::from(us));
            }
            obj.finish()
        })
        .collect();
    let mut obj = JsonObject::with_type("recent");
    obj.field_usize("capacity", shared.flight.capacity());
    obj.field_u64("recorded", shared.flight.recorded());
    obj.field_raw_array("requests", &requests);
    obj.finish()
}

/// Sums per-stage span durations out of a finished trace (µs, saturated).
fn stage_breakdown(record: Option<&TraceRecord>) -> [u32; 5] {
    let mut out = [0u32; 5];
    let Some(record) = record else {
        return out;
    };
    for event in &record.events {
        if let Some(i) = STAGES.iter().position(|s| *s == event.name) {
            let us = (event.dur_ns / 1_000).min(u64::from(u32::MAX)) as u32;
            // deepcheck:allow(panic-path): `i` is a position into STAGES, whose length matches the output array
            out[i] = out[i].saturating_add(us);
        }
    }
    out
}

fn worker_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connection();
                // Accepted sockets are blocking with a read timeout: the
                // worker parses at most one request at a time and the
                // timeout bounds how long a quiet client holds the slot.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                handle_connection(stream, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_NAP);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (e.g. aborted connection):
                // back off briefly rather than spin.
                std::thread::sleep(ACCEPT_NAP);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Reused across keep-alive requests: `finish_into` swaps span buffers
    // with the thread-local context, so a warmed connection collects each
    // request's trace without allocating.
    let mut trace_buf = TraceRecord::default();
    loop {
        let request = http::read_request(&mut reader, &shared.config.limits, || {
            http::write_continue(&mut writer)
        });
        let request = match request {
            Ok(r) => r,
            Err(ReadError::Bad { status, message }) => {
                let err = ApiError {
                    status,
                    kind: "bad_request",
                    message: message.to_owned(),
                };
                let _ =
                    http::write_response(&mut writer, status, err.body().as_bytes(), false, &[]);
                return;
            }
            // Clean close, idle timeout, or transport failure: just drop.
            Err(ReadError::Closed | ReadError::Timeout | ReadError::Io(_)) => return,
        };

        // Trace context: honor the client's X-Request-Id, else mint one
        // from the counter-seeded generator (no wall-clock entropy). The
        // generated id lives in a stack buffer — no allocation per request.
        let mut id_buf = [0u8; 16];
        let request_id: &str = match request.request_id.as_deref() {
            Some(id) => id,
            None => evcap_obs::trace::next_trace_id_into(&mut id_buf),
        };
        let trace_guard = shared
            .config
            .trace
            .then(|| evcap_obs::trace::start(request_id));
        let start = Instant::now(); // deepcheck:allow(instant-now): access-log latency stamp
        let routed = route(&request, shared);
        let traced = trace_guard.is_some_and(|g| g.finish_into(&mut trace_buf));
        let trace_record = traced.then_some(&trace_buf);
        let stopping = shared.shutdown.load(Ordering::SeqCst);
        let keep_alive = request.keep_alive && !stopping;
        let elapsed = start.elapsed();
        let path = request.target.split('?').next().unwrap_or("");
        shared.metrics.request(path, routed.status, elapsed);

        let stage_us = stage_breakdown(trace_record);
        let mut sample = RequestSample {
            path_tag: route_tag(path),
            status: routed.status,
            cache_tag: cache_tag(routed.cache),
            objective_tag: routed.objective,
            latency_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            stage_us,
            ..RequestSample::default()
        };
        sample.set_trace_id(request_id);
        shared.flight.record(&sample);

        let slow =
            shared.config.slow_ms > 0 && elapsed >= Duration::from_millis(shared.config.slow_ms);
        if let Some(log) = &shared.access_log {
            let mut record = JsonObject::with_type("request");
            record.field_str("method", &request.method);
            record.field_str("path", path);
            record.field_u64("status", u64::from(routed.status));
            record.field_f64("micros", elapsed.as_secs_f64() * 1e6);
            record.field_str("trace_id", request_id);
            if !routed.cache.is_empty() {
                record.field_str("cache", routed.cache);
            }
            if slow {
                record.field_bool("slow", true);
            }
            // deepcheck:allow(lock-blocking): the access log is a single-writer sink by design; writes are line-sized and best-effort
            if let Ok(mut sink) = log.lock() {
                let _ = sink.write(record);
                if let Some(trace) = trace_record {
                    let root_name = format!("{} {path}", request.method);
                    let _ = sink.write(evcap_obs::trace::root_record(
                        &trace.trace_id,
                        &root_name,
                        trace.total_ns,
                    ));
                    for event in &trace.events {
                        let _ = sink.write(evcap_obs::trace::event_record(&trace.trace_id, event));
                    }
                }
            }
        }
        if slow {
            dump_slow_request(&request.method, path, &routed, elapsed, trace_record);
        }

        // Fixed-size header scratch: at most id + cache + content-type, so
        // `n_extra` never exceeds the array length.
        let mut extra = [("", ""); 3];
        let mut n_extra = 0;
        extra[n_extra] = ("x-request-id", request_id); // deepcheck:allow(panic-path): n_extra counts at most 3 fixed pushes
        n_extra += 1;
        if !routed.cache.is_empty() {
            extra[n_extra] = ("x-evcap-cache", routed.cache); // deepcheck:allow(panic-path): n_extra counts at most 3 fixed pushes
            n_extra += 1;
        }
        if routed.content_type != APPLICATION_JSON {
            extra[n_extra] = ("content-type", routed.content_type); // deepcheck:allow(panic-path): n_extra counts at most 3 fixed pushes
            n_extra += 1;
        }
        if http::write_response(
            &mut writer,
            routed.status,
            routed.body.as_bytes(),
            keep_alive,
            &extra[..n_extra], // deepcheck:allow(panic-path): n_extra counts at most 3 fixed pushes
        )
        .is_err()
        {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Emits a slow-request span dump on stderr (the access log, when
/// configured, additionally carries the same spans as records).
fn dump_slow_request(
    method: &str,
    path: &str,
    routed: &Routed,
    elapsed: Duration,
    trace: Option<&TraceRecord>,
) {
    let trace_id = trace.map_or("-", |t| t.trace_id.as_str());
    // deepcheck:allow(print): deliberate slow-request diagnostics on stderr
    eprintln!(
        "slow request: {method} {path} {} {:.1}ms cache={} trace={trace_id}",
        routed.status,
        elapsed.as_secs_f64() * 1e3,
        if routed.cache.is_empty() {
            "none"
        } else {
            routed.cache
        },
    );
    if let Some(trace) = trace {
        for event in &trace.events {
            // deepcheck:allow(print): deliberate slow-request diagnostics on stderr
            eprintln!(
                "  span {} parent={} start={:.1}us dur={:.1}us{}{}",
                event.name,
                event.parent_id,
                event.start_ns as f64 / 1e3,
                event.dur_ns as f64 / 1e3,
                if event.label.is_empty() {
                    ""
                } else {
                    " label="
                },
                event.label,
            );
        }
    }
}

/// The cache label for "this response never touches a cache".
const NO_CACHE: &str = "";

/// The default response content type.
const APPLICATION_JSON: &str = "application/json";

/// A routed response: status, body, cache disposition, content type, and
/// the solve objective of the parsed scenario (0 when there is none).
struct Routed {
    status: u16,
    body: String,
    cache: &'static str,
    content_type: &'static str,
    objective: u8,
}

impl Routed {
    fn json(status: u16, body: String, cache: &'static str) -> Self {
        Routed {
            status,
            body,
            cache,
            content_type: APPLICATION_JSON,
            objective: 0,
        }
    }

    fn text(status: u16, body: String, content_type: &'static str) -> Self {
        Routed {
            status,
            body,
            cache: NO_CACHE,
            content_type,
            objective: 0,
        }
    }

    /// Tags the response with the scenario's solve objective (see
    /// [`OBJECTIVE_LABELS`] for the index scheme).
    fn with_objective(mut self, objective: evcap_spec::Objective) -> Self {
        self.objective = objective.index() as u8 + 1;
        self
    }
}

/// Whether a `/metrics` request asked for the Prometheus text format:
/// `?format=prometheus` or an `Accept` header preferring `text/plain`.
fn wants_prometheus(request: &Request) -> bool {
    let query = request.target.split_once('?').map_or("", |(_, q)| q);
    if query.split('&').any(|kv| kv == "format=prometheus") {
        return true;
    }
    request
        .accept
        .as_deref()
        .is_some_and(|a| a.to_ascii_lowercase().contains("text/plain"))
}

fn route(request: &Request, shared: &Shared) -> Routed {
    let path = request.target.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let mut obj = JsonObject::with_type("health");
            obj.field_str("status", "ok");
            Routed::json(200, obj.finish(), NO_CACHE)
        }
        ("GET", "/metrics") => {
            let store = store_snapshot(shared);
            if wants_prometheus(request) {
                let tiers = vec![
                    ("sim", shared.sim_cache.shard_snapshots()),
                    ("artifact", shared.artifact_cache.shard_snapshots()),
                ];
                Routed::text(
                    200,
                    shared.metrics.render_prometheus(&tiers, &store),
                    prometheus::CONTENT_TYPE,
                )
            } else {
                let body = shared.metrics.render(
                    &shared.sim_cache.stats(),
                    &shared.artifact_cache.stats(),
                    &store,
                );
                Routed::json(200, body, NO_CACHE)
            }
        }
        ("GET", "/debug/recent") => Routed::json(200, render_recent(shared), NO_CACHE),
        ("POST", "/v1/solve") => match SolveScenario::from_body(&request.body) {
            Err(e) => Routed::json(e.status, e.body(), NO_CACHE),
            Ok(s) => {
                let objective = s.scenario.objective();
                shared.metrics.objective_request(objective);
                let fetch = artifact(shared, &s.scenario, s.artifact_key());
                shared.metrics.solve_fetch(fetch.label());
                render_fetch(fetch, shared, |a| {
                    a.solve_body
                        .get_or_init(|| handlers::render_solve(&s, &a.solved))
                        .clone()
                })
                .with_objective(objective)
            }
        },
        ("POST", "/v1/simulate") => {
            match SimulateScenario::from_body(&request.body, shared.config.max_slots) {
                Err(e) => Routed::json(e.status, e.body(), NO_CACHE),
                Ok(s) => {
                    let objective = s.scenario.objective();
                    shared.metrics.objective_request(objective);
                    let fetch = shared.sim_cache.get_or_compute(
                        s.cache_key(),
                        shared.config.coalesce_timeout,
                        || {
                            let a =
                                fetched(artifact(shared, &s.scenario, s.artifact_key()), shared)?;
                            handlers::simulate(&s, &a.solved)
                        },
                    );
                    evcap_obs::trace::mark("cache.sim", fetch.label());
                    render_fetch(fetch, shared, |body| body).with_objective(objective)
                }
            }
        }
        (_, "/healthz" | "/metrics" | "/debug/recent" | "/v1/solve" | "/v1/simulate") => {
            let err = ApiError {
                status: 405,
                kind: "method_not_allowed",
                message: format!("`{}` is not supported on {path}", request.method),
            };
            Routed::json(405, err.body(), NO_CACHE)
        }
        _ => {
            let err = ApiError {
                status: 404,
                kind: "not_found",
                message: format!("no route for {path}"),
            };
            Routed::json(404, err.body(), NO_CACHE)
        }
    }
}

/// Reads the store-tier size gauges for `/metrics` (counters live in
/// [`Metrics`]; only entries/bytes need the lock).
fn store_snapshot(shared: &Shared) -> crate::metrics::StoreSnapshot {
    match &shared.store {
        None => crate::metrics::StoreSnapshot::default(),
        Some(store) => match store.lock() {
            Ok(store) => crate::metrics::StoreSnapshot {
                enabled: true,
                entries: store.len() as u64,
                bytes: store.bytes(),
            },
            Err(_) => crate::metrics::StoreSnapshot {
                enabled: true,
                ..Default::default()
            },
        },
    }
}

/// Tier 2 of the artifact lookup: the persistent store. Returns the
/// rehydrated artifact only when the record loads cleanly **and** passes
/// `evcap_audit::certify` — a stale, corrupt, or tampered record is
/// counted as a reject and the caller falls back to a fresh solve. Never
/// panics, never serves unverified bytes.
fn store_load(shared: &Shared, scenario: &Scenario, key: &str) -> Option<SolvedPolicy> {
    let store = shared.store.as_ref()?;
    let loaded = {
        // deepcheck:allow(lock-blocking): the store mutex serializes artifact file I/O by design; the in-memory cache tiers absorb the hot path
        let mut guard = store.lock().ok()?;
        guard.load(key)
    };
    match loaded {
        Ok(solved) => match evcap_audit::certify(scenario, &solved) {
            Ok(_) => {
                shared.metrics.store_hit();
                evcap_obs::trace::mark("store.tier", "hit");
                Some(solved)
            }
            Err(_) => {
                shared.metrics.store_reject();
                evcap_obs::trace::mark("store.tier", "reject");
                None
            }
        },
        Err(evcap_store::StoreError::NotFound { .. }) => {
            shared.metrics.store_miss();
            evcap_obs::trace::mark("store.tier", "miss");
            None
        }
        Err(_) => {
            shared.metrics.store_reject();
            evcap_obs::trace::mark("store.tier", "reject");
            None
        }
    }
}

/// Writes a freshly solved artifact through to the persistent store (best
/// effort: an I/O failure is not a request failure).
fn store_append(shared: &Shared, solved: &SolvedPolicy) {
    let Some(store) = shared.store.as_ref() else {
        return;
    };
    // deepcheck:allow(lock-blocking): the store mutex serializes artifact file I/O by design; appends are best-effort and off the response path
    let appended = store.lock().ok().map(|mut s| s.append(solved).is_ok());
    if appended == Some(true) {
        shared.metrics.store_append();
    }
}

/// Fetches (or computes, single-flight) the artifact for a canonical
/// scenario. Both routes run through here: `/v1/solve` answers from the
/// fetched entry, and every `/v1/simulate` miss of one scenario shares its
/// clustering/LP solve.
///
/// With `--store` the lookup is three-tiered: hot in-memory LRU → disk
/// store (certified loads only, see [`store_load`]) → fresh solve (written
/// through to disk). `Metrics::solve_latency` times that compute.
fn artifact(shared: &Shared, scenario: &Scenario, key: &str) -> Fetch<Arc<Artifact>, ApiError> {
    let fetch = shared
        .artifact_cache
        .get_or_compute(key, shared.config.coalesce_timeout, || {
            let t = Instant::now(); // deepcheck:allow(instant-now): artifact compute latency stamp
            let solved = store_load(shared, scenario, key)
                .map_or_else(|| fresh_artifact(shared, scenario), Ok);
            shared.metrics.solve_latency.observe(t.elapsed());
            let solve_body = OnceLock::new();
            solved.map(|solved| Arc::new(Artifact { solved, solve_body }))
        });
    evcap_obs::trace::mark("cache.artifact", fetch.label());
    fetch
}

/// A fresh solve, audited under `--validate`, then written through to the
/// store.
fn fresh_artifact(shared: &Shared, scenario: &Scenario) -> Result<SolvedPolicy, ApiError> {
    let solved = handlers::solve_artifact(scenario)?;
    if shared.config.validate_artifacts {
        let report = evcap_audit::audit(scenario, &solved);
        if !report.is_clean() {
            let named: Vec<String> = report
                .violations()
                .map(|c| format!("{}: {}", c.invariant, c.detail))
                .collect();
            // A Failed fetch is never cached, so a rejected artifact
            // cannot poison either cache tier.
            return Err(ApiError {
                status: 500,
                kind: "artifact_rejected",
                message: format!("artifact failed certification ({})", named.join("; ")),
            });
        }
    }
    store_append(shared, &solved);
    Ok(solved)
}

/// The value a fetch carries, or the error to answer with. A waiter that
/// gave up on its leader is counted and answers 503.
fn fetched<V>(fetch: Fetch<V, ApiError>, shared: &Shared) -> Result<V, ApiError> {
    match fetch {
        Fetch::Hit(v) | Fetch::Computed(v) | Fetch::Coalesced(v) => Ok(v),
        Fetch::Failed(e) => Err(e),
        Fetch::TimedOut => {
            shared.metrics.timeout();
            Err(ApiError {
                status: 503,
                kind: "coalesce_timeout",
                message: "timed out waiting for an in-flight computation".to_owned(),
            })
        }
    }
}

/// Answers a fetch with `body` of its value, or with its error, tagged
/// with the fetch's cache disposition.
fn render_fetch<V>(
    fetch: Fetch<V, ApiError>,
    shared: &Shared,
    body: impl FnOnce(V) -> String,
) -> Routed {
    let label = fetch.label();
    match fetched(fetch, shared) {
        Ok(v) => Routed::json(200, body(v), label),
        Err(e) => Routed::json(e.status, e.body(), label),
    }
}
