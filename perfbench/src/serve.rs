//! serve_hot and serve_churn: `evcap serve` as a child process, driven by
//! the benchmark's own client over 2 keep-alive connections in a closed
//! loop (callers of the policy server wait for each reply).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use evcap_obs::JsonValue;
use evcap_serve::handlers;
use evcap_serve::{SimulateScenario, SolveScenario};
use evcap_spec::SolvedPolicy;
use evcap_store::Store;

use crate::child::{self, Server};
use crate::client::{CacheHeader, Conn};
use crate::gen::{self, Body, Cell, Matrix};
use crate::library::{self, FleetLog};
use crate::report::{object, Json, Outcome};
use crate::rng::{Rng, Zipf};
use crate::stats::{self, mean, ratio};
use crate::{set_up_repeatedly, Env, THREADS};

type Res<T> = Result<T, Box<dyn Error>>;

const TIMEOUT: Duration = Duration::from_secs(30);
/// The server's default `--max-slots`, which bounds simulate bodies.
const MAX_SLOTS: u64 = 2_000_000;
/// serve_churn's `--cache-cap`: each in-memory tier holds about a fifth
/// of the 110-scenario catalog.
const CHURN_CACHE_CAP: usize = 24;

/// What a workload sends.
enum Traffic {
    Hot {
        bodies: Vec<Body>,
        keys: Vec<usize>,
        zipf: Zipf,
    },
    Churn {
        matrix: Matrix,
        cells: Vec<Cell>,
    },
}

/// One request to send.
struct Req<'a> {
    path: &'static str,
    payload: Cow<'a, str>,
    /// The response key whose first body every reply must equal; `None`
    /// for scrapes and for simulations whose fresh seed makes them unique.
    key: Option<usize>,
    /// `Some(prometheus)` for a `/metrics` scrape.
    scrape: Option<bool>,
}

impl Traffic {
    fn next(&self, rng: &mut Rng, prometheus: &mut bool) -> Req<'_> {
        match self {
            Traffic::Hot { bodies, keys, zipf } => {
                if rng.chance(gen::HOT_METRICS_SHARE) {
                    *prometheus = !*prometheus;
                    let path = if *prometheus {
                        "/metrics?format=prometheus"
                    } else {
                        "/metrics"
                    };
                    return Req {
                        path,
                        payload: Cow::Borrowed(""),
                        key: None,
                        scrape: Some(*prometheus),
                    };
                }
                let i = zipf.sample(rng);
                Req {
                    path: bodies[i].path,
                    payload: Cow::Borrowed(&bodies[i].json),
                    key: Some(keys[i]),
                    scrape: None,
                }
            }
            Traffic::Churn { matrix, cells } => {
                let (body, cell) = gen::churn_request(rng, matrix, cells);
                Req {
                    path: body.path,
                    key: (body.path == "/v1/solve").then_some(cell),
                    payload: Cow::Owned(body.json),
                    scrape: None,
                }
            }
        }
    }
}

/// The inputs of one serve workload.
struct Plan {
    traffic: Traffic,
    /// Warm-up requests: every keyed body once.
    warm: Vec<(&'static str, String, usize)>,
    keys: usize,
}

fn plan(env: &Env, churn: bool) -> Res<Plan> {
    if churn {
        let matrix = gen::churn_matrix(env.seed);
        let cells = matrix.cells();
        let warm = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let b = gen::cell_solve_body(&matrix, c);
                (b.path, b.json, i)
            })
            .collect();
        let keys = cells.len();
        return Ok(Plan {
            traffic: Traffic::Churn { matrix, cells },
            warm,
            keys,
        });
    }
    let catalog = gen::hot_catalog(env.seed);
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut keys = Vec::new();
    for body in &catalog {
        let key = match body.path {
            "/v1/solve" => {
                SolveScenario::from_body(body.json.as_bytes()).map(|s| s.cache_key().to_owned())
            }
            _ => SimulateScenario::from_body(body.json.as_bytes(), MAX_SLOTS)
                .map(|s| s.cache_key().to_owned()),
        }
        .map_err(|e| format!("generated body {} rejected: {}", body.json, e.message))?;
        let next = index.len();
        keys.push(*index.entry(key).or_insert(next));
    }
    let warm = catalog
        .iter()
        .zip(&keys)
        .map(|(b, &k)| (b.path, b.json.clone(), k))
        .collect();
    Ok(Plan {
        traffic: Traffic::Hot {
            zipf: Zipf::new(catalog.len(), gen::HOT_ZIPF_S),
            bodies: catalog,
            keys,
        },
        warm,
        keys: index.len(),
    })
}

/// A server ready for a timed phase.
struct Ready {
    server: Server,
    /// First body seen per key, from the warm-up.
    first: Vec<Option<Vec<u8>>>,
    warm_failed: u64,
    setup_s: f64,
}

/// Set-up: for serve_churn, build the store catalog with solve-fleet's
/// calls; then start the server and send every keyed body once.
fn set_up(env: &Env, plan: &Plan, name: &str, access_log: Option<&Path>) -> Res<Ready> {
    let started = Instant::now();
    let mut args = vec!["--threads".to_owned(), THREADS.to_string()];
    if let Traffic::Churn { matrix, .. } = &plan.traffic {
        let dir = env.work.join(format!("{name}-store"));
        let mut store = Store::open(&dir)?;
        let mut log = FleetLog::default();
        library::solve_pass(&mut store, matrix, &matrix.e_grid, &mut log);
        if log.failed > 0 {
            return Err(format!("{} catalog solves failed", log.failed).into());
        }
        args.extend([
            "--store".to_owned(),
            dir.display().to_string(),
            "--cache-cap".to_owned(),
            CHURN_CACHE_CAP.to_string(),
        ]);
    }
    if let Some(log) = access_log {
        args.extend(["--access-log".to_owned(), log.display().to_string()]);
    }
    let server = Server::spawn(&env.evcap, &args, &env.work.join(format!("{name}.stderr")))?;

    let replies: Vec<Vec<(usize, Option<Vec<u8>>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                let addr = server.addr;
                let warm = &plan.warm;
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr, TIMEOUT).ok();
                    let mut out = Vec::new();
                    for (n, (path, payload, key)) in
                        warm.iter().enumerate().skip(c).step_by(THREADS)
                    {
                        let mut body = Vec::new();
                        let ok = conn.as_mut().is_some_and(|conn| {
                            conn.send(path, &format!("w{c}-{n}"), payload.as_bytes(), &mut body)
                                .is_ok_and(|r| (200..300).contains(&r.status))
                        });
                        out.push((*key, ok.then_some(body)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut first: Vec<Option<Vec<u8>>> = vec![None; plan.keys];
    let mut warm_failed = 0;
    for (key, body) in replies.into_iter().flatten() {
        match (body, &first[key]) {
            (None, _) => warm_failed += 1,
            (Some(b), Some(seen)) => warm_failed += u64::from(&b != seen),
            (Some(b), None) => first[key] = Some(b),
        }
    }
    Ok(Ready {
        server,
        first,
        warm_failed,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Length of the windows a timed phase is cut into. End-to-end figures
/// are medians over windows, so a burst of contention from outside the
/// benchmark moves a few windows rather than the whole result.
const WINDOW_S: f64 = 0.5;

/// What one timed phase saw.
#[derive(Default)]
struct Phase {
    /// Client latencies in ms (infinity for failures) of the requests that
    /// completed in each full window.
    windows: Vec<Vec<f64>>,
    wall_s: f64,
    /// Client latency per request in ms, per connection by sequence
    /// number; a failed request reads infinity.
    lat_ms: Vec<Vec<f64>>,
    ok: u64,
    failed: u64,
    headers: [u64; 5],
    /// Client latency of `/metrics` scrapes in µs: JSON, Prometheus.
    scrapes: [Vec<f64>; 2],
    /// Replies to fresh-seed simulations kept for the render check.
    samples: Vec<(&'static str, String, Vec<u8>)>,
    server_cpu_s: f64,
    /// `/metrics` counters after the phase minus before.
    delta: BTreeMap<String, f64>,
}

impl Phase {
    fn requests(&self) -> u64 {
        self.ok + self.failed
    }

    /// Median over windows of 2xx responses per second.
    fn windowed_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.iter().filter(|ms| ms.is_finite()).count() as f64 / WINDOW_S)
            .collect();
        stats::median(&rates)
    }

    /// Median over windows of each window's `q`-quantile latency, in ms.
    fn windowed_latency(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut w = w.clone();
                stats::sort(&mut w);
                stats::percentile(&w, q)
            })
            .collect();
        if per_window.is_empty() {
            f64::INFINITY
        } else {
            stats::median(&per_window)
        }
    }
}

#[derive(Default)]
struct ConnLog {
    lat_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    headers: [u64; 5],
    scrapes: [Vec<f64>; 2],
    samples: Vec<(&'static str, String, Vec<u8>)>,
    /// Completion time of each request, seconds into the phase.
    done_s: Vec<f32>,
    start: Option<Instant>,
    end: Option<Instant>,
}

/// Runs the closed loop for `seconds` on [`THREADS`] connections.
/// Request ids are `<label><connection>-<sequence>`.
fn phase(
    server: &Server,
    plan: &Plan,
    first: &[Option<Vec<u8>>],
    seed: u64,
    label: &str,
    seconds: f64,
) -> Res<Phase> {
    let before = scrape(server)?;
    let cpu_before = child::cpu_seconds(&server.pid().to_string())?;
    let barrier = Barrier::new(THREADS);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = Rng::derive(seed, &format!("{label}.traffic.{c}"));
                    let mut conn = Conn::connect(server.addr, TIMEOUT).ok();
                    let mut log = ConnLog::default();
                    let mut body = Vec::with_capacity(1 << 14);
                    let mut id = String::new();
                    let mut prometheus = c == 1;
                    let mut simulations = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let req = plan.traffic.next(&mut rng, &mut prometheus);
                        id.clear();
                        let _ = write!(id, "{label}{c}-{}", log.lat_ms.len());
                        if conn.is_none() {
                            conn = Conn::connect(server.addr, TIMEOUT).ok();
                        }
                        let t = Instant::now();
                        let reply = conn.as_mut().map(|conn| {
                            conn.send(req.path, &id, req.payload.as_bytes(), &mut body)
                        });
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let ok = match reply {
                            Some(Ok(r)) if (200..300).contains(&r.status) => {
                                let i = CacheHeader::ALL.iter().position(|h| *h == r.cache);
                                log.headers[i.expect("a known header")] += 1;
                                match req.key {
                                    Some(k) => first[k].as_deref() == Some(&body[..]),
                                    None => true,
                                }
                            }
                            Some(Ok(_)) => false,
                            Some(Err(_)) | None => {
                                conn = None;
                                false
                            }
                        };
                        log.done_s.push(start.elapsed().as_secs_f32());
                        if ok {
                            log.ok += 1;
                            log.lat_ms.push(ms);
                            if let Some(prom) = req.scrape {
                                log.scrapes[usize::from(prom)].push(ms * 1e3);
                            }
                            if req.key.is_none() && req.path == "/v1/simulate" {
                                simulations += 1;
                                if simulations % 16 == 1 && log.samples.len() < 48 {
                                    log.samples.push((
                                        req.path,
                                        req.payload.into_owned(),
                                        body.clone(),
                                    ));
                                }
                            }
                        } else {
                            log.failed += 1;
                            log.lat_ms.push(f64::INFINITY);
                        }
                    }
                    log.start = Some(start);
                    log.end = Some(Instant::now());
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_after = child::cpu_seconds(&server.pid().to_string())?;
    let after = scrape(server)?;

    let start = logs
        .iter()
        .filter_map(|l| l.start)
        .min()
        .expect("a client ran");
    let end = logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .expect("a client ran");
    let windows = (seconds / WINDOW_S).floor().max(1.0) as usize;
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for log in &logs {
        for (&t, &ms) in log.done_s.iter().zip(&log.lat_ms) {
            if let Some(w) = by_window.get_mut((f64::from(t) / WINDOW_S) as usize) {
                w.push(ms);
            }
        }
    }
    let mut out = Phase {
        windows: by_window,
        wall_s: (end - start).as_secs_f64(),
        server_cpu_s: cpu_after - cpu_before,
        delta: after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
            .collect(),
        ..Phase::default()
    };
    for log in logs {
        out.ok += log.ok;
        out.failed += log.failed;
        for (total, n) in out.headers.iter_mut().zip(log.headers) {
            *total += n;
        }
        for (total, s) in out.scrapes.iter_mut().zip(log.scrapes) {
            total.extend(s);
        }
        out.samples.extend(log.samples);
        out.lat_ms.push(log.lat_ms);
    }
    Ok(out)
}

/// The numeric fields of `GET /metrics`.
fn scrape(server: &Server) -> Res<BTreeMap<String, f64>> {
    let mut conn = Conn::connect(server.addr, TIMEOUT)?;
    let mut body = Vec::new();
    let reply = conn.send("/metrics", "scrape", b"", &mut body)?;
    if reply.status != 200 {
        return Err(format!("GET /metrics answered {}", reply.status).into());
    }
    let Ok(JsonValue::Object(map)) = evcap_obs::parse_line(std::str::from_utf8(&body)?) else {
        return Err("GET /metrics is not a JSON object".into());
    };
    Ok(map
        .into_iter()
        .filter_map(|(k, v)| match v {
            JsonValue::Number(n) => Some((k, n)),
            _ => None,
        })
        .collect())
}

/// Renders each `(path, request body, reply)` in-process — `evcap_spec::
/// solve`, then `handlers::render_solve` or `handlers::simulate` — and
/// counts the replies that differ. Items are split over [`THREADS`]
/// threads by scenario, so each artifact is solved once.
fn render_check(items: Vec<(&'static str, String, Vec<u8>)>) -> u64 {
    enum Parsed {
        Solve(SolveScenario),
        Simulate(SimulateScenario),
    }
    let mut parts: Vec<Vec<(Parsed, Vec<u8>)>> = (0..THREADS).map(|_| Vec::new()).collect();
    let mut failed = 0;
    for (path, payload, reply) in items {
        let parsed = match path {
            "/v1/solve" => SolveScenario::from_body(payload.as_bytes()).map(Parsed::Solve),
            _ => SimulateScenario::from_body(payload.as_bytes(), MAX_SLOTS).map(Parsed::Simulate),
        };
        let Ok(parsed) = parsed else {
            failed += 1;
            continue;
        };
        let key = match &parsed {
            Parsed::Solve(s) => s.artifact_key(),
            Parsed::Simulate(s) => s.artifact_key(),
        };
        let lane = key.bytes().fold(0usize, |h, b| {
            h.wrapping_mul(31).wrapping_add(usize::from(b))
        }) % THREADS;
        parts[lane].push((parsed, reply));
    }
    let lanes: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    let mut artifacts: HashMap<String, Option<SolvedPolicy>> = HashMap::new();
                    let mut failed = 0;
                    for (parsed, reply) in part {
                        let scenario = match &parsed {
                            Parsed::Solve(s) => &s.scenario,
                            Parsed::Simulate(s) => &s.scenario,
                        };
                        let artifact = artifacts
                            .entry(scenario.canonical_key())
                            .or_insert_with(|| evcap_spec::solve(scenario).ok());
                        let rendered = artifact.as_ref().and_then(|a| match &parsed {
                            Parsed::Solve(s) => Some(handlers::render_solve(s, a)),
                            Parsed::Simulate(s) => handlers::simulate(s, a).ok(),
                        });
                        failed += u64::from(rendered.as_deref().map(str::as_bytes) != Some(&reply));
                    }
                    failed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render-check thread panicked"))
            .collect()
    });
    failed + lanes.iter().sum::<u64>()
}

/// Per-name span totals from an access log's span trees.
#[derive(Default)]
struct SpanTotals {
    /// name → (occurrences, total duration µs, total self time µs)
    by_name: BTreeMap<String, (f64, f64, f64)>,
    requests: f64,
    root_us: f64,
    root_self_us: f64,
    client_us: f64,
    transport_us: Vec<f64>,
}

/// One span of an access-log trace.
struct Ev {
    span: u64,
    parent: u64,
    name: String,
    start: f64,
    dur: f64,
}

/// Reads the `trace_span` records of requests whose id starts with
/// `label`, computes each span's self time (its duration minus the time
/// its children cover) and joins each root with the client's latency.
fn read_access_log(path: &Path, label: &str, lat_ms: &[Vec<f64>]) -> Res<SpanTotals> {
    let mut totals = SpanTotals::default();
    let mut current = String::new();
    let mut events: Vec<Ev> = Vec::new();
    let reader = BufReader::new(std::fs::File::open(path)?);
    for line in reader.lines() {
        let line = line?;
        if !line.contains("\"trace_span\"") {
            continue;
        }
        let Ok(JsonValue::Object(rec)) = evcap_obs::parse_line(&line) else {
            return Err(format!("unreadable access-log line: {line}").into());
        };
        let text = |k: &str| match rec.get(k) {
            Some(JsonValue::String(s)) => s.clone(),
            _ => String::new(),
        };
        let num = |k: &str| match rec.get(k) {
            Some(JsonValue::Number(n)) => *n,
            _ => 0.0,
        };
        let id = text("trace_id");
        if id != current {
            fold_trace(&current, &mut events, &mut totals, lat_ms);
            current = id;
        }
        if current.starts_with(label) {
            events.push(Ev {
                span: num("span_id") as u64,
                parent: num("parent_id") as u64,
                name: text("name"),
                start: num("start_us"),
                dur: num("dur_us"),
            });
        }
    }
    fold_trace(&current, &mut events, &mut totals, lat_ms);
    Ok(totals)
}

fn fold_trace(id: &str, events: &mut Vec<Ev>, totals: &mut SpanTotals, lat_ms: &[Vec<f64>]) {
    let Some(root) = events.iter().find(|e| e.parent == 0) else {
        events.clear();
        return;
    };
    let self_time = |e: &Ev| {
        let mut children: Vec<(f64, f64)> = events
            .iter()
            .filter(|c| c.parent == e.span && c.span != e.span)
            .map(|c| (c.start, c.start + c.dur))
            .collect();
        e.dur - stats::covered(&mut children)
    };
    totals.requests += 1.0;
    totals.root_us += root.dur;
    totals.root_self_us += self_time(root);
    for e in events.iter().filter(|e| e.parent != 0 && e.dur > 0.0) {
        let entry = totals.by_name.entry(e.name.clone()).or_default();
        entry.0 += 1.0;
        entry.1 += e.dur;
        entry.2 += self_time(e);
    }
    // Ids are `<label><connection>-<sequence>`.
    let client_ms = id
        .get(1..)
        .and_then(|rest| rest.split_once('-'))
        .and_then(|(c, s)| Some((c.parse::<usize>().ok()?, s.parse::<usize>().ok()?)))
        .and_then(|(c, s)| lat_ms.get(c)?.get(s).copied())
        .filter(|ms| ms.is_finite());
    if let Some(ms) = client_ms {
        totals.client_us += ms * 1e3;
        totals.transport_us.push(ms * 1e3 - root.dur);
    }
    events.clear();
}

impl SpanTotals {
    /// Mean duration in µs of the spans named `names`, per occurrence.
    fn mean_us(&self, names: &[&str]) -> f64 {
        let (n, dur) = names
            .iter()
            .filter_map(|name| self.by_name.get(*name))
            .fold((0.0, 0.0), |(n, d), e| (n + e.0, d + e.1));
        ratio(dur, n)
    }
}

/// `a / (a + b)` over `/metrics` deltas.
fn hit_ratio(d: &BTreeMap<String, f64>, hits: &str, misses: &[&str]) -> f64 {
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let h = get(hits);
    ratio(h, h + misses.iter().map(|k| get(k)).sum::<f64>())
}

/// The tier each scenario request was served from, from `/metrics`, next
/// to the client's count of `x-evcap-cache` headers.
fn tier_mix(p: &Phase) -> Json {
    let get = |k: &str| p.delta.get(k).copied().unwrap_or(0.0);
    let headers: Vec<(&str, Json)> = CacheHeader::ALL
        .iter()
        .zip(p.headers)
        .map(|(h, n)| (h.name(), Json::from(n)))
        .collect();
    let scenario_requests = get("solve_requests") + get("simulate_requests");
    let response_hits = get("solve_cache_hits") + get("sim_cache_hits");
    object(&[
        ("response_hit", Json::from(response_hits)),
        ("artifact_hit", Json::from(get("artifact_cache_hits"))),
        ("store_hit", Json::from(get("store_hits"))),
        (
            "cold_solve",
            Json::from(get("artifact_cache_misses") - get("store_hits")),
        ),
        (
            "response_hit_share",
            Json::from(ratio(response_hits, scenario_requests)),
        ),
        ("x_evcap_cache", object(&headers)),
    ])
}

/// serve_hot (`churn == false`) or serve_churn.
pub fn run(env: &Env, churn: bool) -> Res<Outcome> {
    let plan = plan(env, churn)?;
    let name = if churn { "serve_churn" } else { "serve_hot" };
    let mut ready: Option<Ready> = None;
    let setups = set_up_repeatedly(env, |rep| -> Res<f64> {
        if let Some(previous) = ready.take() {
            previous.server.stop()?;
        }
        let r = set_up(env, &plan, &format!("{name}-{rep}"), None)?;
        let took = r.setup_s;
        ready = Some(r);
        Ok(took)
    })?;
    let ready = ready.expect("at least one set-up");
    let untraced = phase(
        &ready.server,
        &plan,
        &ready.first,
        env.seed,
        "u",
        env.seconds,
    )?;
    let peak_rss = child::peak_rss_mb(&ready.server.pid().to_string())?;
    ready.server.stop()?;

    let mut out = Outcome::default();
    let mut failed = untraced.failed + ready.warm_failed;
    let mut attempted = untraced.requests();
    // One request per key: every other spelling of a key already had to
    // reproduce the key's first body.
    let mut seen = vec![false; plan.keys];
    let mut check: Vec<(&'static str, String, Vec<u8>)> = Vec::new();
    for (path, payload, key) in &plan.warm {
        if let (false, Some(first)) = (seen[*key], &ready.first[*key]) {
            seen[*key] = true;
            check.push((path, payload.clone(), first.clone()));
        }
    }
    check.extend(untraced.samples.iter().cloned());
    let cpu_us_per_req = ratio(untraced.server_cpu_s * 1e6, untraced.requests() as f64);
    let untraced_rate = untraced.ok as f64 / untraced.wall_s;

    out.note("tier_mix", tier_mix(&untraced));
    out.note("serve_cpu_us_per_req", cpu_us_per_req);
    if env.trace {
        let log_path = env.work.join(format!("{name}-access.jsonl"));
        let traced_ready = set_up(env, &plan, &format!("{name}-traced"), Some(&log_path))?;
        let traced = phase(
            &traced_ready.server,
            &plan,
            &traced_ready.first,
            env.seed,
            "t",
            env.seconds / 2.0,
        )?;
        traced_ready.server.stop()?;
        failed += traced.failed + traced_ready.warm_failed;
        attempted += traced.requests();
        let spans = read_access_log(&log_path, "t", &traced.lat_ms)?;
        serve_layers(&mut out, &traced, &spans);
        out.set("serve.cpu_us_per_req", cpu_us_per_req);
        out.set(
            "obs.trace_overhead",
            1.0 - (traced.ok as f64 / traced.wall_s) / untraced_rate,
        );
        if let Traffic::Churn { matrix, .. } = &plan.traffic {
            let specs: Vec<String> = matrix.dists.iter().map(|d| d.spec(0)).collect();
            out.set("dist.parse_us", library::time_parse_dist(&specs));
        }
        out.note("traced_requests", traced.requests());
    } else {
        out.set("setup_s", stats::median(&setups));
        out.set("req_per_s", untraced.windowed_rate());
        out.set("latency_p50_ms", untraced.windowed_latency(0.5));
        out.set("latency_p90_ms", untraced.windowed_latency(0.9));
        out.set("peak_rss_mb", peak_rss);
        let samples: Vec<usize> = untraced.windows.iter().map(Vec::len).collect();
        out.note("latency_samples_per_window", Json(format!("{samples:?}")));
        out.note("req_per_s_whole_phase", untraced_rate);
        out.note("setup_samples_s", Json(format!("{setups:?}")));
    }
    let checked = check.len();
    failed += render_check(check);
    out.note("render_checked", checked);
    out.attempted = attempted;
    out.failed = failed;
    out.note("failed_ratio", ratio(failed as f64, attempted as f64));
    Ok(out)
}

/// The serve-side per-layer metrics of a traced phase.
fn serve_layers(out: &mut Outcome, p: &Phase, spans: &SpanTotals) {
    let d = &p.delta;
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    out.set("serve.req_parse_us", spans.mean_us(&["req.parse"]));
    out.set(
        "serve.req_canonicalize_us",
        spans.mean_us(&["req.canonicalize"]),
    );
    out.set(
        "serve.route_self_us",
        ratio(spans.root_self_us, spans.requests),
    );
    out.set("serve.transport_us", mean(&spans.transport_us));
    out.set(
        "serve.solve_cache.hit_ratio",
        hit_ratio(
            d,
            "solve_cache_hits",
            &["solve_cache_misses", "solve_cache_coalesced"],
        ),
    );
    out.set(
        "serve.sim_cache.hit_ratio",
        hit_ratio(
            d,
            "sim_cache_hits",
            &["sim_cache_misses", "sim_cache_coalesced"],
        ),
    );
    out.set(
        "serve.artifact_cache.hit_ratio",
        hit_ratio(
            d,
            "artifact_cache_hits",
            &["artifact_cache_misses", "artifact_cache_coalesced"],
        ),
    );
    let evictions =
        get("solve_cache_evictions") + get("sim_cache_evictions") + get("artifact_cache_evictions");
    out.set(
        "serve.cache.evictions_per_kreq",
        ratio(evictions * 1e3, get("requests")),
    );
    out.set(
        "serve.coalesced",
        get("solve_cache_coalesced") + get("sim_cache_coalesced") + get("artifact_cache_coalesced"),
    );
    out.set("serve.coalesce_timeouts", get("coalesce_timeouts"));
    out.set("serve.metrics_json_us", median_or_zero(&p.scrapes[0]));
    out.set("serve.metrics_prom_us", median_or_zero(&p.scrapes[1]));
    out.set("store.load_us", spans.mean_us(&["store.load"]));
    out.set(
        "store.tier.hit_ratio",
        hit_ratio(d, "store_hits", &["store_misses", "store_rejects"]),
    );
    out.set("store.rejects", get("store_rejects"));
    out.set("spec.rehydrate_us", spans.mean_us(&["spec.rehydrate"]));
    out.set("spec.table_us", spans.mean_us(&["spec.table"]));
    out.set("audit.certify_us", spans.mean_us(&["audit.certify"]));
    out.set("sim.short_run_us", spans.mean_us(&["sim.run", "sim.batch"]));
    // Share of client-observed time that the server's request spans cover;
    // the rest is HTTP framing, the socket and the client.
    out.set("obs.coverage", ratio(spans.root_us, spans.client_us));
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}
