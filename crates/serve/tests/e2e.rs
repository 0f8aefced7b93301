//! End-to-end tests: a real server on an ephemeral port, exercised over
//! real sockets with the crate's own client.
//!
//! The load-bearing assertions are the caching ones: a second identical
//! solve must be a *hit* (no second optimizer timing span), and N
//! concurrent identical solves must collapse to exactly one compute
//! (`solve_cache_misses == 1` on `/metrics`, regardless of thread
//! interleaving).

use std::sync::{Arc, Barrier};
use std::time::Duration;

use evcap_obs::{parse_line, JsonValue};
use evcap_serve::client::{self, Conn};
use evcap_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        cache_cap: 64,
        shards: 4,
        read_timeout: Duration::from_millis(500),
        coalesce_timeout: Duration::from_secs(20),
        max_slots: 500_000,
        ..ServeConfig::default()
    }
}

fn metric(server: &Server, name: &str) -> f64 {
    let resp = client::get(server.local_addr(), "/metrics", TIMEOUT).expect("GET /metrics");
    assert_eq!(resp.status, 200);
    let v = parse_line(&resp.text()).expect("metrics body parses");
    v.get(name)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metrics has no `{name}`: {}", resp.text()))
}

#[test]
fn health_metrics_and_routing() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    let resp = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let v = parse_line(&resp.text()).expect("health body parses");
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));

    let resp = client::get(addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    let v = parse_line(&resp.text()).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("not_found"));

    // Wrong method on a real route.
    let resp = client::get(addr, "/v1/solve", TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);

    // The metrics endpoint counts what just happened and parses as JSON.
    assert!(metric(&server, "requests") >= 3.0);
    assert_eq!(metric(&server, "responses_4xx"), 2.0);

    server.shutdown();
}

#[test]
fn second_identical_solve_is_a_cache_hit_with_no_second_optimizer_span() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    // The timing registry is process-global; only this test solves with the
    // clustering optimizer, so the `clustering.search` span count below is
    // attributable to these two requests alone.
    evcap_obs::timing::set_enabled(true);
    evcap_obs::timing::reset();

    // Two spellings of the same scenario: alias + trailing-zero float.
    let body_a = br#"{"dist":"weibull:40.0,3","e":0.2,"policy":"clustering","horizon":4096}"#;
    let body_b = br#"{"dist":"weibull:40,3.00","e":0.2,"policy":"clustering","horizon":4096}"#;
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();
    let first = conn.request("POST", "/v1/solve", body_a).unwrap();
    let second = conn.request("POST", "/v1/solve", body_b).unwrap();
    evcap_obs::timing::set_enabled(false);

    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.cache.as_deref(), Some("miss"));
    assert_eq!(second.cache.as_deref(), Some("hit"));
    // Hit and miss replay byte-identical bodies.
    assert_eq!(first.body, second.body);

    // Exactly one optimizer run: the second request never touched the
    // clustering search.
    let spans = evcap_obs::timing::drain_spans();
    let search = spans
        .iter()
        .find(|(name, _)| *name == "clustering.search")
        .expect("the miss ran the optimizer under an enabled registry");
    assert_eq!(search.1.count, 1, "second solve must not re-optimize");

    assert_eq!(metric(&server, "solve_cache_hits"), 1.0);
    assert_eq!(metric(&server, "solve_cache_misses"), 1.0);
    server.shutdown();
}

#[test]
fn concurrent_identical_solves_collapse_to_one_compute() {
    let clients = 4usize;
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(clients));
    let body = br#"{"dist":"erlang:4,0.2","e":0.15,"horizon":8192}"#;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr, TIMEOUT).expect("connect");
                    barrier.wait();
                    let resp = conn.request("POST", "/v1/solve", body).expect("solve");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    resp.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // All four clients got the same answer, from exactly one computation:
    // one miss (the leader); everyone else either coalesced onto the
    // in-flight solve or hit the fresh cache entry.
    for b in &bodies[1..] {
        assert_eq!(*b, bodies[0]);
    }
    // One metrics snapshot (the GET itself would inflate later reads).
    let resp = client::get(addr, "/metrics", TIMEOUT).unwrap();
    let m = parse_line(&resp.text()).unwrap();
    let f = |k: &str| m.get(k).and_then(JsonValue::as_f64).unwrap();
    assert_eq!(f("solve_cache_misses"), 1.0);
    assert_eq!(
        f("solve_cache_hits") + f("solve_cache_coalesced"),
        (clients - 1) as f64
    );
    assert_eq!(f("solve_requests"), clients as f64);
    assert_eq!(f("responses_2xx"), clients as f64);
    server.shutdown();
}

#[test]
fn simulate_is_deterministic_and_cached() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    let body = br#"{"dist":"det:7","e":0.3,"slots":20000,"seed":42,"horizon":1024}"#;
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();
    let first = conn.request("POST", "/v1/simulate", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    let v = parse_line(&first.text()).unwrap();
    assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("simulate"));
    assert_eq!(v.get("slots").and_then(JsonValue::as_f64), Some(20_000.0));
    assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(42.0));
    let qom = v.get("qom").and_then(JsonValue::as_f64).expect("qom");
    assert!(qom > 0.0 && qom <= 1.0, "qom = {qom}");

    let second = conn.request("POST", "/v1/simulate", body).unwrap();
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);
    assert_eq!(metric(&server, "sim_cache_hits"), 1.0);

    // Over-budget slot counts are refused up front.
    let resp = client::post(
        addr,
        "/v1/simulate",
        br#"{"dist":"det:7","e":0.3,"slots":900000}"#,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    server.shutdown();
}

#[test]
fn batched_simulate_is_cached_and_bounds_checked() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    let body =
        br#"{"dist":"det:7","e":0.3,"slots":10000,"seed":42,"horizon":1024,"replications":6}"#;
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();
    let first = conn.request("POST", "/v1/simulate", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.cache.as_deref(), Some("miss"));
    let v = parse_line(&first.text()).unwrap();
    assert_eq!(v.get("replications").and_then(JsonValue::as_f64), Some(6.0));
    assert_eq!(
        v.get("qom_per_seed")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(6)
    );

    // The identical batched request replays the cached bytes.
    let second = conn.request("POST", "/v1/simulate", body).unwrap();
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);

    // Same scenario, different replication count: a distinct cache entry.
    let other =
        br#"{"dist":"det:7","e":0.3,"slots":10000,"seed":42,"horizon":1024,"replications":5}"#;
    let third = conn.request("POST", "/v1/simulate", other).unwrap();
    assert_eq!(third.cache.as_deref(), Some("miss"));

    // Zero and absurd replication counts are structured 400s.
    for bad in [
        &br#"{"dist":"det:7","e":0.3,"slots":10000,"replications":0}"#[..],
        br#"{"dist":"det:7","e":0.3,"slots":10000,"replications":1000000}"#,
        br#"{"dist":"det:7","e":0.3,"slots":400000,"replications":4}"#,
    ] {
        let resp = client::post(addr, "/v1/simulate", bad, TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        let v = parse_line(&resp.text()).unwrap();
        assert_eq!(
            v.get("kind").and_then(JsonValue::as_str),
            Some("invalid_field"),
            "{}",
            resp.text()
        );
    }
    server.shutdown();
}

#[test]
fn spelling_variants_share_one_cache_entry_on_both_endpoints() {
    // Regression: the cache key must be built from the *canonical* dist and
    // recharge spellings, so `exp:0.050` and `exponential:0.05` (an alias
    // plus a trailing-zero float) land on the same entry — on `/v1/solve`
    // and `/v1/simulate` alike.
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();

    let solve_a = br#"{"dist":"exp:0.050","e":0.2,"horizon":2048}"#;
    let solve_b = br#"{"dist":"exponential:0.05","e":0.2,"horizon":2048}"#;
    let first = conn.request("POST", "/v1/solve", solve_a).unwrap();
    let second = conn.request("POST", "/v1/solve", solve_b).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.cache.as_deref(), Some("miss"));
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);

    let sim_a = br#"{"dist":"exp:0.050","e":0.2,"recharge":"bernoulli:0.50,0.40","slots":5000,"seed":7,"horizon":2048}"#;
    let sim_b = br#"{"dist":"exponential:0.05","e":0.2,"recharge":"bernoulli:0.5,0.4","slots":5000,"seed":7,"horizon":2048}"#;
    let first = conn.request("POST", "/v1/simulate", sim_a).unwrap();
    let second = conn.request("POST", "/v1/simulate", sim_b).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.cache.as_deref(), Some("miss"));
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);

    assert_eq!(metric(&server, "solve_cache_misses"), 1.0);
    assert_eq!(metric(&server, "solve_cache_hits"), 1.0);
    assert_eq!(metric(&server, "sim_cache_misses"), 1.0);
    assert_eq!(metric(&server, "sim_cache_hits"), 1.0);
    server.shutdown();
}

#[test]
fn bad_requests_get_structured_errors_over_the_wire() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    // NaN inside a spec string: the shared spec module rejects it and the
    // server translates that into a structured 400 (satellite fix).
    let resp = client::post(
        addr,
        "/v1/solve",
        br#"{"dist":"weibull:nan,3","e":0.2}"#,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    let v = parse_line(&resp.text()).expect("error body parses");
    assert_eq!(
        v.get("kind").and_then(JsonValue::as_str),
        Some("invalid_spec")
    );
    assert!(
        v.get("message")
            .and_then(JsonValue::as_str)
            .is_some_and(|m| m.contains("not finite")),
        "{}",
        resp.text()
    );

    // Malformed JSON.
    let resp = client::post(addr, "/v1/solve", b"{not json", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);

    // None of those polluted the cache.
    assert_eq!(metric(&server, "solve_cache_misses"), 0.0);
    server.shutdown();
}

#[test]
fn oversized_bodies_are_refused_at_the_framing_layer() {
    // A small body budget, and a body that still fits comfortably in the
    // socket send buffer so the client finishes writing before the server
    // answers 413 and closes.
    let mut config = test_config();
    config.limits.max_body = 1024;
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr();

    let big = vec![b'x'; 4 * 1024];
    let resp = client::post(addr, "/v1/solve", &big, TIMEOUT).unwrap();
    assert_eq!(resp.status, 413);
    assert!(!resp.keep_alive);
    server.shutdown();
}

#[test]
fn prometheus_exposition_round_trips_and_matches_json() {
    use evcap_serve::prometheus;

    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();

    // One miss + one hit so the cache series and latency histogram are
    // populated.
    let body = br#"{"dist":"det:9","e":0.25,"horizon":2048}"#;
    assert_eq!(conn.request("POST", "/v1/solve", body).unwrap().status, 200);
    let hit = conn.request("POST", "/v1/solve", body).unwrap();
    assert_eq!(hit.cache.as_deref(), Some("hit"));

    // JSON stays the default; Prometheus comes via `?format=` or `Accept`.
    let json = conn.request("GET", "/metrics", b"").unwrap();
    assert_eq!(json.content_type.as_deref(), Some("application/json"));
    let m = parse_line(&json.text()).unwrap();
    let json_requests = m.get("requests").and_then(JsonValue::as_f64).unwrap();

    let scrape = conn
        .request("GET", "/metrics?format=prometheus", b"")
        .unwrap();
    assert_eq!(scrape.status, 200);
    assert_eq!(
        scrape.content_type.as_deref(),
        Some(prometheus::CONTENT_TYPE)
    );
    let samples = prometheus::parse(&scrape.text()).expect("scrape parses");

    // Request counters are present and consistent with the JSON body
    // (the scrape itself is one more request than the JSON snapshot saw).
    let requests = prometheus::find(&samples, "evcap_requests_total", &[]).unwrap();
    assert_eq!(requests, json_requests + 1.0);
    assert_eq!(
        prometheus::find(
            &samples,
            "evcap_endpoint_requests_total",
            &[("endpoint", "solve")]
        ),
        Some(2.0)
    );

    // Both cache tiers expose per-shard series; the artifact tier's hit
    // counters sum to the one hit above, and every shard reports capacity.
    for cache in ["artifact", "sim"] {
        let mut hits = 0.0;
        for shard in 0..4 {
            let labels = [("cache", cache), ("shard", &shard.to_string())];
            hits += prometheus::find(&samples, "evcap_cache_hits_total", &labels[..])
                .unwrap_or_else(|| panic!("missing hits for {cache}/{shard}"));
            assert!(prometheus::find(&samples, "evcap_cache_capacity", &labels[..]).unwrap() > 0.0);
        }
        assert_eq!(hits, if cache == "artifact" { 1.0 } else { 0.0 });
    }

    // Histogram buckets are cumulative and terminate at `+Inf` == `_count`.
    let buckets: Vec<&prometheus::Sample> = samples
        .iter()
        .filter(|s| s.name == "evcap_request_latency_seconds_bucket")
        .collect();
    assert!(buckets.len() >= 2);
    assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
    assert_eq!(buckets.last().and_then(|s| s.label("le")), Some("+Inf"));
    let count = prometheus::find(&samples, "evcap_request_latency_seconds_count", &[]).unwrap();
    assert_eq!(buckets.last().map(|s| s.value), Some(count));

    // Accept-header negotiation picks the text format too.
    let via_accept = conn
        .request_with("GET", "/metrics", b"", &[("accept", "text/plain")])
        .unwrap();
    assert_eq!(
        via_accept.content_type.as_deref(),
        Some(prometheus::CONTENT_TYPE)
    );
    assert!(prometheus::parse(&via_accept.text()).is_ok());

    server.shutdown();
}

#[test]
fn trace_tree_in_the_access_log_is_single_rooted() {
    let log = std::env::temp_dir().join("evcap_e2e_trace_tree.jsonl");
    let _ = std::fs::remove_file(&log);
    let mut config = test_config();
    config.access_log = Some(log.display().to_string());
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr();

    // A cache-miss solve with a caller-chosen request id: the clustering
    // optimizer runs, so the tree must contain its span.
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();
    let body = br#"{"dist":"weibull:30,2","e":0.2,"policy":"clustering","horizon":4096}"#;
    let resp = conn
        .request_with(
            "POST",
            "/v1/solve",
            body,
            &[("x-request-id", "e2e-trace-01")],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.cache.as_deref(), Some("miss"));
    // The id is echoed back on the response.
    assert_eq!(resp.request_id.as_deref(), Some("e2e-trace-01"));

    server.shutdown(); // flushes the access log

    let text = std::fs::read_to_string(&log).expect("access log written");
    let records: Vec<JsonValue> = text.lines().map(|l| parse_line(l).unwrap()).collect();
    let str_of = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_owned);
    let num_of = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap() as u64;

    // The request record carries the trace id.
    let req = records
        .iter()
        .find(|r| str_of(r, "type").as_deref() == Some("request"))
        .expect("request record");
    assert_eq!(str_of(req, "trace_id").as_deref(), Some("e2e-trace-01"));

    // The span records form one single-rooted tree under that trace id.
    let spans: Vec<&JsonValue> = records
        .iter()
        .filter(|r| {
            str_of(r, "type").as_deref() == Some("trace_span")
                && str_of(r, "trace_id").as_deref() == Some("e2e-trace-01")
        })
        .collect();
    let roots: Vec<&&JsonValue> = spans
        .iter()
        .filter(|s| num_of(s, "parent_id") == 0)
        .collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(str_of(roots[0], "name").as_deref(), Some("POST /v1/solve"));
    let ids: Vec<u64> = spans.iter().map(|s| num_of(s, "span_id")).collect();
    for s in &spans {
        let parent = num_of(s, "parent_id");
        assert!(
            parent == 0 || ids.contains(&parent),
            "span {} has a dangling parent {parent}",
            num_of(s, "span_id"),
        );
    }
    let names: Vec<String> = spans.iter().filter_map(|s| str_of(s, "name")).collect();
    for expected in ["spec.solve", "clustering.search", "req.parse", "spec.table"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span `{expected}` in {names:?}"
        );
    }
    // The cache marks annotate their tier outcome.
    let mark = spans
        .iter()
        .find(|s| str_of(s, "name").as_deref() == Some("cache.artifact"))
        .expect("cache.artifact mark");
    assert_eq!(str_of(mark, "label").as_deref(), Some("miss"));

    let _ = std::fs::remove_file(&log);
}

#[test]
fn debug_recent_reports_request_summaries() {
    let mut config = test_config();
    config.recent = 8;
    let server = Server::start(config).expect("bind");
    let addr = server.local_addr();
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();

    let body = br#"{"dist":"det:11","e":0.3,"horizon":1024}"#;
    let miss = conn
        .request_with(
            "POST",
            "/v1/solve",
            body,
            &[("x-request-id", "recent-miss")],
        )
        .unwrap();
    assert_eq!(miss.status, 200);
    assert_eq!(
        conn.request("POST", "/v1/solve", body)
            .unwrap()
            .cache
            .as_deref(),
        Some("hit")
    );

    let resp = conn.request("GET", "/debug/recent", b"").unwrap();
    assert_eq!(resp.status, 200);
    let v = parse_line(&resp.text()).expect("recent body parses");
    assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("recent"));
    assert_eq!(v.get("capacity").and_then(JsonValue::as_f64), Some(8.0));
    let requests = v.get("requests").and_then(JsonValue::as_array).unwrap();
    assert_eq!(requests.len(), 2, "{}", resp.text());
    let path = |r: &JsonValue| r.get("path").and_then(JsonValue::as_str).map(str::to_owned);
    let cache = |r: &JsonValue| {
        r.get("cache")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    assert_eq!(path(&requests[0]).as_deref(), Some("/v1/solve"));
    assert_eq!(cache(&requests[0]).as_deref(), Some("miss"));
    assert_eq!(
        requests[0].get("trace_id").and_then(JsonValue::as_str),
        Some("recent-miss")
    );
    assert_eq!(cache(&requests[1]).as_deref(), Some("hit"));
    for r in requests {
        assert!(r.get("latency_us").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert_eq!(r.get("status").and_then(JsonValue::as_f64), Some(200.0));
    }
    // The API surface mirrors the drain report's accessor (which by now
    // also saw the `/debug/recent` scrape itself).
    let recent = server.recent_requests();
    assert_eq!(recent.len(), 3);
    assert_eq!(recent[2].path, "/debug/recent");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_closes_the_listener() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();
    let resp = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);

    let stop = server.stop_flag();
    stop.stop();
    assert!(server.is_stopping());
    server.shutdown();

    // Every worker has exited and dropped its listener clone, so new
    // connections are refused.
    assert!(Conn::connect(addr, Duration::from_millis(500)).is_err());
}
