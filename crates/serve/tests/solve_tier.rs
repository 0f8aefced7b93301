//! `/v1/solve` answers from the artifact tier: the solve body is rendered
//! once into the artifact's entry, so a simulate that loaded the artifact
//! first leaves the solve a hit, and an evicted artifact takes its body
//! with it.
//!
//! This lives in its own test binary because the `evcap_obs` timing
//! registry is process-global: the `clustering.search` count below is only
//! attributable to these requests if no other test in the process runs the
//! clustering optimizer (the eviction test solves greedy scenarios only).

use std::time::Duration;

use evcap_obs::{parse_line, JsonValue};
use evcap_serve::client::{self, Conn};
use evcap_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
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

/// Starts a server, answers one solve request on a fresh connection, and
/// returns its body.
fn solve_on_fresh_server(body: &[u8]) -> Vec<u8> {
    let server = Server::start(test_config()).expect("bind");
    let resp = client::post(server.local_addr(), "/v1/solve", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.cache.as_deref(), Some("miss"));
    server.shutdown();
    resp.body
}

#[test]
fn a_solve_after_a_simulate_is_an_artifact_hit_with_the_solve_first_bytes() {
    let sim = br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","slots":20000,"seed":9,"horizon":4096}"#;
    // A second spelling of the simulated scenario.
    let solve = br#"{"dist":"weibull:40.0,3","e":0.2,"policy":"clustering","horizon":4096}"#;

    let server = Server::start(test_config()).expect("bind");
    let mut conn = Conn::connect(server.local_addr(), TIMEOUT).unwrap();
    evcap_obs::timing::set_enabled(true);
    evcap_obs::timing::reset();
    let simulated = conn.request("POST", "/v1/simulate", sim).unwrap();
    assert_eq!(simulated.status, 200, "{}", simulated.text());
    let solved = conn.request("POST", "/v1/solve", solve).unwrap();
    evcap_obs::timing::set_enabled(false);
    assert_eq!(solved.status, 200, "{}", solved.text());
    assert_eq!(solved.cache.as_deref(), Some("hit"));
    assert_eq!(metric(&server, "solve_cache_hits"), 1.0);
    assert_eq!(metric(&server, "solve_cache_misses"), 0.0);
    assert_eq!(metric(&server, "artifact_cache_misses"), 1.0);
    let searches = evcap_obs::timing::drain_spans()
        .iter()
        .find(|(name, _)| *name == "clustering.search")
        .map_or(0, |(_, agg)| agg.count);
    assert_eq!(searches, 1, "the simulate's solve serves the solve too");
    drop(conn);
    server.shutdown();

    assert_eq!(solved.body, solve_on_fresh_server(solve));
}

/// Solves A, then B, then A on a one-entry artifact tier; returns the
/// server (still running) and A's two bodies.
fn solve_a_b_a(config: ServeConfig) -> (Server, Vec<u8>, Vec<u8>) {
    let a = br#"{"dist":"weibull:40,3","e":0.2,"horizon":4096}"#;
    let b = br#"{"dist":"det:9","e":0.25,"horizon":2048}"#;
    let server = Server::start(ServeConfig {
        cache_cap: 1,
        shards: 1,
        ..config
    })
    .expect("bind");
    let mut conn = Conn::connect(server.local_addr(), TIMEOUT).unwrap();
    let mut bodies = Vec::new();
    for body in [&a[..], b, a] {
        let resp = conn.request("POST", "/v1/solve", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.cache.as_deref(), Some("miss"), "B evicts A");
        bodies.push(resp.body);
    }
    assert!(metric(&server, "artifact_cache_evictions") >= 1.0);
    assert_eq!(metric(&server, "solve_cache_misses"), 3.0);
    let second = bodies.pop().unwrap();
    let first = bodies.swap_remove(0);
    (server, first, second)
}

#[test]
fn an_evicted_artifact_takes_its_solve_body_and_a_refetch_renders_the_same_bytes() {
    let (server, first, second) = solve_a_b_a(test_config());
    assert_eq!(first, second);
    assert_eq!(metric(&server, "store_hits"), 0.0);
    server.shutdown();

    let dir = std::env::temp_dir().join(format!("evcap-solve-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (server, stored_first, stored_second) = solve_a_b_a(ServeConfig {
        store: Some(dir.display().to_string()),
        ..test_config()
    });
    // A's second fetch is a certified load from the disk tier.
    assert_eq!(metric(&server, "store_hits"), 1.0);
    assert_eq!(stored_first, stored_second);
    assert_eq!(stored_first, first);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
