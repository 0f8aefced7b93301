//! End-to-end proof that the `SolvedPolicy` artifact cache deduplicates
//! solves *across* response-cache entries.
//!
//! Two `/v1/simulate` requests for the same scenario with different slot
//! counts are distinct response-cache entries, but must share one solve —
//! and a follow-up `/v1/solve` for the same scenario must reuse it too.
//!
//! This lives in its own integration-test binary because the `evcap_obs`
//! timing registry is process-global: the span counts below are only
//! attributable to these requests if no other test in the process runs the
//! clustering optimizer under an enabled registry (e2e.rs has such a test).

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

fn clustering_search_count() -> u64 {
    // Draining resets the registry, so this is called once, at the end.
    let spans = evcap_obs::timing::drain_spans();
    spans
        .iter()
        .find(|(name, _)| *name == "clustering.search")
        .map_or(0, |(_, agg)| agg.count)
}

#[test]
fn simulate_and_solve_share_one_artifact_per_scenario() {
    let server = Server::start(test_config()).expect("bind");
    let addr = server.local_addr();

    evcap_obs::timing::set_enabled(true);
    evcap_obs::timing::reset();

    // Same scenario, different slot counts: distinct response-cache keys.
    let sim_a = br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","slots":20000,"seed":9,"horizon":4096}"#;
    let sim_b = br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","slots":30000,"seed":9,"horizon":4096}"#;
    let mut conn = Conn::connect(addr, TIMEOUT).unwrap();

    let first = conn.request("POST", "/v1/simulate", sim_a).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.cache.as_deref(), Some("miss"));

    let second = conn.request("POST", "/v1/simulate", sim_b).unwrap();
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(
        second.cache.as_deref(),
        Some("miss"),
        "different slot counts are distinct response-cache entries"
    );

    // Both responses simulated distinct slot counts...
    let a = parse_line(&first.text()).unwrap();
    let b = parse_line(&second.text()).unwrap();
    assert_eq!(a.get("slots").and_then(JsonValue::as_f64), Some(20_000.0));
    assert_eq!(b.get("slots").and_then(JsonValue::as_f64), Some(30_000.0));

    // ...yet the clustering optimizer ran exactly once, and the artifact
    // cache shows one miss (the solve) plus one hit (the reuse).
    assert_eq!(metric(&server, "artifact_cache_misses"), 1.0);
    assert_eq!(metric(&server, "artifact_cache_hits"), 1.0);

    // `/v1/solve` for the same scenario answers from the cached artifact:
    // an artifact-cache hit, and still one solve.
    let solve = br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","horizon":4096}"#;
    let third = conn.request("POST", "/v1/solve", solve).unwrap();
    assert_eq!(third.status, 200, "{}", third.text());
    assert_eq!(third.cache.as_deref(), Some("hit"));
    assert_eq!(metric(&server, "artifact_cache_misses"), 1.0);
    assert_eq!(metric(&server, "artifact_cache_hits"), 2.0);

    evcap_obs::timing::set_enabled(false);
    let searches = clustering_search_count();
    assert_eq!(
        searches, 1,
        "three requests for one scenario must run the optimizer once"
    );

    server.shutdown();
}
