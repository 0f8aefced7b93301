//! Request bodies → validated scenarios → canonical cache keys.
//!
//! A request parses into a canonical [`evcap_spec::Scenario`] (plus the
//! simulation-only knobs: slots, seed, coordination, replications).
//! Canonicalization happens inside the scenario layer, before any cache is
//! consulted, so `{"dist":"exponential:0.050"}` and `{"dist":"exp:0.05"}`
//! produce the same [`evcap_spec::Scenario::canonical_key`] — the
//! artifact cache's key, which is also [`SolveScenario::cache_key`] — and
//! share one cached solution.
//!
//! All failures are [`ApiError`]s: an HTTP status plus a machine-readable
//! `kind` and a human-readable message, rendered as a flat JSONL-style
//! object so clients (and the e2e tests) can parse responses with
//! [`evcap_obs::parse_line`].

use evcap_obs::{parse_line, JsonObject, JsonValue};
use evcap_spec::{PolicySpec, Scenario};

/// A structured request failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable discriminator (`invalid_spec`, …).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given kind.
    pub fn bad_request(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 400,
            kind,
            message: message.into(),
        }
    }

    /// A 422 for scenarios that parse but cannot be solved.
    pub fn unprocessable(message: impl Into<String>) -> Self {
        Self {
            status: 422,
            kind: "unsolvable",
            message: message.into(),
        }
    }

    /// The JSON response body: `{"type":"error","kind":…,"message":…}`.
    pub fn body(&self) -> String {
        let mut obj = JsonObject::with_type("error");
        obj.field_str("kind", self.kind);
        obj.field_str("message", &self.message);
        obj.field_u64("status", u64::from(self.status));
        obj.finish()
    }
}

impl From<evcap_spec::SpecError> for ApiError {
    fn from(e: evcap_spec::SpecError) -> Self {
        ApiError::bad_request("invalid_spec", e.to_string())
    }
}

impl From<evcap_spec::SolveError> for ApiError {
    fn from(e: evcap_spec::SolveError) -> Self {
        match e {
            evcap_spec::SolveError::Spec(spec) => spec.into(),
            evcap_spec::SolveError::Unsolvable(reason) => ApiError::unprocessable(reason),
        }
    }
}

/// The widest horizon a request may ask for (explicit pmf slots).
pub const MAX_HORIZON: usize = 1 << 20;
/// The most sensors a simulation request may ask for.
pub const MAX_SENSORS: usize = 64;
/// The most replications a simulation request may ask for.
pub const MAX_REPLICATIONS: usize = 64;

/// A validated `/v1/solve` request: a canonical scenario.
///
/// Its one cache identity, the artifact key, is computed once at parse
/// time, so the serve hot path (an artifact-cache hit) borrows a
/// precomputed string instead of re-deriving `canonical_key` per request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveScenario {
    /// The canonical scenario to solve.
    pub scenario: Scenario,
    /// Precomputed artifact identity (`Scenario::canonical_key`).
    artifact_key: String,
}

/// A validated `/v1/simulate` request: a canonical scenario plus the
/// simulation-only knobs (which do not affect the solve artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateScenario {
    /// The canonical scenario to solve before simulating.
    pub scenario: Scenario,
    /// Slots to simulate.
    pub slots: u64,
    /// RNG seed.
    pub seed: u64,
    /// `true` → rotating (round-robin) slot assignment, else independent.
    pub rotating: bool,
    /// Monte Carlo replications (1 = the classic single run).
    pub replications: usize,
    /// Precomputed response-cache key (scenario + simulation knobs).
    cache_key: String,
    /// Precomputed artifact identity (`Scenario::canonical_key`).
    artifact_key: String,
}

/// Parses a request body into a JSON object, field map included.
fn parse_object(body: &[u8]) -> Result<std::collections::BTreeMap<String, JsonValue>, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("invalid_json", "request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request("invalid_json", "empty request body"));
    }
    match parse_line(text) {
        Ok(JsonValue::Object(map)) => Ok(map),
        Ok(_) => Err(ApiError::bad_request(
            "invalid_json",
            "request body must be a JSON object",
        )),
        Err(e) => Err(ApiError::bad_request(
            "invalid_json",
            format!("malformed JSON: {e}"),
        )),
    }
}

fn reject_unknown(
    map: &std::collections::BTreeMap<String, JsonValue>,
    allowed: &[&str],
) -> Result<(), ApiError> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad_request(
                "unknown_field",
                format!("unknown field `{key}` (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn want_str<'a>(
    map: &'a std::collections::BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<Option<&'a str>, ApiError> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::String(s)) => Ok(Some(s)),
        Some(_) => Err(ApiError::bad_request(
            "invalid_field",
            format!("field `{key}` must be a string"),
        )),
    }
}

fn want_f64(
    map: &std::collections::BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<Option<f64>, ApiError> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Number(n)) => {
            if n.is_finite() {
                Ok(Some(*n))
            } else {
                Err(ApiError::bad_request(
                    "invalid_field",
                    format!("field `{key}` must be finite"),
                ))
            }
        }
        Some(_) => Err(ApiError::bad_request(
            "invalid_field",
            format!("field `{key}` must be a number"),
        )),
    }
}

fn want_index(
    map: &std::collections::BTreeMap<String, JsonValue>,
    key: &str,
    max: u64,
) -> Result<Option<u64>, ApiError> {
    let Some(v) = want_f64(map, key)? else {
        return Ok(None);
    };
    if v < 0.0 || v.fract() != 0.0 {
        return Err(ApiError::bad_request(
            "invalid_field",
            format!("field `{key}` must be a non-negative integer"),
        ));
    }
    let v = v as u64;
    if v > max {
        return Err(ApiError::bad_request(
            "invalid_field",
            format!("field `{key}` must be ≤ {max}"),
        ));
    }
    Ok(Some(v))
}

fn positive(key: &str, v: f64) -> Result<f64, ApiError> {
    if v > 0.0 {
        Ok(v)
    } else {
        Err(ApiError::bad_request(
            "invalid_field",
            format!("field `{key}` must be positive"),
        ))
    }
}

const SOLVE_FIELDS: &[&str] = &[
    "dist",
    "e",
    "policy",
    "objective",
    "delta1",
    "delta2",
    "horizon",
];
const SIMULATE_FIELDS: &[&str] = &[
    "dist",
    "e",
    "policy",
    "objective",
    "delta1",
    "delta2",
    "horizon",
    "slots",
    "seed",
    "k",
    "sensors",
    "recharge",
    "coordination",
    "replications",
];

fn scenario_from(
    map: &std::collections::BTreeMap<String, JsonValue>,
) -> Result<Scenario, ApiError> {
    let raw_dist = want_str(map, "dist")?
        .ok_or_else(|| ApiError::bad_request("missing_field", "field `dist` is required"))?;
    if raw_dist.trim().starts_with("trace:") {
        // Trace specs name files on the *server's* filesystem; refusing them
        // keeps request bodies from probing local paths.
        return Err(ApiError::bad_request(
            "invalid_spec",
            "trace: distributions are not served over HTTP",
        ));
    }
    let e = want_f64(map, "e")?
        .ok_or_else(|| ApiError::bad_request("missing_field", "field `e` is required"))?;
    let e = positive("e", e)?;
    let policy = PolicySpec::parse(want_str(map, "policy")?.unwrap_or("greedy"))?;
    let delta1 = positive("delta1", want_f64(map, "delta1")?.unwrap_or(1.0))?;
    let delta2 = positive("delta2", want_f64(map, "delta2")?.unwrap_or(6.0))?;
    let horizon = want_index(map, "horizon", MAX_HORIZON as u64)?.unwrap_or(65_536) as usize;
    if horizon < 2 {
        return Err(ApiError::bad_request(
            "invalid_field",
            "field `horizon` must be ≥ 2",
        ));
    }
    let mut scenario = Scenario::new(raw_dist, policy, e)?
        .with_costs(delta1, delta2)
        .with_horizon(horizon);
    // Omitted ≡ explicit "qom": the canonical key elides the default, so
    // pre-objective requests keep hitting their existing cache entries.
    if let Some(spec) = want_str(map, "objective")? {
        scenario = scenario.with_objective(evcap_spec::parse_objective(spec)?);
    }
    Ok(scenario)
}

impl SolveScenario {
    /// Parses and validates a `/v1/solve` body.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] (status 400) for malformed JSON, unknown or
    /// ill-typed fields, and invalid specs — including non-finite numeric
    /// spec arguments like `weibull:nan,3`.
    pub fn from_body(body: &[u8]) -> Result<Self, ApiError> {
        let map = {
            let _parse = evcap_obs::timing::span("req.parse");
            parse_object(body)?
        };
        reject_unknown(&map, SOLVE_FIELDS)?;
        let _canon = evcap_obs::timing::span("req.canonicalize");
        let scenario = scenario_from(&map)?;
        let artifact_key = scenario.canonical_key();
        Ok(Self {
            scenario,
            artifact_key,
        })
    }

    /// The canonical cache key, [`Self::artifact_key`]: two requests get the
    /// same key iff they describe the same optimization. Borrowed — computed
    /// once at parse time, so cache hits allocate nothing for the lookup.
    pub fn cache_key(&self) -> &str {
        &self.artifact_key
    }

    /// The scenario's artifact identity ([`Scenario::canonical_key`]),
    /// precomputed at parse time.
    pub fn artifact_key(&self) -> &str {
        &self.artifact_key
    }
}

impl SimulateScenario {
    /// Parses and validates a `/v1/simulate` body.
    ///
    /// # Errors
    ///
    /// As [`SolveScenario::from_body`], plus bounds on `slots` (caller's
    /// `max_slots`), `sensors` (≤ [`MAX_SENSORS`]) and the recharge spec.
    pub fn from_body(body: &[u8], max_slots: u64) -> Result<Self, ApiError> {
        let map = {
            let _parse = evcap_obs::timing::span("req.parse");
            parse_object(body)?
        };
        reject_unknown(&map, SIMULATE_FIELDS)?;
        let _canon = evcap_obs::timing::span("req.canonicalize");
        let mut scenario = scenario_from(&map)?;
        let slots = want_index(&map, "slots", max_slots)?.unwrap_or(100_000.min(max_slots));
        if slots == 0 {
            return Err(ApiError::bad_request(
                "invalid_field",
                "field `slots` must be ≥ 1",
            ));
        }
        let seed = want_index(&map, "seed", u64::MAX >> 1)?.unwrap_or(2012);
        let k = positive("k", want_f64(&map, "k")?.unwrap_or(1000.0))?;
        let sensors = want_index(&map, "sensors", MAX_SENSORS as u64)?.unwrap_or(1) as usize;
        if sensors == 0 {
            return Err(ApiError::bad_request(
                "invalid_field",
                "field `sensors` must be ≥ 1",
            ));
        }
        scenario = scenario.with_battery(k).with_sensors(sensors);
        // Default recharge mirrors the CLI (Bernoulli(0.5) delivering 2e, so
        // the mean rate matches the solve budget) and is already set by
        // `Scenario::new`; only an explicit spec replaces it.
        if let Some(spec) = want_str(&map, "recharge")? {
            scenario = scenario.with_recharge(spec)?;
        }
        let rotating = match want_str(&map, "coordination")?.unwrap_or("rotating") {
            "rotating" => true,
            "independent" => false,
            other => {
                return Err(ApiError::bad_request(
                    "invalid_field",
                    format!("unknown coordination `{other}` (try rotating, independent)"),
                ))
            }
        };
        let replications =
            want_index(&map, "replications", MAX_REPLICATIONS as u64)?.unwrap_or(1) as usize;
        if replications == 0 {
            return Err(ApiError::bad_request(
                "invalid_field",
                "field `replications` must be ≥ 1",
            ));
        }
        // Replications multiply work: the per-request slot budget bounds the
        // total (`slots × replications`), not just one replication.
        if slots.saturating_mul(replications as u64) > max_slots {
            return Err(ApiError::bad_request(
                "invalid_field",
                format!("`slots` × `replications` must be ≤ {max_slots} total slots"),
            ));
        }
        let artifact_key = scenario.canonical_key();
        let cache_key = format!(
            "sim|{artifact_key}|slots={slots}|seed={seed}|{}|reps={replications}",
            if rotating { "rot" } else { "ind" },
        );
        Ok(SimulateScenario {
            scenario,
            slots,
            seed,
            rotating,
            replications,
            cache_key,
            artifact_key,
        })
    }

    /// The canonical cache key for this simulation: the scenario's
    /// artifact identity plus the simulation-only knobs. Borrowed —
    /// computed once at parse time.
    pub fn cache_key(&self) -> &str {
        &self.cache_key
    }

    /// The scenario's artifact identity ([`Scenario::canonical_key`]),
    /// precomputed at parse time.
    pub fn artifact_key(&self) -> &str {
        &self.artifact_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_parses_with_defaults() {
        let s = SolveScenario::from_body(br#"{"dist":"weibull:40,3","e":0.2}"#).unwrap();
        assert_eq!(s.scenario.dist(), "weibull:40,3");
        assert_eq!(s.scenario.e(), 0.2);
        assert_eq!(s.scenario.policy(), PolicySpec::Greedy);
        assert_eq!(s.scenario.delta1(), 1.0);
        assert_eq!(s.scenario.delta2(), 6.0);
        assert_eq!(s.scenario.horizon(), 65_536);
    }

    #[test]
    fn all_policy_families_parse() {
        for (name, want) in [
            ("greedy", PolicySpec::Greedy),
            ("clustering", PolicySpec::Clustering),
            ("aggressive", PolicySpec::Aggressive),
            ("periodic", PolicySpec::Periodic { theta1: 3 }),
            ("myopic", PolicySpec::Myopic),
        ] {
            let body = format!(r#"{{"dist":"weibull:40,3","e":0.2,"policy":"{name}"}}"#);
            let s = SolveScenario::from_body(body.as_bytes()).unwrap();
            assert_eq!(s.scenario.policy(), want, "{name}");
        }
    }

    #[test]
    fn equivalent_spellings_share_a_cache_key() {
        let a = SolveScenario::from_body(br#"{"dist":"exponential:0.050","e":0.25}"#).unwrap();
        let b = SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.scenario.canonical_key(), b.scenario.canonical_key());

        let c = SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25,"delta1":2}"#).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn objective_parses_and_keys_back_compatibly() {
        use evcap_spec::Objective;
        let omitted = SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25}"#).unwrap();
        let explicit =
            SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25,"objective":"qom"}"#).unwrap();
        // Explicit "qom" is byte-identical to omitting the field.
        assert_eq!(omitted.cache_key(), explicit.cache_key());
        assert_eq!(omitted.artifact_key(), explicit.artifact_key());
        assert_eq!(omitted.scenario.objective(), Objective::Qom);

        let aoi =
            SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25,"objective":"aoi-mean"}"#)
                .unwrap();
        assert_eq!(aoi.scenario.objective(), Objective::AoiMean);
        assert_ne!(aoi.cache_key(), omitted.cache_key());
        assert!(aoi.artifact_key().ends_with("|obj=aoi-mean"));

        let sim = SimulateScenario::from_body(
            br#"{"dist":"exp:0.05","e":0.25,"slots":5000,"objective":"aoi-peak"}"#,
            1_000_000,
        )
        .unwrap();
        assert_eq!(sim.scenario.objective(), Objective::AoiPeak);

        let err = SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25,"objective":"fresh"}"#)
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "invalid_spec");
        assert!(err.message.contains("aoi-mean"), "{}", err.message);
    }

    #[test]
    fn solve_and_simulate_share_the_artifact_identity() {
        // A default simulate request must hit the same artifact-cache entry
        // as a solve for the same scenario: same canonical_key.
        let solve = SolveScenario::from_body(br#"{"dist":"exp:0.05","e":0.25}"#).unwrap();
        let sim = SimulateScenario::from_body(
            br#"{"dist":"exponential:0.050","e":0.25,"slots":5000}"#,
            1_000_000,
        )
        .unwrap();
        assert_eq!(solve.scenario.canonical_key(), sim.scenario.canonical_key());
    }

    #[test]
    fn nan_spec_arguments_are_structured_400s() {
        let err = SolveScenario::from_body(br#"{"dist":"weibull:nan,3","e":0.2}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "invalid_spec");
        assert!(err.message.contains("not finite"), "{}", err.message);
        // The rendered body parses back and carries the kind.
        let parsed = parse_line(&err.body()).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(JsonValue::as_str),
            Some("invalid_spec")
        );
    }

    #[test]
    fn structural_errors_are_rejected() {
        for (body, kind) in [
            (&b"not json"[..], "invalid_json"),
            (br#"[1,2]"#, "invalid_json"),
            (br#"{}"#, "missing_field"),
            (br#"{"dist":"exp:0.05"}"#, "missing_field"),
            (br#"{"dist":"exp:0.05","e":0.2,"bogus":1}"#, "unknown_field"),
            (br#"{"dist":7,"e":0.2}"#, "invalid_field"),
            (br#"{"dist":"exp:0.05","e":-1}"#, "invalid_field"),
            (
                br#"{"dist":"exp:0.05","e":0.2,"policy":"x"}"#,
                "invalid_spec",
            ),
            (
                br#"{"dist":"exp:0.05","e":0.2,"horizon":1.5}"#,
                "invalid_field",
            ),
            (br#"{"dist":"trace:/etc/passwd","e":0.2}"#, "invalid_spec"),
            (br#"{"dist":"zipf:2","e":0.2}"#, "invalid_spec"),
        ] {
            let err = SolveScenario::from_body(body).unwrap_err();
            assert_eq!(err.status, 400, "{body:?}");
            assert_eq!(err.kind, kind, "{body:?}: {}", err.message);
        }
    }

    #[test]
    fn simulate_parses_bounds_and_defaults() {
        let s = SimulateScenario::from_body(
            br#"{"dist":"det:7","e":0.3,"slots":5000,"seed":9,"sensors":2}"#,
            1_000_000,
        )
        .unwrap();
        assert_eq!(s.slots, 5000);
        assert_eq!(s.seed, 9);
        assert_eq!(s.scenario.sensors(), 2);
        assert_eq!(s.scenario.recharge(), "bernoulli:0.5,0.6");
        assert!(s.rotating);

        let err =
            SimulateScenario::from_body(br#"{"dist":"det:7","e":0.3,"slots":2000000}"#, 1_000_000)
                .unwrap_err();
        assert_eq!(err.kind, "invalid_field");

        let err = SimulateScenario::from_body(
            br#"{"dist":"det:7","e":0.3,"recharge":"bernoulli:nan,1"}"#,
            1_000_000,
        )
        .unwrap_err();
        assert_eq!(err.kind, "invalid_spec");
    }

    #[test]
    fn replications_parse_validate_and_key() {
        // Default is one replication.
        let one =
            SimulateScenario::from_body(br#"{"dist":"det:7","e":0.3,"slots":5000}"#, 1_000_000)
                .unwrap();
        assert_eq!(one.replications, 1);

        let many = SimulateScenario::from_body(
            br#"{"dist":"det:7","e":0.3,"slots":5000,"replications":8}"#,
            1_000_000,
        )
        .unwrap();
        assert_eq!(many.replications, 8);
        // The replication count is part of the cache identity…
        assert_ne!(one.cache_key(), many.cache_key());
        // …but not of the artifact identity: both share one solve.
        assert_eq!(one.scenario.canonical_key(), many.scenario.canonical_key());

        // Zero and absurdly large counts are structured 400s.
        for body in [
            &br#"{"dist":"det:7","e":0.3,"slots":5000,"replications":0}"#[..],
            br#"{"dist":"det:7","e":0.3,"slots":5000,"replications":1000000}"#,
            br#"{"dist":"det:7","e":0.3,"slots":5000,"replications":2.5}"#,
        ] {
            let err = SimulateScenario::from_body(body, 1_000_000).unwrap_err();
            assert_eq!(err.status, 400, "{body:?}");
            assert_eq!(err.kind, "invalid_field", "{body:?}: {}", err.message);
        }

        // The slot budget bounds total work across replications.
        let err = SimulateScenario::from_body(
            br#"{"dist":"det:7","e":0.3,"slots":400000,"replications":4}"#,
            1_000_000,
        )
        .unwrap_err();
        assert_eq!(err.kind, "invalid_field");
        assert!(err.message.contains("total slots"), "{}", err.message);
    }

    #[test]
    fn simulate_cache_keys_separate_seeds() {
        let body = |seed: u64| {
            format!(r#"{{"dist":"det:7","e":0.3,"slots":1000,"seed":{seed}}}"#).into_bytes()
        };
        let a = SimulateScenario::from_body(&body(1), 1_000_000).unwrap();
        let b = SimulateScenario::from_body(&body(2), 1_000_000).unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.scenario.canonical_key(), b.scenario.canonical_key());
    }
}
