//! Scenario execution: rendering solved artifacts and running simulations.
//!
//! The actual policy construction lives in `evcap_spec::solve` — the
//! single pipeline shared with the CLI and the bench runners. Handlers
//! take a [`SolvedPolicy`] artifact (produced once per canonical scenario
//! by the server's artifact cache) and either serialize it (`/v1/solve`)
//! or drive the simulation engine with it (`/v1/simulate`).
//!
//! Handlers return the serialized JSON response body (a `String`) so the
//! server's caches can store bodies directly — a cache hit replays bytes
//! without re-serializing, and hit/miss bodies are identical by
//! construction.

use evcap_core::SlotAssignment;
use evcap_energy::{Energy, RechargeProcess};
use evcap_obs::JsonObject;
use evcap_sim::{ReplicationBatch, Simulation};
use evcap_spec::{PolicySpec, Scenario, SolvedPolicy};

use crate::scenario::{ApiError, SimulateScenario, SolveScenario};

/// Most activation coefficients included in a solve response (the full
/// vector can be 10⁶ entries; clients wanting more lower the horizon).
const MAX_COEFFICIENTS: usize = 512;

/// Inert recharge returned on the *unreachable* re-parse error path inside
/// the per-sensor factories: the spec string was validated at request
/// entry, and `parse_recharge` is deterministic, so this can only surface
/// if the spec layer itself breaks — in which case a sensor that never
/// recharges shows up plainly in the results instead of a panic killing a
/// worker thread (request paths must not panic).
struct DeadRecharge;

impl RechargeProcess for DeadRecharge {
    fn next(&mut self, _rng: &mut dyn rand::RngCore) -> Energy {
        Energy::ZERO
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
    fn label(&self) -> String {
        "dead(unreachable re-parse failure)".to_owned()
    }
    fn reset(&mut self) {}
}

/// Builds one sensor's recharge process from an already-validated spec,
/// without a panic path.
fn recharge_process(spec: &str) -> Box<dyn RechargeProcess> {
    evcap_spec::parse_recharge(spec).unwrap_or_else(|_| Box::new(DeadRecharge))
}

/// Solves a canonical scenario into a reusable artifact.
///
/// This is the compute behind the server's artifact cache: one call per
/// distinct [`Scenario::canonical_key`], shared by `/v1/solve` and every
/// `/v1/simulate` variation in slots/seed/replications.
///
/// # Errors
///
/// [`ApiError`] 400 for specs that fail domain validation at parse time,
/// 422 for scenarios the optimizer rejects (e.g. an infeasible budget).
pub fn solve_artifact(scenario: &Scenario) -> Result<SolvedPolicy, ApiError> {
    evcap_spec::solve(scenario).map_err(ApiError::from)
}

/// Serializes a solved artifact as the `/v1/solve` response body.
pub fn render_solve(s: &SolveScenario, solved: &SolvedPolicy) -> String {
    let sc = &s.scenario;
    let meta = &solved.meta;
    let mut obj = JsonObject::with_type("solve");
    obj.field_str("policy", sc.policy().name());
    obj.field_str("dist", sc.dist());
    obj.field_f64("e", sc.e());
    obj.field_f64("mean_gap", solved.pmf.mean());
    obj.field_str("label", &meta.label);
    // Age objectives announce themselves and their natural-units value;
    // the default (QoM) stays absent so pre-objective response bodies —
    // and every cached byte derived from them — are unchanged.
    if !sc.objective().is_default() {
        obj.field_str("objective", sc.objective().name());
        if let Some(value) = meta.objective_value {
            obj.field_f64("objective_value", value);
        }
    }
    match sc.policy() {
        PolicySpec::Greedy => {
            obj.field_f64("ideal_qom", meta.objective.unwrap_or(0.0));
            obj.field_f64("discharge_rate", meta.discharge_rate.unwrap_or(0.0));
            let n = solved.pmf.horizon().min(MAX_COEFFICIENTS);
            let coeffs: Vec<f64> = (1..=n).map(|i| solved.probability(i)).collect();
            obj.field_f64_array("coefficients", &coeffs);
            obj.field_usize("coefficients_shown", n);
        }
        PolicySpec::Clustering => {
            obj.field_f64("ideal_qom", meta.objective.unwrap_or(0.0));
            obj.field_f64("discharge_rate", meta.discharge_rate.unwrap_or(0.0));
            obj.field_f64("expected_cycle", meta.expected_cycle.unwrap_or(0.0));
            if let Some(r) = &meta.regions {
                obj.field_usize("n1", r.n1);
                obj.field_usize("n2", r.n2);
                obj.field_usize("n3", r.n3);
                let (q1, q2, q3) = r.boundary;
                obj.field_f64_array("boundary_coefficients", &[q1, q2, q3]);
            }
        }
        PolicySpec::Myopic => {
            if let Some(qom) = meta.objective {
                obj.field_f64("ideal_qom", qom);
            }
            if let Some(rate) = meta.discharge_rate {
                obj.field_f64("discharge_rate", rate);
            }
            if let Some(cycle) = meta.expected_cycle {
                obj.field_f64("expected_cycle", cycle);
            }
        }
        PolicySpec::Aggressive | PolicySpec::Periodic { .. } => {
            if let Some(rate) = meta.discharge_rate {
                obj.field_f64("discharge_rate", rate);
            }
        }
    }
    obj.finish()
}

/// Runs the bounded, seeded simulation a `/v1/simulate` scenario asks for
/// (driving the engine with the pre-solved artifact) and serializes the
/// resulting report.
///
/// # Errors
///
/// 422 for simulation setups the engine rejects.
pub fn simulate(s: &SimulateScenario, solved: &SolvedPolicy) -> Result<String, ApiError> {
    let sc = &s.scenario;
    let pmf = &solved.pmf;
    // Canonicalization validated name/arity/finiteness but not parameter
    // domains (e.g. a Bernoulli probability > 1), so parse once up front to
    // turn domain failures into a 422 before any sensor asks for a process.
    evcap_spec::parse_recharge(sc.recharge())
        .map_err(|e| ApiError::unprocessable(e.to_string()))?;
    let mut make_recharge = |_: usize| recharge_process(sc.recharge());
    let mut builder = Simulation::builder(pmf)
        .slots(s.slots)
        .seed(s.seed)
        .sensors(sc.sensors())
        .consumption(solved.consumption)
        .battery(Energy::from_units(sc.battery()));
    builder = if s.rotating {
        builder.assignment(SlotAssignment::RoundRobin)
    } else {
        builder.independent()
    };
    // Batched requests run every seed through the slot kernel on a shared
    // event sampler and policy table and answer with the cross-seed
    // reduction; per-seed results are bit-identical to single runs, so
    // `replications: 1` (or absent) staying on the single-run path below is
    // a latency choice, not a semantic one — bodies stay byte-identical
    // either way.
    if s.replications > 1 {
        let batch = ReplicationBatch::new(builder, s.replications)
            .map_err(|e| ApiError::unprocessable(e.to_string()))?
            .precompiled(solved.table.clone());
        let seeds = batch.seeds();
        let report = batch
            .run(solved.policy.as_ref(), &|_| recharge_process(sc.recharge()))
            .map_err(|e| ApiError::unprocessable(e.to_string()))?;
        let mut obj = JsonObject::with_type("simulate");
        obj.field_str("policy", sc.policy().name());
        obj.field_str("label", &solved.meta.label);
        obj.field_str("dist", sc.dist());
        obj.field_str("recharge", sc.recharge());
        obj.field_u64("slots", report.slots);
        obj.field_u64("seed", s.seed);
        obj.field_usize("replications", report.replications());
        obj.field_u64_array("seeds", &seeds);
        obj.field_u64("events", report.events);
        obj.field_u64("captures", report.captures);
        obj.field_f64("qom", report.qom.mean);
        obj.field_f64("qom_std_dev", report.qom.std_dev);
        let (lo, hi) = report.qom.ci95();
        obj.field_f64_array("qom_ci95", &[lo, hi]);
        obj.field_f64("pooled_qom", report.pooled_qom());
        let per_seed: Vec<f64> = report.reports.iter().map(|r| r.qom()).collect();
        obj.field_f64_array("qom_per_seed", &per_seed);
        obj.field_u64("activations", report.activations);
        obj.field_u64("forced_idle", report.forced_idle);
        obj.field_f64("discharge_rate", report.discharge.mean);
        obj.field_f64("mean_final_fill", report.mean_final_fill);
        if let Some(gap) = report.mean_capture_gap {
            obj.field_f64("mean_capture_gap", gap);
        }
        if !sc.objective().is_default() {
            obj.field_str("objective", sc.objective().name());
            obj.field_f64("mean_age", report.mean_age.mean);
            obj.field_u64("peak_age", report.peak_age);
        }
        obj.field_usize("sensors", sc.sensors());
        return Ok(obj.finish());
    }
    let report = builder
        .run(solved.policy.as_ref(), &mut make_recharge)
        .map_err(|e| ApiError::unprocessable(e.to_string()))?;

    let mut obj = JsonObject::with_type("simulate");
    obj.field_str("policy", sc.policy().name());
    obj.field_str("label", &solved.meta.label);
    obj.field_str("dist", sc.dist());
    obj.field_str("recharge", sc.recharge());
    obj.field_u64("slots", report.slots);
    obj.field_u64("seed", s.seed);
    obj.field_u64("events", report.events);
    obj.field_u64("captures", report.captures);
    obj.field_f64("qom", report.qom());
    obj.field_u64("activations", report.total_activations());
    obj.field_u64("forced_idle", report.total_forced_idle());
    obj.field_f64("discharge_rate", report.discharge_rate());
    if !sc.objective().is_default() {
        obj.field_str("objective", sc.objective().name());
        obj.field_f64("mean_age", report.mean_age());
        obj.field_u64("peak_age", report.peak_age);
    }
    obj.field_usize("sensors", sc.sensors());
    if sc.sensors() > 1 {
        obj.field_f64("load_balance", report.load_balance());
    }
    Ok(obj.finish())
}

/// A tiny smoke scenario used by unit tests and the warmup path.
#[cfg(test)]
fn smoke_scenario() -> SolveScenario {
    SolveScenario::from_body(br#"{"dist":"weibull:40,3","e":0.2,"horizon":4096}"#)
        .expect("valid smoke body")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_obs::{parse_line, JsonValue};

    fn solve(s: &SolveScenario) -> Result<String, ApiError> {
        Ok(render_solve(s, &solve_artifact(&s.scenario)?))
    }

    fn simulate_scenario(s: &SimulateScenario) -> Result<String, ApiError> {
        simulate(s, &solve_artifact(&s.scenario)?)
    }

    #[test]
    fn solve_greedy_round_trips() {
        let body = solve(&smoke_scenario()).unwrap();
        let v = parse_line(&body).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("solve"));
        assert_eq!(v.get("policy").and_then(JsonValue::as_str), Some("greedy"));
        let qom = v.get("ideal_qom").and_then(JsonValue::as_f64).unwrap();
        assert!(qom > 0.0 && qom <= 1.0, "qom = {qom}");
        let coeffs = v.get("coefficients").and_then(JsonValue::as_array).unwrap();
        assert!(!coeffs.is_empty() && coeffs.len() <= 512);
    }

    #[test]
    fn solve_clustering_reports_structure() {
        let s = SolveScenario::from_body(
            br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","horizon":4096}"#,
        )
        .unwrap();
        let body = solve(&s).unwrap();
        let v = parse_line(&body).unwrap();
        assert_eq!(
            v.get("policy").and_then(JsonValue::as_str),
            Some("clustering")
        );
        assert!(v.get("n2").and_then(JsonValue::as_f64).is_some());
        assert!(v
            .get("expected_cycle")
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn solve_covers_every_policy_family() {
        for name in ["aggressive", "periodic", "myopic"] {
            let body =
                format!(r#"{{"dist":"weibull:40,3","e":0.2,"policy":"{name}","horizon":4096}}"#);
            let s = SolveScenario::from_body(body.as_bytes()).unwrap();
            let out = solve(&s).expect(name);
            let v = parse_line(&out).unwrap();
            assert_eq!(v.get("policy").and_then(JsonValue::as_str), Some(name));
            assert!(
                v.get("label").and_then(JsonValue::as_str).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn simulate_runs_and_round_trips() {
        let s = SimulateScenario::from_body(
            br#"{"dist":"weibull:40,3","e":0.2,"slots":20000,"seed":7,"horizon":4096}"#,
            1_000_000,
        )
        .unwrap();
        let body = simulate_scenario(&s).unwrap();
        let v = parse_line(&body).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("simulate"));
        assert_eq!(v.get("slots").and_then(JsonValue::as_f64), Some(20_000.0));
        let qom = v.get("qom").and_then(JsonValue::as_f64).unwrap();
        assert!(qom > 0.0 && qom <= 1.0, "qom = {qom}");
    }

    #[test]
    fn batched_simulate_reports_cross_seed_statistics() {
        let body = br#"{"dist":"weibull:40,3","e":0.2,"slots":10000,"seed":7,"horizon":4096,"replications":5}"#;
        let s = SimulateScenario::from_body(body, 1_000_000).unwrap();
        let out = simulate_scenario(&s).unwrap();
        let v = parse_line(&out).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("simulate"));
        assert_eq!(v.get("replications").and_then(JsonValue::as_f64), Some(5.0));
        let per_seed = v.get("qom_per_seed").and_then(JsonValue::as_array).unwrap();
        assert_eq!(per_seed.len(), 5);
        let ci = v.get("qom_ci95").and_then(JsonValue::as_array).unwrap();
        let (lo, hi) = (ci[0].as_f64().unwrap(), ci[1].as_f64().unwrap());
        let mean = v.get("qom").and_then(JsonValue::as_f64).unwrap();
        assert!(lo <= mean && mean <= hi, "{lo} ≤ {mean} ≤ {hi}");

        // Seed 0 of the batch is the base seed: its QoM equals the classic
        // single-run response for the same scenario.
        let single = SimulateScenario::from_body(
            br#"{"dist":"weibull:40,3","e":0.2,"slots":10000,"seed":7,"horizon":4096}"#,
            1_000_000,
        )
        .unwrap();
        let single_out = simulate_scenario(&single).unwrap();
        let sv = parse_line(&single_out).unwrap();
        assert_eq!(
            per_seed[0].as_f64(),
            sv.get("qom").and_then(JsonValue::as_f64),
            "batch seed 0 must reproduce the single run"
        );
    }

    #[test]
    fn age_objectives_surface_in_both_response_bodies() {
        // Default bodies carry no objective fields at all…
        let default_solve = solve(&smoke_scenario()).unwrap();
        assert!(!default_solve.contains("\"objective\""));
        // …while an age objective names itself and reports natural units.
        let s = SolveScenario::from_body(
            br#"{"dist":"weibull:40,3","e":0.2,"policy":"clustering","objective":"aoi-mean","horizon":4096}"#,
        )
        .unwrap();
        let v = parse_line(&solve(&s).unwrap()).unwrap();
        assert_eq!(
            v.get("objective").and_then(JsonValue::as_str),
            Some("aoi-mean")
        );
        let value = v
            .get("objective_value")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(value.is_finite() && value > 0.0, "mean age = {value}");

        for replications in ["", r#","replications":3"#] {
            let body = format!(
                r#"{{"dist":"weibull:40,3","e":0.2,"objective":"aoi-peak","slots":10000,"seed":7,"horizon":4096{replications}}}"#
            );
            let s = SimulateScenario::from_body(body.as_bytes(), 1_000_000).unwrap();
            let v = parse_line(&simulate_scenario(&s).unwrap()).unwrap();
            assert_eq!(
                v.get("objective").and_then(JsonValue::as_str),
                Some("aoi-peak")
            );
            let mean = v.get("mean_age").and_then(JsonValue::as_f64).unwrap();
            let peak = v.get("peak_age").and_then(JsonValue::as_f64).unwrap();
            assert!(mean >= 0.0 && peak >= mean, "mean {mean} peak {peak}");
        }
    }

    #[test]
    fn identical_scenarios_serialize_identically() {
        // The cache stores serialized bodies; determinism is what makes a
        // replayed hit indistinguishable from a recompute.
        let a = solve(&smoke_scenario()).unwrap();
        let b = solve(&smoke_scenario()).unwrap();
        assert_eq!(a, b);
    }
}
