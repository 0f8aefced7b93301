//! The canonical scenario layer: one description of a workload, one solver
//! entry point, one reusable artifact.
//!
//! Every front end of the repo — the CLI, the policy server, and the bench
//! runners — used to re-implement "turn user input into a solved activation
//! policy". This module replaces those copies with a single pipeline:
//!
//! ```text
//! Scenario ──solve()──▶ SolvedPolicy { policy, table, meta }
//! ```
//!
//! A [`Scenario`] stores every parameter that affects *which policy gets
//! computed* (distribution, recharge process, battery capacity `K`, costs
//! `δ1`/`δ2`, mean recharge rate `e`, discretization horizon, sensor
//! count), all in canonical spec form, so [`Scenario::canonical_key`] is a
//! stable identity: two requests that spell the same physics differently
//! (`exp:0.050` vs `exponential:0.05`) produce the same key and can share
//! one solve. [`SolvedPolicy`] bundles the boxed [`ActivationPolicy`], its
//! precompiled [`PolicyTable`] (when the policy is stationary and small
//! enough to materialize), and [`SolveMeta`] — the solve-time facts
//! (objective `U(π*)`, region boundaries, optimizer iteration counts) that
//! renderers need without re-deriving them.

use std::fmt;

use evcap_core::{
    evaluate_partial_info_moments, greedy_cycle_moments, ActivationPolicy, AggressivePolicy,
    ClusterEvaluation, ClusteringOptimizer, ClusteringPolicy, CycleMoments, DecisionContext,
    EnergyBudget, EvalOptions, GreedyPolicy, InfoModel, MyopicPolicy, Objective, PeriodicPolicy,
    PolicyTable,
};
use evcap_dist::SlotPmf;
use evcap_energy::{ConsumptionModel, Energy};

use crate::parse::{canonical_dist, canonical_recharge, parse_dist, SpecError};

/// Which activation policy family to solve for.
///
/// This enum replaces the stringly-typed `match` arms that used to live in
/// the CLI, the server, and the bench crate: wire/argv names are parsed
/// once by [`PolicySpec::parse`] and everything downstream dispatches on
/// the enum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Full-information greedy water-filling (the paper's Theorem 1).
    Greedy,
    /// Partial-information three-region clustering heuristic.
    Clustering,
    /// Always-active baseline (sense every slot the battery allows).
    Aggressive,
    /// Wall-clock duty cycling: `theta1` active slots per period.
    Periodic {
        /// Active slots per period; the period is energy-balanced at solve
        /// time from the budget and mean gap (paper Fig. 4).
        theta1: u64,
    },
    /// Belief-threshold myopic policy over an age window.
    Myopic,
}

impl PolicySpec {
    /// Parses a policy name as it appears on the wire or on argv.
    ///
    /// `periodic` defaults to `theta1 = 3` (the paper's Fig. 4 setting);
    /// callers with an explicit flag can override the field afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, SpecError> {
        match name.trim() {
            "greedy" => Ok(Self::Greedy),
            "clustering" => Ok(Self::Clustering),
            "aggressive" => Ok(Self::Aggressive),
            "periodic" => Ok(Self::Periodic { theta1: 3 }),
            "myopic" => Ok(Self::Myopic),
            other => Err(SpecError {
                spec: other.to_owned(),
                reason: format!(
                    "unknown policy `{other}` (try greedy, clustering, aggressive, periodic, \
                     myopic)"
                ),
            }),
        }
    }

    /// The base wire name (without parameters), e.g. `"periodic"`.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::Clustering => "clustering",
            Self::Aggressive => "aggressive",
            Self::Periodic { .. } => "periodic",
            Self::Myopic => "myopic",
        }
    }

    /// The cache-key fragment: includes parameters, e.g. `"periodic:3"`.
    pub fn key(&self) -> String {
        match self {
            Self::Periodic { theta1 } => format!("periodic:{theta1}"),
            other => other.name().to_owned(),
        }
    }

    /// What the policy is allowed to observe (paper §II).
    pub fn info_model(&self) -> InfoModel {
        match self {
            Self::Greedy => InfoModel::Full,
            _ => InfoModel::Partial,
        }
    }
}

/// A complete, canonical description of one solvable scenario.
///
/// All spec strings are stored in canonical form (see
/// [`canonical_dist`]/[`canonical_recharge`]), so equality of
/// [`Scenario::canonical_key`] means "the same solve".
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    dist: String,
    recharge: String,
    policy: PolicySpec,
    objective: Objective,
    e: f64,
    delta1: f64,
    delta2: f64,
    battery: f64,
    horizon: usize,
    sensors: usize,
}

/// Default discretization horizon (matches the CLI and server defaults).
pub const DEFAULT_HORIZON: usize = 65_536;

impl Scenario {
    /// Creates a scenario from a distribution spec, policy, and mean
    /// recharge rate `e` (units per slot per sensor).
    ///
    /// Defaults: recharge `bernoulli:0.5,2e` (paper §V), costs `δ1 = 1`,
    /// `δ2 = 6`, battery `K = 1000`, horizon `65 536`, one sensor.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the distribution spec does not
    /// canonicalize.
    pub fn new(dist: &str, policy: PolicySpec, e: f64) -> Result<Self, SpecError> {
        let dist = canonical_dist(dist)?;
        // `{}` formatting keeps this in canonical float form already.
        let recharge = format!("bernoulli:0.5,{}", 2.0 * e);
        Ok(Self {
            dist,
            recharge,
            policy,
            objective: Objective::Qom,
            e,
            delta1: 1.0,
            delta2: 6.0,
            battery: 1000.0,
            horizon: DEFAULT_HORIZON,
            sensors: 1,
        })
    }

    /// Replaces the recharge process spec (canonicalized).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec does not canonicalize.
    pub fn with_recharge(mut self, spec: &str) -> Result<Self, SpecError> {
        self.recharge = canonical_recharge(spec)?;
        Ok(self)
    }

    /// Replaces the optimization objective (defaults to
    /// [`Objective::Qom`], the paper's metric).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the per-slot sensing (`δ1`) and capture (`δ2`) costs.
    #[must_use]
    pub fn with_costs(mut self, delta1: f64, delta2: f64) -> Self {
        self.delta1 = delta1;
        self.delta2 = delta2;
        self
    }

    /// Replaces the battery capacity `K` (energy units).
    #[must_use]
    pub fn with_battery(mut self, k: f64) -> Self {
        self.battery = k;
        self
    }

    /// Replaces the discretization horizon.
    #[must_use]
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replaces the sensor count (the solve budget scales to `n·e`).
    #[must_use]
    pub fn with_sensors(mut self, sensors: usize) -> Self {
        self.sensors = sensors;
        self
    }

    /// The canonical distribution spec.
    pub fn dist(&self) -> &str {
        &self.dist
    }

    /// The canonical recharge spec.
    pub fn recharge(&self) -> &str {
        &self.recharge
    }

    /// The policy family to solve for.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Mutable access to the policy (e.g. to apply a `--theta1` flag).
    pub fn policy_mut(&mut self) -> &mut PolicySpec {
        &mut self.policy
    }

    /// The metric the solve optimizes (and reports).
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Mean recharge rate `e` per sensor (units per slot).
    pub fn e(&self) -> f64 {
        self.e
    }

    /// Sensing cost `δ1`.
    pub fn delta1(&self) -> f64 {
        self.delta1
    }

    /// Capture cost `δ2`.
    pub fn delta2(&self) -> f64 {
        self.delta2
    }

    /// Battery capacity `K`.
    pub fn battery(&self) -> f64 {
        self.battery
    }

    /// Discretization horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of sensors sharing the aggregate budget.
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// What the chosen policy is allowed to observe.
    pub fn info_model(&self) -> InfoModel {
        self.policy.info_model()
    }

    /// A stable identity for this scenario: equal keys ⇔ the same solve.
    ///
    /// Built entirely from canonical forms, so spelling variants
    /// (`exp:0.050` vs `exponential:0.05`, `bernoulli:0.50,1.0` vs
    /// `bernoulli:0.5,1`) collapse onto one key. This is the key of the
    /// server's artifact cache.
    pub fn canonical_key(&self) -> String {
        let mut key = format!(
            "{}|{}|r={}|e={}|d1={}|d2={}|k={}|h={}|n={}",
            self.policy.key(),
            self.dist,
            self.recharge,
            self.e,
            self.delta1,
            self.delta2,
            self.battery,
            self.horizon,
            self.sensors,
        );
        // The default objective (QoM) is elided so every key minted before
        // objectives existed keeps hitting the same cache entries.
        if !self.objective.is_default() {
            key.push_str("|obj=");
            key.push_str(self.objective.name());
        }
        key
    }
}

/// Region boundaries of a solved clustering policy (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regions {
    /// First hot slot.
    pub n1: usize,
    /// Last hot slot.
    pub n2: usize,
    /// First recovery slot.
    pub n3: usize,
    /// Activation coefficients at the three boundaries `(q1, q2, q3)`.
    pub boundary: (f64, f64, f64),
}

/// The concrete solver outputs a [`SolvedPolicy`] can be reassembled from
/// without re-running any optimizer — the payload the artifact store
/// (`evcap-store`) persists alongside the scenario.
///
/// Each variant holds exactly the family-specific facts [`solve`] computed
/// that [`rehydrate`] cannot re-derive cheaply and deterministically from
/// the scenario alone. Everything else (the pmf, the label, the activation
/// table, analytic evaluations) is reconstructed at rehydration time, so a
/// record stays small and a tampered copy has few places to hide.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyParams {
    /// Greedy water-filling output: the per-state coefficients plus the
    /// summary statistics whose floating-point accumulation order (sorted
    /// by hazard) cannot be replayed from the coefficients alone.
    Greedy {
        /// Activation coefficients `c_1..c_H` (one per explicit pmf state).
        coefficients: Vec<f64>,
        /// The coefficient shared by every state beyond the horizon.
        tail_coefficient: f64,
        /// The water-filling objective `U(π*_FI)`.
        ideal_qom: f64,
        /// The planned discharge rate (units/slot).
        discharge_rate: f64,
    },
    /// Clustering region boundaries and boundary coefficients; the analytic
    /// evaluation is re-derived (deterministically) at rehydration.
    Clustering {
        /// First hot slot.
        n1: usize,
        /// Last hot slot.
        n2: usize,
        /// First recovery slot.
        n3: usize,
        /// Boundary coefficients `(c_{n1}, c_{n2}, c_{n3})`.
        boundary: (f64, f64, f64),
    },
    /// The aggressive baseline has no parameters.
    Aggressive,
    /// Energy-balanced duty cycle (`theta2` is cross-checked against the
    /// balance formula at rehydration, so a stale record is rejected).
    Periodic {
        /// Active slots per cycle.
        theta1: u64,
        /// Cycle length.
        theta2: u64,
    },
    /// Myopic belief-threshold decisions over the derived window.
    Myopic {
        /// Deterministic activation decisions for states `1..=window`.
        active: Vec<bool>,
        /// The belief threshold that produced them.
        threshold: f64,
        /// The analytic evaluation recorded at derivation time.
        evaluation: ClusterEvaluation,
    },
}

impl PolicyParams {
    /// The wire name of the family these parameters belong to.
    pub fn family(&self) -> &'static str {
        match self {
            Self::Greedy { .. } => "greedy",
            Self::Clustering { .. } => "clustering",
            Self::Aggressive => "aggressive",
            Self::Periodic { .. } => "periodic",
            Self::Myopic { .. } => "myopic",
        }
    }
}

/// Solve-time metadata bundled with a [`SolvedPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveMeta {
    /// Human-readable policy label (same string as
    /// `ActivationPolicy::label`).
    pub label: String,
    /// What the policy observes.
    pub info: InfoModel,
    /// The solver's ideal QoM `U(π*)` under the energy assumption — when
    /// the family reports one. Always QoM regardless of
    /// [`SolveMeta::objective_kind`], so historical renderers keep their
    /// meaning.
    pub objective: Option<f64>,
    /// Which metric the solve optimized (the scenario's
    /// [`Scenario::objective`]).
    pub objective_kind: Objective,
    /// The solved policy's value under `objective_kind`, in natural units
    /// (a probability for QoM, slots for the age objectives), when the
    /// family reports one. Equal to `objective` under QoM; derived from
    /// the deterministic cycle moments otherwise, so [`rehydrate`]
    /// reproduces it bit for bit.
    pub objective_value: Option<f64>,
    /// Planned battery discharge rate (units per slot), when known.
    pub discharge_rate: Option<f64>,
    /// Expected capture-cycle length in slots (clustering/myopic).
    pub expected_cycle: Option<f64>,
    /// Region structure (clustering only).
    pub regions: Option<Regions>,
    /// Mean inter-arrival gap `μ` of the discretized distribution.
    pub mean_gap: f64,
    /// Optimizer work: candidate evaluations (clustering), funded slots
    /// (greedy water-filling), window states (myopic); `0` for closed-form
    /// families.
    pub iterations: u64,
}

/// The reusable artifact produced by [`solve`]: everything a front end
/// needs to render, simulate, or benchmark a solved scenario without
/// re-running the optimizer.
pub struct SolvedPolicy {
    /// The scenario this artifact was solved from (canonical).
    pub scenario: Scenario,
    /// The discretized inter-arrival pmf used by the solver.
    pub pmf: SlotPmf,
    /// The consumption model `(δ1, δ2)` the policy was solved against.
    pub consumption: ConsumptionModel,
    /// The solved policy.
    pub policy: Box<dyn ActivationPolicy + Send + Sync>,
    /// Precompiled activation table (stationary policies below the
    /// materialization cap); bit-for-bit equal to querying the policy.
    pub table: Option<PolicyTable>,
    /// The family-specific solver outputs this artifact can be rebuilt
    /// from (see [`PolicyParams`] and [`rehydrate`]).
    pub params: PolicyParams,
    /// Solve-time metadata.
    pub meta: SolveMeta,
}

impl SolvedPolicy {
    /// The stationary activation probability in state `i` (1-based),
    /// served from the precompiled table when one exists.
    pub fn probability(&self, state: usize) -> f64 {
        match &self.table {
            Some(t) => t.probability(state),
            None => self.policy.probability(&DecisionContext::stationary(state)),
        }
    }
}

impl fmt::Debug for SolvedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolvedPolicy")
            .field("scenario", &self.scenario)
            .field("label", &self.meta.label)
            .field("table", &self.table.is_some())
            .finish()
    }
}

/// Why a scenario could not be solved.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A spec string failed to parse.
    Spec(SpecError),
    /// The specs parsed but the optimizer rejected the parameters
    /// (infeasible budget, invalid costs, …).
    Unsolvable(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spec(e) => e.fmt(f),
            Self::Unsolvable(reason) => write!(f, "cannot solve scenario: {reason}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SpecError> for SolveError {
    fn from(e: SpecError) -> Self {
        Self::Spec(e)
    }
}

fn unsolvable(e: impl fmt::Display) -> SolveError {
    SolveError::Unsolvable(e.to_string())
}

/// The solve's reported value under `objective`, in natural units.
///
/// QoM reuses the family's ideal-QoM report; the age objectives read the
/// deterministic capture-cycle moments. Both [`solve`] and [`rehydrate`]
/// feed this from the same deterministic computations, so the two sides
/// agree bit for bit. `None` when the family reports neither (aggressive,
/// periodic).
fn objective_value(
    objective: Objective,
    qom: Option<f64>,
    moments: Option<&CycleMoments>,
) -> Option<f64> {
    match objective {
        Objective::Qom => qom,
        Objective::AoiMean => moments.map(CycleMoments::mean_age),
        Objective::AoiPeak => moments.map(CycleMoments::peak_age),
    }
}

/// Capture-cycle moments of a partial-information policy under the
/// stationary information model — the shared deterministic routine behind
/// the clustering and myopic `objective_value` reports.
fn stationary_moments(
    pmf: &SlotPmf,
    policy: &dyn ActivationPolicy,
    consumption: &ConsumptionModel,
) -> CycleMoments {
    evaluate_partial_info_moments(
        pmf,
        |i| policy.probability(&DecisionContext::stationary(i)),
        consumption,
        EvalOptions::default(),
    )
    .1
}

/// Solves a scenario into a reusable [`SolvedPolicy`] artifact.
///
/// This is the **only** policy-construction site shared by the CLI, the
/// policy server, and the bench runners. The whole solve runs under the
/// `spec.solve` timing span (visible via `evcap-obs` when spans are
/// enabled), alongside the finer-grained `clustering.search` / `lp.solve`
/// spans the optimizers emit themselves.
///
/// # Errors
///
/// * [`SolveError::Spec`] if the distribution spec fails to parse.
/// * [`SolveError::Unsolvable`] if the optimizer rejects the parameters.
pub fn solve(scenario: &Scenario) -> Result<SolvedPolicy, SolveError> {
    let _span = evcap_obs::timing::span("spec.solve");
    let pmf = parse_dist(scenario.dist(), scenario.horizon())?;
    let consumption = ConsumptionModel::new(
        Energy::from_units(scenario.delta1()),
        Energy::from_units(scenario.delta2()),
    )
    .map_err(unsolvable)?;
    let budget = EnergyBudget::per_slot(scenario.e() * scenario.sensors() as f64);
    let objective = scenario.objective();

    type Boxed = Box<dyn ActivationPolicy + Send + Sync>;
    let (policy, params, meta): (Boxed, PolicyParams, SolveMeta) = match scenario.policy() {
        PolicySpec::Greedy => {
            // Water-filling maximizes the capture probability `q`; with
            // `E[T] = μ/q` that same policy minimizes the peak age, and it
            // stands in as the (reported, not re-optimized) candidate under
            // the mean-age objective.
            let g = GreedyPolicy::optimize(&pmf, budget, &consumption).map_err(unsolvable)?;
            let horizon = g.horizon();
            let funded = (1..=horizon).filter(|&i| g.coefficient(i) > 0.0).count() as u64
                + u64::from(g.coefficient(horizon + 1) > 0.0);
            let moments = (!objective.is_default()).then(|| greedy_cycle_moments(&pmf, &g));
            let params = PolicyParams::Greedy {
                coefficients: (1..=horizon).map(|i| g.coefficient(i)).collect(),
                tail_coefficient: g.coefficient(horizon + 1),
                ideal_qom: g.ideal_qom(),
                discharge_rate: g.discharge_rate(),
            };
            let meta = SolveMeta {
                label: g.label(),
                info: g.info_model(),
                objective: Some(g.ideal_qom()),
                objective_kind: objective,
                objective_value: objective_value(objective, Some(g.ideal_qom()), moments.as_ref()),
                discharge_rate: Some(g.discharge_rate()),
                expected_cycle: None,
                regions: None,
                mean_gap: g.mean_gap(),
                iterations: funded,
            };
            (Box::new(g), params, meta)
        }
        PolicySpec::Clustering => {
            let (p, eval, candidates) = ClusteringOptimizer::new(budget)
                .objective(objective)
                .optimize_counted(&pmf, &consumption)
                .map_err(unsolvable)?;
            let moments =
                (!objective.is_default()).then(|| stationary_moments(&pmf, &p, &consumption));
            let params = PolicyParams::Clustering {
                n1: p.n1(),
                n2: p.n2(),
                n3: p.n3(),
                boundary: p.boundary_coefficients(),
            };
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: Some(eval.capture_probability),
                objective_kind: objective,
                objective_value: objective_value(
                    objective,
                    Some(eval.capture_probability),
                    moments.as_ref(),
                ),
                discharge_rate: Some(eval.discharge_rate),
                expected_cycle: Some(eval.expected_cycle),
                regions: Some(Regions {
                    n1: p.n1(),
                    n2: p.n2(),
                    n3: p.n3(),
                    boundary: p.boundary_coefficients(),
                }),
                mean_gap: pmf.mean(),
                iterations: candidates,
            };
            (Box::new(p), params, meta)
        }
        PolicySpec::Aggressive => {
            let p = AggressivePolicy::new();
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: None,
                objective_kind: objective,
                objective_value: None,
                discharge_rate: p.planned_discharge_rate(),
                expected_cycle: None,
                regions: None,
                mean_gap: pmf.mean(),
                iterations: 0,
            };
            (Box::new(p), PolicyParams::Aggressive, meta)
        }
        PolicySpec::Periodic { theta1 } => {
            let p = PeriodicPolicy::energy_balanced(theta1, budget, pmf.mean(), &consumption)
                .map_err(unsolvable)?;
            let params = PolicyParams::Periodic {
                theta1: p.theta1(),
                theta2: p.theta2(),
            };
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: None,
                objective_kind: objective,
                objective_value: None,
                discharge_rate: p.planned_discharge_rate(),
                expected_cycle: None,
                regions: None,
                mean_gap: pmf.mean(),
                iterations: 0,
            };
            (Box::new(p), params, meta)
        }
        PolicySpec::Myopic => {
            let window = (4.0 * pmf.mean()).ceil() as usize;
            let p =
                MyopicPolicy::derive(&pmf, budget, &consumption, window, EvalOptions::default())
                    .map_err(unsolvable)?;
            let eval = p.evaluation();
            let moments =
                (!objective.is_default()).then(|| stationary_moments(&pmf, &p, &consumption));
            let params = PolicyParams::Myopic {
                active: (1..=window).map(|i| p.active(i)).collect(),
                threshold: p.threshold(),
                evaluation: eval,
            };
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: Some(eval.capture_probability),
                objective_kind: objective,
                objective_value: objective_value(
                    objective,
                    Some(eval.capture_probability),
                    moments.as_ref(),
                ),
                discharge_rate: Some(eval.discharge_rate),
                expected_cycle: Some(eval.expected_cycle),
                regions: None,
                mean_gap: pmf.mean(),
                iterations: window as u64,
            };
            (Box::new(p), params, meta)
        }
    };

    let table = {
        let _span = evcap_obs::timing::span("spec.table");
        policy.table()
    };
    let solved = SolvedPolicy {
        scenario: scenario.clone(),
        pmf,
        consumption,
        policy,
        table,
        params,
        meta,
    };
    #[cfg(debug_assertions)]
    debug_validate(&solved);
    Ok(solved)
}

/// [`solve`], accepting a warm-start hint that no longer changes anything.
///
/// `hint` was the `(n1, n2, n3)` optimum of a neighboring scenario, which
/// an earlier clustering search used to screen its lattice. That search
/// now stops each candidate's walk as soon as its verdict is certain, and
/// the cold solve that leaves is faster than the screened one was (DESIGN
/// §13). So the hint is accepted and ignored: the result, `meta.iterations`
/// included, and the work done are exactly [`solve`]'s. The signature
/// stays for callers that still pass one.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with_hint(
    scenario: &Scenario,
    hint: Option<(usize, usize, usize)>,
) -> Result<SolvedPolicy, SolveError> {
    let _ = hint;
    solve(scenario)
}

/// Reassembles a [`SolvedPolicy`] from persisted [`PolicyParams`] without
/// running any optimizer — the load path of the artifact store.
///
/// The result is bit-identical to what [`solve`] produced for the same
/// scenario: the policy is rebuilt from the stored family parameters
/// through the same public constructors, while the pmf, label, table, and
/// analytic evaluations are re-derived deterministically from the
/// scenario. `iterations` is the solve-time candidate count recorded with
/// the record (only clustering's count is not re-derivable; the other
/// families recompute theirs and ignore the stored value).
///
/// Every family cross-checks the stored parameters against what the
/// scenario implies (coefficient counts, the energy-balance formula for
/// `theta2`, the myopic window), so a record persisted against an older
/// solver or tampered with on disk is rejected here with
/// [`SolveError::Unsolvable`] rather than rehydrated into a wrong policy.
/// Runs under the `spec.rehydrate` timing span and emits **no**
/// `clustering.search` or `lp.solve` spans.
///
/// # Errors
///
/// * [`SolveError::Spec`] if the scenario's distribution spec fails to
///   parse.
/// * [`SolveError::Unsolvable`] if the parameters fail validation or do
///   not match the scenario's policy family.
pub fn rehydrate(
    scenario: &Scenario,
    params: &PolicyParams,
    iterations: u64,
) -> Result<SolvedPolicy, SolveError> {
    let _span = evcap_obs::timing::span("spec.rehydrate");
    if params.family() != scenario.policy().name() {
        return Err(SolveError::Unsolvable(format!(
            "stored params are for family `{}` but the scenario solves `{}`",
            params.family(),
            scenario.policy().name()
        )));
    }
    let pmf = parse_dist(scenario.dist(), scenario.horizon())?;
    let consumption = ConsumptionModel::new(
        Energy::from_units(scenario.delta1()),
        Energy::from_units(scenario.delta2()),
    )
    .map_err(unsolvable)?;
    let rate = scenario.e() * scenario.sensors() as f64;
    if !rate.is_finite() || rate < 0.0 {
        return Err(SolveError::Unsolvable(format!(
            "recharge rate {rate} is not a finite non-negative number"
        )));
    }
    let budget = EnergyBudget::per_slot(rate);
    let objective = scenario.objective();

    type Boxed = Box<dyn ActivationPolicy + Send + Sync>;
    let (policy, meta): (Boxed, SolveMeta) = match params {
        PolicyParams::Greedy {
            coefficients,
            tail_coefficient,
            ideal_qom,
            discharge_rate,
        } => {
            if coefficients.len() != pmf.horizon() {
                return Err(SolveError::Unsolvable(format!(
                    "stored greedy record has {} coefficients but the scenario's horizon \
                     discretizes to {} states",
                    coefficients.len(),
                    pmf.horizon()
                )));
            }
            let label = format!("greedy-FI(e={}, {})", budget.rate(), pmf.label());
            let g = GreedyPolicy::from_parts(
                coefficients.clone(),
                *tail_coefficient,
                *ideal_qom,
                *discharge_rate,
                pmf.mean(),
                label,
            )
            .map_err(unsolvable)?;
            let horizon = g.horizon();
            let funded = (1..=horizon).filter(|&i| g.coefficient(i) > 0.0).count() as u64
                + u64::from(g.coefficient(horizon + 1) > 0.0);
            let moments = (!objective.is_default()).then(|| greedy_cycle_moments(&pmf, &g));
            let meta = SolveMeta {
                label: g.label(),
                info: g.info_model(),
                objective: Some(g.ideal_qom()),
                objective_kind: objective,
                objective_value: objective_value(objective, Some(g.ideal_qom()), moments.as_ref()),
                discharge_rate: Some(g.discharge_rate()),
                expected_cycle: None,
                regions: None,
                mean_gap: g.mean_gap(),
                iterations: funded,
            };
            (Box::new(g), meta)
        }
        PolicyParams::Clustering {
            n1,
            n2,
            n3,
            boundary,
        } => {
            let (c1, c2, c3) = *boundary;
            let p = ClusteringPolicy::new(*n1, *n2, *n3, c1, c2, c3).map_err(unsolvable)?;
            let eval = p.evaluate(&pmf, &consumption, EvalOptions::default());
            if eval.discharge_rate.is_nan() || eval.discharge_rate > budget.rate() * (1.0 + 1e-9) {
                return Err(SolveError::Unsolvable(format!(
                    "stored clustering record discharges {} units/slot against a budget of {}",
                    eval.discharge_rate,
                    budget.rate()
                )));
            }
            let moments =
                (!objective.is_default()).then(|| stationary_moments(&pmf, &p, &consumption));
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: Some(eval.capture_probability),
                objective_kind: objective,
                objective_value: objective_value(
                    objective,
                    Some(eval.capture_probability),
                    moments.as_ref(),
                ),
                discharge_rate: Some(eval.discharge_rate),
                expected_cycle: Some(eval.expected_cycle),
                regions: Some(Regions {
                    n1: p.n1(),
                    n2: p.n2(),
                    n3: p.n3(),
                    boundary: p.boundary_coefficients(),
                }),
                mean_gap: pmf.mean(),
                iterations,
            };
            (Box::new(p), meta)
        }
        PolicyParams::Aggressive => {
            let p = AggressivePolicy::new();
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: None,
                objective_kind: objective,
                objective_value: None,
                discharge_rate: p.planned_discharge_rate(),
                expected_cycle: None,
                regions: None,
                mean_gap: pmf.mean(),
                iterations: 0,
            };
            (Box::new(p), meta)
        }
        PolicyParams::Periodic { theta1, theta2 } => {
            let balanced =
                PeriodicPolicy::energy_balanced(*theta1, budget, pmf.mean(), &consumption)
                    .map_err(unsolvable)?;
            if balanced.theta2() != *theta2 {
                return Err(SolveError::Unsolvable(format!(
                    "stored periodic record is stale: theta2 = {theta2} but the energy balance \
                     now yields {}",
                    balanced.theta2()
                )));
            }
            let meta = SolveMeta {
                label: balanced.label(),
                info: balanced.info_model(),
                objective: None,
                objective_kind: objective,
                objective_value: None,
                discharge_rate: balanced.planned_discharge_rate(),
                expected_cycle: None,
                regions: None,
                mean_gap: pmf.mean(),
                iterations: 0,
            };
            (Box::new(balanced), meta)
        }
        PolicyParams::Myopic {
            active,
            threshold,
            evaluation,
        } => {
            let window = (4.0 * pmf.mean()).ceil() as usize;
            if active.len() != window {
                return Err(SolveError::Unsolvable(format!(
                    "stored myopic record covers a window of {} states but the scenario \
                     derives a window of {window}",
                    active.len()
                )));
            }
            let p = MyopicPolicy::from_parts(active.clone(), *threshold, *evaluation)
                .map_err(unsolvable)?;
            let eval = p.evaluation();
            let moments =
                (!objective.is_default()).then(|| stationary_moments(&pmf, &p, &consumption));
            let meta = SolveMeta {
                label: p.label(),
                info: p.info_model(),
                objective: Some(eval.capture_probability),
                objective_kind: objective,
                objective_value: objective_value(
                    objective,
                    Some(eval.capture_probability),
                    moments.as_ref(),
                ),
                discharge_rate: Some(eval.discharge_rate),
                expected_cycle: Some(eval.expected_cycle),
                regions: None,
                mean_gap: pmf.mean(),
                iterations: window as u64,
            };
            (Box::new(p), meta)
        }
    };

    let table = {
        let _span = evcap_obs::timing::span("spec.table");
        policy.table()
    };
    let solved = SolvedPolicy {
        scenario: scenario.clone(),
        pmf,
        consumption,
        policy,
        table,
        params: params.clone(),
        meta,
    };
    #[cfg(debug_assertions)]
    debug_validate(&solved);
    Ok(solved)
}

/// Structural self-check run on every debug-build solve.
///
/// The full analytic certifier lives in `evcap-audit` — which depends on
/// this crate, so it cannot run here. This hook catches the cheap,
/// unambiguous corruptions at the construction site itself: out-of-range
/// coefficients, table/policy disagreement on a sampled prefix, and
/// unordered region boundaries. Release builds skip it entirely.
#[cfg(debug_assertions)]
fn debug_validate(solved: &SolvedPolicy) {
    let prefix = solved.pmf.horizon().min(512);
    for state in 1..=prefix {
        let c = solved.probability(state);
        debug_assert!(
            c.is_finite() && (0.0..=1.0).contains(&c),
            "solve produced a non-probability coefficient c_{state} = {c}"
        );
    }
    if let Some(table) = &solved.table {
        let explicit = table.explicit_states();
        let samples = [
            1,
            explicit.div_ceil(2).max(1),
            explicit.max(1),
            explicit + 1,
        ];
        for state in samples {
            let t = table.probability(state);
            let p = solved
                .policy
                .probability(&DecisionContext::stationary(state));
            debug_assert!(
                t.to_bits() == p.to_bits(),
                "precompiled table disagrees with the policy at state {state}: {t} vs {p}"
            );
        }
    }
    if let Some(r) = &solved.meta.regions {
        debug_assert!(
            r.n1 >= 1 && r.n1 <= r.n2 && r.n2 <= r.n3,
            "solve produced unordered region boundaries n1={} n2={} n3={}",
            r.n1,
            r.n2,
            r.n3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for name in ["greedy", "clustering", "aggressive", "periodic", "myopic"] {
            let p = PolicySpec::parse(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(PolicySpec::parse("zigzag").is_err());
        assert_eq!(
            PolicySpec::parse("periodic").unwrap(),
            PolicySpec::Periodic { theta1: 3 }
        );
        assert_eq!(PolicySpec::Periodic { theta1: 5 }.key(), "periodic:5");
    }

    #[test]
    fn canonical_key_collapses_spelling_variants() {
        let a = Scenario::new("exponential:0.050", PolicySpec::Greedy, 0.2).unwrap();
        let b = Scenario::new("exp:0.05", PolicySpec::Greedy, 0.2).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = b
            .clone()
            .with_recharge("bernoulli:0.50,1.0")
            .unwrap()
            .with_recharge("bernoulli:0.5,1")
            .unwrap();
        assert_eq!(c.recharge(), "bernoulli:0.5,1");
    }

    #[test]
    fn canonical_key_elides_the_default_objective() {
        let base = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5).unwrap();
        let explicit = base.clone().with_objective(Objective::Qom);
        // Explicit QoM spells the same key as before objectives existed.
        assert_eq!(base.canonical_key(), explicit.canonical_key());
        assert!(!base.canonical_key().contains("obj="));
        let mean = base.clone().with_objective(Objective::AoiMean);
        let peak = base.clone().with_objective(Objective::AoiPeak);
        assert!(mean.canonical_key().ends_with("|obj=aoi-mean"));
        assert!(peak.canonical_key().ends_with("|obj=aoi-peak"));
        assert_ne!(mean.canonical_key(), peak.canonical_key());
    }

    #[test]
    fn canonical_key_separates_different_scenarios() {
        let base = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5).unwrap();
        let keys = [
            base.canonical_key(),
            base.clone().with_sensors(4).canonical_key(),
            base.clone().with_horizon(4096).canonical_key(),
            base.clone().with_costs(1.0, 8.0).canonical_key(),
            Scenario::new("weibull:40,3", PolicySpec::Greedy, 0.5)
                .unwrap()
                .canonical_key(),
        ];
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if i != j {
                    assert_ne!(keys[i], keys[j]);
                }
            }
        }
    }

    #[test]
    fn solve_produces_artifacts_for_every_family() {
        for name in ["greedy", "clustering", "aggressive", "periodic", "myopic"] {
            let policy = PolicySpec::parse(name).unwrap();
            let s = Scenario::new("weibull:40,3", policy, 0.5)
                .unwrap()
                .with_horizon(4_096);
            let solved = solve(&s).expect(name);
            assert_eq!(solved.meta.label, solved.policy.label(), "{name}");
            assert_eq!(solved.meta.info, solved.policy.info_model(), "{name}");
            if let Some(table) = &solved.table {
                for i in 1..=64 {
                    assert_eq!(
                        table.probability(i),
                        solved.policy.probability(&DecisionContext::stationary(i)),
                        "{name} state {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_artifact_matches_direct_optimization() {
        let s = Scenario::new("weibull:40,3", PolicySpec::Greedy, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let solved = solve(&s).unwrap();
        let pmf = parse_dist("weibull:40,3", 4_096).unwrap();
        let direct = GreedyPolicy::optimize(
            &pmf,
            EnergyBudget::per_slot(0.5),
            &ConsumptionModel::paper_defaults(),
        )
        .unwrap();
        assert_eq!(solved.meta.objective, Some(direct.ideal_qom()));
        assert_eq!(solved.meta.discharge_rate, Some(direct.discharge_rate()));
        for i in 1..=128 {
            assert_eq!(
                solved.probability(i),
                direct.probability(&DecisionContext::stationary(i)),
                "state {i}"
            );
        }
        assert!(solved.meta.iterations > 0, "greedy reports funded slots");
    }

    #[test]
    fn clustering_artifact_reports_regions_and_candidates() {
        let s = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let solved = solve(&s).unwrap();
        let r = solved.meta.regions.expect("clustering reports regions");
        assert!(r.n1 <= r.n2 && r.n2 <= r.n3);
        assert!(solved.meta.iterations > 0, "candidate evaluations counted");
        assert!(solved.meta.objective.unwrap() > 0.0);
    }

    #[test]
    fn rehydrate_is_bit_identical_to_solve_for_every_family() {
        for name in ["greedy", "clustering", "aggressive", "periodic", "myopic"] {
            let policy = PolicySpec::parse(name).unwrap();
            let s = Scenario::new("weibull:40,3", policy, 0.5)
                .unwrap()
                .with_horizon(4_096);
            let solved = solve(&s).expect(name);
            let rebuilt = rehydrate(&s, &solved.params, solved.meta.iterations).expect(name);
            assert_eq!(solved.meta, rebuilt.meta, "{name} meta");
            assert_eq!(solved.params, rebuilt.params, "{name} params");
            assert_eq!(solved.table.is_some(), rebuilt.table.is_some(), "{name}");
            for state in 1..=256 {
                assert_eq!(
                    solved.probability(state).to_bits(),
                    rebuilt.probability(state).to_bits(),
                    "{name} state {state}"
                );
            }
        }
    }

    #[test]
    fn default_objective_meta_mirrors_the_qom_report() {
        for name in ["greedy", "clustering", "aggressive", "periodic", "myopic"] {
            let policy = PolicySpec::parse(name).unwrap();
            let s = Scenario::new("weibull:40,3", policy, 0.5)
                .unwrap()
                .with_horizon(4_096);
            let solved = solve(&s).expect(name);
            assert_eq!(solved.meta.objective_kind, Objective::Qom, "{name}");
            assert_eq!(solved.meta.objective_value, solved.meta.objective, "{name}");
        }
    }

    #[test]
    fn age_objectives_solve_and_rehydrate_bit_identically() {
        for (name, objective) in [
            ("greedy", Objective::AoiMean),
            ("greedy", Objective::AoiPeak),
            ("clustering", Objective::AoiMean),
            ("clustering", Objective::AoiPeak),
            ("myopic", Objective::AoiMean),
            ("aggressive", Objective::AoiMean),
            ("periodic", Objective::AoiPeak),
        ] {
            let policy = PolicySpec::parse(name).unwrap();
            let s = Scenario::new("weibull:40,3", policy, 0.5)
                .unwrap()
                .with_horizon(4_096)
                .with_objective(objective);
            let solved = solve(&s).expect(name);
            assert_eq!(solved.meta.objective_kind, objective, "{name}");
            match name {
                // Age values are slot counts: finite and at least the
                // single-gap floor of the event process.
                "greedy" | "clustering" | "myopic" => {
                    let value = solved.meta.objective_value.expect(name);
                    let floor = objective.value_floor(&solved.pmf).unwrap();
                    assert!(value >= floor - 1e-9, "{name}: {value} < floor {floor}");
                    assert!(value.is_finite(), "{name}");
                }
                _ => assert_eq!(solved.meta.objective_value, None, "{name}"),
            }
            let rebuilt = rehydrate(&s, &solved.params, solved.meta.iterations).expect(name);
            assert_eq!(solved.meta, rebuilt.meta, "{name} {objective} meta");
            for state in 1..=64 {
                assert_eq!(
                    solved.probability(state).to_bits(),
                    rebuilt.probability(state).to_bits(),
                    "{name} {objective} state {state}"
                );
            }
        }
    }

    #[test]
    fn rehydrate_rejects_stale_or_mismatched_records() {
        let s = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let solved = solve(&s).unwrap();

        // Family mismatch: clustering params against a greedy scenario.
        let greedy = Scenario::new("weibull:40,3", PolicySpec::Greedy, 0.5)
            .unwrap()
            .with_horizon(4_096);
        assert!(matches!(
            rehydrate(&greedy, &solved.params, 0),
            Err(SolveError::Unsolvable(_))
        ));

        // Stale greedy record: coefficient count no longer matches the
        // scenario's discretization.
        let gs = solve(&greedy).unwrap();
        let truncated_greedy = match gs.params {
            PolicyParams::Greedy {
                mut coefficients,
                tail_coefficient,
                ideal_qom,
                discharge_rate,
            } => {
                coefficients.pop();
                PolicyParams::Greedy {
                    coefficients,
                    tail_coefficient,
                    ideal_qom,
                    discharge_rate,
                }
            }
            other => panic!("unexpected params {other:?}"),
        };
        assert!(matches!(
            rehydrate(&greedy, &truncated_greedy, gs.meta.iterations),
            Err(SolveError::Unsolvable(_))
        ));

        // Stale periodic record: theta2 disagrees with the energy balance.
        let ps = Scenario::new("weibull:40,3", PolicySpec::Periodic { theta1: 3 }, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let p = solve(&ps).unwrap();
        let stale = match p.params {
            PolicyParams::Periodic { theta1, theta2 } => PolicyParams::Periodic {
                theta1,
                theta2: theta2 + 1,
            },
            other => panic!("unexpected params {other:?}"),
        };
        assert!(matches!(
            rehydrate(&ps, &stale, 0),
            Err(SolveError::Unsolvable(_))
        ));

        // Stale myopic record: window no longer matches the scenario.
        let ms = Scenario::new("weibull:40,3", PolicySpec::Myopic, 0.5)
            .unwrap()
            .with_horizon(4_096);
        let m = solve(&ms).unwrap();
        let truncated = match m.params {
            PolicyParams::Myopic {
                mut active,
                threshold,
                evaluation,
            } => {
                active.pop();
                PolicyParams::Myopic {
                    active,
                    threshold,
                    evaluation,
                }
            }
            other => panic!("unexpected params {other:?}"),
        };
        assert!(matches!(
            rehydrate(&ms, &truncated, m.meta.iterations),
            Err(SolveError::Unsolvable(_))
        ));
    }

    #[test]
    fn hinted_solves_equal_cold_solves_in_every_field() {
        let fields = |s: &SolvedPolicy| {
            let m = &s.meta;
            format!(
                "{:?} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {}",
                s.params,
                m.label,
                m.info,
                m.objective.map(f64::to_bits),
                m.objective_kind,
                m.objective_value.map(f64::to_bits),
                m.discharge_rate.map(f64::to_bits),
                m.expected_cycle.map(f64::to_bits),
                m.regions,
                m.mean_gap.to_bits(),
                m.iterations,
            )
        };
        for objective in [Objective::Qom, Objective::AoiMean, Objective::AoiPeak] {
            let at = |e: f64| {
                Scenario::new("weibull:40,3", PolicySpec::Clustering, e)
                    .unwrap()
                    .with_horizon(4_096)
                    .with_objective(objective)
            };
            let regions = |e: f64| match solve(&at(e)).unwrap().params {
                PolicyParams::Clustering { n1, n2, n3, .. } => (n1, n2, n3),
                other => panic!("unexpected params {other:?}"),
            };
            let s = at(0.5);
            let cold = fields(&solve(&s).unwrap());
            // A neighbor's optimum, a far one, and one outside any search
            // bounds.
            for hint in [regions(0.48), regions(0.12), (3, 2, 1)] {
                let warm = solve_with_hint(&s, Some(hint)).unwrap();
                assert_eq!(fields(&warm), cold, "{objective:?} hint {hint:?}");
            }
        }
    }

    #[test]
    fn unsolvable_scenarios_report_structured_errors() {
        let bad_dist = Scenario::new("gauss:1,2", PolicySpec::Greedy, 0.5);
        assert!(bad_dist.is_err());
        let zero_budget = Scenario::new("weibull:40,3", PolicySpec::Clustering, 0.0)
            .unwrap()
            .with_horizon(1_024);
        assert!(matches!(
            solve(&zero_budget),
            Err(SolveError::Unsolvable(_))
        ));
        let bad_costs = Scenario::new("weibull:40,3", PolicySpec::Greedy, 0.5)
            .unwrap()
            .with_costs(-1.0, 6.0);
        assert!(matches!(solve(&bad_costs), Err(SolveError::Unsolvable(_))));
    }
}
