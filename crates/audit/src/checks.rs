//! The invariant checks themselves.
//!
//! Everything here is *analytic*: checks read the discretized pmf and the
//! policy's activation coefficients, never a simulation. The invariants come
//! straight from the paper — LP (7)–(8) feasibility, Theorem 1's
//! water-filling structure, the cooling/hot/cooling/recovery shape of
//! `π'_PI` — plus the artifact-integrity promises the pipeline layer makes
//! (table/policy bit-agreement, meta consistency).

use evcap_core::{DecisionContext, EnergyBudget, GreedyPolicy, PolicyTable};
use evcap_spec::{Objective, PolicySpec, Scenario, SolvedPolicy};

use crate::report::{AuditReport, Check, Outcome};

/// Tolerances and sampling bounds for one audit pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditOptions {
    /// Relative tolerance on analytic sums (energy budgets, objectives).
    pub energy_tol: f64,
    /// Absolute slack when classifying a coefficient as 0, 1, or a valid
    /// probability (floating-point dust from the water-filling).
    pub coeff_eps: f64,
    /// Most states any per-state scan will visit (tails are sampled, not
    /// enumerated — auditing must stay cheap even for `n3 = u32::MAX`).
    pub max_sampled_states: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            energy_tol: 1e-6,
            coeff_eps: 1e-9,
            max_sampled_states: PolicyTable::MAX_EXPLICIT_STATES,
        }
    }
}

/// Audits a solved artifact with default tolerances.
pub fn audit(scenario: &Scenario, solved: &SolvedPolicy) -> AuditReport {
    audit_with(scenario, solved, &AuditOptions::default())
}

/// Audits a solved artifact: proves the paper's analytic invariants and the
/// pipeline's artifact-integrity promises, statically.
///
/// The report contains one entry per known invariant; a check that does not
/// apply to the policy family is recorded as skipped, never silently
/// dropped.
pub fn audit_with(scenario: &Scenario, solved: &SolvedPolicy, opts: &AuditOptions) -> AuditReport {
    let checks = vec![
        check_coefficient_range(solved, opts),
        check_table_agreement(solved, opts),
        check_energy_feasibility(scenario, solved, opts),
        check_water_filling(scenario, solved, opts),
        check_region_shape(solved, opts),
        check_objective_bound(scenario, solved, opts),
        check_objective_value(scenario, solved, opts),
        check_meta_consistency(scenario, solved, opts),
    ];
    AuditReport {
        scenario_key: scenario.canonical_key(),
        policy: scenario.policy().name().to_owned(),
        checks,
    }
}

/// A certification refusal: the full audit report, every violation intact.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyError {
    /// The report whose failed checks caused the refusal.
    pub report: AuditReport,
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named: Vec<String> = self
            .report
            .violations()
            .map(|c| format!("{}: {}", c.invariant, c.detail))
            .collect();
        write!(
            f,
            "artifact `{}` failed certification ({})",
            self.report.scenario_key,
            named.join("; ")
        )
    }
}

impl std::error::Error for CertifyError {}

/// Certifies a solved artifact for serving: audits it and turns any failed
/// invariant into a hard error.
///
/// This is the mandatory gate between *deserialized* artifacts (a store
/// load, any future wire ingestion) and a serve response — [`audit`]
/// merely reports, `certify` refuses. A clean pass returns the report so
/// callers can log what was proved. Runs under the `audit.certify` timing
/// span.
///
/// # Errors
///
/// [`CertifyError`] carrying the full report when any invariant fails.
pub fn certify(scenario: &Scenario, solved: &SolvedPolicy) -> Result<AuditReport, CertifyError> {
    let _span = evcap_obs::timing::span("audit.certify");
    let report = audit(scenario, solved);
    if report.is_clean() {
        Ok(report)
    } else {
        Err(CertifyError { report })
    }
}

fn pass(invariant: &'static str, detail: impl Into<String>) -> Check {
    Check {
        invariant,
        outcome: Outcome::Pass,
        detail: detail.into(),
    }
}

fn fail(invariant: &'static str, detail: impl Into<String>) -> Check {
    Check {
        invariant,
        outcome: Outcome::Fail,
        detail: detail.into(),
    }
}

fn skip(invariant: &'static str, detail: impl Into<String>) -> Check {
    Check {
        invariant,
        outcome: Outcome::Skipped,
        detail: detail.into(),
    }
}

/// States probed beyond any explicit region, to exercise the constant tail.
fn tail_samples(beyond: usize) -> [usize; 3] {
    [
        beyond.saturating_add(1),
        beyond.saturating_add(123),
        beyond.saturating_mul(2).saturating_add(4567),
    ]
}

/// Invariant: every activation coefficient is a probability in `[0, 1]`.
fn check_coefficient_range(solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "coefficient-range";
    let horizon = solved.pmf.horizon().min(opts.max_sampled_states);
    let mut scanned = 0usize;
    let probe = |i: usize| -> Option<Check> {
        let c = solved.probability(i);
        if !c.is_finite() || c < -opts.coeff_eps || c > 1.0 + opts.coeff_eps {
            Some(fail(NAME, format!("c_{i} = {c} is not a probability")))
        } else {
            None
        }
    };
    for i in 1..=horizon {
        if let Some(violation) = probe(i) {
            return violation;
        }
        scanned += 1;
    }
    for i in tail_samples(solved.pmf.horizon()) {
        if let Some(violation) = probe(i) {
            return violation;
        }
        scanned += 1;
    }
    pass(NAME, format!("{scanned} states in [0, 1]"))
}

/// Invariant: the precompiled table agrees with the boxed policy bit for bit
/// on every explicit state and on the constant tail; when no table was
/// materialized (non-stationary policy, or the `MAX_EXPLICIT_STATES`
/// fallback), the artifact's `probability` accessor must still match the
/// boxed policy through dynamic dispatch.
fn check_table_agreement(solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "table-agreement";
    let at = |i: usize| solved.policy.probability(&DecisionContext::stationary(i));
    match &solved.table {
        Some(table) => {
            if table.explicit_states() > PolicyTable::MAX_EXPLICIT_STATES {
                return fail(
                    NAME,
                    format!(
                        "table materializes {} explicit states (cap {})",
                        table.explicit_states(),
                        PolicyTable::MAX_EXPLICIT_STATES
                    ),
                );
            }
            for i in 1..=table.explicit_states() {
                let (t, p) = (table.probability(i), at(i));
                if t.to_bits() != p.to_bits() {
                    return fail(NAME, format!("state {i}: table {t} vs policy {p}"));
                }
            }
            for i in tail_samples(table.explicit_states()) {
                let (t, p) = (table.probability(i), at(i));
                if t.to_bits() != p.to_bits() {
                    return fail(NAME, format!("tail state {i}: table {t} vs policy {p}"));
                }
            }
            pass(
                NAME,
                format!(
                    "{} explicit states + tail bit-identical",
                    table.explicit_states()
                ),
            )
        }
        None => {
            // Dynamic-dispatch fallback: the serving accessor must route to
            // the boxed policy unchanged, on a sampled prefix plus deep-tail
            // states (cheap even when the explicit region is astronomically
            // large, e.g. a no-recovery ablation with `n3 = u32::MAX`).
            let prefix = solved.pmf.horizon().clamp(64, 2_048);
            for i in (1..=prefix).chain(tail_samples(opts.max_sampled_states)) {
                let (s, p) = (solved.probability(i), at(i));
                if s.to_bits() != p.to_bits() {
                    return fail(NAME, format!("state {i}: accessor {s} vs policy {p}"));
                }
            }
            pass(
                NAME,
                format!("no table: dynamic dispatch verified on {prefix} states + tail"),
            )
        }
    }
}

/// One allocatable slot of the full-information LP: its hazard ordering key,
/// per-renewal energy cost `ξ_i`, and capture reward `α_i`.
struct FiItem {
    /// Slot index, or `usize::MAX` for the aggregated geometric tail.
    slot: usize,
    hazard: f64,
    cost: f64,
}

/// Builds the LP item list exactly as the optimizer does (unreachable slots
/// skipped, tail aggregated analytically), sorted by decreasing hazard with
/// ties to the earlier slot.
fn fi_items(solved: &SolvedPolicy) -> Vec<FiItem> {
    let pmf = &solved.pmf;
    let d1 = solved.consumption.delta1_units();
    let d2 = solved.consumption.delta2_units();
    let mut items = Vec::with_capacity(pmf.horizon() + 1);
    for i in 1..=pmf.horizon() {
        let cost = d1 * pmf.survival(i - 1) + d2 * pmf.pmf(i);
        if cost <= 0.0 {
            continue;
        }
        items.push(FiItem {
            slot: i,
            hazard: pmf.hazard(i),
            cost,
        });
    }
    let tail_mass = pmf.tail_mass();
    if tail_mass > 0.0 {
        let h = pmf.tail_hazard();
        items.push(FiItem {
            slot: usize::MAX,
            hazard: h,
            cost: d1 * tail_mass / h + d2 * tail_mass,
        });
    }
    items.sort_by(|a, b| {
        b.hazard
            .partial_cmp(&a.hazard)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.slot.cmp(&b.slot))
    });
    items
}

/// The coefficient the artifact assigns to an LP item (the aggregated tail
/// reads one state past the explicit horizon).
fn item_coefficient(solved: &SolvedPolicy, item: &FiItem) -> f64 {
    if item.slot == usize::MAX {
        solved.probability(solved.pmf.horizon() + 1)
    } else {
        solved.probability(item.slot)
    }
}

/// Invariant: LP (7)–(8) feasibility — the policy's expected per-renewal
/// spend `Σ ξ_i c_i` stays within the budget `e·μ` (full information), or
/// the solver-reported analytic discharge rate stays within `e` (partial
/// information).
fn check_energy_feasibility(
    scenario: &Scenario,
    solved: &SolvedPolicy,
    opts: &AuditOptions,
) -> Check {
    const NAME: &str = "energy-feasibility";
    let e_total = scenario.e() * scenario.sensors() as f64;
    match scenario.policy() {
        PolicySpec::Greedy => {
            let mu = solved.pmf.mean();
            let per_renewal = e_total * mu;
            let spent: f64 = fi_items(solved)
                .iter()
                .map(|item| item_coefficient(solved, item) * item.cost)
                .sum();
            let slack = opts.energy_tol * per_renewal.max(1.0);
            if spent > per_renewal + slack {
                return fail(
                    NAME,
                    format!("Σ ξ·c = {spent:.9} exceeds budget e·μ = {per_renewal:.9}"),
                );
            }
            if let Some(rate) = solved.meta.discharge_rate {
                let implied = spent / mu;
                if (implied - rate).abs() > opts.energy_tol * rate.max(1.0) {
                    return fail(
                        NAME,
                        format!(
                            "reported discharge {rate:.9} disagrees with Σ ξ·c / μ = {implied:.9}"
                        ),
                    );
                }
            }
            pass(NAME, format!("Σ ξ·c = {spent:.6} ≤ e·μ = {per_renewal:.6}"))
        }
        PolicySpec::Clustering => match solved.meta.discharge_rate {
            Some(rate) => {
                let slack = opts.energy_tol * e_total.max(1.0);
                if rate > e_total + slack {
                    fail(
                        NAME,
                        format!("analytic discharge {rate:.9} exceeds recharge e = {e_total:.9}"),
                    )
                } else {
                    pass(NAME, format!("discharge {rate:.6} ≤ e = {e_total:.6}"))
                }
            }
            None => fail(NAME, "partial-information solve reported no discharge rate"),
        },
        PolicySpec::Myopic => match solved.meta.discharge_rate {
            Some(rate) => {
                let slack = opts.energy_tol * e_total.max(1.0);
                if rate <= e_total + slack {
                    pass(NAME, format!("discharge {rate:.6} ≤ e = {e_total:.6}"))
                } else {
                    // The myopic derivation documents this: when even the
                    // least-active window overshoots, it keeps the plan and
                    // lets the battery throttle it at runtime.
                    skip(
                        NAME,
                        format!(
                            "planned discharge {rate:.6} exceeds e = {e_total:.6}: \
                             least-active fallback, battery-throttled at runtime"
                        ),
                    )
                }
            }
            None => fail(NAME, "partial-information solve reported no discharge rate"),
        },
        PolicySpec::Periodic { .. } => skip(
            NAME,
            "duty cycle is energy-balanced by construction at solve time",
        ),
        PolicySpec::Aggressive => skip(
            NAME,
            "battery-throttled baseline spends opportunistically by design",
        ),
    }
}

/// Invariant (Theorem 1 with Remark 1): the full-information optimum is a
/// hazard-sorted water-filling — saturated slots first, at most one
/// fractional coefficient, zeros after — and the budget is spent exactly
/// when saturation is incomplete.
fn check_water_filling(scenario: &Scenario, solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "water-filling";
    if scenario.policy() != PolicySpec::Greedy {
        return skip(NAME, "Theorem 1 structure applies to the FI greedy family");
    }
    let items = fi_items(solved);
    let eps = opts.coeff_eps;
    let mut fractional = 0usize;
    let mut seen_zero = false;
    let mut spent = 0.0;
    let mut saturated = 0usize;
    for item in &items {
        let c = item_coefficient(solved, item);
        spent += c * item.cost;
        let slot = item.slot;
        if c >= 1.0 - eps {
            saturated += 1;
            if seen_zero || fractional > 0 {
                return fail(
                    NAME,
                    format!("slot {slot} is saturated after lower-hazard slots were cut"),
                );
            }
        } else if c <= eps {
            seen_zero = true;
        } else {
            if seen_zero {
                return fail(
                    NAME,
                    format!("fractional c at slot {slot} after the water level was passed"),
                );
            }
            fractional += 1;
            if fractional > 1 {
                return fail(
                    NAME,
                    format!("more than one fractional coefficient (second at slot {slot})"),
                );
            }
        }
    }
    // Unsaturated optimum ⇒ the budget constraint is tight (Theorem 1's
    // water level): spending less would leave captures on the table.
    let fully_saturated = saturated == items.len();
    if !fully_saturated {
        let per_renewal = scenario.e() * scenario.sensors() as f64 * solved.pmf.mean();
        if (spent - per_renewal).abs() > opts.energy_tol * per_renewal.max(1.0) {
            return fail(
                NAME,
                format!(
                    "unsaturated policy spends {spent:.9} instead of the full budget \
                     {per_renewal:.9}"
                ),
            );
        }
    }
    pass(
        NAME,
        format!(
            "{saturated} saturated, {fractional} fractional over {} slots{}",
            items.len(),
            if fully_saturated {
                ""
            } else {
                "; budget tight"
            }
        ),
    )
}

/// Invariant (Eq. 11): clustering solutions have ordered region boundaries
/// `1 ≤ n1 ≤ n2 ≤ n3`, zero coefficients inside the cooling regions, full
/// activation inside the hot region and the aggressive recovery tail, and
/// the reported boundary coefficients on the boundaries.
fn check_region_shape(solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "region-shape";
    if solved.scenario.policy() != PolicySpec::Clustering {
        return skip(NAME, "region structure applies to the clustering family");
    }
    let Some(r) = &solved.meta.regions else {
        return fail(NAME, "clustering solve reported no region boundaries");
    };
    let (n1, n2, n3) = (r.n1, r.n2, r.n3);
    if n1 < 1 || n1 > n2 || n2 > n3 {
        return fail(
            NAME,
            format!("unordered boundaries n1={n1} n2={n2} n3={n3}"),
        );
    }
    let (q1, q2, q3) = r.boundary;
    for (name, q) in [("q1", q1), ("q2", q2), ("q3", q3)] {
        if !q.is_finite() || !(-opts.coeff_eps..=1.0 + opts.coeff_eps).contains(&q) {
            return fail(NAME, format!("boundary coefficient {name} = {q}"));
        }
    }
    // The piecewise shape of Eq. 11; earlier regions win coinciding
    // boundaries, mirroring `ClusteringPolicy::coefficient`.
    let expected = |state: usize| -> f64 {
        if state < n1 {
            0.0
        } else if state == n1 {
            q1
        } else if state < n2 {
            1.0
        } else if state == n2 {
            q2
        } else if state < n3 {
            0.0
        } else if state == n3 {
            q3
        } else {
            1.0
        }
    };
    // Sampled probe states covering every region, its boundaries, and the
    // recovery tail; sampling (not enumeration) keeps no-recovery ablations
    // with n3 near usize::MAX auditable.
    let mid = |a: usize, b: usize| a + (b - a) / 2;
    let mut states = vec![
        1,
        n1.saturating_sub(1).max(1),
        n1,
        n1.saturating_add(1).min(n2),
        mid(n1, n2),
        n2.saturating_sub(1).max(n1),
        n2,
        n2.saturating_add(1).min(n3),
        mid(n2, n3),
        n3.saturating_sub(1).max(n2),
        n3,
        n3.saturating_add(1),
        n3.saturating_add(997),
    ];
    states.sort_unstable();
    states.dedup();
    for state in states {
        let got = solved.probability(state);
        let want = expected(state);
        if got.to_bits() != want.to_bits() {
            return fail(
                NAME,
                format!("state {state}: coefficient {got} but region shape implies {want}"),
            );
        }
    }
    pass(
        NAME,
        format!("regions [{n1}, {n2}] ∪ [{n3}, ∞) well-formed"),
    )
}

/// Invariant: any reported objective is a probability and never exceeds the
/// analytic full-information optimum `U(π*_FI(e))` — the paper's universal
/// upper bound (Fig. 3's "Upper Bound" curve). For the greedy family the
/// objective must *equal* the recomputed optimum.
fn check_objective_bound(scenario: &Scenario, solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "objective-bound";
    let Some(objective) = solved.meta.objective else {
        return skip(NAME, "family reports no analytic objective");
    };
    if !objective.is_finite() || objective < -opts.coeff_eps {
        return fail(NAME, format!("objective {objective} is not a probability"));
    }
    if objective > 1.0 + opts.coeff_eps {
        return fail(NAME, format!("objective {objective} exceeds 1"));
    }
    // The bound is computed at the artifact's planned spend rate: any
    // policy spending at rate r captures at most U(π*_FI(r)). For greedy
    // and clustering the plan never exceeds e, so this is the paper's
    // upper-bound curve; the myopic least-active fallback may plan above e
    // and is bounded at its own rate.
    let e_total = scenario.e() * scenario.sensors() as f64;
    let rate = solved
        .meta
        .discharge_rate
        .map_or(e_total, |r| r.max(e_total));
    let budget = EnergyBudget::per_slot(rate);
    // deepcheck:allow(solve-site): independent recomputation of the FI bound is the point of the audit
    let bound = match GreedyPolicy::optimize(&solved.pmf, budget, &solved.consumption) {
        Ok(fi) => fi.ideal_qom(),
        Err(e) => {
            return fail(NAME, format!("cannot recompute the FI upper bound: {e}"));
        }
    };
    let slack = opts.energy_tol * bound.max(1.0);
    if objective > bound + slack {
        return fail(
            NAME,
            format!("objective {objective:.9} exceeds the FI upper bound U = {bound:.9}"),
        );
    }
    if scenario.policy() == PolicySpec::Greedy && (objective - bound).abs() > slack {
        return fail(
            NAME,
            format!("greedy objective {objective:.9} disagrees with recomputed U = {bound:.9}"),
        );
    }
    pass(NAME, format!("U = {objective:.6} ≤ U(π*_FI) = {bound:.6}"))
}

/// Invariant: the artifact's objective bookkeeping is honest — it was
/// optimized for the objective it is presented under (a QoM-certified
/// artifact served as an AoI answer is a certification refusal, and vice
/// versa), and any reported value respects the objective's analytic bound.
/// For the age objectives that bound is the capture-every-event floor: no
/// policy ages slower than one whose cycle is a single inter-arrival gap.
/// QoM's upper bound is proved by `objective-bound`; here its value must
/// mirror the ideal-QoM report bit for bit.
fn check_objective_value(scenario: &Scenario, solved: &SolvedPolicy, opts: &AuditOptions) -> Check {
    const NAME: &str = "objective-value";
    let presented = scenario.objective();
    let kind = solved.meta.objective_kind;
    if kind != presented {
        return fail(
            NAME,
            format!("artifact optimized for {kind} presented as {presented}"),
        );
    }
    if solved.scenario.objective() != kind {
        return fail(
            NAME,
            format!(
                "meta records {kind} but the embedded scenario says {}",
                solved.scenario.objective()
            ),
        );
    }
    let Some(value) = solved.meta.objective_value else {
        return skip(NAME, "family reports no objective value");
    };
    match kind {
        Objective::Qom => match solved.meta.objective {
            Some(qom) if value.to_bits() == qom.to_bits() => pass(
                NAME,
                format!("QoM value {value:.6} mirrors the ideal-QoM report"),
            ),
            Some(qom) => fail(
                NAME,
                format!("QoM value {value} disagrees with the ideal-QoM report {qom}"),
            ),
            None => fail(NAME, format!("QoM value {value} with no ideal-QoM report")),
        },
        Objective::AoiMean | Objective::AoiPeak => {
            // `+∞` is legitimate (a policy that never recovers never
            // captures again); NaN and negative ages are not.
            if value.is_nan() || value < 0.0 {
                return fail(NAME, format!("{kind} value {value} is not an age"));
            }
            let Some(floor) = kind.value_floor(&solved.pmf) else {
                return fail(NAME, format!("{kind} reports no value floor"));
            };
            let slack = opts.energy_tol * floor.max(1.0);
            if value < floor - slack {
                return fail(
                    NAME,
                    format!(
                        "{kind} value {value:.9} beats the capture-every-event floor {floor:.9}"
                    ),
                );
            }
            pass(NAME, format!("{kind} = {value:.6} ≥ floor {floor:.6}"))
        }
    }
}

/// Invariant: the artifact's metadata is internally consistent — it
/// describes the scenario it was solved from and the policy it carries.
fn check_meta_consistency(
    scenario: &Scenario,
    solved: &SolvedPolicy,
    opts: &AuditOptions,
) -> Check {
    const NAME: &str = "meta-consistency";
    if solved.scenario.canonical_key() != scenario.canonical_key() {
        return fail(
            NAME,
            format!(
                "artifact was solved from `{}`, not `{}`",
                solved.scenario.canonical_key(),
                scenario.canonical_key()
            ),
        );
    }
    if solved.meta.label != solved.policy.label() {
        return fail(
            NAME,
            format!(
                "meta label `{}` vs policy label `{}`",
                solved.meta.label,
                solved.policy.label()
            ),
        );
    }
    if solved.meta.info != solved.policy.info_model() {
        return fail(NAME, "meta info model disagrees with the policy".to_owned());
    }
    let is_clustering = scenario.policy() == PolicySpec::Clustering;
    if solved.meta.regions.is_some() != is_clustering {
        return fail(
            NAME,
            format!(
                "regions {} for a {} policy",
                if solved.meta.regions.is_some() {
                    "reported"
                } else {
                    "missing"
                },
                scenario.policy().name()
            ),
        );
    }
    let mu = solved.pmf.mean();
    if (solved.meta.mean_gap - mu).abs() > opts.energy_tol * mu.max(1.0) {
        return fail(
            NAME,
            format!("meta mean gap {} vs pmf mean {mu}", solved.meta.mean_gap),
        );
    }
    if let Some(rate) = solved.meta.discharge_rate {
        if !rate.is_finite() || rate < 0.0 {
            return fail(NAME, format!("discharge rate {rate} is not a rate"));
        }
    }
    if let Some(cycle) = solved.meta.expected_cycle {
        // `+∞` is legitimate: a no-recovery ablation never captures again.
        if cycle.is_nan() || cycle <= 0.0 {
            return fail(NAME, format!("expected cycle {cycle} is not a length"));
        }
    }
    pass(NAME, "label, info model, regions, and rates consistent")
}
