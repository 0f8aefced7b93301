//! The first-class optimization objective: what a solve is *for*.
//!
//! The paper optimizes exactly one metric — the quality of monitoring
//! `U = μ / E[capture cycle]`, the long-run fraction of events captured in
//! their own slot. Much of the related work (Arafa–Yang–Ulukus, UROP)
//! optimizes *freshness* instead: the age of information since the last
//! capture. This module makes the metric a first-class axis so the rest of
//! the workspace never hard-codes it:
//!
//! * [`Objective::Qom`] — maximize the capture probability `U` (the paper).
//! * [`Objective::AoiPeak`] — minimize the expected peak age, which for a
//!   renewal capture process is exactly the expected capture-cycle length
//!   `E[T]`. Because `U = μ/E[T]` with `μ` fixed per scenario, minimizing
//!   `E[T]` selects the same single-scenario policy as maximizing `U`
//!   (ties aside) — the objectives only separate across a *fleet*, where
//!   `μ` differs per PoI.
//! * [`Objective::AoiMean`] — minimize the time-average age. In a slotted
//!   renewal process where a capture at slot `T` resets the age to zero,
//!   each cycle contributes `T(T−1)/2` slot-ages, so by renewal-reward the
//!   mean age is `(E[T²] − E[T]) / (2·E[T])` — it depends on the *second*
//!   moment of the cycle, so unlike the other two it penalizes cycle
//!   variance (the Arafa et al. freshness/throughput tension).
//!
//! Everything here reuses the renewal-cycle statistics the QoM machinery
//! already computes: the clustering evaluator accumulates `E[T²]` alongside
//! `E[T]` (see `evaluate_partial_info_moments`), and the greedy
//! water-filling family gets a closed form via the compound-geometric
//! structure of its capture cycle ([`greedy_cycle_moments`]).
//!
//! **This module is the only place that maps an objective to a score.** The
//! optimizers, the scenario layer, the server, and the benches all go
//! through [`Objective::score`] / [`Objective::value`]; `xtask deepcheck`
//! (rule `objective-score`) enforces that no other file compares raw
//! capture probabilities to rank candidates.

use evcap_dist::SlotPmf;

use crate::clustering::ClusterEvaluation;
use crate::greedy::GreedyPolicy;

/// The metric a solve optimizes (and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// The paper's quality of monitoring `U = μ / E[T]` (maximize).
    #[default]
    Qom,
    /// Time-average age of information since the last capture (minimize).
    AoiMean,
    /// Expected peak age — the expected capture-cycle length (minimize).
    AoiPeak,
}

impl Objective {
    /// Every objective, in wire-tag order (see [`Objective::index`]).
    pub const ALL: [Self; 3] = [Self::Qom, Self::AoiMean, Self::AoiPeak];

    /// Parses a wire/argv spelling (`qom`, `aoi-mean`, `aoi-peak`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim() {
            "qom" => Some(Self::Qom),
            "aoi-mean" => Some(Self::AoiMean),
            "aoi-peak" => Some(Self::AoiPeak),
            _ => None,
        }
    }

    /// The canonical spelling (round-trips through [`Objective::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Qom => "qom",
            Self::AoiMean => "aoi-mean",
            Self::AoiPeak => "aoi-peak",
        }
    }

    /// Whether this is the default objective (QoM), which every canonical
    /// key, stored record, and wire body elides for backward compatibility.
    pub fn is_default(self) -> bool {
        self == Self::Qom
    }

    /// A stable small index (`qom = 0`, `aoi-mean = 1`, `aoi-peak = 2`) for
    /// counter arrays and the store's record tag.
    pub const fn index(self) -> usize {
        match self {
            Self::Qom => 0,
            Self::AoiMean => 1,
            Self::AoiPeak => 2,
        }
    }

    /// The objective from a stable index (inverse of [`Objective::index`]).
    pub fn from_index(index: usize) -> Option<Self> {
        Self::ALL.get(index).copied()
    }

    /// The candidate-ranking score (**higher is better** for every
    /// variant): age objectives are negated so one comparison rule serves
    /// all three.
    ///
    /// For [`Objective::Qom`] this is exactly `eval.capture_probability`,
    /// bit for bit, so objective-generic search code reproduces the
    /// historical QoM search unchanged.
    pub fn score(self, eval: &ClusterEvaluation, moments: &CycleMoments) -> f64 {
        match self {
            Self::Qom => eval.capture_probability,
            Self::AoiMean => -moments.mean_age(),
            Self::AoiPeak => -moments.peak_age(),
        }
    }

    /// The metric in its natural units (a probability for QoM, slots for
    /// the age objectives) — what metadata and wire bodies report.
    pub fn value(self, eval: &ClusterEvaluation, moments: &CycleMoments) -> f64 {
        match self {
            Self::Qom => eval.capture_probability,
            Self::AoiMean => moments.mean_age(),
            Self::AoiPeak => moments.peak_age(),
        }
    }

    /// Higher-is-better utility of an optimized water-filling policy on
    /// `pmf` — what the fleet allocator's value curves are made of. QoM is
    /// its own utility; the age objectives negate the closed-form
    /// [`greedy_cycle_moments`] age so one maximization rule serves all.
    pub fn greedy_utility(self, pmf: &SlotPmf, policy: &GreedyPolicy) -> f64 {
        match self {
            Self::Qom => policy.ideal_qom(),
            Self::AoiMean => -greedy_cycle_moments(pmf, policy).mean_age(),
            Self::AoiPeak => -greedy_cycle_moments(pmf, policy).peak_age(),
        }
    }

    /// The utility of a PoI no sensor watches: zero captures under QoM;
    /// unbounded staleness (utility `−∞`) under the age objectives, which
    /// makes any finite coverage infinitely preferable.
    pub fn unwatched_utility(self) -> f64 {
        match self {
            Self::Qom => 0.0,
            Self::AoiMean | Self::AoiPeak => f64::NEG_INFINITY,
        }
    }

    /// Converts a [`Objective::greedy_utility`]/[`Objective::unwatched_utility`]
    /// utility back to the metric's natural units.
    pub fn utility_to_value(self, utility: f64) -> f64 {
        match self {
            Self::Qom => utility,
            Self::AoiMean | Self::AoiPeak => -utility,
        }
    }

    /// The analytic lower bound on this objective's value for *any* policy
    /// on the event process `pmf` (used by the audit's objective-bound
    /// check): no policy ages slower than one that captures every event,
    /// whose cycle is a single inter-arrival gap.
    ///
    /// Returns `None` for QoM, whose (upper) bound is the Theorem-1
    /// water-filling optimum and is recomputed exactly by the auditor.
    pub fn value_floor(self, pmf: &SlotPmf) -> Option<f64> {
        let gaps = gap_moments(pmf);
        match self {
            Self::Qom => None,
            Self::AoiMean => Some(gaps.mean_age()),
            Self::AoiPeak => Some(gaps.peak_age()),
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// First and second moments of the capture-cycle length `T` (slots), the
/// renewal statistics every objective's value derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleMoments {
    /// `E[T]` — identical to `ClusterEvaluation::expected_cycle` when both
    /// come from the same evaluation.
    pub first: f64,
    /// `E[T²]`.
    pub second: f64,
}

impl CycleMoments {
    /// Time-average age since the last capture: a capture at slot `T`
    /// carries age 0, so one cycle accrues `T(T−1)/2` slot-ages and the
    /// renewal-reward mean is `(E[T²] − E[T]) / (2·E[T])`.
    pub fn mean_age(&self) -> f64 {
        if !self.first.is_finite() {
            return f64::INFINITY;
        }
        ((self.second - self.first) / (2.0 * self.first)).max(0.0)
    }

    /// Expected peak age of a cycle — the age just before the capture
    /// resets it, i.e. `E[T] − 1` slots… reported paper-style as the cycle
    /// length `E[T]` so `peak = μ/U` holds exactly.
    pub fn peak_age(&self) -> f64 {
        self.first
    }
}

/// Moments of a single inter-arrival gap `X` of `pmf`, including the
/// geometric tail beyond the explicit horizon: `first = E[X] = μ`,
/// `second = E[X²]`.
///
/// This is the cycle law of the perfect policy that captures every event,
/// so its [`CycleMoments::mean_age`]/[`CycleMoments::peak_age`] are the
/// analytic floors of the age objectives.
pub fn gap_moments(pmf: &SlotPmf) -> CycleMoments {
    let (mut m1, mut m2) = (0.0f64, 0.0f64);
    for i in 1..=pmf.horizon() {
        let alpha = pmf.pmf(i);
        let x = i as f64;
        m1 += x * alpha;
        m2 += x * x * alpha;
    }
    let tail = tail_gap_moments(pmf);
    CycleMoments {
        first: m1 + tail.first,
        second: m2 + tail.second,
    }
}

/// Mass-weighted first/second moments of the gap restricted to the
/// geometric tail `i > H`: `Σ_{i>H} α_i·i` and `Σ_{i>H} α_i·i²`, with
/// `α_{H+j} = tail_mass·h·(1−h)^{j−1}`.
fn tail_gap_moments(pmf: &SlotPmf) -> CycleMoments {
    let mass = pmf.tail_mass();
    if mass <= 0.0 {
        return CycleMoments {
            first: 0.0,
            second: 0.0,
        };
    }
    let h = pmf.tail_hazard();
    let hh = pmf.horizon() as f64;
    // X = H + J with J ~ Geom₁(h): E[J] = 1/h, E[J²] = (2 − h)/h².
    let ej = 1.0 / h;
    let ej2 = (2.0 - h) / (h * h);
    CycleMoments {
        first: mass * (hh + ej),
        second: mass * (hh * hh + 2.0 * hh * ej + ej2),
    }
}

/// Closed-form capture-cycle moments of a full-information water-filling
/// policy, via the compound-geometric cycle structure.
///
/// Under full information the state resets at every *event*, so gaps are
/// i.i.d. and gap `i` is captured independently with probability `c_i`.
/// With `q = Σ α_i c_i` (the ideal QoM), the cycle is
/// `T = Y_1 + … + Y_M + Z` where `M ~ Geom₀(q)` counts missed gaps,
/// `Y` is a gap conditioned on a miss, and `Z` one conditioned on a
/// capture — all independent. Wald gives `E[T] = μ/q`; the compound-sum
/// variance identity gives `E[T²]`.
///
/// Deterministic in the policy's coefficients and the pmf, so a rehydrated
/// artifact reproduces the solve-time value bit for bit.
pub fn greedy_cycle_moments(pmf: &SlotPmf, policy: &GreedyPolicy) -> CycleMoments {
    // Capture-weighted (z*) and miss-weighted (y*) gap moment sums.
    let (mut z0, mut z1, mut z2) = (0.0f64, 0.0, 0.0);
    let (mut y0, mut y1, mut y2) = (0.0f64, 0.0, 0.0);
    for i in 1..=pmf.horizon() {
        let alpha = pmf.pmf(i);
        if alpha <= 0.0 {
            continue;
        }
        let c = policy.coefficient(i);
        let x = i as f64;
        z0 += alpha * c;
        z1 += alpha * c * x;
        z2 += alpha * c * x * x;
        y0 += alpha * (1.0 - c);
        y1 += alpha * (1.0 - c) * x;
        y2 += alpha * (1.0 - c) * x * x;
    }
    let tail_mass = pmf.tail_mass();
    if tail_mass > 0.0 {
        let ct = policy.coefficient(pmf.horizon() + 1);
        let t = tail_gap_moments(pmf);
        z0 += tail_mass * ct;
        z1 += t.first * ct;
        z2 += t.second * ct;
        y0 += tail_mass * (1.0 - ct);
        y1 += t.first * (1.0 - ct);
        y2 += t.second * (1.0 - ct);
    }

    let q = z0;
    if q <= 0.0 {
        // The policy never captures: the cycle never ends.
        return CycleMoments {
            first: f64::INFINITY,
            second: f64::INFINITY,
        };
    }
    let ez = z1 / q;
    let var_z = (z2 / q - ez * ez).max(0.0);
    let (e_t, e_t2) = if y0 <= f64::EPSILON {
        // Every gap is captured: T = Z.
        (ez, z2 / q)
    } else {
        let ey = y1 / y0;
        let var_y = (y2 / y0 - ey * ey).max(0.0);
        let em = (1.0 - q) / q; // E[M], M ~ Geom₀(q)
        let var_m = (1.0 - q) / (q * q);
        let e_t = em * ey + ez;
        let var_t = em * var_y + var_m * ey * ey + var_z;
        (e_t, var_t + e_t * e_t)
    };
    CycleMoments {
        first: e_t,
        second: e_t2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::EnergyBudget;
    use evcap_dist::{Discretizer, Weibull};
    use evcap_energy::ConsumptionModel;

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for obj in Objective::ALL {
            assert_eq!(Objective::parse(obj.name()), Some(obj));
            assert_eq!(Objective::from_index(obj.index()), Some(obj));
        }
        assert_eq!(Objective::parse("freshness"), None);
        assert_eq!(Objective::from_index(7), None);
        assert!(Objective::Qom.is_default());
        assert!(!Objective::AoiMean.is_default());
        assert_eq!(Objective::default(), Objective::Qom);
    }

    #[test]
    fn qom_score_is_the_capture_probability_bit_for_bit() {
        let eval = ClusterEvaluation {
            capture_probability: 0.7231,
            discharge_rate: 0.4,
            expected_cycle: 55.3,
            truncated_survival: 0.0,
        };
        let moments = CycleMoments {
            first: 55.3,
            second: 4000.0,
        };
        assert_eq!(
            Objective::Qom.score(&eval, &moments).to_bits(),
            eval.capture_probability.to_bits()
        );
        assert_eq!(Objective::AoiPeak.score(&eval, &moments), -55.3);
        assert!(Objective::AoiMean.score(&eval, &moments) < 0.0);
    }

    #[test]
    fn mean_age_matches_hand_computation() {
        // Deterministic cycle T = 5: ages 1, 2, 3, 4, 0 → mean 2.
        let m = CycleMoments {
            first: 5.0,
            second: 25.0,
        };
        assert!((m.mean_age() - 2.0).abs() < 1e-12);
        assert_eq!(m.peak_age(), 5.0);
        // A never-ending cycle ages forever.
        let never = CycleMoments {
            first: f64::INFINITY,
            second: f64::INFINITY,
        };
        assert!(never.mean_age().is_infinite());
    }

    #[test]
    fn gap_moments_match_the_pmf_mean() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let gaps = gap_moments(&pmf);
        assert!((gaps.first - pmf.mean()).abs() < 1e-9, "{}", gaps.first);
        // E[X²] ≥ E[X]² always.
        assert!(gaps.second >= gaps.first * gaps.first);
        // The floor exists exactly for the age objectives.
        assert!(Objective::Qom.value_floor(&pmf).is_none());
        assert!(Objective::AoiMean.value_floor(&pmf).unwrap() > 0.0);
        let peak_floor = Objective::AoiPeak.value_floor(&pmf).unwrap();
        assert!((peak_floor - pmf.mean()).abs() < 1e-9);
    }

    #[test]
    fn greedy_moments_satisfy_wald() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        for e in [0.1, 0.3, 0.6] {
            let g = GreedyPolicy::optimize(
                &pmf,
                EnergyBudget::per_slot(e),
                &ConsumptionModel::paper_defaults(),
            )
            .unwrap();
            let m = greedy_cycle_moments(&pmf, &g);
            // Wald: E[T] = μ / q with q = ideal QoM.
            let wald = pmf.mean() / g.ideal_qom();
            assert!(
                (m.first - wald).abs() < 1e-6 * wald,
                "e={e}: E[T] = {} vs μ/q = {wald}",
                m.first
            );
            assert!(m.second >= m.first * m.first, "e={e}: Var[T] < 0");
            // More energy can only shorten the cycle.
            assert!(m.mean_age() >= gap_moments(&pmf).mean_age() - 1e-9);
        }
    }

    #[test]
    fn greedy_moments_on_the_perfect_capture_policy_equal_the_gap_law() {
        // Deterministic gap of 4 slots, budget rich enough to capture all.
        let pmf = evcap_dist::SlotPmf::from_pmf(vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        let consumption = ConsumptionModel::paper_defaults();
        let g = GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(10.0), &consumption).unwrap();
        assert!((g.ideal_qom() - 1.0).abs() < 1e-12);
        let m = greedy_cycle_moments(&pmf, &g);
        assert!((m.first - 4.0).abs() < 1e-12);
        assert!((m.second - 16.0).abs() < 1e-12);
        // Ages 1, 2, 3, 0 → mean 1.5.
        assert!((m.mean_age() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn never_capturing_policy_has_infinite_age() {
        let pmf = evcap_dist::SlotPmf::from_pmf(vec![1.0]).unwrap();
        let g = GreedyPolicy::from_parts(vec![0.0], 0.0, 0.0, 0.0, 1.0, "dead".into()).unwrap();
        let m = greedy_cycle_moments(&pmf, &g);
        assert!(m.first.is_infinite() && m.second.is_infinite());
        assert!(m.mean_age().is_infinite());
    }
}
