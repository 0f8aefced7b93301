//! The heuristic clustering policy for partial information (Section IV-B2).
//!
//! Finding the exact POMDP optimum is intractable (the information set `F_t`
//! grows exponentially), so the paper proposes a *clustering* structure over
//! the states `f_i` ("`i` slots since the last captured event"):
//!
//! ```text
//! π'_PI = (0, …, 0, c_{n1}, 1, …, 1, c_{n2}, 0, …, 0, c_{n3}, aggressive…)
//!          └ cooling ┘└─────── hot ────────┘└ cooling ┘└──── recovery ────┘
//! ```
//!
//! * the **hot region** `[n1, n2]` spends energy where the next event is most
//!   likely;
//! * the **cooling regions** bank energy;
//! * the **recovery region** `[n3, ∞)` activates aggressively until a capture
//!   renews the schedule — the safeguard against silently missed events.
//!
//! Evaluation uses the exact slotted belief propagation
//! ([`evcap_renewal::AgeBeliefDp`]) to obtain the conditional hazards `β̂_i`,
//! from which the chain survival, capture probability `U = μ / E[cycle]`, and
//! discharge rate follow in closed form; [`ClusteringOptimizer`] searches the
//! region boundaries under the energy-balance constraint.

use evcap_dist::SlotPmf;
use evcap_energy::ConsumptionModel;
use evcap_renewal::{AgeBeliefDp, HazardTable};

use crate::greedy::EnergyBudget;
use crate::objective::{CycleMoments, Objective};
use crate::policy::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable};
use crate::{PolicyError, Result};

/// Validates that a coefficient is a probability.
fn check_probability(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(PolicyError::InvalidParameter {
            name,
            value,
            expected: "a probability in [0, 1]",
        })
    }
}

/// The paper's clustering activation policy `π'_PI(e)` (Eq. 11).
///
/// # Example
///
/// ```
/// use evcap_core::ClusteringPolicy;
///
/// # fn main() -> Result<(), evcap_core::PolicyError> {
/// let policy = ClusteringPolicy::new(10, 20, 30, 0.5, 1.0, 1.0)?;
/// assert_eq!(policy.coefficient(5), 0.0);   // cooling
/// assert_eq!(policy.coefficient(10), 0.5);  // fractional hot edge
/// assert_eq!(policy.coefficient(15), 1.0);  // hot
/// assert_eq!(policy.coefficient(25), 0.0);  // cooling again
/// assert_eq!(policy.coefficient(40), 1.0);  // aggressive recovery
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringPolicy {
    n1: usize,
    n2: usize,
    n3: usize,
    c_n1: f64,
    c_n2: f64,
    c_n3: f64,
}

impl ClusteringPolicy {
    /// Creates a clustering policy with hot region `[n1, n2]`, recovery from
    /// `n3`, and fractional coefficients at the three boundaries.
    ///
    /// When boundaries coincide, the earlier region's coefficient wins (e.g.
    /// for `n1 == n2` the single hot slot uses `c_n1`).
    ///
    /// # Errors
    ///
    /// * [`PolicyError::UnorderedRegions`] unless `1 ≤ n1 ≤ n2 ≤ n3`.
    /// * [`PolicyError::InvalidParameter`] if a coefficient is not a
    ///   probability.
    pub fn new(n1: usize, n2: usize, n3: usize, c_n1: f64, c_n2: f64, c_n3: f64) -> Result<Self> {
        if n1 < 1 || n1 > n2 || n2 > n3 {
            return Err(PolicyError::UnorderedRegions { n1, n2, n3 });
        }
        Ok(Self {
            n1,
            n2,
            n3,
            c_n1: check_probability("c_n1", c_n1)?,
            c_n2: check_probability("c_n2", c_n2)?,
            c_n3: check_probability("c_n3", c_n3)?,
        })
    }

    /// The activation probability in state `f_i`.
    ///
    /// # Panics
    ///
    /// Panics if `state == 0`; states are 1-based.
    pub fn coefficient(&self, state: usize) -> f64 {
        assert!(state >= 1, "states are 1-based");
        if state < self.n1 {
            0.0
        } else if state == self.n1 {
            self.c_n1
        } else if state < self.n2 {
            1.0
        } else if state == self.n2 {
            self.c_n2
        } else if state < self.n3 {
            0.0
        } else if state == self.n3 {
            self.c_n3
        } else {
            1.0
        }
    }

    /// Start of the hot region.
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// End of the hot region.
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// Start of the aggressive recovery region.
    pub fn n3(&self) -> usize {
        self.n3
    }

    /// The three boundary coefficients `(c_{n1}, c_{n2}, c_{n3})`.
    pub fn boundary_coefficients(&self) -> (f64, f64, f64) {
        (self.c_n1, self.c_n2, self.c_n3)
    }

    /// Returns a copy with a different `c_{n1}` (used by the energy-balance
    /// search).
    #[must_use]
    pub fn with_c_n1(&self, c_n1: f64) -> Self {
        Self {
            c_n1: c_n1.clamp(0.0, 1.0),
            ..self.clone()
        }
    }
}

impl ActivationPolicy for ClusteringPolicy {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.coefficient(ctx.state)
    }

    fn info_model(&self) -> InfoModel {
        InfoModel::Partial
    }

    fn label(&self) -> String {
        format!(
            "clustering-PI(n1={}, n2={}, n3={}, c=({:.3}, {:.3}, {:.3}))",
            self.n1, self.n2, self.n3, self.c_n1, self.c_n2, self.c_n3
        )
    }

    fn table(&self) -> Option<PolicyTable> {
        // Everything past n3 is aggressive recovery, so the staircase up to
        // n3 is the whole explicit part. Ablation variants disable recovery
        // by pushing n3 out of reach — don't materialize that.
        if self.n3 > PolicyTable::MAX_EXPLICIT_STATES {
            return None;
        }
        let probs = (1..=self.n3).map(|i| self.coefficient(i)).collect();
        Some(PolicyTable::new(probs, 1.0))
    }
}

/// Analytic performance of a partial-information policy, computed from the
/// exact belief chain under the energy assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEvaluation {
    /// The QoM `U = μ / E[capture cycle]` — the fraction of events captured.
    pub capture_probability: f64,
    /// Long-run discharge rate in energy units per slot.
    pub discharge_rate: f64,
    /// Expected number of slots between consecutive captures (`1/y_1`).
    pub expected_cycle: f64,
    /// Chain survival mass left unresolved at the evaluation horizon
    /// (diagnostic; should be tiny).
    pub truncated_survival: f64,
}

/// Controls for the analytic evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Stop once the chain survival falls below this.
    pub survival_eps: f64,
    /// Hard cap on evaluated slots (a geometric continuation accounts for
    /// the remainder).
    pub max_slots: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            survival_eps: 1e-10,
            max_slots: 20_000,
        }
    }
}

/// Evaluates any state-indexed partial-information policy on the event
/// process `pmf`: capture probability, expected capture cycle, and discharge
/// rate, all under the energy assumption.
///
/// `policy(i)` gives the activation probability in state `f_i`.
pub fn evaluate_partial_info(
    pmf: &SlotPmf,
    policy: impl Fn(usize) -> f64,
    consumption: &ConsumptionModel,
    opts: EvalOptions,
) -> ClusterEvaluation {
    evaluate_partial_info_moments(pmf, policy, consumption, opts).0
}

/// Like [`evaluate_partial_info`], additionally reporting the first and
/// second moments of the capture-cycle length — the renewal statistics the
/// age-of-information objectives derive from.
///
/// The second moment rides along as a separate accumulator
/// (`E[T²] = Σ_{i≥1} (2i−1)·P(T ≥ i)`), so the [`ClusterEvaluation`] half
/// of the result is bit-identical to what [`evaluate_partial_info`] has
/// always produced.
pub fn evaluate_partial_info_moments(
    pmf: &SlotPmf,
    policy: impl Fn(usize) -> f64,
    consumption: &ConsumptionModel,
    opts: EvalOptions,
) -> (ClusterEvaluation, CycleMoments) {
    let hazards = HazardTable::new(pmf, opts.max_slots);
    let mut chain = ChainEval::new(AgeBeliefDp::new(&hazards), pmf.mean(), consumption, opts);
    chain.run(policy);
    let walk = chain.finish();
    (walk.eval, walk.moments)
}

/// The capture-chain walk behind [`evaluate_partial_info_moments`], one
/// slot at a time.
///
/// A walk stops for good once the chain survival falls to
/// [`EvalOptions::survival_eps`] or the slot cap is reached; after that,
/// advancing is a no-op. So a clone taken at slot `k` is a checkpoint of
/// *every* policy that agrees on slots `1..k`: resuming it under any such
/// policy yields bit for bit what a walk from scratch would. The
/// clustering search shares chain prefixes between lattice candidates
/// this way, and [`MyopicPolicy`](crate::MyopicPolicy) reads its
/// threshold decisions off the chain it is evaluating.
#[derive(Debug)]
pub(crate) struct ChainEval<'a> {
    dp: AgeBeliefDp<'a>,
    /// The pmf mean `μ`, for `U = μ / E[T]`.
    mean: f64,
    d1: f64,
    d2: f64,
    opts: EvalOptions,
    /// `Σ_{i≥0} S_i` so far: `E[T]` once finished.
    cycle: f64,
    /// `Σ_{i≥1} (2i−1)·S_{i−1}` so far: `E[T²]` once finished.
    cycle2: f64,
    /// Expected energy per cycle so far.
    energy: f64,
    /// Chain survival before the next slot.
    survival: f64,
    last_capture_hazard: f64,
    last_c: f64,
    last_hazard: f64,
}

/// A finished [`ChainEval`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    pub(crate) eval: ClusterEvaluation,
    pub(crate) moments: CycleMoments,
    /// Expected energy per cycle, the numerator of `discharge_rate`.
    energy: f64,
}

impl Clone for ChainEval<'_> {
    fn clone(&self) -> Self {
        Self {
            dp: self.dp.clone(),
            ..*self
        }
    }

    /// Reuses the belief's bucket allocation, so restarting a walk from a
    /// checkpoint allocates nothing once the scratch chain has grown.
    fn clone_from(&mut self, source: &Self) {
        self.dp.clone_from(&source.dp);
        self.mean = source.mean;
        self.d1 = source.d1;
        self.d2 = source.d2;
        self.opts = source.opts;
        self.cycle = source.cycle;
        self.cycle2 = source.cycle2;
        self.energy = source.energy;
        self.survival = source.survival;
        self.last_capture_hazard = source.last_capture_hazard;
        self.last_c = source.last_c;
        self.last_hazard = source.last_hazard;
    }
}

impl<'a> ChainEval<'a> {
    /// Starts a walk at slot 1 (an event was just captured).
    pub(crate) fn new(
        dp: AgeBeliefDp<'a>,
        mean: f64,
        consumption: &ConsumptionModel,
        opts: EvalOptions,
    ) -> Self {
        Self {
            dp,
            mean,
            d1: consumption.delta1_units(),
            d2: consumption.delta2_units(),
            opts,
            cycle: 0.0,
            cycle2: 0.0,
            energy: 0.0,
            survival: 1.0,
            last_capture_hazard: 0.0,
            last_c: 0.0,
            last_hazard: 0.0,
        }
    }

    /// Whether the walk still runs: survival above the cut-off and the
    /// slot cap not yet reached.
    pub(crate) fn live(&self) -> bool {
        self.survival > self.opts.survival_eps && self.dp.next_slot() <= self.opts.max_slots
    }

    /// The belief the walk has propagated so far.
    pub(crate) fn belief(&self) -> &AgeBeliefDp<'a> {
        &self.dp
    }

    /// Processes the next slot under activation probability `c`; a no-op
    /// once the walk has stopped.
    pub(crate) fn advance(&mut self, c: f64) {
        if self.live() {
            self.slot(c);
        }
    }

    /// Processes every slot up to and including `last` under `c`.
    fn advance_through(&mut self, last: usize, c: f64) {
        while self.live() && self.dp.next_slot() <= last {
            self.slot(c);
        }
    }

    /// Runs to the end under `policy(i)`.
    fn run(&mut self, policy: impl Fn(usize) -> f64) {
        while self.live() {
            let c = policy(self.dp.next_slot());
            self.slot(c);
        }
    }

    /// Runs to the end fully active: aggressive recovery.
    pub(crate) fn recover(&mut self) {
        self.advance_through(usize::MAX, 1.0);
    }

    fn slot(&mut self, c: f64) {
        let survival = self.survival;
        self.cycle += survival;
        self.cycle2 += (2 * self.dp.next_slot() - 1) as f64 * survival;
        let step = self.dp.step(c);
        self.energy += survival * c * (self.d1 + step.hazard * self.d2);
        self.last_capture_hazard = c * step.hazard;
        self.last_c = c;
        self.last_hazard = step.hazard;
        self.survival = step.survival;
    }

    /// Closes the walk: whatever survival remains is captured per slot
    /// with probability ≈ the last observed `c·β̂` (a geometric
    /// continuation). Only a walk that has stopped is finished: a settled
    /// one must be resumed to its end first.
    pub(crate) fn finish(&self) -> Walk {
        debug_assert!(!self.live(), "finishing a walk that has not stopped");
        let residual = self.survival;
        let (mut cycle, mut cycle2, mut energy) = (self.cycle, self.cycle2, self.energy);
        if residual > 0.0 {
            if self.last_capture_hazard > 1e-12 {
                let p = self.last_capture_hazard;
                // Σ_{k≥0} residual·(1 − p)^k slots remain on average.
                let extra_slots = residual / p;
                cycle += extra_slots;
                // Σ_{k≥0} (2(m+k)−1)·residual·(1−p)^k with m the first
                // unevaluated slot.
                let m = self.dp.next_slot() as f64;
                cycle2 += residual * ((2.0 * m - 1.0) / p + 2.0 * (1.0 - p) / (p * p));
                energy += extra_slots * self.last_c * (self.d1 + self.last_hazard * self.d2);
            } else {
                // The policy never captures from here on: the cycle never ends.
                return Walk {
                    eval: ClusterEvaluation {
                        capture_probability: 0.0,
                        discharge_rate: 0.0,
                        expected_cycle: f64::INFINITY,
                        truncated_survival: residual,
                    },
                    moments: CycleMoments {
                        first: f64::INFINITY,
                        second: f64::INFINITY,
                    },
                    energy,
                };
            }
        }
        Walk {
            eval: ClusterEvaluation {
                capture_probability: (self.mean / cycle).clamp(0.0, 1.0),
                discharge_rate: energy / cycle,
                expected_cycle: cycle,
                truncated_survival: residual,
            },
            moments: CycleMoments {
                first: cycle,
                second: cycle2,
            },
            energy,
        }
    }

    /// Whether the walk's verdict is already certain, before its end:
    ///
    /// * [`Settled::Dominated`] once its running score is at or below
    ///   `bar`: `μ / cycle` under QoM, `−cycle` under peak age. `cycle`
    ///   is a sum of non-negative terms and [`ChainEval::finish`] only adds
    ///   to it (or makes it infinite), so the finished capture probability,
    ///   and the finished `−E[T]`, cannot exceed `bar`; valid at any slot.
    /// * [`Settled::Overspent`] once `energy > budget·cycle` with
    ///   `δ1 > budget`. Valid only when every remaining slot is active
    ///   (`c = 1`), which the caller vouches for by passing a finite
    ///   `budget`: each later slot, and the geometric continuation, adds at
    ///   least `δ1` of energy per unit of `cycle`, so the finished
    ///   discharge rate stays above `budget`.
    ///
    /// `bar.at = -∞` and `budget = +∞` switch the exits off.
    fn settled(&self, bar: Bar, budget: f64) -> Option<Settled> {
        let score = match bar.on {
            BarOn::Capture => self.mean / self.cycle,
            BarOn::Cycle => -self.cycle,
        };
        if score <= bar.at {
            Some(Settled::Dominated)
        } else if self.d1 > budget && self.energy > budget * self.cycle {
            Some(Settled::Overspent)
        } else {
            None
        }
    }

    /// Walks the clustering variant `(n1, n2, n3)` with `c_{n1} = c` (and
    /// `c_{n2} = c_{n3} = 1`) on from where this walk stands: slot `n1`, or
    /// a later slot of the same variant's path. Returns the finished walk,
    /// or why it stopped early under `exits`; a settled walk resumes bit
    /// for bit when called again.
    fn walk_variant(
        &mut self,
        c: f64,
        (n1, n2, n3): Lattice,
        exits: Exits,
    ) -> std::result::Result<Walk, Settled> {
        while self.live() {
            let i = self.dp.next_slot();
            // From here on every slot is active: the overspent exit holds.
            let recovering = i > n1 && i >= n3;
            let budget = if recovering {
                exits.budget
            } else {
                f64::INFINITY
            };
            if let Some(why) = self.settled(exits.bar, budget) {
                return Err(why);
            }
            let ci = if i == n1 {
                c
            } else if i <= n2 || recovering {
                1.0
            } else {
                0.0
            };
            self.slot(ci);
        }
        Ok(self.finish())
    }

    /// Walks the clustering variant `(n1, n2, n3)` with `c_{n1} = c` to its
    /// end from `from`, a checkpoint on its path (the all-cooling prefix
    /// through slot `n1 − 1`, or a later prefix of the same variant).
    fn variant_from(&mut self, from: &Self, c: f64, lattice: Lattice) -> Walk {
        self.clone_from(from);
        // Without exits the walk runs to its end.
        let walk = self.walk_variant(c, lattice, Exits::NONE);
        walk.unwrap_or_else(|_| self.finish())
    }
}

/// Why a walk stopped before its end (see [`ChainEval::settled`]).
#[derive(Debug, Clone, Copy)]
enum Settled {
    /// Its capture probability cannot clear the dominance bar.
    Dominated,
    /// Its discharge rate cannot fall back within the budget.
    Overspent,
}

/// The early exits a candidate's walks may take (see
/// [`ChainEval::settled`]).
#[derive(Debug, Clone, Copy)]
struct Exits {
    /// The dominance bar.
    bar: Bar,
    /// Budget (with margin) for the overspent exit; `+∞` switches it off.
    budget: f64,
}

impl Exits {
    /// Every walk runs to its end.
    const NONE: Exits = Exits {
        bar: Bar::OFF,
        budget: f64::INFINITY,
    };
}

/// A dominance bar: the walk settles once its running score on `on` is at
/// or below `at`; `at = -∞` switches the exit off.
#[derive(Debug, Clone, Copy)]
struct Bar {
    on: BarOn,
    at: f64,
}

impl Bar {
    const OFF: Bar = Bar {
        on: BarOn::Capture,
        at: f64::NEG_INFINITY,
    };
}

/// The running score a dominance bar reads.
#[derive(Debug, Clone, Copy)]
enum BarOn {
    /// `μ / cycle`, which only falls toward the finished capture
    /// probability (QoM's score).
    Capture,
    /// `−cycle`, which only falls toward the finished `−E[T]` (peak age's
    /// score).
    Cycle,
}

impl ClusteringPolicy {
    /// Evaluates this policy analytically on `pmf`.
    pub fn evaluate(
        &self,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        opts: EvalOptions,
    ) -> ClusterEvaluation {
        evaluate_partial_info(pmf, |i| self.coefficient(i), consumption, opts)
    }

    /// Evaluates this policy analytically, with cycle moments.
    pub fn evaluate_moments(
        &self,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        opts: EvalOptions,
    ) -> (ClusterEvaluation, CycleMoments) {
        evaluate_partial_info_moments(pmf, |i| self.coefficient(i), consumption, opts)
    }
}

/// Searches clustering-region boundaries for the best energy-balanced policy,
/// following the paper's bounded enumeration ("increase n3 gradually and
/// enumerate n1 and n2 … until the objective cannot be further increased"),
/// accelerated by a coarse grid plus local refinement.
///
/// # Example
///
/// ```no_run
/// use evcap_core::{ClusteringOptimizer, EnergyBudget};
/// use evcap_dist::{Discretizer, Weibull};
/// use evcap_energy::ConsumptionModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmf = Discretizer::new().discretize(&Weibull::new(40.0, 3.0)?)?;
/// let (policy, eval) = ClusteringOptimizer::new(EnergyBudget::per_slot(0.5))
///     .optimize(&pmf, &ConsumptionModel::paper_defaults())?;
/// assert!(eval.discharge_rate <= 0.5 + 1e-6);
/// assert!(policy.n1() <= policy.n2());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringOptimizer {
    budget: EnergyBudget,
    eval: EvalOptions,
    /// Approximate number of grid points per region boundary in the coarse
    /// phase.
    grid_points: usize,
    /// Optional hard cap on `n3`.
    max_n3: Option<usize>,
    /// The metric candidates are ranked by (QoM by default).
    objective: Objective,
}

impl ClusteringOptimizer {
    /// Creates an optimizer for the given recharge budget.
    pub fn new(budget: EnergyBudget) -> Self {
        Self {
            budget,
            eval: EvalOptions::default(),
            grid_points: 14,
            max_n3: None,
            objective: Objective::Qom,
        }
    }

    /// Overrides the analytic evaluator's controls.
    #[must_use]
    pub fn eval_options(mut self, opts: EvalOptions) -> Self {
        self.eval = opts;
        self
    }

    /// Ranks candidates by `objective` instead of QoM. Under
    /// [`Objective::Qom`] the search is unchanged bit for bit; the age
    /// objectives reuse the same lattice and `c_{n1}` energy balance but
    /// accept by [`Objective::score`]. The `c_{n1}` balance (spend the whole
    /// budget) remains a heuristic for `AoiMean`, which can in principle
    /// prefer leaving energy unspent; it is provably optimal for `AoiPeak`,
    /// whose score is monotone in the capture probability.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the coarse grid density (minimum 4).
    #[must_use]
    pub fn grid_points(mut self, points: usize) -> Self {
        self.grid_points = points.max(4);
        self
    }

    /// Caps the recovery boundary `n3`.
    #[must_use]
    pub fn max_n3(mut self, n3: usize) -> Self {
        self.max_n3 = Some(n3.max(1));
        self
    }

    /// Finds the best clustering policy for the event process.
    ///
    /// # Errors
    ///
    /// * [`PolicyError::BudgetTooSmall`] for a zero budget.
    /// * [`PolicyError::NoFeasibleCandidate`] if no candidate within the
    ///   search bounds satisfies the energy constraint (pathological pmfs).
    pub fn optimize(
        &self,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
    ) -> Result<(ClusteringPolicy, ClusterEvaluation)> {
        self.optimize_counted(pmf, consumption)
            .map(|(policy, eval, _)| (policy, eval))
    }

    /// Like [`ClusteringOptimizer::optimize`], additionally reporting how
    /// many `(n1, n2, n3)` candidates the search evaluated — the number the
    /// scenario layer records as solve iterations. A candidate whose walks
    /// stop once its verdict is certain counts like any other, so the count
    /// depends on the scenario alone.
    ///
    /// # Errors
    ///
    /// Same as [`ClusteringOptimizer::optimize`].
    pub fn optimize_counted(
        &self,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
    ) -> Result<(ClusteringPolicy, ClusterEvaluation, u64)> {
        if self.budget.rate() <= 0.0 {
            return Err(PolicyError::BudgetTooSmall { budget: 0.0 });
        }
        let lo = pmf.min_support();
        // Upper search bound: essentially all of the gap distribution, with
        // headroom because the capture chain can outlive one gap. When the
        // budget is tight the only feasible policies sleep much longer than
        // that, so the bound doubles adaptively until something is feasible.
        let q999 = quantile_slot(pmf, 0.999);
        let mut hi = self
            .max_n3
            .unwrap_or_else(|| (2 * q999).max(lo + 4))
            .max(lo + 1);
        // One hazard table per search, reaching the slot cap no walk
        // passes; every walk below borrows it.
        let table = HazardTable::new(pmf, self.eval.max_slots);
        let mut walker = Walker::new(&table, pmf.mean(), consumption, self.eval);
        let mut candidates = 0u64;
        for _ in 0..8 {
            if let Some((policy, eval)) = self.search(&mut walker, lo, hi, &mut candidates) {
                return Ok((policy, eval, candidates));
            }
            if self.max_n3.is_some() {
                break; // the caller pinned the bound; do not exceed it
            }
            hi *= 2;
        }
        Err(PolicyError::NoFeasibleCandidate)
    }

    /// Coarse grid search plus local refinement over `n1 ≤ n2 ≤ n3` within
    /// `[lo, hi]`.
    fn search(
        &self,
        walker: &mut Walker<'_>,
        lo: usize,
        hi: usize,
        candidates: &mut u64,
    ) -> Option<(ClusteringPolicy, ClusterEvaluation)> {
        let _span = evcap_obs::timing::span("clustering.search");
        let step = ((hi - lo) / self.grid_points).max(1);
        let mut best: Option<Ranked> = None;
        self.sweep(walker, lo, hi, step, &mut best, candidates);
        self.refine(walker, lo, hi, step, &mut best, candidates);
        best.map(|r| (r.policy, r.eval))
    }

    /// The coarse lattice `n1 ≤ n2 ≤ n3` over `[lo, hi]` with stride
    /// `step`.
    ///
    /// Candidates agree on long chain prefixes, so the walker extends them
    /// instead of re-walking: the all-cooling prefix once per `n1`, the
    /// fully-open and closed (`c_{n1} = 0`) hot prefixes once per
    /// `(n1, n2)`, and their second cooling region once per `n3`. Each
    /// candidate then walks only its own recovery tail (plus the
    /// `c_{n1}` balance walks when it overspends), and
    /// [`ClusteringOptimizer::price`] stops that tail as soon as its
    /// verdict is certain.
    fn sweep(
        &self,
        w: &mut Walker<'_>,
        lo: usize,
        hi: usize,
        step: usize,
        best: &mut Option<Ranked>,
        candidates: &mut u64,
    ) {
        let mut n1 = lo.max(1);
        while n1 <= hi {
            w.cool_to(n1);
            w.hot_full.clone_from(&w.cool);
            w.hot_full.advance(1.0);
            w.hot_closed.clone_from(&w.cool);
            w.hot_closed.advance(0.0);
            let mut n2 = n1;
            while n2 <= hi {
                w.hot_full.advance_through(n2, 1.0);
                w.hot_closed.advance_through(n2, 1.0);
                w.cool2_full.clone_from(&w.hot_full);
                w.cool2_closed.clone_from(&w.hot_closed);
                let mut n3 = n2;
                while n3 <= hi {
                    w.cool2_full.advance_through(n3 - 1, 0.0);
                    w.cool2_closed.advance_through(n3 - 1, 0.0);
                    self.price(w, (n1, n2, n3), Checkpoint::Cool2, best, candidates);
                    n3 += step;
                }
                n2 += step;
            }
            n1 += step;
        }
    }

    /// Local refinement: coordinate descent with shrinking step, seeded
    /// from (and folding back into) `best`.
    fn refine(
        &self,
        walker: &mut Walker<'_>,
        lo: usize,
        hi: usize,
        step: usize,
        best: &mut Option<Ranked>,
        candidates: &mut u64,
    ) {
        if let Some(seed) = best.as_ref().map(|r| r.policy.clone()) {
            let mut current = (seed.n1(), seed.n2(), seed.n3());
            let mut delta = step.max(2) / 2;
            while delta >= 1 {
                let mut improved = true;
                while improved {
                    improved = false;
                    for dim in 0..3 {
                        for dir in [-1i64, 1] {
                            let mut cand = [current.0 as i64, current.1 as i64, current.2 as i64];
                            cand[dim] += dir * delta as i64;
                            if cand[0] < lo as i64
                                || cand[0] > cand[1]
                                || cand[1] > cand[2]
                                || cand[2] > hi as i64
                            {
                                continue;
                            }
                            let cand = (cand[0] as usize, cand[1] as usize, cand[2] as usize);
                            let before = best.as_ref().map(|r| r.score);
                            self.consider(walker, cand, best, candidates);
                            let after = best.as_ref().map(|r| r.score);
                            if after > before {
                                current = cand;
                                improved = true;
                            }
                        }
                    }
                }
                if delta == 1 {
                    break;
                }
                delta /= 2;
            }
        }
    }

    /// Prices the `(n1, n2, n3)` candidate off the lattice (refinement) and
    /// folds it into `best`.
    fn consider(
        &self,
        w: &mut Walker<'_>,
        lattice: Lattice,
        best: &mut Option<Ranked>,
        candidates: &mut u64,
    ) {
        let (n1, n2, n3) = lattice;
        if ClusteringPolicy::new(n1, n2, n3, 1.0, 1.0, 1.0).is_err() {
            return;
        }
        w.cool_to(n1);
        self.price(w, lattice, Checkpoint::Cool, best, candidates);
    }

    /// The exits a candidate's walks may take: none until the search holds
    /// an incumbent (before that, even `finish`'s never-captures outcome —
    /// capture 0 at discharge 0 — could be accepted). Then the overspent
    /// exit at the budget plus a `1e-9` relative margin, which covers the
    /// rounding of up to `max_slots` more non-negative additions; and a
    /// dominance bar wherever the score only falls as a walk goes on.
    ///
    /// That holds for QoM's `μ / cycle` and peak age's `−cycle`, not for
    /// the mean age, which weighs `E[T²]` against `E[T]`. Both bars rest on
    /// one assumption: a budget-balanced variant never scores above its
    /// fully-open one. They differ only in the missed-event mass `c_{n1}`
    /// leaves in the chain, which only lengthens the cycle (lowering `μ /
    /// E[T]` and `−E[T]` alike). A candidate is accepted above the
    /// incumbent's score plus `1e-12`, so the bar sits below that by a
    /// margin for the rounding between the two variants' walks: `1e-9`
    /// under QoM, whose score is a probability at most 1, and `1e-9·|best|`
    /// under peak age, whose score is a cycle length in slots. Either is a
    /// relative `1e-9` of the score, far above the `~1e-12` relative
    /// rounding of the few thousand additions a walk makes.
    fn exits(&self, best: Option<&Ranked>) -> Exits {
        let Some(best) = best else {
            return Exits::NONE;
        };
        let accept = best.score + 1e-12;
        let bar = match self.objective {
            Objective::Qom => Bar {
                on: BarOn::Capture,
                at: accept - 1e-9,
            },
            Objective::AoiPeak => Bar {
                on: BarOn::Cycle,
                at: accept - 1e-9 * best.score.abs(),
            },
            Objective::AoiMean => Bar::OFF,
        };
        Exits {
            bar,
            budget: self.budget.rate() * (1.0 + 1e-9),
        }
    }

    /// Counts the candidate, balances it against the budget, and folds it
    /// into `best`. Its fully-open and closed (`c_{n1} = 0`) variants
    /// resume from the walker's checkpoints `at`.
    ///
    /// The fully-open walk takes both exits. Dominated, the candidate
    /// cannot be accepted. Overspent, the closed walk decides, with the
    /// overspent exit: settled or finished over budget, no `c_{n1}` fits;
    /// finished within budget, the fully-open walk resumes to its end,
    /// since the balance needs its energy and `E[T]`. So every walk the
    /// balance reads, and every walk accepted, is complete.
    fn price(
        &self,
        w: &mut Walker<'_>,
        lattice: Lattice,
        at: Checkpoint,
        best: &mut Option<Ranked>,
        candidates: &mut u64,
    ) {
        *candidates += 1;
        evcap_obs::timing::add_count("clustering.candidates", 1);
        let exits = self.exits(best.as_ref());
        let Walker {
            cool,
            cool2_full,
            cool2_closed,
            tail,
            probe,
            ..
        } = w;
        let (open_from, closed_from) = match at {
            Checkpoint::Cool => (&*cool, &*cool),
            Checkpoint::Cool2 => (&*cool2_full, &*cool2_closed),
        };
        tail.clone_from(open_from);
        let (full, closed_walk) = match tail.walk_variant(1.0, lattice, exits) {
            Ok(full) => (full, None),
            Err(Settled::Dominated) => {
                evcap_obs::timing::add_count("clustering.settled_dominated", 1);
                return;
            }
            Err(Settled::Overspent) => {
                evcap_obs::timing::add_count("clustering.settled_overspent", 1);
                probe.clone_from(closed_from);
                let overspent_only = Exits {
                    bar: Bar::OFF,
                    ..exits
                };
                let Ok(closed) = probe.walk_variant(0.0, lattice, overspent_only) else {
                    evcap_obs::timing::add_count("clustering.settled_overspent", 1);
                    return; // even the narrowest variant is infeasible
                };
                if closed.eval.discharge_rate > self.budget.rate() {
                    return; // `balanced` would say the same without `full`
                }
                let full = tail.walk_variant(1.0, lattice, Exits::NONE);
                (full.unwrap_or_else(|_| tail.finish()), Some(closed))
            }
        };
        let closed = || closed_walk.unwrap_or_else(|| tail.variant_from(closed_from, 0.0, lattice));
        let walk_at = |c| probe.variant_from(cool, c, lattice);
        let Some((c_n1, walk)) = self.balanced(full, closed, walk_at) else {
            return;
        };
        let score = self.objective.score(&walk.eval, &walk.moments);
        let better = match best {
            None => true,
            Some(b) => score > b.score + 1e-12,
        };
        if better {
            let (n1, n2, n3) = lattice;
            *best = Some(Ranked {
                policy: ClusteringPolicy {
                    n1,
                    n2,
                    n3,
                    c_n1,
                    c_n2: 1.0,
                    c_n3: 1.0,
                },
                eval: walk.eval,
                score,
            });
        }
    }

    /// The budget-balanced variant of a candidate, as `(c_{n1}, walk)`:
    /// fully open when that fits the budget, `None` when even the closed
    /// variant overspends, and otherwise the largest dyadic
    /// `c_{n1} = k/2^24` whose walk fits.
    ///
    /// That point is the answer of a 24-step bisection over `c_{n1}`
    /// (which brackets a feasible `lo` and an infeasible `hi`, starting
    /// from `[0, 1]`), under the monotonicity the bisection assumes. It is
    /// found in about two walks: the activation coin at `n1` is
    /// independent of the rest of the chain, so the per-cycle energy and
    /// `E[T]` are both affine in `c_{n1}`, and the budget root `c*`
    /// follows from the full and closed walks. A galloping search outward
    /// from `⌊c*·2^24⌋` then brackets the last feasible dyadic point with
    /// real walks, so rounding in `c*` costs walks, never the answer.
    fn balanced(
        &self,
        full: Walk,
        closed: impl FnOnce() -> Walk,
        mut walk_at: impl FnMut(f64) -> Walk,
    ) -> Option<(f64, Walk)> {
        /// `c_{n1}` resolution. The grid and the last-feasible rule are
        /// what earlier releases' bisection returned, which keeps stored
        /// artifacts byte-identical across the change of method.
        const TOP: u32 = 1 << 24;
        let e = self.budget.rate();
        if full.eval.discharge_rate <= e {
            return Some((1.0, full));
        }
        let closed = closed();
        if closed.eval.discharge_rate > e {
            return None; // even the narrowest variant is infeasible
        }
        let fits = |walk: &Walk| walk.eval.discharge_rate <= e;
        let mut at = |k: u32| walk_at(f64::from(k) / f64::from(TOP));
        // Energy(c) / E[T](c) = e with both affine in c.
        let (e0, t0) = (closed.energy, closed.eval.expected_cycle);
        let (e1, t1) = (full.energy, full.eval.expected_cycle);
        let root = (e * t0 - e0) / ((e1 - e0) - e * (t1 - t0));
        let start = if root.is_finite() {
            (root * f64::from(TOP))
                .floor()
                .clamp(0.0, f64::from(TOP - 1)) as u32
        } else {
            TOP / 2
        };
        // Invariant: `lo` fits (k = 0 is the closed walk), `hi` does not
        // (k = TOP is the full walk).
        let mut lo = (0, closed);
        let mut hi = TOP;
        let mut stride = 1;
        if start > 0 {
            let walk = at(start);
            if fits(&walk) {
                lo = (start, walk);
            } else {
                hi = start;
            }
        }
        if lo.0 == start {
            // Gallop up until a walk overspends.
            while hi - lo.0 > stride {
                let k = lo.0 + stride;
                let walk = at(k);
                if fits(&walk) {
                    lo = (k, walk);
                    stride *= 2;
                } else {
                    hi = k;
                    break;
                }
            }
        } else {
            // Gallop down until a walk fits.
            while hi - lo.0 > stride {
                let k = hi - stride;
                let walk = at(k);
                if fits(&walk) {
                    lo = (k, walk);
                    break;
                }
                hi = k;
                stride *= 2;
            }
        }
        while hi - lo.0 > 1 {
            let k = lo.0 + (hi - lo.0) / 2;
            let walk = at(k);
            if fits(&walk) {
                lo = (k, walk);
            } else {
                hi = k;
            }
        }
        Some((f64::from(lo.0) / f64::from(TOP), lo.1))
    }
}

/// A clustering candidate's region bounds `(n1, n2, n3)`.
type Lattice = (usize, usize, usize);

/// Where a candidate's variant walks resume from.
#[derive(Debug, Clone, Copy)]
enum Checkpoint {
    /// [`Walker::cool`], the all-cooling prefix through `n1 − 1`
    /// (refinement).
    Cool,
    /// [`Walker::cool2_full`] and [`Walker::cool2_closed`], the fully-open
    /// and closed prefixes through `n3 − 1` (the lattice sweep).
    Cool2,
}

/// The reusable chains of one clustering search. Every restart copies a
/// checkpoint into one of these with `clone_from`, so once their bucket
/// vectors have grown, pricing a candidate allocates nothing.
struct Walker<'a> {
    /// A fresh walk at slot 1.
    origin: ChainEval<'a>,
    /// The all-cooling prefix through slot `cooled`.
    cool: ChainEval<'a>,
    cooled: usize,
    /// Fully-open and closed hot prefixes through `n2`.
    hot_full: ChainEval<'a>,
    hot_closed: ChainEval<'a>,
    /// The same through the second cooling region, up to `n3 − 1`.
    cool2_full: ChainEval<'a>,
    cool2_closed: ChainEval<'a>,
    /// Scratch for a candidate's variant walks and balance walks.
    tail: ChainEval<'a>,
    probe: ChainEval<'a>,
}

impl<'a> Walker<'a> {
    fn new(
        table: &'a HazardTable,
        mean: f64,
        consumption: &ConsumptionModel,
        opts: EvalOptions,
    ) -> Self {
        let origin = ChainEval::new(AgeBeliefDp::new(table), mean, consumption, opts);
        Self {
            cool: origin.clone(),
            cooled: 0,
            hot_full: origin.clone(),
            hot_closed: origin.clone(),
            cool2_full: origin.clone(),
            cool2_closed: origin.clone(),
            tail: origin.clone(),
            probe: origin.clone(),
            origin,
        }
    }

    /// Points `cool` at the all-cooling prefix through slot `n1 − 1`,
    /// extending the current one when it is not already past that slot.
    fn cool_to(&mut self, n1: usize) {
        let through = n1 - 1;
        if through < self.cooled {
            self.cool.clone_from(&self.origin);
        }
        self.cool.advance_through(through, 0.0);
        self.cooled = through;
    }
}

/// A candidate the search has accepted, tagged with its objective score
/// (always higher-is-better; equal to the capture probability under QoM).
#[derive(Debug, Clone)]
struct Ranked {
    policy: ClusteringPolicy,
    eval: ClusterEvaluation,
    score: f64,
}

/// The smallest slot `i` with `F(i) ≥ p`.
fn quantile_slot(pmf: &SlotPmf, p: f64) -> usize {
    let mut i = 1;
    let cap = pmf.horizon().max(1) * 4;
    while pmf.cdf(i) < p && i < cap {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_dist::{Discretizer, SlotPmf, Weibull};
    use evcap_energy::ConsumptionModel;
    use proptest::prelude::*;

    fn consumption() -> ConsumptionModel {
        ConsumptionModel::paper_defaults()
    }

    #[test]
    fn construction_validates_regions() {
        assert!(ClusteringPolicy::new(0, 2, 3, 1.0, 1.0, 1.0).is_err());
        assert!(ClusteringPolicy::new(3, 2, 4, 1.0, 1.0, 1.0).is_err());
        assert!(ClusteringPolicy::new(2, 5, 4, 1.0, 1.0, 1.0).is_err());
        assert!(ClusteringPolicy::new(2, 2, 2, 1.0, 1.0, 1.0).is_ok());
        assert!(ClusteringPolicy::new(1, 2, 3, 1.5, 1.0, 1.0).is_err());
    }

    #[test]
    fn coefficient_regions() {
        let p = ClusteringPolicy::new(3, 6, 9, 0.25, 0.5, 0.75).unwrap();
        assert_eq!(p.coefficient(1), 0.0);
        assert_eq!(p.coefficient(2), 0.0);
        assert_eq!(p.coefficient(3), 0.25);
        assert_eq!(p.coefficient(4), 1.0);
        assert_eq!(p.coefficient(5), 1.0);
        assert_eq!(p.coefficient(6), 0.5);
        assert_eq!(p.coefficient(7), 0.0);
        assert_eq!(p.coefficient(8), 0.0);
        assert_eq!(p.coefficient(9), 0.75);
        assert_eq!(p.coefficient(10), 1.0);
        assert_eq!(p.coefficient(1000), 1.0);
    }

    #[test]
    fn table_matches_probability_everywhere() {
        let p = ClusteringPolicy::new(3, 6, 9, 0.25, 0.5, 0.75).unwrap();
        let table = p.table().expect("clustering is stationary");
        for i in 1..=200 {
            let ctx = DecisionContext::stationary(i);
            assert_eq!(table.probability(i), p.probability(&ctx), "state {i}");
        }
    }

    #[test]
    fn unreachable_recovery_region_skips_the_table() {
        // The region ablation pushes n3 → u32::MAX to disable recovery;
        // materializing that staircase would allocate gigabytes, so the
        // policy must fall back to dynamic dispatch instead.
        let p = ClusteringPolicy::new(3, 6, u32::MAX as usize, 0.25, 0.5, 0.0).unwrap();
        assert!(p.table().is_none());
    }

    #[test]
    fn coincident_boundaries_use_earlier_region() {
        let p = ClusteringPolicy::new(4, 4, 4, 0.3, 0.6, 0.9).unwrap();
        assert_eq!(p.coefficient(4), 0.3);
        assert_eq!(p.coefficient(5), 1.0);
    }

    #[test]
    fn always_active_policy_captures_everything() {
        let pmf = SlotPmf::from_pmf(vec![0.5, 0.3, 0.2]).unwrap();
        let p = ClusteringPolicy::new(1, 1, 1, 1.0, 1.0, 1.0).unwrap();
        let eval = p.evaluate(&pmf, &consumption(), EvalOptions::default());
        assert!((eval.capture_probability - 1.0).abs() < 1e-9);
        // Discharge per slot: (δ1·E[cycle] + δ2) / E[cycle] with cycle = μ.
        let mu = pmf.mean();
        let expected = (1.0 * mu + 6.0) / mu;
        assert!((eval.discharge_rate - expected).abs() < 1e-6);
        assert!((eval.expected_cycle - mu).abs() < 1e-9);
    }

    #[test]
    fn deterministic_process_perfect_capture_with_tiny_energy() {
        // Gap is always 5: activating only in state 5 captures everything.
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let p = ClusteringPolicy::new(5, 5, 5, 1.0, 1.0, 1.0).unwrap();
        let eval = p.evaluate(&pmf, &consumption(), EvalOptions::default());
        assert!((eval.capture_probability - 1.0).abs() < 1e-9);
        assert!((eval.discharge_rate - 7.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_region_rescues_missed_events() {
        // Two-point gaps {2, 4}: hot region only at 2, so a gap of 4 is
        // missed… unless recovery kicks in.
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.7, 0.0, 0.3]).unwrap();
        let with_recovery = ClusteringPolicy::new(2, 2, 3, 1.0, 1.0, 1.0).unwrap();
        let eval = with_recovery.evaluate(&pmf, &consumption(), EvalOptions::default());
        // Recovery from state 3 onward is always active, so every event is
        // eventually... captured in-slot with prob < 1 but the chain renews.
        assert!(
            eval.capture_probability > 0.8,
            "{}",
            eval.capture_probability
        );
        assert!(eval.truncated_survival < 1e-9);
    }

    #[test]
    fn evaluation_matches_hand_computation_on_geometric() {
        // Geometric(p = 0.25) events with an always-on policy: the cycle is
        // the mean gap 4, discharge = δ1 + δ2/4.
        let pmf = SlotPmf::from_hazards(&[0.25]).unwrap();
        let p = ClusteringPolicy::new(1, 1, 1, 1.0, 1.0, 1.0).unwrap();
        let eval = p.evaluate(&pmf, &consumption(), EvalOptions::default());
        assert!((eval.expected_cycle - 4.0).abs() < 1e-6);
        assert!((eval.discharge_rate - (1.0 + 6.0 / 4.0)).abs() < 1e-6);
        assert!((eval.capture_probability - 1.0).abs() < 1e-6);
    }

    #[test]
    fn optimizer_respects_energy_budget() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let (policy, eval) = ClusteringOptimizer::new(EnergyBudget::per_slot(0.5))
            .optimize(&pmf, &consumption())
            .unwrap();
        assert!(eval.discharge_rate <= 0.5 + 1e-6, "{}", eval.discharge_rate);
        assert!(policy.n1() >= 1 && policy.n1() <= policy.n2() && policy.n2() <= policy.n3());
        // Weibull(40, 3) with e = 0.5 supports a strong policy.
        assert!(
            eval.capture_probability > 0.6,
            "{}",
            eval.capture_probability
        );
    }

    #[test]
    fn optimizer_hot_region_tracks_the_mode() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let (policy, _) = ClusteringOptimizer::new(EnergyBudget::per_slot(0.5))
            .optimize(&pmf, &consumption())
            .unwrap();
        // The bulk of Weibull(40, 3) lies in roughly [20, 55]; the hot
        // region must overlap it.
        assert!(policy.n2() >= 25, "n2 = {}", policy.n2());
        assert!(policy.n1() <= 45, "n1 = {}", policy.n1());
    }

    #[test]
    fn optimizer_more_energy_never_hurts() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let mut last = 0.0;
        for e in [0.3, 0.5, 0.8] {
            let (_, eval) = ClusteringOptimizer::new(EnergyBudget::per_slot(e))
                .optimize(&pmf, &consumption())
                .unwrap();
            assert!(
                eval.capture_probability + 0.01 >= last,
                "e={e}: {} < {last}",
                eval.capture_probability
            );
            last = eval.capture_probability;
        }
    }

    #[test]
    fn search_under_a_short_slot_cap_reports_a_fresh_walk() {
        // A slot cap inside the pmf's support: the search's hazard table
        // stops short of the tail, and must still reach every walk's end.
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let opts = EvalOptions {
            survival_eps: 1e-10,
            max_slots: 60,
        };
        assert!(pmf.horizon() > opts.max_slots);
        let (policy, eval) = ClusteringOptimizer::new(EnergyBudget::per_slot(0.5))
            .eval_options(opts)
            .optimize(&pmf, &consumption())
            .unwrap();
        let fresh = policy.evaluate(&pmf, &consumption(), opts);
        let moments = CycleMoments {
            first: 0.0,
            second: 0.0,
        };
        assert_eq!(bits(&eval, &moments), bits(&fresh, &moments));
    }

    #[test]
    fn moments_agree_with_the_evaluation_and_hand_math() {
        // Deterministic gap 5, perfect capture: T ≡ 5 ⇒ E[T²] = 25, ages
        // 1..4 then 0 ⇒ mean age 2.
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let p = ClusteringPolicy::new(5, 5, 5, 1.0, 1.0, 1.0).unwrap();
        let (eval, moments) = p.evaluate_moments(&pmf, &consumption(), EvalOptions::default());
        assert_eq!(eval.expected_cycle.to_bits(), moments.first.to_bits());
        assert!((moments.second - 25.0).abs() < 1e-6, "{}", moments.second);
        assert!((moments.mean_age() - 2.0).abs() < 1e-6);
        // The moments ride along without perturbing the evaluation.
        let plain = p.evaluate(&pmf, &consumption(), EvalOptions::default());
        assert_eq!(plain, eval);
    }

    #[test]
    fn moments_cover_the_geometric_tail_continuation() {
        // Geometric(0.25) with an always-on policy: T ~ Geom₁(0.25), so
        // E[T] = 4 and E[T²] = (2 − p)/p² = 28.
        let pmf = SlotPmf::from_hazards(&[0.25]).unwrap();
        let p = ClusteringPolicy::new(1, 1, 1, 1.0, 1.0, 1.0).unwrap();
        let (_, moments) = p.evaluate_moments(&pmf, &consumption(), EvalOptions::default());
        assert!((moments.first - 4.0).abs() < 1e-6, "{}", moments.first);
        assert!((moments.second - 28.0).abs() < 1e-4, "{}", moments.second);
    }

    #[test]
    fn age_objective_search_yields_a_feasible_fresh_policy() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let opt = ClusteringOptimizer::new(EnergyBudget::per_slot(0.35));
        let (qom_policy, qom_eval) = opt.optimize(&pmf, &consumption()).unwrap();
        let (aoi_policy, aoi_eval) = opt
            .objective(Objective::AoiMean)
            .optimize(&pmf, &consumption())
            .unwrap();
        assert!(aoi_eval.discharge_rate <= 0.35 + 1e-6);
        let (_, qm) = qom_policy.evaluate_moments(&pmf, &consumption(), EvalOptions::default());
        let (_, am) = aoi_policy.evaluate_moments(&pmf, &consumption(), EvalOptions::default());
        assert!(am.mean_age().is_finite());
        // The age-optimal pick is at least as fresh as the QoM pick, modulo
        // the different refinement endpoints.
        assert!(
            am.mean_age() <= qm.mean_age() * 1.02 + 1e-9,
            "aoi search aged worse: {} vs {}",
            am.mean_age(),
            qm.mean_age()
        );
        // Peak age orders candidates like QoM on a single scenario, so the
        // two searches land on essentially the same capture probability.
        let (peak_policy, peak_eval) = opt
            .objective(Objective::AoiPeak)
            .optimize(&pmf, &consumption())
            .unwrap();
        assert!(peak_policy.n1() >= 1);
        assert!(
            (peak_eval.capture_probability - qom_eval.capture_probability).abs() < 1e-6,
            "{} vs {}",
            peak_eval.capture_probability,
            qom_eval.capture_probability
        );
    }

    #[test]
    fn optimizer_rejects_zero_budget() {
        let pmf = SlotPmf::from_pmf(vec![1.0]).unwrap();
        let err = ClusteringOptimizer::new(EnergyBudget::per_slot(0.0))
            .optimize(&pmf, &consumption())
            .unwrap_err();
        assert!(matches!(err, PolicyError::BudgetTooSmall { .. }));
    }

    #[test]
    fn policy_trait_wiring() {
        let p = ClusteringPolicy::new(2, 4, 6, 0.5, 1.0, 1.0).unwrap();
        assert_eq!(p.info_model(), InfoModel::Partial);
        assert!(p.label().contains("clustering-PI"));
        let ctx = DecisionContext::stationary(3);
        assert_eq!(p.probability(&ctx), 1.0);
    }

    /// Every field of an evaluation and its moments, as bits.
    fn bits(eval: &ClusterEvaluation, moments: &CycleMoments) -> [u64; 6] {
        [
            eval.capture_probability.to_bits(),
            eval.discharge_rate.to_bits(),
            eval.expected_cycle.to_bits(),
            eval.truncated_survival.to_bits(),
            moments.first.to_bits(),
            moments.second.to_bits(),
        ]
    }

    /// A policy's region bounds and boundary coefficients, as bits.
    type PolicyBits = (usize, usize, usize, u64, u64, u64);

    fn policy_bits(p: &ClusteringPolicy) -> PolicyBits {
        (
            p.n1,
            p.n2,
            p.n3,
            p.c_n1.to_bits(),
            p.c_n2.to_bits(),
            p.c_n3.to_bits(),
        )
    }

    /// The pricing the walker replaced: every variant walked from scratch
    /// and `c_{n1}` balanced by a 24-step bisection. The reference
    /// [`ClusteringOptimizer::balanced`] must match bit for bit.
    fn balanced_reference(
        opt: &ClusteringOptimizer,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        (n1, n2, n3): Lattice,
    ) -> Option<(ClusteringPolicy, ClusterEvaluation, CycleMoments)> {
        let full = ClusteringPolicy::new(n1, n2, n3, 1.0, 1.0, 1.0).ok()?;
        let e = opt.budget.rate();
        let (eval_full, moments_full) = full.evaluate_moments(pmf, consumption, opt.eval);
        if eval_full.discharge_rate <= e {
            return Some((full, eval_full, moments_full));
        }
        let closed = full.with_c_n1(0.0);
        let (eval_closed, moments_closed) = closed.evaluate_moments(pmf, consumption, opt.eval);
        if eval_closed.discharge_rate > e {
            return None;
        }
        let (mut lo_c, mut hi_c) = (0.0f64, 1.0f64);
        let mut chosen = (closed, eval_closed, moments_closed);
        for _ in 0..24 {
            let mid = 0.5 * (lo_c + hi_c);
            let p = full.with_c_n1(mid);
            let (ev, mo) = p.evaluate_moments(pmf, consumption, opt.eval);
            if ev.discharge_rate <= e {
                chosen = (p, ev, mo);
                lo_c = mid;
            } else {
                hi_c = mid;
            }
        }
        Some(chosen)
    }

    /// A candidate priced from scratch and ranked with the search's accept
    /// rule.
    fn consider_reference(
        opt: &ClusteringOptimizer,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        lattice: Lattice,
        best: &mut Option<Ranked>,
    ) {
        if let Some((policy, eval, moments)) = balanced_reference(opt, pmf, consumption, lattice) {
            let score = opt.objective.score(&eval, &moments);
            if best.as_ref().is_none_or(|b| score > b.score + 1e-12) {
                *best = Some(Ranked {
                    policy,
                    eval,
                    score,
                });
            }
        }
    }

    /// The lattice sweep the walker replaced: the triple loop pricing every
    /// candidate from scratch, to its end.
    fn sweep_reference(
        opt: &ClusteringOptimizer,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        lo: usize,
        hi: usize,
        step: usize,
    ) -> (Option<Ranked>, u64) {
        let mut best: Option<Ranked> = None;
        let mut candidates = 0;
        for n1 in (lo.max(1)..=hi).step_by(step) {
            for n2 in (n1..=hi).step_by(step) {
                for n3 in (n2..=hi).step_by(step) {
                    candidates += 1;
                    consider_reference(opt, pmf, consumption, (n1, n2, n3), &mut best);
                }
            }
        }
        (best, candidates)
    }

    /// Refinement with every candidate priced from scratch: the same
    /// coordinate descent as [`ClusteringOptimizer::refine`].
    fn refine_reference(
        opt: &ClusteringOptimizer,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        (lo, hi, step): (usize, usize, usize),
        best: &mut Option<Ranked>,
    ) -> u64 {
        let mut candidates = 0;
        let Some(seed) = best.as_ref().map(|r| r.policy.clone()) else {
            return 0;
        };
        let mut current = [seed.n1(), seed.n2(), seed.n3()];
        let mut delta = step.max(2) / 2;
        loop {
            let mut improved = true;
            while improved {
                improved = false;
                for dim in 0..3 {
                    for dir in [-1i64, 1] {
                        let mut cand = current.map(|n| n as i64);
                        cand[dim] += dir * delta as i64;
                        if cand[0] < lo as i64
                            || cand[0] > cand[1]
                            || cand[1] > cand[2]
                            || cand[2] > hi as i64
                            || cand[0] < 1
                        {
                            continue;
                        }
                        let cand = cand.map(|n| n as usize);
                        let before = best.as_ref().map(|r| r.score);
                        candidates += 1;
                        let lattice = (cand[0], cand[1], cand[2]);
                        consider_reference(opt, pmf, consumption, lattice, best);
                        if best.as_ref().map(|r| r.score) > before {
                            current = cand;
                            improved = true;
                        }
                    }
                }
            }
            if delta == 1 {
                return candidates;
            }
            delta /= 2;
        }
    }

    /// Event processes for the reference properties: hazard-specified
    /// with a tail hazard bounded away from zero (walks end well inside
    /// the slot cap), and bounded-support pmfs whose chains can resolve
    /// fully.
    fn any_pmf() -> impl Strategy<Value = SlotPmf> {
        prop_oneof![
            (
                collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 0..30),
                0.05f64..1.0,
            )
                .prop_map(|(mut h, tail)| {
                    h.push(tail);
                    SlotPmf::from_hazards(&h).unwrap()
                }),
            collection::vec(prop_oneof![Just(0.0), 0.0f64..1.0], 1..30).prop_map(|m| {
                let sum: f64 = m.iter().sum();
                let masses = if sum > 0.0 {
                    m.iter().map(|x| x / sum).collect()
                } else {
                    vec![1.0]
                };
                SlotPmf::from_pmf(masses).unwrap()
            }),
        ]
    }

    fn any_objective() -> impl Strategy<Value = Objective> {
        prop_oneof![
            Just(Objective::Qom),
            Just(Objective::AoiMean),
            Just(Objective::AoiPeak)
        ]
    }

    /// A search-scoped walker over `table`, with a bucket vector already
    /// grown by an unrelated walk so `clone_from` overwrites stale state.
    fn dirty_walker<'a>(
        table: &'a HazardTable,
        pmf: &SlotPmf,
        consumption: &ConsumptionModel,
        opts: EvalOptions,
    ) -> Walker<'a> {
        let mut w = Walker::new(table, pmf.mean(), consumption, opts);
        for chain in [
            &mut w.tail,
            &mut w.probe,
            &mut w.hot_full,
            &mut w.cool2_closed,
        ] {
            chain.advance_through(7, 0.0);
            chain.advance_through(12, 0.5);
        }
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chain_eval_resumes_bit_identically_from_any_checkpoint(
            pmf in any_pmf(),
            head in collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0], 0..80),
            tail_c in prop_oneof![Just(1.0), Just(0.0), 0.01f64..1.0],
            checkpoint in 0usize..100,
            survival_eps in prop_oneof![Just(1e-10), 1e-6f64..1e-2],
            max_slots in 1usize..400,
        ) {
            let opts = EvalOptions { survival_eps, max_slots };
            let consumption = consumption();
            let policy = |i: usize| head.get(i - 1).copied().unwrap_or(tail_c);
            let (want_eval, want_moments) =
                evaluate_partial_info_moments(&pmf, policy, &consumption, opts);
            let want = bits(&want_eval, &want_moments);

            let table = HazardTable::new(&pmf, opts.max_slots);
            let w = dirty_walker(&table, &pmf, &consumption, opts);
            let mut prefix = w.origin.clone();
            while prefix.live() && prefix.belief().next_slot() <= checkpoint {
                let c = policy(prefix.belief().next_slot());
                prefix.advance(c);
            }
            let mut resumed = w.tail.clone();
            resumed.clone_from(&prefix);
            resumed.run(policy);
            let got = resumed.finish();
            prop_assert_eq!(bits(&got.eval, &got.moments), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn balance_matches_the_bisection(
            pmf in any_pmf(),
            t in -0.2f64..1.2,
            (n1, d2, d3) in (1usize..40, 0usize..30, 0usize..30),
            objective in any_objective(),
            survival_eps in prop_oneof![Just(1e-10), 1e-6f64..1e-2],
            max_slots in 50usize..600,
        ) {
            let lattice = (n1, n1 + d2, n1 + d2 + d3);
            let opts = EvalOptions { survival_eps, max_slots };
            let consumption = consumption();
            // Place the budget between the closed and fully-open discharge
            // rates (mostly), where the balance has work to do.
            let open = ClusteringPolicy::new(n1, lattice.1, lattice.2, 1.0, 1.0, 1.0).unwrap();
            let d_open = open.evaluate(&pmf, &consumption, opts).discharge_rate;
            let d_closed = open.with_c_n1(0.0).evaluate(&pmf, &consumption, opts).discharge_rate;
            let e = (d_closed + t * (d_open - d_closed)).max(1e-3);
            let opt = ClusteringOptimizer::new(EnergyBudget::per_slot(e))
                .eval_options(opts)
                .objective(objective);
            let want = balanced_reference(&opt, &pmf, &consumption, lattice);

            let table = HazardTable::new(&pmf, opts.max_slots);
            let mut w = dirty_walker(&table, &pmf, &consumption, opts);
            w.cool_to(n1);
            let Walker { cool, tail, probe, .. } = &mut w;
            let full = probe.variant_from(cool, 1.0, lattice);
            let got = opt.balanced(
                full,
                || tail.variant_from(cool, 0.0, lattice),
                |c| probe.variant_from(cool, c, lattice),
            );
            match (got, want) {
                (None, None) => {}
                (Some((c_n1, walk)), Some((policy, eval, moments))) => {
                    let mine = ClusteringPolicy::new(n1, lattice.1, lattice.2, 1.0, 1.0, 1.0)
                        .unwrap()
                        .with_c_n1(c_n1);
                    prop_assert_eq!(policy_bits(&mine), policy_bits(&policy));
                    prop_assert_eq!(bits(&walk.eval, &walk.moments), bits(&eval, &moments));
                }
                (got, want) => prop_assert!(
                    false,
                    "feasibility differs: {:?} vs {:?}",
                    got.map(|g| g.0),
                    want.map(|w| w.0)
                ),
            }
        }
    }

    /// Budgets for the search properties: mostly below `δ1 = 1`, where
    /// the overspent exits can fire, some above it.
    fn any_budget() -> impl Strategy<Value = f64> {
        prop_oneof![0.05f64..0.95, 0.05f64..0.95, 0.05f64..0.95, 0.95f64..3.0]
    }

    /// A ranked candidate's every field, as bits.
    fn ranked_bits(r: &Ranked) -> (PolicyBits, [u64; 6], u64) {
        let no_moments = CycleMoments {
            first: 0.0,
            second: 0.0,
        };
        (
            policy_bits(&r.policy),
            bits(&r.eval, &no_moments),
            r.score.to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn shared_prefix_sweep_matches_walks_from_scratch(
            pmf in any_pmf(),
            e in any_budget(),
            (lo, span, step) in (1usize..12, 1usize..20, 1usize..5),
            objective in any_objective(),
            max_slots in 50usize..300,
        ) {
            let hi = lo + span;
            let opts = EvalOptions { survival_eps: 1e-10, max_slots };
            let consumption = consumption();
            let opt = ClusteringOptimizer::new(EnergyBudget::per_slot(e))
                .eval_options(opts)
                .objective(objective);
            let (want, want_candidates) = sweep_reference(&opt, &pmf, &consumption, lo, hi, step);

            let table = HazardTable::new(&pmf, opts.max_slots);
            let mut w = dirty_walker(&table, &pmf, &consumption, opts);
            // A stale cooling prefix past `lo` must be rebuilt, not reused.
            w.cool_to(lo + 3);
            let mut best = None;
            let mut candidates = 0;
            opt.sweep(&mut w, lo, hi, step, &mut best, &mut candidates);
            prop_assert_eq!(candidates, want_candidates);
            prop_assert_eq!(best.as_ref().map(ranked_bits), want.as_ref().map(ranked_bits));
        }

        #[test]
        fn settled_refinement_matches_walks_from_scratch(
            pmf in any_pmf(),
            e in any_budget(),
            (lo, span, step) in (1usize..12, 1usize..30, 2usize..9),
            objective in any_objective(),
            max_slots in 50usize..300,
        ) {
            let hi = lo + span;
            let opts = EvalOptions { survival_eps: 1e-10, max_slots };
            let consumption = consumption();
            let opt = ClusteringOptimizer::new(EnergyBudget::per_slot(e))
                .eval_options(opts)
                .objective(objective);
            // Both refinements start from the from-scratch grid optimum.
            let (seed, _) = sweep_reference(&opt, &pmf, &consumption, lo, hi, step);
            let mut want = seed.clone();
            let want_candidates =
                refine_reference(&opt, &pmf, &consumption, (lo, hi, step), &mut want);

            let table = HazardTable::new(&pmf, opts.max_slots);
            let mut w = dirty_walker(&table, &pmf, &consumption, opts);
            let mut best = seed;
            let mut candidates = 0;
            opt.refine(&mut w, lo, hi, step, &mut best, &mut candidates);
            prop_assert_eq!(candidates, want_candidates);
            prop_assert_eq!(best.as_ref().map(ranked_bits), want.as_ref().map(ranked_bits));
        }
    }
}
