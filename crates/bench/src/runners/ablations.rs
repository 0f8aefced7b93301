//! Ablations beyond the paper, probing the design choices DESIGN.md calls
//! out.

use evcap_core::{
    ClusteringOptimizer, ClusteringPolicy, EnergyBudget, MultiSensorPlan, SlotAssignment,
};
use evcap_sim::EventSchedule;

use crate::figure::{Figure, Series};
use crate::setup::{consumption, simulate_qom, weibull_pmf, Scale};

/// Region ablation for the clustering policy: how much do the recovery and
/// cooling regions contribute?
///
/// Three variants are simulated over an energy sweep (`q = 0.5`, varying
/// `c`, `X ~ W(40, 3)`, `K = 1000`):
///
/// * `full` — the optimized `π'_PI(e)`;
/// * `no-recovery` — same hot region but `n3 → ∞` (missed events are never
///   recovered, so the schedule can drift off the renewal phase);
/// * `no-cooling` — hot region pinned to start at slot 1 (energy wasted in
///   slots where the next event cannot plausibly arrive yet).
pub fn ablation_clustering_regions(scale: Scale) -> Figure {
    let pmf = weibull_pmf();
    let consumption = consumption();
    let schedule = EventSchedule::generate(&pmf, scale.slots, scale.seed).expect("valid schedule");
    let q = 0.5;
    let capacity = 1000.0;
    let mut full = Series::new("full");
    let mut no_recovery = Series::new("no-recovery");
    let mut no_cooling = Series::new("no-cooling");
    for c in [0.6, 1.0, 1.4, 1.8] {
        let budget = EnergyBudget::per_slot(q * c);
        let (policy, _) = ClusteringOptimizer::new(budget) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .optimize(&pmf, &consumption)
            .expect("feasible budget");
        let sim = |p: &ClusteringPolicy| {
            simulate_qom(
                &pmf,
                &schedule,
                p,
                q,
                c,
                capacity,
                1,
                SlotAssignment::RoundRobin,
                scale,
            )
        };
        full.push(c, sim(&policy));

        // Push the recovery region out beyond any reachable state.
        let (c1, c2, _) = policy.boundary_coefficients();
        let distant = u32::MAX as usize;
        let variant = ClusteringPolicy::new(policy.n1(), policy.n2(), distant, c1, c2, 0.0) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .expect("ordered regions");
        no_recovery.push(c, sim(&variant));

        // Remove the initial cooling region: hot from slot 1.
        let variant = ClusteringPolicy::new(1, policy.n2(), policy.n3(), 1.0, c2, 1.0) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .expect("ordered regions");
        no_cooling.push(c, sim(&variant));
    }
    let mut fig = Figure::new(
        "ablation-regions",
        "clustering region ablation: QoM vs c (q=0.5, K=1000), X~W(40,3)",
        "c",
    );
    fig.series.push(full);
    fig.series.push(no_recovery);
    fig.series.push(no_cooling);
    fig
}

/// Load-balance measurement for M-FI (Section V-A's concern): ratio of the
/// least- to the most-active sensor, swept over the fleet size.
///
/// The paper argues round-robin balances load for "natural" distributions
/// such as Weibull; this ablation quantifies that.
pub fn ablation_load_balance(scale: Scale) -> Figure {
    let pmf = weibull_pmf();
    let consumption = consumption();
    let schedule = EventSchedule::generate(&pmf, scale.slots, scale.seed).expect("valid schedule");
    let q = 0.1;
    let c = 1.0;
    let mut balance = Series::new("min/max");
    let mut qom = Series::new("QoM");
    for n in [2usize, 3, 5, 8, 12] {
        let plan = MultiSensorPlan::m_fi(&pmf, EnergyBudget::per_slot(q * c), n, &consumption)
            .expect("valid setup");
        let report = evcap_sim::Simulation::builder(&pmf)
            .slots(scale.slots)
            .seed(scale.seed)
            .sensors(n)
            .assignment(plan.assignment())
            .battery(evcap_energy::Energy::from_units(1000.0))
            .run_on(&schedule, plan.policy(), &mut |_| {
                Box::new(
                    evcap_energy::BernoulliRecharge::new(q, evcap_energy::Energy::from_units(c))
                        .expect("valid"),
                )
            })
            .expect("valid simulation");
        balance.push(n as f64, report.load_balance());
        qom.push(n as f64, report.qom());
    }
    let mut fig = Figure::new(
        "ablation-load-balance",
        "M-FI per-sensor load balance vs N (q=0.1, c=1), X~W(40,3)",
        "N",
    );
    fig.series.push(balance);
    fig.series.push(qom);
    fig
}
