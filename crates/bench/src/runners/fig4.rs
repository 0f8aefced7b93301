//! Fig. 4: the clustering policy against the aggressive and periodic
//! baselines, sweeping the recharge amount `c`.
//!
//! Setup (paper Section VI-A2): Bernoulli recharge with `q = 0.5` and
//! varying `c` (so `e = 0.5·c`), `K = 1000` with `K/2` initial energy,
//! `θ1 = 3` for the energy-balanced periodic policy. Panel (a) uses
//! `X ~ W(40, 3)`, panel (b) `X ~ P(2, 10)`. Sweep points run in parallel.

use evcap_core::{
    ActivationPolicy, AggressivePolicy, ClusteringOptimizer, EnergyBudget, EvalOptions,
    SlotAssignment,
};
use evcap_dist::SlotPmf;
use evcap_sim::parallel::parallel_map;
use evcap_sim::EventSchedule;
use evcap_spec::PolicySpec;

use crate::figure::{Figure, Series};
use crate::setup::{consumption, pareto_pmf, simulate_qom, solved, weibull_pmf, Scale};

const Q: f64 = 0.5;
const CAPACITY: f64 = 1000.0;

/// A per-sweep-point policy factory: recharge amount `c` in, solved policy
/// out. Lets each panel choose pipeline or bespoke construction per family.
type PolicyFor<'a> = &'a (dyn Fn(f64) -> Box<dyn ActivationPolicy + Send + Sync> + Sync);

fn run(
    scale: Scale,
    pmf: &SlotPmf,
    cs: &[f64],
    clustering_for: PolicyFor<'_>,
    periodic_for: PolicyFor<'_>,
    id: &str,
    title: &str,
) -> Figure {
    let schedule = EventSchedule::generate(pmf, scale.slots, scale.seed).expect("valid schedule");
    let rows = parallel_map(cs.to_vec(), |c| {
        let sim = |policy: &dyn evcap_core::ActivationPolicy| {
            simulate_qom(
                pmf,
                &schedule,
                policy,
                Q,
                c,
                CAPACITY,
                1,
                SlotAssignment::RoundRobin,
                scale,
            )
        };
        let cl_policy = clustering_for(c);
        let pe = periodic_for(c);
        (
            c,
            sim(cl_policy.as_ref()),
            sim(&AggressivePolicy::new()), // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            sim(pe.as_ref()),
        )
    });

    let mut clustering = Series::new("clustering");
    let mut aggressive = Series::new("aggressive");
    let mut periodic = Series::new("periodic");
    for (c, cl, ag, pe) in rows {
        clustering.push(c, cl);
        aggressive.push(c, ag);
        periodic.push(c, pe);
    }
    let mut fig = Figure::new(id, title, "c");
    fig.series.push(clustering);
    fig.series.push(aggressive);
    fig.series.push(periodic);
    fig
}

/// Reproduces Fig. 4(a): capture probability vs recharge amount `c` for
/// `π'_PI`, `π_AG`, `π_PE` under `X ~ W(40, 3)`.
pub fn fig4a(scale: Scale) -> Figure {
    let cs = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2];
    run(
        scale,
        &weibull_pmf(),
        &cs,
        &|c| solved("weibull:40,3", 65_536, PolicySpec::Clustering, Q * c, 1).policy,
        &|c| {
            solved(
                "weibull:40,3",
                65_536,
                PolicySpec::Periodic { theta1: 3 },
                Q * c,
                1,
            )
            .policy
        },
        "fig4a",
        "QoM vs recharge amount c (q=0.5, K=1000), X~W(40,3)",
    )
}

/// Reproduces Fig. 4(b): same comparison under `X ~ P(2, 10)`.
pub fn fig4b(scale: Scale) -> Figure {
    let cs = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5];
    // Heavy tail: cap the analytic chain evaluation; a geometric residual
    // covers the remainder (see ClusterEvaluation::truncated_survival).
    // These truncation knobs are panel-specific, so the clustering family
    // is solved directly here rather than through the shared pipeline
    // (which uses the default EvalOptions).
    let opts = EvalOptions {
        survival_eps: 1e-9,
        max_slots: 4_000,
    };
    let pmf = pareto_pmf();
    let consumption = consumption();
    run(
        scale,
        &pmf,
        &cs,
        &|c| {
            let (policy, _) = ClusteringOptimizer::new(EnergyBudget::per_slot(Q * c)) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
                .eval_options(opts)
                .optimize(&pmf, &consumption)
                .expect("feasible budget");
            Box::new(policy)
        },
        &|c| {
            solved(
                "pareto:2,10",
                2_000,
                PolicySpec::Periodic { theta1: 3 },
                Q * c,
                1,
            )
            .policy
        },
        "fig4b",
        "QoM vs recharge amount c (q=0.5, K=1000), X~P(2,10)",
    )
}
