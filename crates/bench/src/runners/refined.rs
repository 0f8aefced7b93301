//! Ablation: progressively finer partial-information policies (the paper's
//! "converge to π*_PI" remark) against the exhaustive optimum and the
//! myopic belief-threshold baseline.

use evcap_core::{
    ClusteringOptimizer, EnergyBudget, EvalOptions, ExhaustiveSearch, MyopicPolicy, RegionPolicy,
};
use evcap_dist::{Discretizer, Weibull};

use crate::figure::{Figure, Series};
use crate::setup::{consumption, weibull_pmf, Scale};

/// Small-instance certification: analytic capture probability of clustering,
/// its refinements, the myopic baseline, and the exhaustive deterministic
/// optimum, on `X ~ W(6, 3)` where brute force is tractable.
pub fn ablation_refined_convergence(_scale: Scale) -> Figure {
    let consumption = consumption();
    let small = Discretizer::new()
        .discretize(&Weibull::new(6.0, 3.0).expect("static"))
        .expect("light tail");
    let opts = EvalOptions::default();

    let mut clustering = Series::new("clustering");
    let mut refined1 = Series::new("refined-1");
    let mut refined3 = Series::new("refined-3");
    let mut myopic = Series::new("myopic");
    let mut exhaustive = Series::new("exhaustive");

    for e in [0.7, 0.9, 1.2, 1.6, 2.0] {
        let budget = EnergyBudget::per_slot(e);
        let (coarse, coarse_eval) = ClusteringOptimizer::new(budget) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .optimize(&small, &consumption)
            .expect("feasible");
        clustering.push(e, coarse_eval.capture_probability);

        let seed = RegionPolicy::from_clustering(&coarse);
        let (_, r1) = seed.refine(&small, budget, &consumption, opts, 1, 16);
        refined1.push(e, r1.capture_probability);
        let (_, r3) = seed.refine(&small, budget, &consumption, opts, 3, 24);
        refined3.push(e, r3.capture_probability);

        let my = MyopicPolicy::derive(&small, budget, &consumption, 24, opts).expect("feasible"); // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
        myopic.push(e, my.evaluation().capture_probability);

        let (_, ex) = ExhaustiveSearch::new(budget, 14)
            .optimize(&small, &consumption)
            .expect("feasible");
        exhaustive.push(e, ex.capture_probability);
    }

    let mut fig = Figure::new(
        "ablation-refined",
        "partial-info policy families vs exhaustive optimum, X~W(6,3) (analytic QoM)",
        "e",
    );
    fig.series.push(clustering);
    fig.series.push(refined1);
    fig.series.push(refined3);
    fig.series.push(myopic);
    fig.series.push(exhaustive);
    fig
}

/// Larger-instance comparison (no exhaustive): clustering vs refinement vs
/// myopic on the paper's Weibull workload, analytic QoM across budgets.
pub fn ablation_refined_weibull40(_scale: Scale) -> Figure {
    let consumption = consumption();
    let pmf = weibull_pmf();
    let opts = EvalOptions::default();
    let mut clustering = Series::new("clustering");
    let mut refined2 = Series::new("refined-2");
    let mut myopic = Series::new("myopic");
    for e in [0.3, 0.5, 0.8] {
        let budget = EnergyBudget::per_slot(e);
        let (coarse, coarse_eval) = ClusteringOptimizer::new(budget) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .optimize(&pmf, &consumption)
            .expect("feasible");
        clustering.push(e, coarse_eval.capture_probability);
        let (_, r2) =
            RegionPolicy::from_clustering(&coarse).refine(&pmf, budget, &consumption, opts, 2, 24);
        refined2.push(e, r2.capture_probability);
        let my = MyopicPolicy::derive(&pmf, budget, &consumption, 160, opts).expect("feasible"); // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
        myopic.push(e, my.evaluation().capture_probability);
    }
    let mut fig = Figure::new(
        "ablation-refined-w40",
        "clustering vs refinement vs myopic, X~W(40,3) (analytic QoM)",
        "e",
    );
    fig.series.push(clustering);
    fig.series.push(refined2);
    fig.series.push(myopic);
    fig
}
