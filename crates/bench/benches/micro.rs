//! Criterion micro-benchmarks: cost of the core algorithmic kernels.
//!
//! These are not paper figures; they document the library's own performance
//! (policy optimization latency, simulator throughput, belief-propagation
//! cost) so regressions are visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evcap_core::{
    AggressivePolicy, ClusteringOptimizer, ClusteringPolicy, EnergyBudget, EvalOptions,
    ExhaustiveSearch, GreedyPolicy,
};
use evcap_dist::{Discretizer, SlotPmf, SlotSampler, Weibull};
use evcap_energy::{BernoulliRecharge, ConsumptionModel, Energy};
use evcap_lp::{Problem, Relation};
use evcap_obs::{ObsConfig, ObsSuite};
use evcap_renewal::AgeBeliefDp;
use evcap_sim::Simulation;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn weibull_pmf() -> SlotPmf {
    Discretizer::new()
        .discretize(&Weibull::new(40.0, 3.0).unwrap())
        .unwrap()
}

fn bench_greedy_optimize(c: &mut Criterion) {
    let pmf = weibull_pmf();
    let consumption = ConsumptionModel::paper_defaults();
    c.bench_function("greedy_optimize_weibull", |b| {
        b.iter(|| GreedyPolicy::optimize(&pmf, EnergyBudget::per_slot(0.5), &consumption).unwrap())
    });
}

fn bench_clustering_evaluate(c: &mut Criterion) {
    let pmf = weibull_pmf();
    let consumption = ConsumptionModel::paper_defaults();
    let policy = ClusteringPolicy::new(25, 45, 60, 0.5, 1.0, 1.0).unwrap();
    c.bench_function("clustering_evaluate_weibull", |b| {
        b.iter(|| policy.evaluate(&pmf, &consumption, EvalOptions::default()))
    });
}

fn bench_clustering_optimize(c: &mut Criterion) {
    // The whole clustering search: lattice sweep, c_{n1} balance and
    // refinement.
    let pmf = weibull_pmf();
    let consumption = ConsumptionModel::paper_defaults();
    let optimizer = ClusteringOptimizer::new(EnergyBudget::per_slot(0.3));
    c.bench_function("clustering_optimize_weibull_cold", |b| {
        b.iter(|| optimizer.optimize(&pmf, &consumption).unwrap())
    });
}

fn bench_belief_dp(c: &mut Criterion) {
    let pmf = weibull_pmf();
    c.bench_function("age_belief_dp_200_slots", |b| {
        b.iter(|| AgeBeliefDp::run(&pmf, |i| if i >= 25 { 1.0 } else { 0.0 }, 200))
    });
}

fn bench_simulator_throughput(c: &mut Criterion) {
    let pmf = weibull_pmf();
    c.bench_function("simulate_100k_slots_aggressive", |b| {
        b.iter(|| {
            Simulation::builder(&pmf)
                .slots(100_000)
                .seed(1)
                .run(&AggressivePolicy::new(), &mut |_| {
                    Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap())
                })
                .unwrap()
        })
    });
}

fn bench_simulator_throughput_observed(c: &mut Criterion) {
    // The same run with a full ObsSuite attached: the gap to the plain
    // benchmark above is the price of the instrumentation layer (the plain
    // run goes through NullObserver, whose hooks inline to nothing).
    let pmf = weibull_pmf();
    c.bench_function("simulate_100k_slots_obs_suite", |b| {
        b.iter(|| {
            let mut suite = ObsSuite::new(ObsConfig::default());
            Simulation::builder(&pmf)
                .slots(100_000)
                .seed(1)
                .run_observed(
                    &AggressivePolicy::new(),
                    &mut |_| {
                        Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap())
                    },
                    &mut suite,
                )
                .unwrap()
        })
    });
}

fn bench_slot_sampler(c: &mut Criterion) {
    let pmf = weibull_pmf();
    let sampler = SlotSampler::new(&pmf).unwrap();
    c.bench_function("slot_sampler_draw", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(7),
            |mut rng| {
                let mut acc = 0usize;
                for _ in 0..1_000 {
                    acc += sampler.sample(&mut rng);
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_lp_solve(c: &mut Criterion) {
    // The truncated paper LP at 200 variables.
    let pmf = weibull_pmf();
    let consumption = ConsumptionModel::paper_defaults();
    let horizon = 200.min(pmf.horizon());
    c.bench_function("lp_solve_paper_200_vars", |b| {
        b.iter(|| {
            let rewards: Vec<f64> = (1..=horizon).map(|i| pmf.pmf(i)).collect();
            let costs: Vec<f64> = (1..=horizon)
                .map(|i| {
                    consumption.delta1_units() * pmf.survival(i - 1)
                        + consumption.delta2_units() * pmf.pmf(i)
                })
                .collect();
            let budget = 0.5 * pmf.mean();
            let mut p = Problem::maximize(rewards);
            p.constraint(costs, Relation::Eq, budget).unwrap();
            for i in 0..horizon {
                p.upper_bound(i, 1.0).unwrap();
            }
            p.solve().unwrap()
        })
    });
}

fn bench_exhaustive_window_scaling(c: &mut Criterion) {
    // The paper's intractability claim in miniature: doubling per window
    // slot. The group makes the exponential growth visible in one report.
    let pmf = Discretizer::new()
        .discretize(&Weibull::new(6.0, 3.0).unwrap())
        .unwrap();
    let consumption = ConsumptionModel::paper_defaults();
    let mut group = c.benchmark_group("exhaustive_window");
    for window in [6usize, 8, 10, 12] {
        group.bench_function(format!("window_{window}"), |b| {
            b.iter(|| {
                ExhaustiveSearch::new(EnergyBudget::per_slot(1.0), window)
                    .optimize(&pmf, &consumption)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy_optimize,
    bench_clustering_evaluate,
    bench_clustering_optimize,
    bench_belief_dp,
    bench_simulator_throughput,
    bench_simulator_throughput_observed,
    bench_slot_sampler,
    bench_lp_solve,
    bench_exhaustive_window_scaling
);
criterion_main!(benches);
