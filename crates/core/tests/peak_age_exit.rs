//! The peak-age clustering search settles dominated candidates early, as
//! the QoM search does. This lives in its own test binary because the
//! settle counters are process-wide.

use evcap_core::{ClusteringOptimizer, EnergyBudget, Objective};
use evcap_dist::{Discretizer, Weibull};
use evcap_energy::ConsumptionModel;
use evcap_obs::timing;

#[test]
fn peak_age_search_settles_dominated_candidates() {
    let pmf = Discretizer::new()
        .discretize(&Weibull::new(40.0, 3.0).unwrap())
        .unwrap();
    timing::set_enabled(true);
    timing::reset();
    let found = ClusteringOptimizer::new(EnergyBudget::per_slot(0.3))
        .objective(Objective::AoiPeak)
        .optimize(&pmf, &ConsumptionModel::paper_defaults());
    let counters = timing::drain_counters();
    timing::set_enabled(false);
    assert!(found.is_ok());
    let dominated = counters
        .iter()
        .find(|(name, _)| *name == "clustering.settled_dominated")
        .map_or(0, |&(_, n)| n);
    assert!(dominated > 0, "no dominated settles: {counters:?}");
}
