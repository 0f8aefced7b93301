//! Fig. 6: multi-sensor coordination (M-FI, M-PI vs aggressive/periodic).
//!
//! Setup (paper Section VI-B): every sensor recharges with a Bernoulli
//! process `q = 0.1` and amount `c`; `K = 1000`. M-FI and M-PI round-robin
//! slots and follow the single-sensor policies computed for the aggregate
//! rate `N·e`. The aggressive baseline round-robins slots; the periodic
//! baseline hands each sensor a block of `θ2` consecutive slots. Panel (a)
//! sweeps the number of sensors `N` at `c = 1`; panel (b) sweeps `c` at
//! `N = 5`. Sweep points run in parallel.

use evcap_core::{AggressivePolicy, EnergyBudget, MultiSensorPlan, PeriodicPolicy, SlotAssignment};
use evcap_dist::SlotPmf;
use evcap_sim::parallel::parallel_map;
use evcap_sim::EventSchedule;
use evcap_spec::PolicySpec;

use crate::figure::{Figure, Series};
use crate::setup::{consumption, simulate_qom, solved, weibull_pmf, Scale};

const Q: f64 = 0.1;
const CAPACITY: f64 = 1000.0;

fn run(
    scale: Scale,
    pmf: &SlotPmf,
    points: &[(usize, f64)],
    id: &str,
    title: &str,
    x_of: impl Fn(usize, f64) -> f64 + Sync,
) -> Figure {
    let consumption = consumption();
    let schedule = EventSchedule::generate(pmf, scale.slots, scale.seed).expect("valid schedule");
    let rows = parallel_map(points.to_vec(), |(n, c)| {
        let x = x_of(n, c);
        let per_sensor = EnergyBudget::per_slot(Q * c);
        let aggregate = EnergyBudget::per_slot(per_sensor.rate() * n as f64);
        let sim = |policy: &dyn evcap_core::ActivationPolicy, assignment: SlotAssignment| {
            simulate_qom(pmf, &schedule, policy, Q, c, CAPACITY, n, assignment, scale)
        };

        let fi = MultiSensorPlan::m_fi(pmf, per_sensor, n, &consumption).expect("valid setup");
        let fi_qom = sim(fi.policy(), fi.assignment());

        // M-PI: the aggregate-rate clustering policy through the shared
        // pipeline — `sensors = n` folds the N·e pooling into the scenario.
        let pi_policy = solved("weibull:40,3", 65_536, PolicySpec::Clustering, Q * c, n).policy;
        let pi_qom = sim(pi_policy.as_ref(), SlotAssignment::RoundRobin);

        let ag_qom = sim(&AggressivePolicy::new(), SlotAssignment::RoundRobin); // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose

        // The in-charge sensor banks energy during the other sensors'
        // blocks, so the sustainable duty cycle reflects the aggregate rate.
        let pe = PeriodicPolicy::energy_balanced(3, aggregate, pmf.mean(), &consumption) // deepcheck:allow(solve-site): bench runners sweep raw optimizer variants the artifact layer does not expose
            .expect("valid setup");
        let pe_qom = sim(
            &pe,
            SlotAssignment::Blocks {
                block_len: pe.theta2(),
            },
        );
        (x, fi_qom, pi_qom, ag_qom, pe_qom)
    });

    let mut m_fi = Series::new("M-FI");
    let mut m_pi = Series::new("M-PI");
    let mut aggressive = Series::new("aggressive");
    let mut periodic = Series::new("periodic");
    for (x, fi, pi, ag, pe) in rows {
        m_fi.push(x, fi);
        m_pi.push(x, pi);
        aggressive.push(x, ag);
        periodic.push(x, pe);
    }
    let mut fig = Figure::new(id, title, if id.ends_with('a') { "N" } else { "c" });
    fig.series.push(m_fi);
    fig.series.push(m_pi);
    fig.series.push(aggressive);
    fig.series.push(periodic);
    fig
}

/// Reproduces Fig. 6(a): QoM vs the number of sensors `N` at `q = 0.1`,
/// `c = 1`, `X ~ W(40, 3)`.
pub fn fig6a(scale: Scale) -> Figure {
    let points: Vec<(usize, f64)> = [1, 2, 3, 4, 5, 6, 8, 10, 12]
        .into_iter()
        .map(|n| (n, 1.0))
        .collect();
    run(
        scale,
        &weibull_pmf(),
        &points,
        "fig6a",
        "QoM vs number of sensors N (q=0.1, c=1, K=1000), X~W(40,3)",
        |n, _| n as f64,
    )
}

/// Reproduces Fig. 6(b): QoM vs per-recharge amount `c` at `N = 5`,
/// `q = 0.1`, `X ~ W(40, 3)`.
pub fn fig6b(scale: Scale) -> Figure {
    let points: Vec<(usize, f64)> = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
        .into_iter()
        .map(|c| (5, c))
        .collect();
    run(
        scale,
        &weibull_pmf(),
        &points,
        "fig6b",
        "QoM vs recharge amount c (N=5, q=0.1, K=1000), X~W(40,3)",
        |_, c| c,
    )
}
