//! Seeded inputs for every workload.
//!
//! The seed varies the recharge rates, the spellings of specs, which body
//! is hot, the request order and every simulation seed. It never changes
//! the distributions or the shape of a workload (families, counts, mixes):
//! moving a Weibull scale by 2.5% already moved serve_churn's throughput
//! by up to 20%, and runs with different seeds must cost the same to
//! within noise to be comparable.

use evcap_spec::{Objective, PolicySpec, Scenario};

use crate::rng::Rng;

/// An inter-arrival distribution, kept as family plus arguments so it can
/// be spelled several ways.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    family: &'static str,
    args: Vec<f64>,
    /// Light-tailed: the clustering search finishes in well under a second
    /// (one cold Pareto(2.5, 20) clustering solve took 75 s).
    pub light: bool,
}

impl Dist {
    fn new(family: &'static str, args: &[f64], light: bool) -> Self {
        Dist {
            family,
            args: args.to_vec(),
            light,
        }
    }

    /// The spec in spelling `style` (0, 1 or 2); every style denotes the
    /// same distribution, e.g. `weibull:40,3`, `weibull:40.0,3.0`,
    /// `weibull:40.00, 3.00`.
    pub fn spec(&self, style: usize) -> String {
        let family = match (self.family, style % 3) {
            ("exp", 1) => "exponential",
            (f, _) => f,
        };
        let args: Vec<String> = self
            .args
            .iter()
            .map(|&a| {
                let text = match style % 3 {
                    0 => format!("{a}"),
                    1 => format!("{a:.1}"),
                    _ => format!("{a:.2}"),
                };
                // A style that would round the value falls back to the
                // shortest exact spelling.
                if text.parse::<f64>() == Ok(a) {
                    text
                } else {
                    format!("{a}")
                }
            })
            .collect();
        let sep = if style % 3 == 2 { ", " } else { "," };
        format!("{family}:{}", args.join(sep))
    }
}

/// Four light-tailed distributions, each a few hundred ms to solve by
/// clustering.
pub fn light_dists() -> Vec<Dist> {
    vec![
        Dist::new("weibull", &[40.0, 3.0], true),
        Dist::new("weibull", &[20.0, 2.0], true),
        Dist::new("uniform", &[10.0, 50.0], true),
        Dist::new("erlang", &[5.0, 0.2], true),
    ]
}

/// Distributions only the closed-form and myopic solvers see.
pub fn other_dists() -> Vec<Dist> {
    vec![
        Dist::new("lognormal", &[3.0, 0.5], false),
        Dist::new("exp", &[0.05], false),
    ]
}

/// `n` recharge rates spread evenly over `[lo, hi)`, moved up by a seeded
/// offset of at most 0.008. Callers keep `lo ≥ 0.16`: below that a cold
/// clustering solve costs three to five times more, and how far a seed
/// reached into that region would decide what a run costs.
pub fn e_grid(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let step = (hi - lo) / n as f64;
    let offset = rng.below(5) as f64 * 0.002;
    (0..n)
        .map(|i| ((lo + offset + step * i as f64) * 1e4).round() / 1e4)
        .collect()
}

/// An HTTP request body and where it goes.
#[derive(Debug, Clone)]
pub struct Body {
    pub path: &'static str,
    pub json: String,
}

fn solve_body(dist: &Dist, e: f64, policy: &str, objective: Objective, style: usize) -> Body {
    let mut json = format!(
        "{{\"dist\":\"{}\",\"e\":{}",
        dist.spec(style),
        e_text(e, style)
    );
    // Omitted fields take their defaults: `greedy` and `qom`.
    if policy != "greedy" || style != 1 {
        json.push_str(&format!(",\"policy\":\"{policy}\""));
    }
    if !objective.is_default() || style == 2 {
        json.push_str(&format!(",\"objective\":\"{}\"", objective.name()));
    }
    json.push('}');
    Body {
        path: "/v1/solve",
        json,
    }
}

fn simulate_body(
    dist: &Dist,
    e: f64,
    policy: &str,
    slots: u64,
    seed: u64,
    reps: usize,
    style: usize,
) -> Body {
    Body {
        path: "/v1/simulate",
        json: format!(
            "{{\"dist\":\"{}\",\"e\":{},\"policy\":\"{policy}\",\"slots\":{slots},\"seed\":{seed},\"replications\":{reps}}}",
            dist.spec(style),
            e_text(e, style)
        ),
    }
}

fn e_text(e: f64, style: usize) -> String {
    if style % 2 == 1 {
        format!("{e:.4}")
    } else {
        format!("{e}")
    }
}

/// The Zipf exponent of serve_hot's body popularity.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Share of serve_hot's requests that scrape `/metrics` instead.
pub const HOT_METRICS_SHARE: f64 = 0.01;

/// Builds serve_hot's catalog: 80 solve scenarios in three spellings each
/// and 16 fixed-seed simulations in two, 272 bodies in all.
///
/// Bodies fall into four classes (greedy solves, which carry up to 512
/// coefficients; other closed-form solves; clustering solves;
/// simulations). Ranks are dealt to classes in a fixed proportional
/// pattern and the seed only shuffles bodies within a class, so the
/// traffic share of each class, and with it the response sizes, is the
/// same for every seed. Bodies are returned hottest first: rank 0 is
/// drawn most often.
pub fn hot_catalog(seed: u64) -> Vec<Body> {
    let mut rng = Rng::derive(seed, "serve_hot.catalog");
    let light = light_dists();
    let other = other_dists();
    let mut classes: [Vec<Body>; 4] = Default::default();
    for dist in light.iter().chain(&other) {
        for e in e_grid(&mut rng, 2, 0.16, 0.36) {
            for style in 0..3 {
                for objective in Objective::ALL {
                    classes[0].push(solve_body(dist, e, "greedy", objective, style));
                }
                for policy in ["myopic", "periodic", "aggressive"] {
                    classes[1].push(solve_body(dist, e, policy, Objective::Qom, style));
                }
            }
        }
    }
    for dist in &light {
        let e = e_grid(&mut rng, 1, 0.2, 0.25)[0];
        for style in 0..3 {
            for objective in [Objective::Qom, Objective::AoiMean] {
                classes[2].push(solve_body(dist, e, "clustering", objective, style));
            }
        }
        for policy in ["greedy", "clustering"] {
            for reps in [1, 4] {
                let sim_seed = rng.next_u64() >> 20;
                for style in 0..2 {
                    classes[3].push(simulate_body(
                        dist, e, policy, 20_000, sim_seed, reps, style,
                    ));
                }
            }
        }
    }
    interleave(classes, &mut rng)
}

/// Deals ranks to classes in proportion to their sizes (the class whose
/// next member lies furthest behind its share goes next), shuffling each
/// class first.
fn interleave<const N: usize>(mut classes: [Vec<Body>; N], rng: &mut Rng) -> Vec<Body> {
    for class in &mut classes {
        rng.shuffle(class);
    }
    let sizes: Vec<usize> = classes.iter().map(Vec::len).collect();
    let mut taken = [0usize; N];
    let total: usize = sizes.iter().sum();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let next = (0..N)
            .filter(|&c| taken[c] < sizes[c])
            .min_by(|&a, &b| {
                let pa = (taken[a] as f64 + 0.5) / sizes[a] as f64;
                let pb = (taken[b] as f64 + 0.5) / sizes[b] as f64;
                pa.total_cmp(&pb)
            })
            .expect("a class with members left");
        out.push(classes[next][taken[next]].clone());
        taken[next] += 1;
    }
    out
}

/// A solve-fleet matrix: distributions × an e-grid × policy families,
/// clustering on light-tailed distributions only.
#[derive(Debug, Clone)]
pub struct Matrix {
    pub dists: Vec<Dist>,
    pub e_grid: Vec<f64>,
}

/// One cell of a [`Matrix`]: a distribution (by index), a family, an e.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub dist: usize,
    pub policy: PolicySpec,
    pub e: f64,
}

impl Matrix {
    /// The cells for the e values `es`, grouped by `(dist, policy)` with e
    /// ascending inside each group — the order `evcap solve-fleet` solves
    /// in, so each clustering solve can warm-start from its predecessor.
    pub fn groups(&self, es: &[f64]) -> Vec<Vec<Cell>> {
        let mut es = es.to_vec();
        es.sort_by(f64::total_cmp);
        let mut groups = Vec::new();
        for (dist, d) in self.dists.iter().enumerate() {
            for policy in [
                PolicySpec::Greedy,
                PolicySpec::Clustering,
                PolicySpec::Myopic,
            ] {
                if policy == PolicySpec::Clustering && !d.light {
                    continue;
                }
                groups.push(es.iter().map(|&e| Cell { dist, policy, e }).collect());
            }
        }
        groups
    }

    /// Every cell of the matrix.
    pub fn cells(&self) -> Vec<Cell> {
        self.groups(&self.e_grid).into_iter().flatten().collect()
    }

    /// The canonical scenario of a cell.
    pub fn scenario(&self, cell: Cell) -> Scenario {
        Scenario::new(&self.dists[cell.dist].spec(0), cell.policy, cell.e)
            .expect("generated spec parses")
    }
}

/// serve_churn's store catalog: 3 light-tailed distributions × 10 e values
/// × {greedy, clustering, myopic} plus one heavier-tailed distribution ×
/// 10 e values × {greedy, myopic}: 110 scenarios.
pub fn churn_matrix(seed: u64) -> Matrix {
    let mut rng = Rng::derive(seed, "serve_churn.catalog");
    let mut dists = light_dists();
    dists.truncate(3);
    dists.push(other_dists().remove(0));
    Matrix {
        dists,
        e_grid: e_grid(&mut rng, 10, 0.16, 0.4),
    }
}

/// fleet_solve's matrix number `index` of a run: 4 light-tailed
/// distributions × 8 e values × 3 families plus one heavier-tailed
/// distribution × 8 e values × 2 families: 112 scenarios.
pub fn fleet_matrix(seed: u64, index: u64) -> Matrix {
    let mut rng = Rng::derive(seed ^ index.wrapping_mul(0x9e37_79b9), "fleet_solve.matrix");
    let mut dists = light_dists();
    dists.push(other_dists().remove(0));
    Matrix {
        dists,
        e_grid: e_grid(&mut rng, 8, 0.16, 0.4),
    }
}

/// A serve_churn request drawn uniformly over the catalog: ¾ solves (in a
/// random spelling), ¼ short simulations with a fresh seed, R = 4 for 80%
/// of them and R = 1 for the rest. With that split p90 falls at the median
/// R = 4 simulation rather than at the edge between two kinds. Returns the
/// body and the index of the catalog cell it asks about.
pub fn churn_request(rng: &mut Rng, matrix: &Matrix, catalog: &[Cell]) -> (Body, usize) {
    let index = rng.below(catalog.len());
    let cell = catalog[index];
    let dist = &matrix.dists[cell.dist];
    let style = rng.below(3);
    let body = if rng.chance(0.25) {
        let reps = if rng.chance(0.2) { 1 } else { 4 };
        let seed = rng.next_u64() >> 20;
        simulate_body(
            dist,
            cell.e,
            cell.policy.name(),
            CHURN_SIM_SLOTS,
            seed,
            reps,
            style,
        )
    } else {
        solve_body(dist, cell.e, cell.policy.name(), Objective::Qom, style)
    };
    (body, index)
}

/// The canonical solve body of a catalog cell.
pub fn cell_solve_body(matrix: &Matrix, cell: Cell) -> Body {
    solve_body(
        &matrix.dists[cell.dist],
        cell.e,
        cell.policy.name(),
        Objective::Qom,
        0,
    )
}

/// Horizon of serve_churn's simulations.
pub const CHURN_SIM_SLOTS: u64 = 10_000;

/// One study of sim_study.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    pub kind: StudyKind,
    /// Index into [`sim_policies`].
    pub policy: usize,
    /// Recharge spec per sensor; `None` keeps the scenario's Bernoulli.
    pub recharge: Option<String>,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyKind {
    /// `Simulation::run`.
    Single,
    /// `ReplicationBatch::run` over [`BATCH_REPS`] seeds on 2 threads.
    Batch,
    /// A 4-sensor rotating fleet under one partial-information policy.
    Fleet,
    /// `Simulation::run_observed` with an `ObsSuite`.
    Observed,
}

/// Slots per study (per replication for batches).
pub const STUDY_SLOTS: u64 = 1_000_000;
/// Replications per batch study.
pub const BATCH_REPS: usize = 16;
/// Sensors in the fleet study.
pub const FLEET_SENSORS: usize = 4;

/// sim_study's policies, solved in setup: greedy (FI) and clustering (PI)
/// on a Weibull, myopic on a uniform, greedy on an Erlang, and clustering
/// for the 4-sensor fleet (budget 4e).
pub fn sim_policies(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::derive(seed, "sim_study.policies");
    let light = light_dists();
    let e = e_grid(&mut rng, 1, 0.2, 0.3)[0];
    let sc = |d: &Dist, p| Scenario::new(&d.spec(0), p, e).expect("generated spec parses");
    vec![
        sc(&light[0], PolicySpec::Greedy),
        sc(&light[0], PolicySpec::Clustering),
        sc(&light[2], PolicySpec::Myopic),
        sc(&light[3], PolicySpec::Greedy),
        sc(&light[0], PolicySpec::Clustering).with_sensors(FLEET_SENSORS),
    ]
}

/// One round of sim_study: eight studies in a fixed order, seeds fresh
/// from `rng`. A run repeats rounds until its time is up.
pub fn study_round(rng: &mut Rng, e: f64) -> Vec<Study> {
    let mut seed = || rng.next_u64() >> 16;
    let period = 10.0;
    vec![
        study(StudyKind::Single, 0, None, seed()),
        study(StudyKind::Single, 1, None, seed()),
        study(StudyKind::Single, 2, None, seed()),
        study(StudyKind::Batch, 1, None, seed()),
        study(StudyKind::Fleet, 4, None, seed()),
        study(
            StudyKind::Single,
            3,
            Some(format!("periodic:{},{period}", e * period)),
            seed(),
        ),
        study(
            StudyKind::Single,
            0,
            Some(format!("uniformrand:0,{}", 2.0 * e)),
            seed(),
        ),
        study(StudyKind::Observed, 1, None, seed()),
    ]
}

fn study(kind: StudyKind, policy: usize, recharge: Option<String>, seed: u64) -> Study {
    Study {
        kind,
        policy,
        recharge,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_serve::{SimulateScenario, SolveScenario};

    fn bodies(seed: u64) -> Vec<String> {
        let mut out: Vec<String> = hot_catalog(seed).into_iter().map(|b| b.json).collect();
        let matrix = churn_matrix(seed);
        let catalog = matrix.cells();
        let mut rng = Rng::derive(seed, "test");
        out.extend((0..200).map(|_| churn_request(&mut rng, &matrix, &catalog).0.json));
        out
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
        let keys = |s| -> Vec<String> {
            let matrix = fleet_matrix(s, 0);
            let cells = matrix.cells().into_iter().map(|c| matrix.scenario(c));
            cells
                .chain(sim_policies(s))
                .map(|sc| sc.canonical_key())
                .collect()
        };
        assert_eq!(keys(11), keys(11));
        let rounds = |s| study_round(&mut Rng::new(s), 0.25);
        assert_eq!(rounds(5), rounds(5));
        assert_ne!(rounds(5), rounds(6));
    }

    #[test]
    fn every_generated_spec_parses() {
        for dist in light_dists().iter().chain(&other_dists()) {
            let canonical = evcap_spec::canonical_dist(&dist.spec(0)).expect("canonical");
            for style in 0..3 {
                let spec = dist.spec(style);
                evcap_spec::parse_dist(&spec, 4096).expect("dist parses");
                assert_eq!(
                    evcap_spec::canonical_dist(&spec).as_deref(),
                    Ok(&*canonical)
                );
            }
        }
        for seed in 0..4 {
            let matrix = churn_matrix(seed);
            let cells = matrix.cells();
            let mut rng = Rng::new(seed);
            let churn = (0..200).map(|_| churn_request(&mut rng, &matrix, &cells).0);
            for body in hot_catalog(seed).into_iter().chain(churn) {
                let ok = match body.path {
                    "/v1/solve" => SolveScenario::from_body(body.json.as_bytes()).is_ok(),
                    _ => SimulateScenario::from_body(body.json.as_bytes(), 2_000_000).is_ok(),
                };
                assert!(ok, "{}", body.json);
            }
            for round in study_round(&mut Rng::new(seed), 0.25) {
                if let Some(spec) = round.recharge {
                    evcap_spec::parse_recharge(&spec).expect("recharge parses");
                }
            }
        }
    }

    #[test]
    fn spellings_share_a_cache_key() {
        let catalog = hot_catalog(1);
        let mut keys = std::collections::BTreeSet::new();
        for body in &catalog {
            let key = match body.path {
                "/v1/solve" => {
                    SolveScenario::from_body(body.json.as_bytes()).map(|s| s.cache_key().to_owned())
                }
                _ => SimulateScenario::from_body(body.json.as_bytes(), 2_000_000)
                    .map(|s| s.cache_key().to_owned()),
            };
            keys.insert(key.expect("parses"));
        }
        assert_eq!(catalog.len(), 272);
        assert_eq!(keys.len(), 80 + 16);
    }

    #[test]
    fn class_shares_do_not_depend_on_the_seed() {
        let class = |b: &Body| match b.path {
            "/v1/simulate" => 3,
            _ if b.json.contains("clustering") => 2,
            _ if b.json.contains("myopic")
                || b.json.contains("periodic")
                || b.json.contains("aggressive") =>
            {
                1
            }
            _ => 0,
        };
        let pattern = |s| -> Vec<u8> { hot_catalog(s).iter().map(class).collect() };
        assert_eq!(pattern(1), pattern(2));
    }
}
