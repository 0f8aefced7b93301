//! sim_study and fleet_solve: public library calls timed from outside, and
//! the solve-fleet pass that serve_churn also builds its store with.

use std::error::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use evcap_core::SlotAssignment;
use evcap_energy::Energy;
use evcap_obs::timing;
use evcap_obs::{ObsConfig, ObsSuite};
use evcap_sim::{ReplicationBatch, SimReport, Simulation};
use evcap_spec::{PolicyParams, PolicySpec, Scenario, SolveError, SolvedPolicy};
use evcap_store::Store;

use crate::gen::{self, Matrix, Study, StudyKind};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{self, mean, ratio};
use crate::{set_up_repeatedly, Env, THREADS};

type Res<T> = Result<T, Box<dyn Error>>;

/// What one solve of a fleet pass cost.
#[derive(Debug, Clone)]
pub struct SolveRec {
    pub family: &'static str,
    pub solve_s: f64,
    pub append_s: f64,
    /// A warm-start hint was passed (clustering only).
    pub warm: bool,
    /// `SolveMeta::iterations`: candidates evaluated, for clustering.
    pub iterations: u64,
}

/// Everything the fleet passes of one phase did.
#[derive(Debug, Default)]
pub struct FleetLog {
    pub solves: Vec<SolveRec>,
    /// Wall time of the parallel solve sections and the append sections.
    pub solve_wall_s: f64,
    pub append_wall_s: f64,
    pub failed: u64,
    /// Store directories written, with how many records each received.
    pub stores: Vec<(PathBuf, u64)>,
}

type Hint = Option<(usize, usize, usize)>;

/// One `evcap solve-fleet` pass through public calls: `Store::warm_hint`
/// for each `(dist, policy)` group's first scenario, `solve_with_hint`
/// chained up each group in ascending e on [`THREADS`] threads, then
/// `Store::append` of every result on this thread, in group order.
/// Returns the artifacts that were appended.
pub fn solve_pass(
    store: &mut Store,
    matrix: &Matrix,
    es: &[f64],
    log: &mut FleetLog,
) -> Vec<SolvedPolicy> {
    let mut jobs: Vec<(Vec<Scenario>, Hint)> = matrix
        .groups(es)
        .into_iter()
        .map(|group| {
            let scenarios: Vec<Scenario> = group.into_iter().map(|c| matrix.scenario(c)).collect();
            let hint = store.warm_hint(&scenarios[0]);
            (scenarios, hint)
        })
        .collect();
    // Longest groups first, so the two threads finish together and a
    // pass's time does not hinge on which thread drew the last chain.
    jobs.sort_by_key(|(scenarios, _)| match scenarios[0].policy() {
        PolicySpec::Clustering => 0,
        PolicySpec::Myopic => 1,
        _ => 2,
    });
    type Solved = (Result<SolvedPolicy, SolveError>, f64, bool);
    let results: Vec<Mutex<Vec<Solved>>> = jobs.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some((scenarios, first_hint)) = jobs.get(j) else {
                    break;
                };
                let mut hint = *first_hint;
                let mut out = Vec::with_capacity(scenarios.len());
                for scenario in scenarios {
                    let warm = hint.is_some() && scenario.policy() == PolicySpec::Clustering;
                    let t = Instant::now();
                    let solved = evcap_spec::solve_with_hint(scenario, hint);
                    let dt = t.elapsed().as_secs_f64();
                    if let Ok(s) = &solved {
                        if let PolicyParams::Clustering { n1, n2, n3, .. } = &s.params {
                            hint = Some((*n1, *n2, *n3));
                        }
                    }
                    out.push((solved, dt, warm));
                }
                *results[j].lock().expect("no solver thread panicked") = out;
            });
        }
    });
    log.solve_wall_s += started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut appended = Vec::new();
    for slot in results {
        for (solved, solve_s, warm) in slot.into_inner().expect("no solver thread panicked") {
            let Ok(solved) = solved else {
                log.failed += 1;
                continue;
            };
            let t = Instant::now();
            let ok = store.append(&solved).is_ok();
            let append_s = t.elapsed().as_secs_f64();
            if !ok {
                log.failed += 1;
                continue;
            }
            log.solves.push(SolveRec {
                family: solved.scenario.policy().name(),
                solve_s,
                append_s,
                warm,
                iterations: solved.meta.iterations,
            });
            appended.push(solved);
        }
    }
    log.append_wall_s += started.elapsed().as_secs_f64();
    appended
}

/// Times `evcap_spec::parse_dist` on each spec, in µs per call.
pub fn time_parse_dist(specs: &[String]) -> f64 {
    const REPS: usize = 20;
    let t = Instant::now();
    for _ in 0..REPS {
        for spec in specs {
            std::hint::black_box(
                evcap_spec::parse_dist(std::hint::black_box(spec), evcap_spec::DEFAULT_HORIZON)
                    .expect("generated spec parses"),
            );
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (REPS * specs.len()) as f64
}

/// Checks every store a phase wrote: `Store::verify` is clean, it holds as
/// many records as were appended, and every record loads and passes
/// `evcap_audit::certify`. Returns the number of failed checks.
pub fn check_stores(stores: &[(PathBuf, u64)]) -> u64 {
    let mut failed = 0;
    for (dir, appended) in stores {
        let Ok(mut store) = Store::open(dir) else {
            failed += 1;
            continue;
        };
        if !store.verify().is_ok_and(|r| r.is_clean()) {
            failed += 1;
        }
        if store.len() as u64 != *appended {
            failed += 1;
        }
        let keys: Vec<String> = store.keys().map(str::to_owned).collect();
        for key in keys {
            let certified = store
                .load(&key)
                .is_ok_and(|solved| evcap_audit::certify(&solved.scenario, &solved).is_ok());
            failed += u64::from(!certified);
        }
    }
    failed
}

/// The registry's spans and counters, by name.
struct Registry {
    spans: Vec<(&'static str, timing::SpanStats)>,
    counters: Vec<(&'static str, u64)>,
}

impl Registry {
    fn drain() -> Self {
        Registry {
            spans: timing::drain_spans(),
            counters: timing::drain_counters(),
        }
    }

    /// `(count, total seconds)` of a span.
    fn span(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or((0.0, 0.0), |(_, s)| {
                (s.count as f64, s.total_ns as f64 / 1e9)
            })
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// Per-scenario latencies (solve plus append), in ms.
fn scenario_latencies_ms(log: &FleetLog) -> Vec<f64> {
    let mut lat: Vec<f64> = log
        .solves
        .iter()
        .map(|r| (r.solve_s + r.append_s) * 1e3)
        .collect();
    lat.extend((0..log.failed).map(|_| f64::INFINITY));
    stats::sort(&mut lat);
    lat
}

/// fleet_solve: scenario matrices solved into fresh stores, each in two
/// solve-fleet passes — the even e values, then the odd ones, whose
/// clustering groups take their first hint from the store.
pub fn fleet_solve(env: &Env) -> Res<Outcome> {
    let mut first_store = None;
    let setups = set_up_repeatedly(env, |rep| -> Res<f64> {
        let t = Instant::now();
        let dir = env.work.join(format!("fleet-setup-{rep}"));
        let store = Store::open(&dir)?;
        // Warm-up: one cold solve per family, so lazy initialisation and
        // page faults are paid before timing.
        let matrix = gen::fleet_matrix(env.seed, 0);
        for group in matrix.groups(&matrix.e_grid[..1]).iter().take(3) {
            evcap_spec::solve(&matrix.scenario(group[0]))?;
        }
        first_store = Some((dir, store));
        Ok(t.elapsed().as_secs_f64())
    })?;
    let first_store = first_store.expect("at least one setup");

    let (untraced, matrix_rates) = fleet_phase(env, "u", env.seconds, Some(first_store))?;
    let mut out = Outcome::default();
    let scenarios = untraced.solves.len() as f64;
    let wall = untraced.solve_wall_s + untraced.append_wall_s;
    out.note("scenarios_per_s", scenarios / wall);
    out.note("scenarios", untraced.solves.len());
    out.note("matrices", untraced.stores.len());

    let mut failed = untraced.failed;
    let mut attempted = untraced.solves.len() as u64 + untraced.failed;
    if env.trace {
        timing::reset();
        timing::set_enabled(true);
        let (traced, _) = fleet_phase(env, "t", env.seconds / 2.0, None)?;
        timing::set_enabled(false);
        let reg = Registry::drain();
        failed += traced.failed + check_stores(&traced.stores);
        attempted += traced.solves.len() as u64 + traced.failed;
        let traced_rate = traced.solves.len() as f64 / (traced.solve_wall_s + traced.append_wall_s);
        fleet_layers(&mut out, &traced, &reg);
        let specs: Vec<String> = gen::fleet_matrix(env.seed, 0)
            .dists
            .iter()
            .map(|d| d.spec(0))
            .collect();
        out.set("dist.parse_us", time_parse_dist(&specs));
        out.set("obs.trace_overhead", 1.0 - traced_rate / (scenarios / wall));
    } else {
        let lat = scenario_latencies_ms(&untraced);
        out.set("setup_s", stats::median(&setups));
        // Matrices have a fixed composition, so the median matrix is the
        // run's typical speed, untouched by a burst of outside load.
        out.set("req_per_s", stats::median(&matrix_rates));
        out.set("latency_p50_ms", stats::percentile(&lat, 0.5));
        out.set("latency_p90_ms", stats::percentile(&lat, 0.9));
        out.set("peak_rss_mb", crate::child::peak_rss_mb("self")?);
        out.note("latency_samples", lat.len());
        out.note(
            "setup_samples_s",
            crate::report::Json(format!("{setups:?}")),
        );
    }
    failed += check_stores(&untraced.stores);
    out.attempted = attempted;
    out.failed = failed;
    out.note("failed_ratio", ratio(failed as f64, attempted as f64));
    Ok(out)
}

/// Solves matrices until `seconds` have passed (checked between
/// matrices). Returns the log and each matrix's scenarios per second.
fn fleet_phase(
    env: &Env,
    label: &str,
    seconds: f64,
    mut first: Option<(PathBuf, Store)>,
) -> Res<(FleetLog, Vec<f64>)> {
    let mut log = FleetLog::default();
    let mut rates = Vec::new();
    let started = Instant::now();
    for index in 0u64.. {
        let matrix = gen::fleet_matrix(env.seed, index);
        let (dir, mut store) = match first.take() {
            Some(s) => s,
            None => {
                let dir = env.work.join(format!("fleet-{label}-{index}"));
                let store = Store::open(&dir)?;
                (dir, store)
            }
        };
        let t = Instant::now();
        let before = log.solves.len();
        let even: Vec<f64> = matrix.e_grid.iter().copied().step_by(2).collect();
        let odd: Vec<f64> = matrix.e_grid.iter().copied().skip(1).step_by(2).collect();
        solve_pass(&mut store, &matrix, &even, &mut log);
        solve_pass(&mut store, &matrix, &odd, &mut log);
        let solved = log.solves.len() - before;
        rates.push(solved as f64 / t.elapsed().as_secs_f64());
        log.stores.push((dir, solved as u64));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((log, rates))
}

/// fleet_solve's per-layer metrics, from its traced phase.
fn fleet_layers(out: &mut Outcome, log: &FleetLog, reg: &Registry) {
    for (family, metric) in [
        ("greedy", "spec.solve_ms.greedy"),
        ("clustering", "spec.solve_ms.clustering"),
        ("myopic", "spec.solve_ms.myopic"),
    ] {
        let ms: Vec<f64> = log
            .solves
            .iter()
            .filter(|r| r.family == family)
            .map(|r| r.solve_s * 1e3)
            .collect();
        out.set(metric, mean(&ms));
    }
    let append_ms: Vec<f64> = log.solves.iter().map(|r| r.append_s * 1e3).collect();
    out.set("store.append_ms", mean(&append_ms));

    let clustering: Vec<&SolveRec> = log
        .solves
        .iter()
        .filter(|r| r.family == "clustering")
        .collect();
    let candidates = |warm: bool| -> Vec<f64> {
        clustering
            .iter()
            .filter(|r| r.warm == warm)
            .map(|r| r.iterations as f64)
            .collect()
    };
    let all: Vec<f64> = clustering.iter().map(|r| r.iterations as f64).collect();
    out.set("core.clustering.candidates", mean(&all));
    out.set("core.clustering.candidates_cold", mean(&candidates(false)));
    out.set("core.clustering.candidates_warm", mean(&candidates(true)));
    let (searches, search_s) = reg.span("clustering.search");
    out.set("core.clustering.search_ms", ratio(search_s * 1e3, searches));
    out.set(
        "core.clustering.us_per_candidate",
        ratio(search_s * 1e6, reg.counter("clustering.candidates")),
    );
    let warm_solves = clustering.iter().filter(|r| r.warm).count() as f64;
    out.set(
        "core.clustering.warm_hit_ratio",
        ratio(reg.counter("clustering.warm_hits"), warm_solves),
    );
    let (tables, table_s) = reg.span("spec.table");
    out.set("spec.table_us", ratio(table_s * 1e6, tables));
    // Share of the driving threads' time inside the program's outermost
    // spans: THREADS solver threads during solves, one during appends.
    let (_, solve_s) = reg.span("spec.solve");
    let (_, append_s) = reg.span("store.append");
    out.set(
        "obs.coverage",
        ratio(
            solve_s + append_s,
            log.solve_wall_s * THREADS as f64 + log.append_wall_s,
        ),
    );
}

/// What a sim_study phase ran.
#[derive(Default)]
struct StudyLog {
    lat_ms: Vec<f64>,
    /// Studies per second of each complete round.
    round_rates: Vec<f64>,
    slots: u64,
    wall_s: f64,
    failed: u64,
    batches: u64,
    /// Reports to re-derive after the run: the policy index, the study,
    /// the seed to re-run and the report it must reproduce.
    checks: Vec<(usize, Study, u64, SimReport)>,
}

/// sim_study: rounds of 10^6-slot studies over policies solved in setup.
pub fn sim_study(env: &Env) -> Res<Outcome> {
    let mut policies = Vec::new();
    let setups = set_up_repeatedly(env, |_| -> Res<f64> {
        let t = Instant::now();
        policies = gen::sim_policies(env.seed)
            .iter()
            .map(evcap_spec::solve)
            .collect::<Result<Vec<_>, _>>()?;
        // Warm-up: a short run of every policy.
        for p in &policies {
            let sim = builder(p, 20_000, 1, false);
            sim.run(p.policy.as_ref(), &mut |_| recharge(p.scenario.recharge()))?;
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    let untraced = study_phase(env, &policies, "u", env.seconds, false);
    let untraced_rate = untraced.slots as f64 / untraced.wall_s;
    let mut out = Outcome::default();
    out.note("slots_per_s", untraced_rate);
    out.note("studies", untraced.lat_ms.len());
    let mut failed = untraced.failed;
    let mut attempted = untraced.lat_ms.len() as u64;
    let mut checks = untraced.checks;
    if env.trace {
        timing::reset();
        timing::set_enabled(true);
        let traced = study_phase(env, &policies, "t", env.seconds / 2.0, true);
        timing::set_enabled(false);
        let reg = Registry::drain();
        failed += traced.failed;
        attempted += traced.lat_ms.len() as u64;
        let (_, run_s) = reg.span("sim.run");
        let (_, batch_wall_s) = reg.span("sim.batch");
        let (_, chunk_s) = reg.span("sim.batch.run");
        out.set(
            "sim.slots_per_cpu_s",
            ratio(reg.counter("sim.slots"), run_s + chunk_s),
        );
        for (phase, metric) in [
            ("sim.batch.phase.generate", "sim.phase.generate_ms"),
            ("sim.batch.phase.recharge", "sim.phase.recharge_ms"),
            ("sim.batch.phase.decide", "sim.phase.decide_ms"),
            ("sim.batch.phase.events", "sim.phase.events_ms"),
        ] {
            let (_, s) = reg.span(phase);
            out.set(metric, ratio(s * 1e3, traced.batches as f64));
        }
        out.set(
            "sim.parallel_efficiency",
            ratio(chunk_s, batch_wall_s * THREADS as f64),
        );
        out.set("obs.coverage", ratio(run_s + batch_wall_s, traced.wall_s));
        out.set(
            "obs.trace_overhead",
            1.0 - (traced.slots as f64 / traced.wall_s) / untraced_rate,
        );
        checks.extend(traced.checks);
    } else {
        let mut lat = untraced.lat_ms.clone();
        stats::sort(&mut lat);
        out.set("setup_s", stats::median(&setups));
        // Rounds have a fixed composition, so the median round is the
        // run's typical speed, untouched by a burst of outside load.
        out.set("req_per_s", stats::median(&untraced.round_rates));
        out.note("rounds", untraced.round_rates.len());
        out.set("latency_p50_ms", stats::percentile(&lat, 0.5));
        out.set("latency_p90_ms", stats::percentile(&lat, 0.9));
        out.set("peak_rss_mb", crate::child::peak_rss_mb("self")?);
        out.note("latency_samples", lat.len());
        out.note(
            "setup_samples_s",
            crate::report::Json(format!("{setups:?}")),
        );
    }
    // Each batch's sampled seed and each observed run must reproduce
    // through a plain `Simulation::run`.
    for (pi, study, seed, expected) in &checks {
        let p = &policies[*pi];
        let spec = study.recharge.as_deref().unwrap_or(p.scenario.recharge());
        let again = builder(p, gen::STUDY_SLOTS, *seed, study.kind == StudyKind::Fleet)
            .run(p.policy.as_ref(), &mut |_| recharge(spec));
        failed += u64::from(again.as_ref().ok() != Some(expected));
    }
    out.note("reproduced_reports", checks.len());
    out.attempted = attempted;
    out.failed = failed;
    out.note("failed_ratio", ratio(failed as f64, attempted as f64));
    Ok(out)
}

fn builder(p: &SolvedPolicy, slots: u64, seed: u64, rotating: bool) -> Simulation<'_> {
    let sim = Simulation::builder(&p.pmf)
        .slots(slots)
        .seed(seed)
        .sensors(p.scenario.sensors())
        .consumption(p.consumption)
        .battery(Energy::from_units(p.scenario.battery()));
    if rotating {
        sim.assignment(SlotAssignment::RoundRobin)
    } else {
        sim.independent()
    }
}

fn recharge(spec: &str) -> Box<dyn evcap_energy::RechargeProcess> {
    evcap_spec::parse_recharge(spec).expect("generated recharge spec parses")
}

/// Runs rounds of studies until `seconds` have passed (checked between
/// studies).
fn study_phase(
    env: &Env,
    policies: &[SolvedPolicy],
    label: &str,
    seconds: f64,
    phased: bool,
) -> StudyLog {
    let mut rng = Rng::derive(env.seed, &format!("sim_study.{label}"));
    let e = policies[0].scenario.e();
    let mut log = StudyLog::default();
    let started = Instant::now();
    'rounds: loop {
        let round_started = Instant::now();
        let round = gen::study_round(&mut rng, e);
        let studies = round.len() as f64;
        for study in round {
            if started.elapsed().as_secs_f64() >= seconds {
                break 'rounds;
            }
            let p = &policies[study.policy];
            let spec = study.recharge.as_deref().unwrap_or(p.scenario.recharge());
            let fleet = study.kind == StudyKind::Fleet;
            let sim = builder(p, gen::STUDY_SLOTS, study.seed, fleet);
            let t = Instant::now();
            let result = match study.kind {
                StudyKind::Single | StudyKind::Fleet => sim
                    .run(p.policy.as_ref(), &mut |_| recharge(spec))
                    .map(|r| (r.slots, None)),
                StudyKind::Observed => {
                    let mut suite = ObsSuite::new(ObsConfig {
                        qom_window: gen::STUDY_SLOTS / 100,
                        ..ObsConfig::default()
                    });
                    sim.run_observed(p.policy.as_ref(), &mut |_| recharge(spec), &mut suite)
                        .map(|r| (r.slots, Some((study.seed, r))))
                }
                StudyKind::Batch => ReplicationBatch::new(sim, gen::BATCH_REPS)
                    .map(|b| {
                        b.precompiled(p.table.clone())
                            .threads(THREADS)
                            .phase_timing(phased)
                    })
                    .and_then(|b| {
                        let seeds = b.seeds();
                        b.run(p.policy.as_ref(), &|_| recharge(spec)).map(|r| {
                            let i = (study.seed % seeds.len() as u64) as usize;
                            (
                                r.slots * r.replications() as u64,
                                Some((seeds[i], r.reports[i].clone())),
                            )
                        })
                    }),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok((slots, check)) => {
                    log.lat_ms.push(ms);
                    log.slots += slots;
                    log.batches += u64::from(study.kind == StudyKind::Batch);
                    if let Some((seed, report)) = check {
                        log.checks.push((study.policy, study.clone(), seed, report));
                    }
                }
                Err(_) => {
                    log.lat_ms.push(f64::INFINITY);
                    log.failed += 1;
                }
            }
        }
        log.round_rates
            .push(studies / round_started.elapsed().as_secs_f64());
    }
    log.wall_s = started.elapsed().as_secs_f64();
    log
}
