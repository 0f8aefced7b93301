//! CLI subcommand implementations.

use std::error::Error;

use evcap_bench::{runners, Scale};
use evcap_core::{ActivationPolicy, EnergyBudget, PolicyTable, SlotAssignment};
use evcap_energy::Energy;
use evcap_sim::{
    recommend_capacity, run_adaptive_greedy, AdaptiveConfig, ReplicationBatch, Simulation,
    SizingOptions,
};

use crate::args::{Args, ArgsError};
use crate::spec;

/// Top-level usage text.
pub const USAGE: &str = "\
evcap — dynamic activation policies for event capture with rechargeable sensors

USAGE:
  evcap <command> [--flags]

COMMANDS:
  hazards    print the slotted pmf/hazard table of a distribution
             --dist SPEC [--max-state N] [--horizon H]
  optimize   compute a policy and report its analytic performance
             --dist SPEC --e RATE
             [--policy greedy|clustering|aggressive|periodic|myopic]
             [--objective qom|aoi-mean|aoi-peak]
             [--theta1 N] [--delta1 X] [--delta2 Y] [--horizon H]
  audit      solve a scenario and certify the artifact against the paper's
             analytic invariants (exit 1 on violation)
             --dist SPEC --e RATE
             [--policy greedy|clustering|aggressive|periodic|myopic]
             [--objective qom|aoi-mean|aoi-peak]
             [--theta1 N] [--delta1 X] [--delta2 Y] [--horizon H]
             [--sensors N] [--format text|json]
  simulate   run a policy against a finite-battery simulation
             --dist SPEC --policy greedy|clustering|aggressive|periodic|myopic
             [--e RATE] [--recharge SPEC] [--slots N] [--seed S] [--k CAP]
             [--sensors N] [--coordination rotating|independent] [--horizon H]
             [--objective qom|aoi-mean|aoi-peak] report capture-age metrics
             [--replications R] [--format text|json]
             [--obs-out FILE.jsonl] [--obs-window N]
  provision  find the smallest battery that reaches a target QoM
             --dist SPEC --target QOM
             [--policy greedy|clustering|aggressive|periodic|myopic]
             [--e RATE] [--recharge SPEC] [--slots N] [--max-k CAP]
  adaptive   learn the event process online and re-optimize per episode
             --dist SPEC --e RATE [--episodes N] [--episode-slots N]
  figure     regenerate a paper figure (fig3a fig3b fig4a fig4b fig5a fig5b
             fig6a fig6b) or ablation (regions load-balance refined
             coordination outage objectives)   [--quick true] [--svg out.svg]
  trace      summarize an observability JSONL file written by --obs-out,
             EVCAP_PERF_LOG, or serve --access-log
             FILE.jsonl [--kind all|counters|qom|battery|gaps|idle|spans|perf]
             [--tree] render per-request span trees from trace_span records
             [--trace-id ID] narrow --tree to one request
  bench-sim  measure engine throughput: single run, sequential replication
             loop, and batched replications at several thread counts
             [--dist SPEC] [--slots N] [--replications R]
             [--threads-list 1,4,8] [--seed S] [--k CAP] [--out FILE.json]
  solve-fleet
             batch-solve a scenario matrix into a persistent artifact store;
             each (dist, policy) group runs in ascending-e order
             --store DIR --dists \"SPEC;SPEC;...\" --e-list R1,R2,...
             [--policies greedy,clustering,...] [--theta1 N] [--delta1 X]
             [--delta2 Y] [--horizon H] [--sensors N] [--threads N]
             [--objective qom|aoi-mean|aoi-peak]
             [--force true]  re-solve scenarios already stored
  store      inspect or maintain a persistent artifact store
             <ls|stat|verify|compact> --store DIR
  serve      run the policy server (POST /v1/solve, POST /v1/simulate,
             GET /healthz, GET /metrics, GET /debug/recent) until
             SIGINT/SIGTERM
             [--addr HOST:PORT] [--threads N] [--cache-cap N] [--shards N]
             [--read-timeout-ms MS] [--coalesce-timeout-ms MS]
             [--max-slots N] [--access-log FILE.jsonl]
             [--validate true]  audit artifacts before caching (500 on
             violation)
             [--trace false]  disable per-request span collection
             [--recent N]  flight-recorder capacity (default 64)
             [--slow-ms MS]  dump span trees of slow requests (0 = off)
             [--store DIR]  persistent artifact tier between the in-memory
             cache and a fresh solve (loads are certified before reuse)
  loadgen    benchmark a running server over keep-alive connections
             --addr HOST:PORT [--concurrency N] [--requests N]
             [--path /v1/solve] [--body JSON] [--timeout-ms MS]
             [--hist-out FILE.jsonl]  dump the latency histogram
  help       show this message

GLOBAL FLAGS:
  --verbose  extra diagnostic notes and timing detail on stderr
  --quiet    suppress informational extras (summary tables, notes)

SPECS:
  distributions: weibull:40,3  pareto:2,10  exp:0.05  erlang:4,0.2
                 uniform:10,30  det:7  hyperexp:0.4,0.5,0.05  markov:0.7,0.8
  recharge:      bernoulli:0.5,1  periodic:5,10  constant:0.5  uniformrand:0,1
";

type CmdResult = Result<(), Box<dyn Error>>;

fn costs_from(args: &Args) -> Result<(f64, f64), Box<dyn Error>> {
    let d1: f64 = args.get_or("delta1", 1.0, "an energy amount")?;
    let d2: f64 = args.get_or("delta2", 6.0, "an energy amount")?;
    Ok((d1, d2))
}

/// Parses `--policy` (and `--theta1` for the periodic family) into the
/// shared [`spec::PolicySpec`] — the single front door to policy
/// construction; the actual solve happens in `evcap_spec::solve`.
fn policy_from(args: &Args, default: &str) -> Result<spec::PolicySpec, Box<dyn Error>> {
    let mut policy = spec::PolicySpec::parse(args.get("policy").unwrap_or(default))?;
    if let spec::PolicySpec::Periodic { theta1 } = &mut policy {
        *theta1 = args.get_or("theta1", 3, "a slot count")?;
    }
    Ok(policy)
}

/// Parses `--objective` (absent means QoM, the paper's capture objective).
fn objective_from(args: &Args) -> Result<spec::Objective, Box<dyn Error>> {
    match args.get("objective") {
        None => Ok(spec::Objective::Qom),
        Some(raw) => Ok(spec::parse_objective(raw)?),
    }
}

/// Prints the per-family analytic summary shared by `optimize`.
fn print_solved(solved: &spec::SolvedPolicy) {
    println!("policy       : {}", solved.meta.label);
    if let Some(qom) = solved.meta.objective {
        println!("ideal QoM    : {qom:.4}");
    }
    if !solved.scenario.objective().is_default() {
        if let Some(value) = solved.meta.objective_value {
            println!(
                "objective    : {} = {value:.4} slots",
                solved.scenario.objective()
            );
        }
    }
    if let Some(rate) = solved.meta.discharge_rate {
        println!("discharge    : {rate:.4} units/slot");
    }
    match solved.scenario.policy() {
        spec::PolicySpec::Greedy => {
            let first = (1..=solved.pmf.horizon()).find(|&i| solved.probability(i) > 0.0);
            if let Some(first) = first {
                println!(
                    "structure    : first active state {first} (c = {:.4})",
                    solved.probability(first)
                );
            }
        }
        spec::PolicySpec::Clustering => {
            if let Some(cycle) = solved.meta.expected_cycle {
                println!("capture cycle: {cycle:.2} slots");
            }
        }
        _ => {}
    }
}

/// `evcap hazards`
pub fn hazards(args: &Args) -> CmdResult {
    args.expect_only(&["dist", "max-state", "horizon"])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let pmf = spec::parse_dist(args.require("dist")?, horizon)?;
    let default_max = pmf.horizon().min(64);
    let max_state: usize = args.get_or("max-state", default_max, "a state count")?;
    println!("distribution : {}", pmf.label());
    println!("mean gap μ   : {:.4} slots", pmf.mean());
    println!(
        "horizon      : {} explicit slots (tail mass {:.3e}, tail hazard {:.4})",
        pmf.horizon(),
        pmf.tail_mass(),
        pmf.tail_hazard()
    );
    println!();
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "slot", "alpha_i", "F(i)", "beta_i"
    );
    for i in 1..=max_state {
        println!(
            "{i:>6} {:>12.6} {:>12.6} {:>12.6}",
            pmf.pmf(i),
            pmf.cdf(i),
            pmf.hazard(i)
        );
    }
    Ok(())
}

/// `evcap optimize`
pub fn optimize(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist",
        "e",
        "policy",
        "theta1",
        "delta1",
        "delta2",
        "horizon",
        "objective",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let dist = args.require("dist")?;
    let raw_e = args.require("e")?;
    let e: f64 = raw_e.parse().map_err(|_| ArgsError::Invalid {
        flag: "e".into(),
        value: raw_e.into(),
        expected: "a recharge rate",
    })?;
    let (delta1, delta2) = costs_from(args)?;
    let scenario = spec::Scenario::new(dist, policy_from(args, "greedy")?, e)?
        .with_costs(delta1, delta2)
        .with_horizon(horizon)
        .with_objective(objective_from(args)?);
    let solved = spec::solve(&scenario)?;
    println!(
        "distribution : {} (μ = {:.3})",
        solved.pmf.label(),
        solved.pmf.mean()
    );
    println!(
        "budget       : e = {e} units/slot ({:.3} per renewal)",
        e * solved.pmf.mean()
    );
    print_solved(&solved);
    Ok(())
}

/// `evcap audit`
pub fn audit(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist",
        "e",
        "policy",
        "theta1",
        "delta1",
        "delta2",
        "horizon",
        "sensors",
        "format",
        "objective",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let sensors: usize = args.get_or("sensors", 1, "a sensor count")?;
    let dist = args.require("dist")?;
    let raw_e = args.require("e")?;
    let e: f64 = raw_e.parse().map_err(|_| ArgsError::Invalid {
        flag: "e".into(),
        value: raw_e.into(),
        expected: "a recharge rate",
    })?;
    let format = args.get("format").unwrap_or("text");
    let (delta1, delta2) = costs_from(args)?;
    let scenario = spec::Scenario::new(dist, policy_from(args, "greedy")?, e)?
        .with_costs(delta1, delta2)
        .with_horizon(horizon)
        .with_sensors(sensors)
        .with_objective(objective_from(args)?);
    let solved = spec::solve(&scenario)?;
    let report = evcap_audit::audit(&scenario, &solved);
    match format {
        "json" => println!("{}", report.to_json()),
        "text" => println!("{report}"),
        other => {
            return Err(ArgsError::Invalid {
                flag: "format".into(),
                value: other.into(),
                expected: "text or json",
            }
            .into())
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        let named: Vec<&str> = report.violations().map(|c| c.invariant).collect();
        Err(format!("audit rejected the artifact ({})", named.join(", ")).into())
    }
}

/// `evcap simulate`
pub fn simulate(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist",
        "policy",
        "e",
        "recharge",
        "slots",
        "seed",
        "k",
        "sensors",
        "coordination",
        "delta1",
        "delta2",
        "horizon",
        "theta1",
        "replications",
        "format",
        "obs-out",
        "obs-window",
        "objective",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let dist = args.require("dist")?;
    let slots: u64 = args.get_or("slots", 1_000_000, "a slot count")?;
    let seed: u64 = args.get_or("seed", 2012, "an integer")?;
    let k: f64 = args.get_or("k", 1000.0, "a battery capacity")?;
    let sensors: usize = args.get_or("sensors", 1, "a sensor count")?;
    let replications: usize = args.get_or("replications", 1, "a replication count")?;
    if replications == 0 {
        return Err(ArgsError::Invalid {
            flag: "replications".into(),
            value: "0".into(),
            expected: "a replication count of at least 1",
        }
        .into());
    }
    let (delta1, delta2) = costs_from(args)?;
    let verbosity = args.verbosity();

    // Observability: --obs-out streams JSONL records; timing spans are
    // collected whenever records will be exported (or shown via --verbose).
    let obs_out = args.get("obs-out");
    let obs_window: u64 = args.get_or("obs-window", 0, "a window length in slots")?;
    if obs_out.is_some() || verbosity == crate::args::Verbosity::Verbose {
        evcap_obs::timing::set_enabled(true);
        evcap_obs::timing::reset();
    }

    // Recharge: explicit spec, or Bernoulli(0.5, 2e) derived from --e.
    let recharge_spec = match (args.get("recharge"), args.get("e")) {
        (Some(spec), _) => spec.to_owned(),
        (None, Some(e)) => {
            let e: f64 = e.parse().map_err(|_| ArgsError::Invalid {
                flag: "e".into(),
                value: e.into(),
                expected: "a recharge rate",
            })?;
            format!("bernoulli:0.5,{}", 2.0 * e)
        }
        (None, None) => return Err("pass --e RATE or --recharge SPEC".into()),
    };
    let probe = spec::parse_recharge(&recharge_spec)?;
    let e = match args.get("e") {
        Some(raw) => raw.parse().map_err(|_| ArgsError::Invalid {
            flag: "e".into(),
            value: raw.into(),
            expected: "a recharge rate",
        })?,
        None => probe.mean_rate(),
    };
    // Coordinated fleets pool energy: the scenario carries the per-sensor
    // rate and sensor count, so `evcap_spec::solve` optimizes at N·e.
    args.require("policy")?;
    let objective = objective_from(args)?;
    let scenario = spec::Scenario::new(dist, policy_from(args, "greedy")?, e)?
        .with_recharge(&recharge_spec)?
        .with_costs(delta1, delta2)
        .with_battery(k)
        .with_horizon(horizon)
        .with_sensors(sensors)
        .with_objective(objective);
    let solved = spec::solve(&scenario)?;
    let policy: &(dyn ActivationPolicy + Sync) = solved.policy.as_ref();
    let pmf = &solved.pmf;

    let mut builder = Simulation::builder(pmf)
        .slots(slots)
        .seed(seed)
        .sensors(sensors)
        .consumption(solved.consumption)
        .battery(Energy::from_units(k));
    match args.get("coordination").unwrap_or("rotating") {
        "rotating" => builder = builder.assignment(SlotAssignment::RoundRobin),
        "independent" => builder = builder.independent(),
        other => return Err(format!("unknown coordination `{other}`").into()),
    }
    // Replicated mode fans the scenario out over the batch engine; the
    // single-replication path below is untouched, so `--replications 1`
    // (or the flag absent) keeps today's output byte for byte.
    if replications > 1 {
        return simulate_replicated(
            builder,
            policy,
            solved.table.clone(),
            &recharge_spec,
            e,
            SimulateShape {
                slots,
                seed,
                k,
                sensors,
                replications,
                objective,
            },
            args,
        );
    }
    let mut make_recharge =
        |_: usize| spec::parse_recharge(&recharge_spec).expect("validated above");
    // Open the sink before simulating so a bad --obs-out path fails fast
    // instead of after a possibly long run.
    let mut obs_sink = obs_out
        .map(|path| {
            evcap_obs::JsonlSink::create(path)
                .map_err(|e| format!("cannot write --obs-out {path}: {e}"))
        })
        .transpose()?;
    let mut obs_suite = obs_out.map(|_| {
        let window = if obs_window > 0 {
            obs_window
        } else {
            // Default: ~100 windows across the horizon, at least 100 slots.
            (slots / 100).max(100)
        };
        evcap_obs::ObsSuite::new(evcap_obs::ObsConfig {
            qom_window: window,
            ..evcap_obs::ObsConfig::default()
        })
    });
    let report = match obs_suite.as_mut() {
        Some(suite) => builder.run_observed(policy, &mut make_recharge, suite)?,
        None => builder.run(policy, &mut make_recharge)?,
    };

    match args.get("format").unwrap_or("text") {
        "json" => println!("{}", crate::json::sim_report(&report, objective)),
        "text" => {
            println!("policy       : {}", policy.label());
            println!("recharge     : {recharge_spec} (e = {e:.4}/sensor)");
            println!("slots        : {slots}  (seed {seed}, K = {k}, N = {sensors})");
            println!("events       : {}", report.events);
            println!("captured     : {}", report.captures);
            println!("QoM          : {:.4}", report.qom());
            println!("activations  : {}", report.total_activations());
            println!("forced idle  : {}", report.total_forced_idle());
            println!(
                "discharge    : {:.4} units/slot (fleet)",
                report.discharge_rate()
            );
            if sensors > 1 {
                println!("load balance : {:.4}", report.load_balance());
            }
            if !objective.is_default() {
                println!("objective    : {objective}");
                println!("mean age     : {:.1} slots", report.mean_age());
                println!("peak age     : {} slots", report.peak_age);
            }
        }
        other => return Err(format!("unknown format `{other}` (try text, json)").into()),
    }

    if let (Some(path), Some(suite), Some(mut sink)) =
        (obs_out, obs_suite.as_mut(), obs_sink.take())
    {
        suite.seal();
        suite.export(&mut sink)?;
        let records = sink.records();
        sink.finish()?;
        if verbosity != crate::args::Verbosity::Quiet {
            println!();
            print!("{}", suite.summary());
            println!("wrote {records} records to {path}");
        }
    } else if verbosity == crate::args::Verbosity::Verbose {
        // No export requested: surface the collected timing on stderr.
        for (name, stats) in evcap_obs::timing::drain_spans() {
            eprintln!(
                "span {name}: {} calls, total {:.3} ms, mean {:.1} µs",
                stats.count,
                stats.total_ns as f64 / 1e6,
                stats.mean_ns() / 1e3
            );
        }
        for (name, value) in evcap_obs::timing::drain_counters() {
            eprintln!("counter {name}: {value}");
        }
    }
    Ok(())
}

/// The scenario dimensions `simulate_replicated` echoes back to the user.
struct SimulateShape {
    slots: u64,
    seed: u64,
    k: f64,
    sensors: usize,
    replications: usize,
    objective: spec::Objective,
}

/// The `--replications N` (N > 1) arm of `evcap simulate`: batch run,
/// cross-seed summary, optional per-seed JSONL export.
fn simulate_replicated(
    builder: Simulation<'_>,
    policy: &(dyn ActivationPolicy + Sync),
    table: Option<PolicyTable>,
    recharge_spec: &str,
    e: f64,
    shape: SimulateShape,
    args: &Args,
) -> CmdResult {
    let verbosity = args.verbosity();
    let obs_out = args.get("obs-out");
    // Open the sink before simulating so a bad --obs-out path fails fast.
    let obs_sink = obs_out
        .map(|path| {
            evcap_obs::JsonlSink::create(path)
                .map_err(|err| format!("cannot write --obs-out {path}: {err}"))
        })
        .transpose()?;
    let batch = ReplicationBatch::new(builder, shape.replications)?.precompiled(table);
    let seeds = batch.seeds();
    let report = batch.run(policy, &|_| {
        spec::parse_recharge(recharge_spec).expect("validated above")
    })?;

    match args.get("format").unwrap_or("text") {
        "json" => println!("{}", crate::json::batch_report(&report, shape.objective)),
        "text" => {
            let SimulateShape {
                slots,
                seed,
                k,
                sensors,
                replications,
                objective,
            } = shape;
            println!("policy       : {}", policy.label());
            println!("recharge     : {recharge_spec} (e = {e:.4}/sensor)");
            println!(
                "slots        : {slots} × {replications} replications  (base seed {seed}, K = {k}, N = {sensors})"
            );
            println!("events       : {} (pooled)", report.events);
            println!("captured     : {} (pooled)", report.captures);
            println!(
                "QoM          : {:.4} ± {:.4} (95% CI over {} seeds)",
                report.qom.mean,
                report.qom.half_width(1.96),
                report.qom.n
            );
            println!("pooled QoM   : {:.4}", report.pooled_qom());
            println!("activations  : {}", report.activations);
            println!("forced idle  : {}", report.forced_idle);
            println!(
                "discharge    : {:.4} ± {:.4} units/slot (fleet)",
                report.discharge.mean,
                report.discharge.half_width(1.96)
            );
            println!("final fill   : {:.4}", report.mean_final_fill);
            if let Some(gap) = report.mean_capture_gap {
                println!("capture gap  : {gap:.1} slots");
            }
            if !objective.is_default() {
                println!("objective    : {objective}");
                println!(
                    "mean age     : {:.1} ± {:.1} slots",
                    report.mean_age.mean,
                    report.mean_age.half_width(1.96)
                );
                println!("peak age     : {} slots", report.peak_age);
            }
            for (i, rep) in report.reports.iter().enumerate() {
                println!(
                    "  rep {i:>3} seed {:>20} : qom {:.4}  events {:>6}  captures {:>6}",
                    seeds[i],
                    rep.qom(),
                    rep.events,
                    rep.captures
                );
            }
        }
        other => return Err(format!("unknown format `{other}` (try text, json)").into()),
    }

    if let (Some(path), Some(mut sink)) = (obs_out, obs_sink) {
        for (i, rep) in report.reports.iter().enumerate() {
            let mut obj = evcap_obs::JsonObject::with_type("replication");
            obj.field_usize("replication", i)
                .field_u64("seed", seeds[i])
                .field_u64("slots", rep.slots)
                .field_u64("events", rep.events)
                .field_u64("captures", rep.captures)
                .field_f64("qom", rep.qom())
                .field_u64("activations", rep.total_activations())
                .field_u64("forced_idle", rep.total_forced_idle())
                .field_f64("discharge_rate", rep.discharge_rate());
            sink.write(obj)?;
        }
        let mut obj = evcap_obs::JsonObject::with_type("batch");
        let (lo, hi) = report.qom.ci95();
        obj.field_usize("replications", report.replications())
            .field_u64("slots", report.slots)
            .field_f64("qom_mean", report.qom.mean)
            .field_f64("qom_std_dev", report.qom.std_dev)
            .field_f64("qom_ci95_lo", lo)
            .field_f64("qom_ci95_hi", hi)
            .field_f64("pooled_qom", report.pooled_qom())
            .field_u64("events", report.events)
            .field_u64("captures", report.captures);
        sink.write(obj)?;
        let records = sink.records();
        sink.finish()?;
        if verbosity != crate::args::Verbosity::Quiet {
            println!();
            println!("wrote {records} records to {path}");
        }
    } else if verbosity == crate::args::Verbosity::Verbose {
        for (name, stats) in evcap_obs::timing::drain_spans() {
            eprintln!(
                "span {name}: {} calls, total {:.3} ms, mean {:.1} µs",
                stats.count,
                stats.total_ns as f64 / 1e6,
                stats.mean_ns() / 1e3
            );
        }
        for (name, value) in evcap_obs::timing::drain_counters() {
            eprintln!("counter {name}: {value}");
        }
    }
    Ok(())
}

/// `evcap bench-sim`
///
/// Seeds the engine's performance trajectory: measures a single run (the
/// median of five timed runs of one seed, with the fastest and slowest,
/// after at least half a second of untimed runs), a
/// truly sequential replication loop (R `Simulation::run` calls with the
/// batch's strided seeds — each rebuilding its event sampler and policy
/// table, exactly what callers did before the batch engine), and the
/// replication batch at each requested thread count. Every batched run is
/// checked bit-identical per seed against the sequential loop and across
/// thread counts; an extra phase-timing pass times the batch's schedule
/// generation. Results land in a small JSON document (`BENCH_sim.json` by
/// default) that CI archives and gates on.
pub fn bench_sim(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist",
        "slots",
        "replications",
        "threads-list",
        "seed",
        "k",
        "out",
    ])?;
    let dist_spec = args.get("dist").unwrap_or("weibull:40,3");
    let slots: u64 = args.get_or("slots", 1_000_000, "a slot count")?;
    let replications: usize = args.get_or("replications", 16, "a replication count")?;
    let seed: u64 = args.get_or("seed", 2012, "an integer")?;
    let k: f64 = args.get_or("k", 1000.0, "a battery capacity")?;
    let out = args.get("out").unwrap_or("BENCH_sim.json");
    let raw_threads = args.get("threads-list").unwrap_or("1,4,8");
    let mut threads_list: Vec<usize> = Vec::new();
    for part in raw_threads.split(',') {
        match part.trim().parse::<usize>() {
            Ok(t) if t > 0 => threads_list.push(t),
            _ => {
                return Err(ArgsError::Invalid {
                    flag: "threads-list".into(),
                    value: raw_threads.into(),
                    expected: "comma-separated positive thread counts, e.g. 1,4,8",
                }
                .into())
            }
        }
    }

    let scenario = spec::Scenario::new(dist_spec, spec::PolicySpec::Greedy, 0.5)?;
    let solved = spec::solve(&scenario)?;
    let policy = solved.policy.as_ref();
    let recharge_spec = "bernoulli:0.5,1";
    let recharge = |_: usize| spec::parse_recharge(recharge_spec).expect("static spec");
    let sim = Simulation::builder(&solved.pmf)
        .slots(slots)
        .seed(seed)
        .consumption(solved.consumption)
        .battery(Energy::from_units(k));
    let threads_available = std::thread::available_parallelism().map_or(1, |p| p.get());

    let perf = |label: &str, result: Option<evcap_bench::Throughput>| {
        result.ok_or_else(|| format!("{label}: engine reported no timing"))
    };

    // 1. One replication, the classic single-run path. Within one
    //    invocation the host speeds up for a while (five back-to-back runs
    //    once read 59.5 → 97.4 M slots/s), so untimed runs of the seed warm
    //    the kernel for at least `WARM_SECONDS` of wall time first. Then
    //    five timed runs of the same seed (which must agree) give the
    //    median, recorded beside the fastest and slowest.
    const SINGLE_RUNS: usize = 5;
    const WARM_SECONDS: f64 = 0.5;
    let run_single = || {
        sim.clone().run(policy, &mut |_: usize| {
            spec::parse_recharge(recharge_spec).expect("static spec")
        })
    };
    let first = run_single()?;
    let mut warmed = 0.0;
    while warmed < WARM_SECONDS {
        let (res, t) = evcap_bench::perf::measured(run_single);
        if res? != first {
            return Err("single runs of one seed diverged".into());
        }
        warmed += perf("warm-up", t)?.wall_seconds;
    }
    let mut singles = Vec::with_capacity(SINGLE_RUNS);
    for _ in 0..SINGLE_RUNS {
        let (res, t) = evcap_bench::perf::measured(run_single);
        if res? != first {
            return Err("single runs of one seed diverged".into());
        }
        singles.push(perf("single", t)?);
    }
    singles.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    let single_t = singles[SINGLE_RUNS / 2];
    let (fastest, slowest) = (singles[0], singles[SINGLE_RUNS - 1]);

    // 2. The same R replications truly sequentially: R scalar runs with the
    //    batch's strided seeds, each paying the full per-run setup (event
    //    sampler, policy table) a caller-side loop would pay. These reports
    //    double as the per-seed ground truth for the batch.
    let seeds = ReplicationBatch::new(sim.clone(), replications)
        .expect("replications >= 1")
        .seeds();
    let (seq_res, seq_t) = evcap_bench::perf::measured(|| {
        let mut reports = Vec::with_capacity(replications);
        for &s in &seeds {
            reports.push(sim.clone().seed(s).run(policy, &mut |_: usize| {
                spec::parse_recharge(recharge_spec).expect("static spec")
            }));
        }
        reports.into_iter().collect::<Result<Vec<_>, _>>()
    });
    let scalar_reports = seq_res?;
    let seq_t = perf("sequential", seq_t)?;

    // 3. The batch at each requested thread count, checked bit-identical
    //    per seed against the sequential loop and across thread counts.
    let mut deterministic = true;
    let mut batched = Vec::new();
    let mut reference = None;
    for &threads in &threads_list {
        let (res, t) = evcap_bench::perf::measured(|| {
            ReplicationBatch::new(sim.clone(), replications)
                .expect("replications >= 1")
                .precompiled(solved.table.clone())
                .threads(threads)
                .run(policy, &recharge)
        });
        let report = res?;
        deterministic &= report.reports == scalar_reports;
        match &reference {
            Some(first) => deterministic &= report == *first,
            None => reference = Some(report),
        }
        batched.push((threads, perf("batched", t)?));
    }

    // 4. One phase-timing pass (single worker): how much of the batch is
    //    schedule generation?
    evcap_obs::timing::set_enabled(true);
    evcap_obs::timing::reset();
    let phased_res = ReplicationBatch::new(sim.clone(), replications)
        .expect("replications >= 1")
        .precompiled(solved.table.clone())
        .threads(1)
        .phase_timing(true)
        .run(policy, &recharge);
    let phase_spans = evcap_obs::timing::drain_spans();
    evcap_obs::timing::drain_counters();
    evcap_obs::timing::set_enabled(false);
    phased_res?;
    let phase_ms = |name: &str| -> f64 {
        phase_spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.total_ns as f64 / 1e6)
    };
    let gen_ms = phase_ms("sim.batch.phase.generate");

    use evcap_obs::jsonl::num;
    use std::fmt::Write as _;
    let mut doc = String::with_capacity(1024);
    let _ = write!(
        doc,
        "{{\n  \"bench\": \"sim\",\n  \"dist\": \"{dist_spec}\",\n  \"slots\": {slots},\n  \"replications\": {replications},\n  \"seed\": {seed},\n  \"threads_available\": {threads_available},\n  \"deterministic_across_threads\": {deterministic},\n"
    );
    let _ = writeln!(
        doc,
        "  \"phases\": {{\"generate_ms\": {}}},", // deepcheck:allow(json-fmt): pretty-printed multi-line bench report; keys static, values num()-sanitized
        num(gen_ms),
    );
    // Throughput here is slots per *wall* second: the batched runs sum
    // engine time across worker threads, so a CPU-time rate would not move
    // with the thread count at all. The summed engine time is reported
    // under its honest name, `cpu_seconds`.
    let _ = writeln!(
        doc,
        "  \"single\": {{\"wall_seconds\": {}, \"cpu_seconds\": {}, \"slots_per_second\": {}, \"slots_per_second_min\": {}, \"slots_per_second_max\": {}}},", // deepcheck:allow(json-fmt): pretty-printed multi-line bench report; keys static, values num()-sanitized
        num(single_t.wall_seconds),
        num(single_t.cpu_seconds),
        num(single_t.wall_slots_per_second()),
        num(slowest.wall_slots_per_second()),
        num(fastest.wall_slots_per_second()),
    );
    let _ = write!(
        doc,
        "  \"sequential\": {{\"wall_seconds\": {}, \"cpu_seconds\": {}, \"slots_per_second\": {}}},\n  \"batched\": [", // deepcheck:allow(json-fmt): pretty-printed multi-line bench report; keys static, values num()-sanitized
        num(seq_t.wall_seconds),
        num(seq_t.cpu_seconds),
        num(seq_t.wall_slots_per_second()),
    );
    for (i, (threads, t)) in batched.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(
            doc,
            "\n    {{\"threads\": {threads}, \"wall_seconds\": {}, \"cpu_seconds\": {}, \"slots_per_second\": {}, \"speedup_vs_sequential\": {}}}", // deepcheck:allow(json-fmt): pretty-printed multi-line bench report; keys static, values num()-sanitized
            num(t.wall_seconds),
            num(t.cpu_seconds),
            num(t.wall_slots_per_second()),
            num(seq_t.wall_seconds / t.wall_seconds),
        );
    }
    doc.push_str("\n  ]\n}\n");
    std::fs::write(out, &doc).map_err(|err| format!("cannot write {out}: {err}"))?;

    println!(
        "bench-sim    : {dist_spec}, {slots} slots × {replications} replications (seed {seed})"
    );
    println!("threads avail: {threads_available}");
    println!(
        "single run   : {:.2} M slots/s  ({:.3} s wall; runs {:.2}–{:.2} M)",
        single_t.wall_slots_per_second() / 1e6,
        single_t.wall_seconds,
        slowest.wall_slots_per_second() / 1e6,
        fastest.wall_slots_per_second() / 1e6,
    );
    println!(
        "sequential   : {:.3} s wall for {replications} scalar runs",
        seq_t.wall_seconds
    );
    for (threads, t) in &batched {
        println!(
            "batched ×{threads:<4}: {:.3} s wall  (speedup {:.2}x vs sequential)",
            t.wall_seconds,
            seq_t.wall_seconds / t.wall_seconds
        );
    }
    println!("phases (×1)  : generate {gen_ms:.1} ms");
    println!(
        "deterministic: {}",
        if deterministic { "yes" } else { "NO — BUG" }
    );
    if threads_available == 1 {
        println!("note         : only 1 CPU available; parallel speedups are not observable here");
    }
    println!("wrote {out}");
    if !deterministic {
        return Err("batched reports diverged from the scalar runs".into());
    }
    Ok(())
}

/// `evcap provision`
pub fn provision(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist", "target", "policy", "theta1", "e", "recharge", "slots", "max-k", "seed", "horizon",
        "delta1", "delta2",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let dist = args.require("dist")?;
    let raw_target = args.require("target")?;
    let target: f64 = raw_target.parse().map_err(|_| ArgsError::Invalid {
        flag: "target".into(),
        value: raw_target.into(),
        expected: "a QoM in (0, 1]",
    })?;
    let (delta1, delta2) = costs_from(args)?;
    let recharge_spec = match (args.get("recharge"), args.get("e")) {
        (Some(spec), _) => spec.to_owned(),
        (None, Some(e)) => format!("bernoulli:0.5,{}", 2.0 * e.parse::<f64>().unwrap_or(0.5)),
        (None, None) => return Err("pass --e RATE or --recharge SPEC".into()),
    };
    let e = spec::parse_recharge(&recharge_spec)?.mean_rate();
    let scenario = spec::Scenario::new(dist, policy_from(args, "greedy")?, e)?
        .with_recharge(&recharge_spec)?
        .with_costs(delta1, delta2)
        .with_horizon(horizon);
    let solved = spec::solve(&scenario)?;
    let opts = SizingOptions {
        slots: args.get_or("slots", 200_000, "a slot count")?,
        max_capacity: args.get_or("max-k", 4_096.0, "a capacity")?,
        seed: args.get_or("seed", 1, "an integer")?,
        ..SizingOptions::default()
    };
    let rec = recommend_capacity(
        &solved.pmf,
        solved.policy.as_ref(),
        &|_| spec::parse_recharge(&recharge_spec).expect("validated above"),
        target,
        opts,
    )?;
    println!("policy       : {}", solved.meta.label);
    println!("recharge     : {recharge_spec} (e = {e:.4})");
    println!("target QoM   : {target}");
    println!("recommended K: {} energy units", rec.capacity);
    println!(
        "achieved QoM : {:.4} ± {:.4} (95% CI over {} runs)",
        rec.achieved.mean,
        rec.achieved.half_width(1.96),
        rec.achieved.n
    );
    Ok(())
}

/// `evcap adaptive`
pub fn adaptive(args: &Args) -> CmdResult {
    args.expect_only(&[
        "dist",
        "e",
        "episodes",
        "episode-slots",
        "seed",
        "k",
        "horizon",
        "delta1",
        "delta2",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let dist = args.require("dist")?;
    let raw_e = args.require("e")?;
    let e: f64 = raw_e.parse().map_err(|_| ArgsError::Invalid {
        flag: "e".into(),
        value: raw_e.into(),
        expected: "a recharge rate",
    })?;
    let (delta1, delta2) = costs_from(args)?;
    // The oracle row: the same greedy artifact every other layer solves.
    let oracle = spec::solve(
        &spec::Scenario::new(dist, spec::PolicySpec::Greedy, e)?
            .with_costs(delta1, delta2)
            .with_horizon(horizon),
    )?;
    let config = AdaptiveConfig {
        episodes: args.get_or("episodes", 6, "an episode count")?,
        episode_slots: args.get_or("episode-slots", 50_000, "a slot count")?,
        seed: args.get_or("seed", 7, "an integer")?,
        capacity: Energy::from_units(args.get_or("k", 1000.0, "a capacity")?),
        ..AdaptiveConfig::default()
    };
    let report = run_adaptive_greedy(
        &oracle.pmf,
        EnergyBudget::per_slot(e),
        &oracle.consumption,
        &mut |_| {
            Box::new(
                evcap_energy::BernoulliRecharge::new(0.5, Energy::from_units(2.0 * e))
                    .expect("valid"),
            )
        },
        config,
    )?;
    println!(
        "{:>8} {:>8} {:>9} {:>8}  policy",
        "episode", "events", "captured", "QoM"
    );
    for ep in &report.episodes {
        println!(
            "{:>8} {:>8} {:>9} {:>8.4}  {}",
            ep.episode,
            ep.events,
            ep.captures,
            ep.qom(),
            ep.policy
        );
    }
    println!();
    println!(
        "oracle ideal QoM (true distribution known): {:.4}",
        oracle
            .meta
            .objective
            .expect("the greedy family always reports an objective")
    );
    Ok(())
}

/// `evcap figure`
pub fn figure(args: &Args) -> CmdResult {
    args.expect_only(&["quick", "svg", "format"])?;
    let quick: bool = args.get_or("quick", false, "true or false")?;
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let Some(id) = args.positional().first() else {
        return Err("pass a figure id, e.g. `evcap figure fig4a`".into());
    };
    let figures = match id.as_str() {
        "fig3a" => vec![runners::fig3a(scale)],
        "fig3b" => vec![runners::fig3b(scale)],
        "fig4a" => vec![runners::fig4a(scale)],
        "fig4b" => vec![runners::fig4b(scale)],
        "fig5a" => vec![runners::fig5(scale, runners::Fig5Panel::LowB)],
        "fig5b" => vec![runners::fig5(scale, runners::Fig5Panel::HighB)],
        "fig6a" => vec![runners::fig6a(scale)],
        "fig6b" => vec![runners::fig6b(scale)],
        "regions" => vec![runners::ablation_clustering_regions(scale)],
        "load-balance" => vec![runners::ablation_load_balance(scale)],
        "refined" => vec![
            runners::ablation_refined_convergence(scale),
            runners::ablation_refined_weibull40(scale),
        ],
        "coordination" => vec![runners::ablation_coordination(scale)],
        "outage" => vec![runners::ablation_outage_robustness(scale)],
        "objectives" => {
            let (capture, age) = runners::objective_frontier(scale);
            vec![capture, age]
        }
        other => return Err(format!("unknown figure `{other}`").into()),
    };
    match args.get("format").unwrap_or("text") {
        "json" => {
            for fig in &figures {
                println!("{}", crate::json::figure(fig));
            }
        }
        "text" => {
            for fig in &figures {
                println!("{fig}");
            }
        }
        other => return Err(format!("unknown format `{other}` (try text, json)").into()),
    }
    if let Some(path) = args.get("svg") {
        // Multi-panel ids get a numeric suffix per panel.
        for (i, fig) in figures.iter().enumerate() {
            let target = if figures.len() == 1 {
                path.to_owned()
            } else {
                match path.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}-{}.{ext}", i + 1),
                    None => format!("{path}-{}", i + 1),
                }
            };
            std::fs::write(&target, evcap_bench::svg::render(fig))?;
            eprintln!("wrote {target}");
        }
    }
    Ok(())
}

/// `evcap trace` — summarize an observability JSONL file.
pub fn trace(args: &Args) -> CmdResult {
    use evcap_obs::{parse_line, JsonValue};

    args.expect_only(&["kind", "tree", "trace-id"])?;
    let Some(path) = args.positional().first() else {
        return Err("pass a JSONL file, e.g. `evcap trace run.jsonl`".into());
    };
    if args.get("tree").is_some() {
        return trace_tree(path, args.get("trace-id"));
    }
    if args.get("trace-id").is_some() {
        return Err("`--trace-id` only applies with `--tree`".into());
    }
    let kind = args.get("kind").unwrap_or("all");
    let known = [
        "all", "counters", "qom", "battery", "gaps", "idle", "spans", "perf",
    ];
    if !known.contains(&kind) {
        return Err(format!("unknown kind `{kind}` (try {})", known.join(", ")).into());
    }
    let wants = |k: &str| kind == "all" || kind == k;

    let text = std::fs::read_to_string(path)?;
    let mut qom_rows: Vec<(u64, f64, f64)> = Vec::new();
    let mut shown = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let rtype = record
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}:{}: record has no `type`", lineno + 1))?;
        let f = |name: &str| record.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let u = |name: &str| f(name) as u64;
        match rtype {
            "run_counters" if wants("counters") => {
                println!(
                    "run: {} slots ({} measured)",
                    u("slots"),
                    u("measured_slots")
                );
                println!(
                    "     {} events, {} captured, {} missed",
                    u("events"),
                    u("captures"),
                    u("misses")
                );
                if u("outage_slots") > 0 {
                    println!("     {} outage slots", u("outage_slots"));
                }
                if f("overflow_lost_units") > 0.0 {
                    println!(
                        "     {:.1} units lost to overflow",
                        f("overflow_lost_units")
                    );
                }
                shown += 1;
            }
            "qom_window" if wants("qom") => {
                qom_rows.push((u("slot"), f("window_qom"), f("cumulative_qom")));
                shown += 1;
            }
            "battery_histogram" if wants("battery") => {
                println!(
                    "battery: mean fill {:.4} over {} samples (every {} slots)",
                    f("mean_fill"),
                    u("samples"),
                    u("period")
                );
                if let Some(counts) = record.get("counts").and_then(JsonValue::as_array) {
                    let counts: Vec<f64> = counts.iter().filter_map(JsonValue::as_f64).collect();
                    let max = counts.iter().cloned().fold(1.0, f64::max);
                    let bins = counts.len();
                    for (i, &c) in counts.iter().enumerate() {
                        let bar = "#".repeat(((c / max) * 40.0).round() as usize);
                        println!(
                            "  [{:>4.2}-{:>4.2}) {:>10} {bar}",
                            i as f64 / bins as f64,
                            (i + 1) as f64 / bins as f64,
                            c as u64
                        );
                    }
                }
                shown += 1;
            }
            "gap_histogram" if wants("gaps") => {
                println!(
                    "capture gaps: {} samples, mean {:.2} slots, max {} ({} beyond linear bins)",
                    u("samples"),
                    f("mean_gap"),
                    u("max_gap"),
                    u("overflow")
                );
                shown += 1;
            }
            "forced_idle" if wants("idle") => {
                println!(
                    "forced idle: {} slots in {} streaks (mean {:.2}, longest {} on sensor {})",
                    u("total_slots"),
                    u("streaks"),
                    f("mean_streak"),
                    u("longest_streak"),
                    u("longest_sensor")
                );
                shown += 1;
            }
            "span" if wants("spans") => {
                let name = record
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                println!(
                    "span {name}: {} calls, total {:.3} ms, mean {:.1} µs (min {:.1}, max {:.1})",
                    u("count"),
                    f("total_ms"),
                    f("mean_us"),
                    f("min_us"),
                    f("max_us")
                );
                shown += 1;
            }
            "counter" if wants("spans") => {
                let name = record
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                println!("counter {name}: {}", u("value"));
                shown += 1;
            }
            // Written by `evcap loadgen` (`EVCAP_PERF_LOG`).
            "loadgen" if wants("perf") => {
                let label = record
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                println!(
                    "loadgen {label}: {} requests ({} errors) in {:.2} s, {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs",
                    u("requests"),
                    u("errors"),
                    f("wall_seconds"),
                    f("requests_per_second"),
                    f("p50_us"),
                    f("p99_us")
                );
                shown += 1;
            }
            // Written by `evcap_obs::LatencyHistogram::record`.
            "latency" if wants("perf") => {
                let name = record
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                println!(
                    "latency {name}: {} observations, mean {:.1} µs, p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
                    u("count"),
                    f("mean_us"),
                    f("p50_us"),
                    f("p99_us"),
                    f("max_us")
                );
                shown += 1;
            }
            // Written by `evcap serve --access-log`.
            "request" if wants("perf") => {
                println!(
                    "request {} {} -> {} in {:.0} µs{}",
                    record
                        .get("method")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?"),
                    record
                        .get("path")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?"),
                    u("status"),
                    f("micros"),
                    record
                        .get("cache")
                        .and_then(JsonValue::as_str)
                        .map(|c| format!(" ({c})"))
                        .unwrap_or_default()
                );
                shown += 1;
            }
            // Written by the bench harness (`EVCAP_PERF_LOG`), not --obs-out.
            "throughput" if wants("perf") => {
                let label = record
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                println!(
                    "throughput {label}: {} slots in {} runs, cpu {:.2} s, {:.2} M slots/sec/core",
                    u("slots"),
                    u("runs"),
                    f("cpu_seconds"),
                    f("slots_per_second") / 1e6
                );
                shown += 1;
            }
            _ => {}
        }
    }

    if !qom_rows.is_empty() {
        println!("qom convergence ({} windows):", qom_rows.len());
        println!("  {:>12} {:>12} {:>12}", "slot", "window", "cumulative");
        // At most 20 evenly spaced rows so long runs stay readable.
        let stride = qom_rows.len().div_ceil(20);
        for (i, (slot, w, c)) in qom_rows.iter().enumerate() {
            if i % stride == 0 || i + 1 == qom_rows.len() {
                println!("  {slot:>12} {w:>12.4} {c:>12.4}");
            }
        }
    }
    if shown == 0 {
        println!("no matching records in {path}");
    }
    Ok(())
}

/// `evcap trace --tree` — reconstruct per-request span trees from the
/// `trace_span` records in an access log (see `evcap serve --access-log`).
///
/// Each request's spans share a `trace_id`; the root span (the request
/// itself) has `parent_id` 0, and every other span points at its parent,
/// so the hierarchy renders by indentation. `--trace-id` narrows the
/// output to one request.
fn trace_tree(path: &str, only: Option<&str>) -> CmdResult {
    use evcap_obs::{parse_line, JsonValue};

    struct Span {
        id: u64,
        parent: u64,
        name: String,
        label: Option<String>,
        start_us: f64,
        dur_us: f64,
    }

    let text = std::fs::read_to_string(path)?;
    // trace_id -> spans, in first-seen order.
    let mut traces: Vec<(String, Vec<Span>)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if record.get("type").and_then(JsonValue::as_str) != Some("trace_span") {
            continue;
        }
        let str_field = |k: &str| record.get(k).and_then(JsonValue::as_str).map(str::to_owned);
        let num_field = |k: &str| record.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let Some(trace_id) = str_field("trace_id") else {
            continue;
        };
        if only.is_some_and(|id| id != trace_id) {
            continue;
        }
        let span = Span {
            id: num_field("span_id") as u64,
            parent: num_field("parent_id") as u64,
            name: str_field("name").unwrap_or_else(|| "?".to_owned()),
            label: str_field("label"),
            start_us: num_field("start_us"),
            dur_us: num_field("dur_us"),
        };
        match traces.iter_mut().find(|(id, _)| *id == trace_id) {
            Some((_, spans)) => spans.push(span),
            None => traces.push((trace_id, vec![span])),
        }
    }

    if traces.is_empty() {
        match only {
            Some(id) => println!("no trace_span records for trace {id} in {path}"),
            None => println!("no trace_span records in {path}"),
        }
        return Ok(());
    }

    for (trace_id, spans) in &traces {
        println!("trace {trace_id} ({} spans)", spans.len());
        // Children render under their parent, siblings in start order;
        // spans whose parent never made it into the log (disabled stages,
        // truncated files) surface as extra roots rather than vanishing.
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by(|&a, &b| spans[a].start_us.total_cmp(&spans[b].start_us));
        let is_root = |s: &Span| s.parent == 0 || !ids.contains(&s.parent);
        // (index, depth), depth-first.
        let mut stack: Vec<(usize, usize)> = order
            .iter()
            .rev()
            .filter(|&&i| is_root(&spans[i]))
            .map(|&i| (i, 0))
            .collect();
        while let Some((i, depth)) = stack.pop() {
            let s = &spans[i];
            let label = s
                .label
                .as_deref()
                .map(|l| format!(" [{l}]"))
                .unwrap_or_default();
            println!(
                "  {:indent$}{}{label}  {:.1} µs (at +{:.1} µs)",
                "",
                s.name,
                s.dur_us,
                s.start_us,
                indent = depth * 2
            );
            for &j in order.iter().rev() {
                if spans[j].parent == s.id && j != i {
                    stack.push((j, depth + 1));
                }
            }
        }
    }
    Ok(())
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> CmdResult {
    match args.command() {
        Some("hazards") => hazards(args),
        Some("optimize") => optimize(args),
        Some("audit") => audit(args),
        Some("simulate") => simulate(args),
        Some("provision") => provision(args),
        Some("bench-sim") => bench_sim(args),
        Some("adaptive") => adaptive(args),
        Some("figure") => figure(args),
        Some("trace") => trace(args),
        Some("solve-fleet") => crate::fleet::solve_fleet(args),
        Some("store") => crate::fleet::store(args),
        Some("serve") => crate::serving::serve(args),
        Some("loadgen") => crate::serving::loadgen(args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `evcap help`").into()),
    }
}
