//! `evcap solve-fleet` and `evcap store` — batch solving into, and
//! maintenance of, the persistent artifact store (`evcap-store`).
//!
//! `solve-fleet` expands a cartesian scenario matrix (distributions × e
//! rates × policy families), groups it by `(dist, policy)`, and solves
//! each group in ascending-`e` order. Every solve is a plain
//! `evcap_spec::solve`, so a scenario's result, `iterations` included,
//! does not depend on what else the matrix or the store holds. Groups fan
//! out across threads through `evcap_sim::parallel`; the store itself is
//! only touched from this thread (appends are cheap, solves are not).

use std::error::Error;
use std::path::Path;

use evcap_sim::parallel::parallel_map_with;
use evcap_store::Store;

use crate::args::{Args, ArgsError};
use crate::spec;

type CmdResult = Result<(), Box<dyn Error>>;

/// Opens the store named by the required `--store DIR` flag.
fn open_store(args: &Args) -> Result<Store, Box<dyn Error>> {
    let dir = args.require("store")?;
    Store::open(Path::new(dir)).map_err(|e| format!("cannot open store `{dir}`: {e}").into())
}

/// `evcap solve-fleet`
pub fn solve_fleet(args: &Args) -> CmdResult {
    args.expect_only(&[
        "store",
        "dists",
        "e-list",
        "policies",
        "theta1",
        "delta1",
        "delta2",
        "horizon",
        "sensors",
        "threads",
        "force",
        "objective",
    ])?;
    let horizon: usize = args.get_or("horizon", 65_536, "a slot count")?;
    let sensors: usize = args.get_or("sensors", 1, "a sensor count")?;
    let delta1: f64 = args.get_or("delta1", 1.0, "an energy amount")?;
    let delta2: f64 = args.get_or("delta2", 6.0, "an energy amount")?;
    let force: bool = args.get_or("force", false, "true or false")?;
    let threads: usize = args.get_or("threads", 0, "a thread count (0 = auto)")?;
    let objective = match args.get("objective") {
        None => spec::Objective::Qom,
        Some(raw) => spec::parse_objective(raw)?,
    };
    let verbosity = args.verbosity();

    // Specs contain commas (`weibull:40,3`), so the dist axis is
    // semicolon-separated; the scalar axes stay comma-separated.
    let dists: Vec<&str> = args
        .require("dists")?
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if dists.is_empty() {
        return Err("pass at least one distribution in --dists".into());
    }
    let mut e_list: Vec<f64> = Vec::new();
    for part in args.require("e-list")?.split(',') {
        let e: f64 = part.trim().parse().map_err(|_| ArgsError::Invalid {
            flag: "e-list".into(),
            value: part.trim().into(),
            expected: "comma-separated recharge rates, e.g. 0.1,0.2,0.5",
        })?;
        e_list.push(e);
    }
    // Ascending order fixes the order results are appended and printed in.
    e_list.sort_by(f64::total_cmp);
    e_list.dedup();
    let mut policies: Vec<spec::PolicySpec> = Vec::new();
    for name in args
        .get("policies")
        .unwrap_or("greedy,clustering")
        .split(',')
    {
        let mut policy = spec::PolicySpec::parse(name.trim())?;
        if let spec::PolicySpec::Periodic { theta1 } = &mut policy {
            *theta1 = args.get_or("theta1", 3, "a slot count")?;
        }
        policies.push(policy);
    }

    let mut store = open_store(args)?;
    // One job per `(dist, policy)` group: its scenarios in ascending `e`.
    let mut jobs: Vec<Vec<spec::Scenario>> = Vec::new();
    let mut skipped = 0usize;
    for dist in &dists {
        for policy in &policies {
            let mut scenarios = Vec::new();
            for &e in &e_list {
                let scenario = spec::Scenario::new(dist, *policy, e)?
                    .with_costs(delta1, delta2)
                    .with_horizon(horizon)
                    .with_sensors(sensors)
                    .with_objective(objective);
                if !force && store.contains(&scenario.canonical_key()) {
                    skipped += 1;
                } else {
                    scenarios.push(scenario);
                }
            }
            if !scenarios.is_empty() {
                jobs.push(scenarios);
            }
        }
    }
    let planned: usize = jobs.iter().map(Vec::len).sum();
    if planned == 0 {
        println!("fleet        : nothing to solve ({skipped} scenarios already stored)");
        return Ok(());
    }

    let results: Vec<Vec<Result<spec::SolvedPolicy, String>>> =
        parallel_map_with(jobs, (threads > 0).then_some(threads), |scenarios| {
            scenarios
                .iter()
                .map(|scenario| {
                    spec::solve(scenario).map_err(|e| format!("{}: {e}", scenario.canonical_key()))
                })
                .collect()
        });

    let mut appended = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for outcome in results.into_iter().flatten() {
        match outcome {
            Ok(solved) => {
                store.append(&solved)?;
                appended += 1;
                if verbosity != crate::args::Verbosity::Quiet {
                    println!(
                        "  solved {:<60} {} iterations",
                        solved.scenario.canonical_key(),
                        solved.meta.iterations,
                    );
                }
            }
            Err(msg) => failures.push(msg),
        }
    }
    println!(
        "fleet        : {appended} solved, {skipped} already stored, {} failed",
        failures.len()
    );
    println!(
        "store        : {} entries, {} bytes at {}",
        store.len(),
        store.bytes(),
        store.dir().display()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for msg in &failures {
            eprintln!("failed: {msg}");
        }
        Err(format!("{} of {planned} scenarios failed to solve", failures.len()).into())
    }
}

/// `evcap store <ls|stat|verify|compact>`
pub fn store(args: &Args) -> CmdResult {
    args.expect_only(&["store"])?;
    let Some(action) = args.positional().first() else {
        return Err("pass an action: evcap store <ls|stat|verify|compact> --store DIR".into());
    };
    let mut store = open_store(args)?;
    match action.as_str() {
        "ls" => {
            let mut keys: Vec<&str> = store.keys().collect();
            keys.sort_unstable();
            for key in &keys {
                println!("{key}");
            }
            if args.verbosity() != crate::args::Verbosity::Quiet {
                eprintln!("{} artifacts in {}", keys.len(), store.dir().display());
            }
        }
        "stat" => {
            println!(
                "store        : {}",
                store.dir().join(evcap_store::STORE_FILE).display()
            );
            println!("entries      : {}", store.len());
            println!("bytes        : {}", store.bytes());
            if store.unindexed() > 0 {
                println!(
                    "unindexed    : {} records (undecodable prefix)",
                    store.unindexed()
                );
            }
        }
        "verify" => {
            let report = store.verify()?;
            println!("valid        : {} records", report.valid);
            for (offset, detail) in &report.corrupt {
                println!("corrupt      : offset {offset}: {detail}");
            }
            if report.torn_tail_bytes > 0 {
                println!("torn tail    : {} bytes", report.torn_tail_bytes);
            }
            if !report.is_clean() {
                return Err(format!(
                    "store has {} corrupt records and {} torn-tail bytes",
                    report.corrupt.len(),
                    report.torn_tail_bytes
                )
                .into());
            }
            println!("store is clean");
        }
        "compact" => {
            let stats = store.compact()?;
            println!("kept         : {} records", stats.kept);
            println!("dropped      : {} records", stats.dropped);
            println!(
                "bytes        : {} -> {}",
                stats.bytes_before, stats.bytes_after
            );
        }
        other => {
            return Err(
                format!("unknown store action `{other}` (try ls, stat, verify, compact)").into(),
            )
        }
    }
    Ok(())
}
