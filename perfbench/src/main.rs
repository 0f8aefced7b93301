//! The evcap benchmark: four seeded workloads, end-to-end metrics from an
//! untraced run and a per-layer breakdown from a traced one. See
//! `README.md` beside this crate.
//!
//! Usage (from the repository root, after `perfbench/run.sh` has built
//! both programs):
//!
//! ```text
//! perfbench --workload <serve_hot|serve_churn|sim_study|fleet_solve>
//!           --seed <n> --seconds <s> --trace <0|1> --evcap <path>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it describes the run (seed, machine, toolchain, tier mix).

mod child;
mod client;
mod gen;
mod library;
mod report;
mod rng;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Worker threads and connections per workload: this machine's `nproc`.
pub const THREADS: usize = 2;
/// Runs `set_up`, which returns how long it took, at least 3 times and
/// until 2 s have gone into it; `setup_s` is the median. A traced run
/// reports no `setup_s` and sets up once.
pub fn set_up_repeatedly<E>(
    env: &Env,
    mut set_up: impl FnMut(usize) -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut times = Vec::new();
    while times.is_empty() || (!env.trace && (times.len() < 3 || times.iter().sum::<f64>() < 2.0)) {
        times.push(set_up(times.len())?);
    }
    Ok(times)
}

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_churn", "sim_study", "fleet_solve"];

/// One invocation's settings.
pub struct Env {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub evcap: PathBuf,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

fn parse_args() -> Result<Env, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload `{workload}` (try {})",
                WORKLOADS.join(", ")
            )
        })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let evcap = PathBuf::from(get("--evcap")?);
    if !evcap.is_file() {
        return Err(format!("no evcap binary at {}", evcap.display()));
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Env {
        workload,
        seed,
        seconds,
        trace,
        evcap,
        work,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let env = match parse_args() {
        Ok(env) => env,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&env.work) {
        eprintln!("perfbench: cannot create {}: {e}", env.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = match env.workload {
        "serve_hot" => serve::run(&env, false),
        "serve_churn" => serve::run(&env, true),
        "sim_study" => library::sim_study(&env),
        _ => library::fleet_solve(&env),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", env.workload);
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let described: [(&str, report::Json); 9] = [
        ("workload", env.workload.into()),
        ("seed", env.seed.into()),
        ("seconds", env.seconds.into()),
        ("trace", env.trace.into()),
        ("threads", THREADS.into()),
        ("nproc", nproc.into()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ];
    let mut info: Vec<(String, String)> = described
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v.0))
        .collect();
    info.append(&mut outcome.info);
    outcome.info = info;
    let (info, result) = outcome.render(env.trace);
    println!("{info}");
    println!("{result}");
    ExitCode::SUCCESS
}
