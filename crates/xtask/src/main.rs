//! The `xtask` binary: runs the in-tree analyzer.
//!
//! ```text
//! cargo run -p xtask -- deepcheck              # every rule, human-readable
//! cargo run -p xtask -- deepcheck --json       # machine-readable report
//! cargo run -p xtask -- deepcheck --self-test  # prove every rule fires
//! ```
#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::deepcheck;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("deepcheck") {
        eprintln!("usage: cargo run -p xtask -- deepcheck [--json] [--self-test]");
        return ExitCode::FAILURE;
    }
    let mut json = false;
    let mut self_test = false;
    for flag in &args[1..] {
        match flag.as_str() {
            "--json" => json = true,
            "--self-test" => self_test = true,
            other => {
                eprintln!("xtask deepcheck: unknown flag `{other}` (try --json or --self-test)");
                return ExitCode::FAILURE;
            }
        }
    }
    if self_test {
        deepcheck::self_test()
    } else {
        deepcheck::run(json)
    }
}
