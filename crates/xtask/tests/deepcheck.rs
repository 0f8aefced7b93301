//! End-to-end analyzer tests over source fixtures, driving the same
//! [`xtask::deepcheck::analyze`] entry point the CLI uses. The
//! intentionally-deadlockable fixture here is the shared one the
//! self-test corpus uses, so the two suites can never drift apart on
//! what "a deadlock the analyzer must catch" looks like.

use xtask::deepcheck::{analyze, Config, Report, SourceUnit, DEADLOCK_FIXTURE};

fn run(files: &[(&str, &str, &str)], cfg: Config) -> Report {
    let units: Vec<SourceUnit> = files
        .iter()
        .map(|(krate, file, src)| SourceUnit {
            crate_name: Some((*krate).to_owned()),
            file: (*file).to_owned(),
            src: (*src).to_owned(),
        })
        .collect();
    analyze(&units, &cfg)
}

fn strings(cfg_fields: &[&str]) -> Vec<String> {
    cfg_fields.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn the_deadlock_fixture_is_flagged_with_both_order_edges() {
    let report = run(
        &[("app", "crates/app/src/app.rs", DEADLOCK_FIXTURE)],
        Config {
            panic_roots: Vec::new(),
            alloc_roots: Vec::new(),
            lock_crates: strings(&["app"]),
            index_crates: Vec::new(),
        },
    );
    assert_eq!(report.findings.len(), 1, "{:?}", rendered(&report));
    let f = &report.findings[0];
    assert_eq!(f.rule, "lock-order");
    let text = f.rendered();
    assert!(text.contains("cycle"), "{text}");
    assert!(text.contains("`a` then `b`"), "{text}");
    assert!(text.contains("`b` then `a`"), "{text}");
}

#[test]
fn a_reachable_unwrap_in_a_request_path_reports_the_full_chain() {
    let report = run(
        &[(
            "app",
            "crates/app/src/app.rs",
            r#"
pub fn handle() -> u32 { route() }
fn route() -> u32 { lookup().unwrap() }
fn lookup() -> Option<u32> { None }
"#,
        )],
        Config {
            panic_roots: strings(&["app::handle"]),
            alloc_roots: Vec::new(),
            lock_crates: Vec::new(),
            index_crates: Vec::new(),
        },
    );
    assert_eq!(report.findings.len(), 1, "{:?}", rendered(&report));
    let text = report.findings[0].rendered();
    assert!(text.contains("panic-path"), "{text}");
    // The chain walks root -> intermediate -> site.
    assert!(text.contains("handle ("), "{text}");
    assert!(text.contains("route ("), "{text}");
    assert!(text.contains("`.unwrap()`"), "{text}");
}

#[test]
fn a_waiver_suppresses_and_counts_and_a_stale_one_is_flagged() {
    let src_waived = r#"
pub fn handle() -> u32 {
    // deepcheck:allow(panic-path): fixture — value is always present
    lookup().unwrap()
}
fn lookup() -> Option<u32> { Some(1) }
"#;
    let report = run(
        &[("app", "crates/app/src/app.rs", src_waived)],
        Config {
            panic_roots: strings(&["app::handle"]),
            alloc_roots: Vec::new(),
            lock_crates: Vec::new(),
            index_crates: Vec::new(),
        },
    );
    assert!(report.clean(), "{:?}", rendered(&report));
    assert_eq!((report.waivers, report.waivers_used), (1, 1));

    // The same waiver with nothing to suppress is itself a finding.
    let src_stale = r#"
pub fn handle() -> u32 {
    // deepcheck:allow(panic-path): fixture — value is always present
    1
}
"#;
    let report = run(
        &[("app", "crates/app/src/app.rs", src_stale)],
        Config {
            panic_roots: strings(&["app::handle"]),
            alloc_roots: Vec::new(),
            lock_crates: Vec::new(),
            index_crates: Vec::new(),
        },
    );
    assert_eq!(report.findings.len(), 1, "{:?}", rendered(&report));
    assert_eq!(report.findings[0].rule, "stale-waiver");
}

#[test]
fn hot_path_allocations_are_flagged_and_cold_paths_are_not() {
    let report = run(
        &[(
            "app",
            "crates/app/src/app.rs",
            r#"
pub fn hot(n: u32) -> usize { render(n) }
fn render(n: u32) -> usize { format!("{n}").len() }
pub fn cold() -> String { String::from("fine here") }
"#,
        )],
        Config {
            panic_roots: Vec::new(),
            alloc_roots: strings(&["app::hot"]),
            lock_crates: Vec::new(),
            index_crates: Vec::new(),
        },
    );
    assert_eq!(report.findings.len(), 1, "{:?}", rendered(&report));
    let text = report.findings[0].rendered();
    assert!(text.contains("alloc-hot"), "{text}");
    assert!(text.contains("`format!`"), "{text}");
}

#[test]
fn a_root_that_matches_nothing_is_config_drift() {
    let report = run(
        &[("app", "crates/app/src/app.rs", "pub fn handle() {}\n")],
        Config {
            panic_roots: strings(&["app::renamed_handle"]),
            alloc_roots: Vec::new(),
            lock_crates: Vec::new(),
            index_crates: Vec::new(),
        },
    );
    assert_eq!(report.findings.len(), 1, "{:?}", rendered(&report));
    let text = report.findings[0].rendered();
    assert!(text.contains("matches no function"), "{text}");
}

fn rendered(report: &Report) -> Vec<String> {
    report.findings.iter().map(|f| f.rendered()).collect()
}
