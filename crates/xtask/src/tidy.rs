//! `xtask tidy`: the token-level architecture lint.
//!
//! Enforces repo conventions the compiler cannot see — which crate is
//! allowed to construct policies, where wall-clock reads may happen, who
//! spawns threads, and who formats JSON by hand. A finding can be waived
//! at the site with an inline escape comment on the offending line or the
//! line directly above it:
//!
//! ```text
//! // tidy:allow(rule-name): one-line justification
//! ```
//!
//! Escapes are themselves checked: one that names an unknown rule, or
//! that never actually suppresses a finding, is reported under the
//! `stale-allow` rule so waivers cannot rot silently as the code under
//! them improves.
//!
//! The lint is deliberately token-level, not syntactic: it reads lines,
//! not ASTs, so it stays fast and obvious. The cost of that choice is a
//! small set of documented blind spots — needles split across lines, or
//! aliased constructors. `xtask deepcheck` is the semantic counterpart
//! that reasons over the call graph.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::process::ExitCode;

use crate::files::{collect_sources, workspace_root};

/// Every rule `tidy` knows about. Printed by `tidy --list` and used to
/// validate `tidy:allow(...)` escapes in self-test snippets.
pub const RULES: &[(&str, &str)] = &[
    (
        "solve-site",
        "policy construction (GreedyPolicy::optimize, ClusteringOptimizer, ...) belongs in \
         crates/spec's solve(); other call sites need an escape explaining why they bypass \
         the Scenario -> SolvedPolicy artifact layer",
    ),
    (
        "serve-unwrap",
        "no .unwrap()/.expect( on evcap-serve request paths: a worker panic silently drops \
         the connection instead of answering with a structured error",
    ),
    (
        "instant-now",
        "Instant::now outside evcap-obs bypasses the instrumentation layer's timing spans",
    ),
    (
        "thread-spawn",
        "threads are spawned only by evcap_sim::parallel and the server accept pool; ad-hoc \
         threads escape the shutdown and panic-propagation story",
    ),
    (
        "json-fmt",
        "hand-rolled JSON (a `{\\\"` literal) outside the shared writers (evcap-obs jsonl, \
         cli json) drifts from the escaping rules the parsers expect",
    ),
    (
        "print",
        "println!/eprintln! belongs to the CLI (crates/cli/src) — library crates report \
         through evcap-obs records or return values; deliberate stderr diagnostics carry \
         an escape",
    ),
    (
        "unsafe",
        "unsafe code lives only in the serve signal shim, where every block carries a \
         SAFETY: comment; everywhere else the crate root forbids it",
    ),
    (
        "store-certify",
        "a policy artifact deserialized on an evcap-serve path (Store::load / rehydrate) must \
         pass evcap_audit::certify before being served — a stale, corrupt, or tampered record \
         must fall back to a fresh solve, never reach a client",
    ),
    (
        "batch-setup",
        "crates/sim/src/batch.rs builds the event sampler and the policy table once per \
         batch; a per-seed set-up entry point (EventSchedule::generate, Simulation::run / \
         run_observed / run_on) rebuilds them for every replication",
    ),
    (
        "forbid-unsafe",
        "every crate root carries #![forbid(unsafe_code)] (or #![deny] when a module must \
         opt out, as the signal shim does)",
    ),
    (
        "crate-docs",
        "every crate root opens with //! documentation",
    ),
    (
        "objective-score",
        "ranking candidates by raw capture_probability outside crates/core hard-codes the \
         QoM objective; score through Objective::utility / greedy_utility so age objectives \
         see the same candidate machinery",
    ),
    (
        "stale-allow",
        "a tidy:allow(...) escape that names an unknown rule or no longer suppresses any \
         finding is dead weight — remove it so real waivers stay auditable",
    ),
];

/// Prints the rule list (`tidy --list`).
pub fn list() -> ExitCode {
    for (name, what) in RULES {
        println!("{name}: {what}");
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Per-file model
// ---------------------------------------------------------------------------

/// A source file reduced to what the rules need: its workspace-relative
/// path (forward slashes) and its lines, with the index of the first
/// column-0 `#[cfg(test)]` marking where inline test code begins.
struct SourceFile {
    path: String,
    lines: Vec<String>,
    /// Line index (0-based) of the first column-0 `#[cfg(test)]`; lines at
    /// or beyond this are test code. `usize::MAX` when the file has none.
    test_cutoff: usize,
    /// `(escape line, rule)` pairs that actually waived a finding; the
    /// stale-allow pass reports every escape not recorded here.
    used_escapes: RefCell<BTreeSet<(usize, String)>>,
}

impl SourceFile {
    fn new(path: &str, content: &str) -> Self {
        let lines: Vec<String> = content.lines().map(str::to_owned).collect();
        let test_cutoff = lines
            .iter()
            .position(|l| l.starts_with("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        SourceFile {
            path: path.to_owned(),
            lines,
            test_cutoff,
            used_escapes: RefCell::new(BTreeSet::new()),
        }
    }

    /// True when the whole file is test-or-example support: integration
    /// tests, benches, examples, and generated fixtures.
    fn is_test_file(&self) -> bool {
        ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|seg| self.path.contains(seg))
            || self.path.starts_with("examples/")
    }

    /// Content rules do not apply to the lint itself or to the compat
    /// shims (which exist precisely to mirror external crates' APIs,
    /// clocks and all).
    fn is_content_exempt(&self) -> bool {
        self.path.starts_with("crates/xtask/") || self.path.starts_with("compat/")
    }

    /// True when `idx` (0-based) is exempt from content rules: inside the
    /// inline test module, a comment line, or carrying/following a
    /// `tidy:allow(rule)` escape. A matching escape is recorded as used.
    fn line_waived(&self, idx: usize, rule: &str) -> bool {
        if idx >= self.test_cutoff {
            return true;
        }
        let trimmed = self.lines[idx].trim_start();
        if trimmed.starts_with("//") {
            return true;
        }
        let escape = format!("tidy:allow({rule})");
        if self.lines[idx].contains(&escape) {
            self.mark_used(idx, rule);
            return true;
        }
        if idx > 0 && self.lines[idx - 1].contains(&escape) {
            self.mark_used(idx - 1, rule);
            return true;
        }
        false
    }

    fn mark_used(&self, escape_idx: usize, rule: &str) {
        self.used_escapes
            .borrow_mut()
            .insert((escape_idx, rule.to_owned()));
    }
}

/// Crate roots get two extra structural rules. A root is any `src/lib.rs`
/// or `src/main.rs`, plus the workspace's own `src/lib.rs`.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")
}

// ---------------------------------------------------------------------------
// Content rules
// ---------------------------------------------------------------------------

/// Constructor calls that produce a policy. Building one of these outside
/// crates/spec bypasses the artifact layer (and its debug certification).
const SOLVE_NEEDLES: &[&str] = &[
    "GreedyPolicy::optimize(",
    "ClusteringOptimizer::new(",
    "ClusteringPolicy::new(",
    "MyopicPolicy::derive(",
    "PeriodicPolicy::energy_balanced(",
    "AggressivePolicy::new(",
];

/// Per-seed set-up entry points: each rebuilds the event sampler (alias
/// tables) or the compiled policy table that a batch builds once.
const BATCH_SETUP_NEEDLES: &[&str] = &[
    "EventSchedule::generate(",
    "EventSchedule::generate_stationary(",
    ".run(",
    ".run_observed(",
    ".run_on(",
    ".run_on_observed(",
];

/// Comparison spellings that rank candidates by raw capture probability.
/// Outside crates/core — where the `Objective` abstraction owns scoring —
/// such a comparison silently re-hard-codes the QoM objective.
const OBJECTIVE_SCORE_NEEDLES: &[&str] = &[
    "capture_probability >",
    "capture_probability <",
    "capture_probability.partial_cmp",
];

fn content_violations(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if file.is_test_file() || file.is_content_exempt() {
        return out;
    }
    let mut push = |idx: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: file.path.clone(),
            line: idx + 1,
            rule,
            message,
        });
    };

    let in_serve_src = file.path.starts_with("crates/serve/src/");
    let in_spec_or_core =
        file.path.starts_with("crates/spec/") || file.path.starts_with("crates/core/");
    let is_signal_shim = file.path == "crates/serve/src/signal.rs";

    for (idx, line) in file.lines.iter().enumerate() {
        // solve-site
        if !in_spec_or_core {
            for needle in SOLVE_NEEDLES {
                if line.contains(needle) && !file.line_waived(idx, "solve-site") {
                    push(
                        idx,
                        "solve-site",
                        format!("`{needle}..)` outside crates/spec — go through Scenario::solve()"),
                    );
                }
            }
        }

        // objective-score
        if !file.path.starts_with("crates/core/") {
            for needle in OBJECTIVE_SCORE_NEEDLES {
                if line.contains(needle) && !file.line_waived(idx, "objective-score") {
                    push(
                        idx,
                        "objective-score",
                        format!(
                            "`{needle}` outside crates/core re-hard-codes QoM — rank through \
                             Objective::utility"
                        ),
                    );
                }
            }
        }

        // serve-unwrap
        if in_serve_src
            && (line.contains(".unwrap()") || line.contains(".expect("))
            && !file.line_waived(idx, "serve-unwrap")
        {
            push(
                idx,
                "serve-unwrap",
                "unwrap/expect on a serve request path — answer a structured error instead"
                    .to_owned(),
            );
        }

        // instant-now
        if !file.path.starts_with("crates/obs/src/")
            && line.contains("Instant::now")
            && !file.line_waived(idx, "instant-now")
        {
            push(
                idx,
                "instant-now",
                "Instant::now outside evcap-obs — use an obs timing span".to_owned(),
            );
        }

        // thread-spawn
        if file.path != "crates/sim/src/parallel.rs"
            && file.path != "crates/serve/src/server.rs"
            && (line.contains("thread::spawn") || line.contains("thread::Builder"))
            && !file.line_waived(idx, "thread-spawn")
        {
            push(
                idx,
                "thread-spawn",
                "thread spawn outside evcap_sim::parallel / the server pool".to_owned(),
            );
        }

        // json-fmt: a `{\"` literal is the tell-tale of hand-assembled JSON.
        if file.path != "crates/obs/src/jsonl.rs"
            && file.path != "crates/cli/src/json.rs"
            && line.contains("{\\\"")
            && !file.line_waived(idx, "json-fmt")
        {
            push(
                idx,
                "json-fmt",
                "hand-rolled JSON literal — use the shared writers (evcap-obs jsonl / cli json)"
                    .to_owned(),
            );
        }

        // print: stdout/stderr belongs to the CLI binary; a library that
        // prints bypasses the JSONL observability pipeline and pollutes
        // output that tests and scripts scrape.
        if !file.path.starts_with("crates/cli/src/")
            && (line.contains("println!") || line.contains("eprintln!"))
            && !file.line_waived(idx, "print")
        {
            push(
                idx,
                "print",
                "println!/eprintln! outside crates/cli — emit an obs record or return the text"
                    .to_owned(),
            );
        }

        // store-certify: a disk-loaded artifact on a serve path must be
        // certified before reuse. Token-level: a `.load(` / `rehydrate(`
        // line (atomic `Ordering` loads excluded) must have
        // `evcap_audit::certify` on the same or one of the following 8
        // lines — the pairing the three-tier cache relies on.
        if in_serve_src {
            let artifact_load = (line.contains(".load(") && !line.contains("Ordering"))
                || line.contains("rehydrate(");
            if artifact_load && !file.line_waived(idx, "store-certify") {
                let end = (idx + 9).min(file.lines.len());
                let certified = file.lines[idx..end]
                    .iter()
                    .any(|l| l.contains("evcap_audit::certify"));
                if !certified {
                    push(
                        idx,
                        "store-certify",
                        "deserialized artifact served without an evcap_audit::certify gate"
                            .to_owned(),
                    );
                }
            }
        }

        // batch-setup: the batch layer went per-seed once and it cost 16×
        // the setup work; replications must share the batch's sampler and
        // compiled table and enter the kernel directly.
        if file.path == "crates/sim/src/batch.rs" {
            for needle in BATCH_SETUP_NEEDLES {
                if line.contains(needle) && !file.line_waived(idx, "batch-setup") {
                    push(
                        idx,
                        "batch-setup",
                        format!(
                            "`{needle}..)` in the batch layer rebuilds per-seed set-up — share \
                             the batch's sampler and table and call the kernel"
                        ),
                    );
                }
            }
        }

        // unsafe: token-level word match so `unsafe_code` in attributes
        // doesn't trip it, but `unsafe {`, `unsafe fn`, `unsafe impl` do.
        if has_unsafe_token(line) && !file.line_waived(idx, "unsafe") {
            if is_signal_shim {
                // The shim is the one sanctioned home for unsafe — but each
                // block must carry a SAFETY: comment within the 4 preceding
                // lines (or inline).
                let start = idx.saturating_sub(4);
                let documented = file.lines[start..=idx]
                    .iter()
                    .any(|l| l.contains("SAFETY:"));
                if !documented {
                    push(
                        idx,
                        "unsafe",
                        "unsafe in the signal shim without a SAFETY: comment".to_owned(),
                    );
                }
            } else {
                push(
                    idx,
                    "unsafe",
                    "unsafe outside the serve signal shim".to_owned(),
                );
            }
        }
    }
    out
}

/// True when the line contains `unsafe` as a standalone token (followed by
/// whitespace, `{`, or end of line) rather than as part of an identifier
/// like `unsafe_code` or `forbid(unsafe_code)`.
fn has_unsafe_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe") {
        let at = from + pos;
        let end = at + "unsafe".len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// Crate-root rules
// ---------------------------------------------------------------------------

fn root_violations(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if !is_crate_root(&file.path) {
        return out;
    }

    // forbid-unsafe: the root must pin down unsafe_code at deny or forbid.
    let has_lint = file
        .lines
        .iter()
        .any(|l| l.contains("#![forbid(unsafe_code)]") || l.contains("#![deny(unsafe_code)]"));
    if !has_lint {
        match find_escape(file, "forbid-unsafe") {
            Some(idx) => file.mark_used(idx, "forbid-unsafe"),
            None => out.push(Violation {
                file: file.path.clone(),
                line: 1,
                rule: "forbid-unsafe",
                message: "crate root lacks #![forbid(unsafe_code)] (or #![deny] + module opt-out)"
                    .to_owned(),
            }),
        }
    }

    // crate-docs: the first non-empty line must be a `//!` doc line.
    let first = file
        .lines
        .iter()
        .find(|l| !l.trim().is_empty())
        .map(|l| l.trim_start());
    let documented = matches!(first, Some(l) if l.starts_with("//!"));
    if !documented {
        match find_escape(file, "crate-docs") {
            Some(idx) => file.mark_used(idx, "crate-docs"),
            None => out.push(Violation {
                file: file.path.clone(),
                line: 1,
                rule: "crate-docs",
                message: "crate root does not open with //! documentation".to_owned(),
            }),
        }
    }
    out
}

/// Index of the first line carrying a `tidy:allow(rule)` escape.
fn find_escape(file: &SourceFile, rule: &str) -> Option<usize> {
    let escape = format!("tidy:allow({rule})");
    file.lines.iter().position(|l| l.contains(&escape))
}

// ---------------------------------------------------------------------------
// Stale-allow: escapes must earn their keep
// ---------------------------------------------------------------------------

/// Reports every `tidy:allow(...)` escape that names an unknown rule or
/// was never consulted while a finding was being suppressed. Must run
/// after the content and root rules so `used_escapes` is populated.
fn stale_violations(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if file.is_test_file() || file.is_content_exempt() {
        return out;
    }
    let used = file.used_escapes.borrow();
    for (idx, line) in file.lines.iter().enumerate() {
        if idx >= file.test_cutoff {
            break;
        }
        let mut from = 0;
        while let Some(pos) = line[from..].find("tidy:allow(") {
            let at = from + pos + "tidy:allow(".len();
            let Some(close) = line[at..].find(')') else {
                break;
            };
            let rule = &line[at..at + close];
            from = at + close;
            if !RULES.iter().any(|(name, _)| name == &rule) {
                out.push(Violation {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: "stale-allow",
                    message: format!("escape names unknown rule `{rule}` (see `tidy --list`)"),
                });
            } else if !used.contains(&(idx, rule.to_owned())) {
                out.push(Violation {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: "stale-allow",
                    message: format!(
                        "tidy:allow({rule}) no longer suppresses any finding — remove it"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The tidy run
// ---------------------------------------------------------------------------

fn check_source(file: &SourceFile) -> Vec<Violation> {
    let mut v = content_violations(file);
    v.extend(root_violations(file));
    // Stale detection last: it reads the used-escape set the rules above
    // populate.
    v.extend(stale_violations(file));
    v
}

/// Lints the workspace (`xtask tidy`).
pub fn run() -> ExitCode {
    let root = workspace_root();
    let sources = collect_sources(&root);
    assert!(
        sources.len() >= 20,
        "tidy walked only {} files — is the workspace layout intact?",
        sources.len()
    );

    let mut violations = Vec::new();
    let mut roots_seen = 0usize;
    for rel in &sources {
        let path = rel.to_string_lossy().replace('\\', "/");
        let content = match fs::read_to_string(root.join(rel)) {
            Ok(c) => c,
            Err(err) => {
                eprintln!("tidy: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let file = SourceFile::new(&path, &content);
        if is_crate_root(&file.path) {
            roots_seen += 1;
        }
        violations.extend(check_source(&file));
    }
    // The workspace has a dozen-plus crate roots; seeing almost none means
    // the structural rules silently checked nothing.
    assert!(
        roots_seen >= 10,
        "tidy matched only {roots_seen} crate roots — path heuristics broken?"
    );

    if violations.is_empty() {
        println!(
            "tidy: {} files, {roots_seen} crate roots, {} rules — clean",
            sources.len(),
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "tidy: {} violation(s) across {} files (escape with `// tidy:allow(rule): why`)",
            violations.len(),
            sources.len()
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Self-test: every rule must be able to fire, and every waiver mechanism
// must be able to suppress it.
// ---------------------------------------------------------------------------

struct Case {
    label: &'static str,
    path: &'static str,
    content: &'static str,
    /// Rules expected to fire, in any order, one entry per violation.
    expect: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        label: "solve-site fires outside spec",
        path: "crates/bench/src/seeded.rs",
        content: "fn f() {\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n",
        expect: &["solve-site"],
    },
    Case {
        label: "solve-site is legal inside crates/spec",
        path: "crates/spec/src/seeded.rs",
        content: "fn f() {\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n",
        expect: &[],
    },
    Case {
        label: "serve-unwrap fires on request paths",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let v = body.parse().unwrap();\n}\n",
        expect: &["serve-unwrap"],
    },
    Case {
        label: "serve-unwrap ignores other crates",
        path: "crates/sim/src/seeded.rs",
        content: "fn f() {\n    let v = body.parse().unwrap();\n}\n",
        expect: &[],
    },
    Case {
        label: "instant-now fires outside evcap-obs",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now();\n}\n",
        expect: &["instant-now"],
    },
    Case {
        label: "instant-now is legal inside evcap-obs",
        path: "crates/obs/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now();\n}\n",
        expect: &[],
    },
    Case {
        label: "thread-spawn fires outside the sanctioned files",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    std::thread::spawn(|| {});\n}\n",
        expect: &["thread-spawn"],
    },
    Case {
        label: "json-fmt fires on hand-rolled JSON",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let s = format!(\"{{\\\"a\\\":{n}}}\");\n}\n",
        expect: &["json-fmt"],
    },
    Case {
        label: "print fires in library crates",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    eprintln!(\"draining\");\n}\n",
        expect: &["print"],
    },
    Case {
        label: "print is legal inside the CLI",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    println!(\"listening\");\n}\n",
        expect: &[],
    },
    Case {
        label: "print with an escape passes",
        path: "crates/bench/src/seeded.rs",
        content: "fn f() {\n    eprintln!(\"# perf\"); // tidy:allow(print): stderr report by design\n}\n",
        expect: &[],
    },
    Case {
        label: "store-certify fires on an uncertified store load in serve",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    serve(loaded);\n}\n",
        expect: &["store-certify"],
    },
    Case {
        label: "store-certify passes when certify gates the load",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    match loaded {\n        Ok(solved) => match evcap_audit::certify(scenario, &solved) {\n            Ok(_) => keep(solved),\n            Err(_) => reject(),\n        },\n        Err(_) => miss(),\n    }\n}\n",
        expect: &[],
    },
    Case {
        label: "store-certify fires on a bare rehydrate in serve",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let solved = evcap_spec::rehydrate(&scenario, &params)?;\n}\n",
        expect: &["store-certify"],
    },
    Case {
        label: "store-certify ignores atomic loads",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    let stop = shared.shutdown.load(Ordering::SeqCst);\n}\n",
        expect: &[],
    },
    Case {
        label: "store-certify ignores loads outside serve",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    let rec = store.load(key);\n}\n",
        expect: &[],
    },
    Case {
        label: "store-certify with an escape passes",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    // tidy:allow(store-certify): debug endpoint, never served to clients\n    let rec = store.lock().ok()?.load(key);\n}\n",
        expect: &[],
    },
    Case {
        label: "batch-setup fires on per-seed set-up in the batch layer",
        path: "crates/sim/src/batch.rs",
        content: "fn f() {\n    let schedule = EventSchedule::generate(pmf, slots, seed)?;\n    let report = sim.run_on(&schedule, policy, &mut mk)?;\n}\n",
        expect: &["batch-setup", "batch-setup"],
    },
    Case {
        label: "batch-setup ignores per-seed set-up elsewhere",
        path: "crates/sim/src/engine.rs",
        content: "fn f() {\n    let schedule = EventSchedule::generate(self.pmf, self.slots, self.seed)?;\n    let report = self.run_on_observed(&schedule, policy, mk, observer);\n}\n",
        expect: &[],
    },
    Case {
        label: "batch-setup with an escape passes",
        path: "crates/sim/src/batch.rs",
        content: "fn f() {\n    // tidy:allow(batch-setup): cross-check against a standalone run\n    let report = sim.run(policy, &mut mk)?;\n}\n",
        expect: &[],
    },
    Case {
        label: "objective-score fires on raw QoM ranking outside core",
        path: "crates/spec/src/seeded.rs",
        content: "fn f() {\n    if eval.capture_probability > best.capture_probability {\n        best = eval;\n    }\n}\n",
        expect: &["objective-score"],
    },
    Case {
        label: "objective-score is legal inside crates/core",
        path: "crates/core/src/seeded.rs",
        content: "fn f() {\n    if eval.capture_probability > best.capture_probability {\n        best = eval;\n    }\n}\n",
        expect: &[],
    },
    Case {
        label: "objective-score with an escape passes",
        path: "crates/serve/src/seeded.rs",
        content: "fn f() {\n    // tidy:allow(objective-score): feasibility floor, not a ranking\n    let ok = eval.capture_probability > 0.0;\n}\n",
        expect: &[],
    },
    Case {
        label: "unsafe fires outside the signal shim",
        path: "crates/sim/src/seeded.rs",
        content: "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        expect: &["unsafe"],
    },
    Case {
        label: "unsafe in the shim without SAFETY still fires",
        path: "crates/serve/src/signal.rs",
        content: "fn f() {\n    unsafe { libc_signal(2, handler as usize) };\n}\n",
        expect: &["unsafe"],
    },
    Case {
        label: "unsafe in the shim with SAFETY passes",
        path: "crates/serve/src/signal.rs",
        content: "fn f() {\n    // SAFETY: handler is async-signal-safe and 'static.\n    unsafe { libc_signal(2, handler as usize) };\n}\n",
        expect: &[],
    },
    Case {
        label: "unsafe_code in an attribute is not the unsafe token",
        path: "crates/sim/src/seeded.rs",
        content: "#![forbid(unsafe_code)]\nfn f() {}\n",
        expect: &[],
    },
    Case {
        label: "forbid-unsafe + crate-docs fire on a bare crate root",
        path: "crates/seeded/src/lib.rs",
        content: "pub fn f() {}\n",
        expect: &["forbid-unsafe", "crate-docs"],
    },
    Case {
        label: "a documented, forbidding crate root passes",
        path: "crates/seeded/src/lib.rs",
        content: "//! Seeded crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        expect: &[],
    },
    Case {
        label: "tidy:allow on the same line waives the finding",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now(); // tidy:allow(instant-now): wall clock for a banner\n}\n",
        expect: &[],
    },
    Case {
        label: "tidy:allow on the preceding line waives the finding",
        path: "crates/bench/src/seeded.rs",
        content: "fn f() {\n    // tidy:allow(solve-site): ablation needs a raw policy\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n",
        expect: &[],
    },
    Case {
        label: "a mismatched tidy:allow fails twice: finding plus stale escape",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now(); // tidy:allow(json-fmt): wrong rule\n}\n",
        expect: &["instant-now", "stale-allow"],
    },
    Case {
        label: "stale-allow fires on an escape with nothing to suppress",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    // tidy:allow(print): removed the debug print, forgot the escape\n    let n = 1;\n}\n",
        expect: &["stale-allow"],
    },
    Case {
        label: "stale-allow fires on an unknown rule name",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now(); // tidy:allow(instant-nao): typo\n}\n",
        expect: &["instant-now", "stale-allow"],
    },
    Case {
        label: "a crate-root escape that still suppresses is not stale",
        path: "crates/seeded/src/lib.rs",
        content: "//! Seeded crate.\n// tidy:allow(forbid-unsafe): proc-macro crate, lint inapplicable\npub fn f() {}\n",
        expect: &[],
    },
    Case {
        label: "code below a column-0 #[cfg(test)] is exempt",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g() {\n        let t = Instant::now();\n    }\n}\n",
        expect: &[],
    },
    Case {
        label: "files under tests/ are exempt",
        path: "crates/serve/tests/seeded.rs",
        content: "fn f() {\n    let v = body.parse().unwrap();\n    let t = Instant::now();\n}\n",
        expect: &[],
    },
    Case {
        label: "compat shims are exempt from content rules",
        path: "compat/criterion/src/seeded.rs",
        content: "fn f() {\n    let t = Instant::now();\n}\n",
        expect: &[],
    },
    Case {
        label: "comment lines do not trip content rules",
        path: "crates/cli/src/seeded.rs",
        content: "fn f() {\n    // e.g. Instant::now() would be wrong here\n}\n",
        expect: &[],
    },
];

/// Runs the fixture corpus (`xtask tidy --self-test`).
pub fn self_test() -> ExitCode {
    // Every expectation must name a real rule, or the test proves nothing.
    for case in CASES {
        for rule in case.expect {
            assert!(
                RULES.iter().any(|(name, _)| name == rule),
                "self-test case `{}` expects unknown rule `{rule}`",
                case.label
            );
        }
    }

    let mut failures = 0usize;
    for case in CASES {
        let file = SourceFile::new(case.path, case.content);
        let got: Vec<&str> = check_source(&file).iter().map(|v| v.rule).collect();
        let mut want: Vec<&str> = case.expect.to_vec();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        want.sort_unstable();
        if sorted == want {
            println!("ok   {}", case.label);
        } else {
            failures += 1;
            println!(
                "FAIL {} — expected {:?}, got {:?}",
                case.label, case.expect, got
            );
        }
    }

    // Each rule must fire in at least one case; a rule no case can trigger
    // is dead weight (or silently broken).
    for (name, _) in RULES {
        let fired = CASES.iter().any(|c| c.expect.contains(name));
        if !fired {
            failures += 1;
            println!("FAIL rule `{name}` is never exercised by any self-test case");
        }
    }

    if failures == 0 {
        println!("tidy self-test: {} cases, all rules fire — ok", CASES.len());
        ExitCode::SUCCESS
    } else {
        println!("tidy self-test: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
