//! `xtask deepcheck`: the workspace analyzer.
//!
//! One pipeline (lexer → item extractor → name-resolved call graph) runs
//! two kinds of rules over every source file:
//!
//! - **conventions** — token rules (policy construction sites, clocks,
//!   threads, prints, hand-rolled JSON, `unsafe`, serve unwraps, raw QoM
//!   ranking, per-seed batch set-up), crate-root rules (`forbid-unsafe`,
//!   `crate-docs`) and the `store-certify` call-site rule; see
//!   [`conventions`].
//! - **reachability** over the call graph of the crates a serve request
//!   can reach (`GRAPH_CRATES`):
//!   - **panic-path** — no serve request-path root reaches `panic!` /
//!     `unwrap` / `expect` / `unreachable!` / runtime slice indexing.
//!   - **lock-order / lock-blocking** — the lock-acquisition graph of
//!     `crates/serve` + `crates/store` is cycle-free, and no lock is held
//!     across solver calls, file I/O, or socket writes.
//!   - **alloc-hot** — the per-request bookkeeping paths (cache-hit
//!     recording, `/metrics` counters) reach no allocating constructor.
//!
//! A reachability finding carries the full call chain. Any finding can
//! be waived at the site (or, for reachability, at a call line, cutting
//! traversal through it) with
//!
//! ```text
//! // deepcheck:allow(rule): one-line justification
//! ```
//!
//! Waivers are tracked: one that is never consulted by a rule is itself
//! reported (`stale-waiver`), and a malformed or unknown-rule waiver is
//! reported (`waiver`) — so the escape ledger stays honest.

pub mod alloc;
pub mod conventions;
pub mod locks;
pub mod panics;
mod selftest;

pub use selftest::DEADLOCK_FIXTURE;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use crate::callgraph::Graph;
use crate::files::{collect_sources, crate_of, workspace_root};
use crate::lexer::lex;
use crate::syntax::parse_tokens;

/// Every rule deepcheck knows about.
pub const RULES: &[(&str, &str)] = &[
    (
        "panic-path",
        "a panic site (panic!/unwrap/expect/unreachable!/runtime indexing) is reachable \
         from a serve request-path root — convert to a structured error or waive with a \
         SAFETY-style justification",
    ),
    (
        "lock-order",
        "two locks are acquired in opposite orders on some pair of paths (potential \
         deadlock) — pick one global order",
    ),
    (
        "lock-blocking",
        "a lock is held across a blocking operation (spec::solve, file I/O, socket \
         write) — shrink the critical section or waive with the design rationale",
    ),
    (
        "alloc-hot",
        "an allocating constructor (Vec::new, format!, String::from, Box::new, collect, \
         ...) is reachable from an allocation-free hot-path root",
    ),
    (
        "solve-site",
        "policy construction (GreedyPolicy::optimize, ClusteringOptimizer, ...) belongs in \
         crates/spec's solve(); other call sites need a waiver explaining why they bypass \
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
         a waiver",
    ),
    (
        "unsafe",
        "unsafe code lives only in the serve signal shim, where every block carries a \
         SAFETY: comment; everywhere else the crate root forbids it",
    ),
    (
        "store-certify",
        "a crates/serve function that loads an artifact (Store::load / rehydrate) must call \
         evcap_audit::certify later in the same body — a stale, corrupt, or tampered record \
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
        "waiver",
        "a deepcheck:allow escape is malformed: unknown rule name or missing `: why` \
         justification",
    ),
    (
        "stale-waiver",
        "a deepcheck:allow escape was never consulted by any rule — the code it excused \
         is gone or unreachable; remove it",
    ),
];

/// The crates whose `src/` trees enter the call graph. `cli`, `bench`,
/// the `evcap` facade and `xtask` itself stay out: nothing on a serve
/// request path can reach them, and their method names would only inflate
/// the name-based resolution over-approximation.
const GRAPH_CRATES: &[&str] = &[
    "audit", "core", "dist", "energy", "lp", "obs", "renewal", "serve", "sim", "spec", "store",
];

/// One source file fed to the analyzer.
pub struct SourceUnit {
    /// The crate whose call graph the file joins; `None` keeps it out of
    /// the graph (the convention rules still read it).
    pub crate_name: Option<String>,
    pub file: String,
    pub src: String,
}

/// What to analyze and from where.
pub struct Config {
    /// Panic-reachability roots, as `crate::fn` or `crate::Type::fn`.
    pub panic_roots: Vec<String>,
    /// Allocation-analysis roots, same syntax.
    pub alloc_roots: Vec<String>,
    /// Crates whose lock acquisitions are modeled.
    pub lock_crates: Vec<String>,
    /// Crates where runtime slice indexing counts as a panic source.
    pub index_crates: Vec<String>,
}

/// One confirmed finding.
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// `root (file:line) → … → site`, empty for non-reachability findings.
    pub chain: Vec<String>,
}

impl Finding {
    /// A finding without a call chain.
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message,
            chain: Vec::new(),
        }
    }

    /// The finding plus its chain, flattened — used by the self-test
    /// substring assertions and the human renderer.
    pub fn rendered(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        );
        for (i, link) in self.chain.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { "\n    -> " });
            s.push_str(link);
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

struct Waiver {
    /// 1-based line the escape comment sits on.
    line: u32,
    rule: String,
    used: Cell<bool>,
}

/// All valid `deepcheck:allow(rule): why` escapes, indexed by file, with
/// use tracking for stale detection.
pub struct Waivers {
    by_file: BTreeMap<String, Vec<Waiver>>,
}

impl Waivers {
    /// Parses escapes out of the raw sources. Malformed escapes (unknown
    /// rule, missing justification) become `waiver` findings immediately
    /// and do not enter the valid set, so they cannot suppress anything.
    /// The analyzer's own crate is skipped: its fixtures spell waivers
    /// inside string literals.
    pub fn parse(units: &[SourceUnit]) -> (Waivers, Vec<Finding>) {
        let mut by_file: BTreeMap<String, Vec<Waiver>> = BTreeMap::new();
        let mut findings = Vec::new();
        for u in units
            .iter()
            .filter(|u| !u.file.starts_with("crates/xtask/"))
        {
            for (idx, line) in u.src.lines().enumerate() {
                let line_no = idx as u32 + 1;
                let mut from = 0;
                while let Some(pos) = line[from..].find("deepcheck:allow(") {
                    let at = from + pos + "deepcheck:allow(".len();
                    let Some(close) = line[at..].find(')') else {
                        break;
                    };
                    let rule = &line[at..at + close];
                    let rest = &line[at + close + 1..];
                    from = at + close;
                    if !RULES.iter().any(|(name, _)| name == &rule) {
                        findings.push(Finding::new(
                            "waiver",
                            &u.file,
                            line_no,
                            format!("escape names unknown rule `{rule}`"),
                        ));
                        continue;
                    }
                    let justification = rest.strip_prefix(':').map(str::trim).unwrap_or("");
                    if justification.is_empty() {
                        findings.push(Finding::new(
                            "waiver",
                            &u.file,
                            line_no,
                            format!("deepcheck:allow({rule}) lacks a `: why` justification"),
                        ));
                        continue;
                    }
                    by_file.entry(u.file.clone()).or_default().push(Waiver {
                        line: line_no,
                        rule: rule.to_owned(),
                        used: Cell::new(false),
                    });
                }
            }
        }
        (Waivers { by_file }, findings)
    }

    /// True when a valid waiver for `rule` sits on `line` or the line
    /// above it in `file`; marks the waiver used.
    pub fn covers(&self, file: &str, line: u32, rule: &str) -> bool {
        self.consult(file, rule, |at| at == line || at + 1 == line)
    }

    /// True when a valid waiver for `rule` sits anywhere in `file` (the
    /// crate-root rules); marks the waiver used.
    pub fn covers_file(&self, file: &str, rule: &str) -> bool {
        self.consult(file, rule, |_| true)
    }

    fn consult(&self, file: &str, rule: &str, placed: impl Fn(u32) -> bool) -> bool {
        let Some(ws) = self.by_file.get(file) else {
            return false;
        };
        match ws.iter().find(|w| w.rule == rule && placed(w.line)) {
            Some(w) => {
                w.used.set(true);
                true
            }
            None => false,
        }
    }

    fn total(&self) -> usize {
        self.by_file.values().map(Vec::len).sum()
    }

    fn used(&self) -> usize {
        self.by_file
            .values()
            .flatten()
            .filter(|w| w.used.get())
            .count()
    }

    /// `stale-waiver` findings for every valid escape no analysis
    /// consulted.
    fn stale_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for (file, ws) in &self.by_file {
            for w in ws {
                if !w.used.get() {
                    out.push(Finding::new(
                        "stale-waiver",
                        file,
                        w.line,
                        format!(
                            "deepcheck:allow({}) was never consulted — the code it excused is \
                             gone or unreachable; remove it",
                            w.rule
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The analysis pipeline
// ---------------------------------------------------------------------------

/// A full analysis pass over a source set.
pub struct Report {
    pub files: usize,
    pub functions: usize,
    pub findings: Vec<Finding>,
    pub waivers: usize,
    pub waivers_used: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over the given sources. This is the single entry
/// point the CLI, the self-test corpus, and the integration tests share —
/// the fixture corpora are just alternative source sets.
pub fn analyze(units: &[SourceUnit], cfg: &Config) -> Report {
    let (waivers, mut findings) = Waivers::parse(units);
    let mut fns = Vec::new();
    for u in units {
        let toks = lex(&u.src);
        let krate = u.crate_name.as_deref().unwrap_or_default();
        let (defs, test) = parse_tokens(krate, &u.file, &toks);
        findings.extend(conventions::check_file(
            &u.file, &u.src, &toks, &test, &waivers,
        ));
        if u.crate_name.is_some() {
            fns.extend(defs.into_iter().filter(|f| !f.is_test));
        }
    }
    let functions = fns.len();
    let graph = Graph::build(fns);

    findings.extend(conventions::store_certify(&graph, &waivers));
    findings.extend(panics::check(&graph, cfg, &waivers));
    findings.extend(alloc::check(&graph, cfg, &waivers));
    findings.extend(locks::check(&graph, cfg, &waivers));
    findings.extend(waivers.stale_findings());

    Report {
        files: units.len(),
        functions,
        findings,
        waivers: waivers.total(),
        waivers_used: waivers.used(),
    }
}

/// The production configuration: serve request-path roots, hot-path
/// allocation roots, and the lock scope. Every root must resolve to a
/// real function — a rename that orphans one surfaces as a finding, not
/// as a silently weakened analysis.
fn workspace_config() -> Config {
    Config {
        panic_roots: vec![
            // The connection loop and router.
            "serve::handle_connection".into(),
            // The /v1/* handlers (reachable from the router; listed
            // explicitly so a routing refactor cannot silently orphan
            // them).
            "serve::solve_artifact".into(),
            "serve::simulate".into(),
            // The store tier: disk loads and rehydration on a miss.
            "serve::store_load".into(),
            "serve::store_append".into(),
            "serve::store_snapshot".into(),
            "store::Store::load".into(),
        ],
        alloc_roots: vec![
            // Per-request bookkeeping: counters, histogram, trace marks.
            "serve::Metrics::request".into(),
            "serve::Metrics::objective_request".into(),
            "serve::Metrics::solve_fetch".into(),
            // The cache-hit lookup machinery.
            "serve::Lru::get".into(),
            "serve::Lru::peek".into(),
            "serve::ShardedCache::shard_of".into(),
        ],
        lock_crates: vec!["serve".into(), "store".into()],
        index_crates: vec!["serve".into(), "store".into()],
    }
}

/// Loads every workspace source file; only `GRAPH_CRATES` files join
/// the call graph.
fn workspace_units() -> Vec<SourceUnit> {
    let root = workspace_root();
    let mut units = Vec::new();
    for rel in collect_sources(&root) {
        let path = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(root.join(&rel))
            .unwrap_or_else(|err| panic!("deepcheck: cannot read {path}: {err}"));
        units.push(SourceUnit {
            crate_name: crate_of(&path).filter(|c| GRAPH_CRATES.contains(&c.as_str())),
            file: path,
            src,
        });
    }
    units
}

/// `xtask deepcheck [--json]`.
pub fn run(json: bool) -> ExitCode {
    let units = workspace_units();
    let roots = units
        .iter()
        .filter(|u| conventions::is_crate_root(&u.file))
        .count();
    // The workspace has a dozen-plus crate roots; seeing almost none
    // means the walk or the root heuristic silently broke.
    assert!(
        units.len() >= 20 && roots >= 10,
        "deepcheck walked {} files and {roots} crate roots — is the workspace layout intact?",
        units.len()
    );
    let report = analyze(&units, &workspace_config());
    if json {
        println!("{}", render_json(&report));
    } else {
        for f in &report.findings {
            println!("deepcheck: {}", f.rendered());
        }
        println!(
            "deepcheck: {} files, {roots} crate roots, {} functions, {} waiver(s) ({} used) — {}",
            report.files,
            report.functions,
            report.waivers,
            report.waivers_used,
            if report.clean() {
                "clean".to_owned()
            } else {
                format!("{} finding(s)", report.findings.len())
            }
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `xtask deepcheck --self-test`.
pub fn self_test() -> ExitCode {
    selftest::run()
}

// ---------------------------------------------------------------------------
// JSON rendering (hand-rolled: xtask is std-only by design)
// ---------------------------------------------------------------------------

fn render_json(r: &Report) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\"type\":\"deepcheck\"");
    s.push_str(&format!(",\"files\":{}", r.files));
    s.push_str(&format!(",\"functions\":{}", r.functions));
    s.push_str(",\"findings\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{},\"chain\":[",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
        for (j, link) in f.chain.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&json_str(link));
        }
        s.push_str("]}");
    }
    s.push(']');
    s.push_str(&format!(
        ",\"waivers\":{{\"total\":{},\"used\":{}}}",
        r.waivers, r.waivers_used
    ));
    s.push_str(&format!(",\"clean\":{}}}", r.clean()));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
