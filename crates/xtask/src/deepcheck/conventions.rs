//! Repo conventions the compiler cannot see: which crates construct
//! policies, read clocks, spawn threads, print or hand-roll JSON, where
//! `unsafe` may live, what every crate root carries, and that serve
//! certifies every artifact it loads from disk.
//!
//! Token rules match needle token sequences from [`crate::lexer::lex`],
//! so a comment or a string literal cannot trigger them and a needle
//! split across lines still matches. Tokens the item extractor marks as
//! test code are skipped, as are whole files under `tests/`, `benches/`
//! and `examples/`, the `compat/` shims (which mirror external APIs,
//! clocks and all) and the analyzer's own crate. Three rules read what
//! tokens drop: `json-fmt` looks inside string literals, and `crate-docs`
//! and the signal shim's `SAFETY:` check read comment lines.
//! `store-certify` reads the call graph's call sites.

use crate::callgraph::{is_atomic_op, Graph};
use crate::lexer::{lex, Tok, TokKind};
use crate::syntax::{Call, CallKind};

use super::{Finding, Waivers};

/// A token rule: the files it covers, the needles that fire it, and what
/// a finding says after the needle.
struct TokenRule {
    rule: &'static str,
    covers: fn(&str) -> bool,
    needles: &'static [&'static str],
    says: &'static str,
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        rule: "solve-site",
        covers: |path| !path.starts_with("crates/spec/") && !path.starts_with("crates/core/"),
        needles: &[
            "GreedyPolicy::optimize(",
            "ClusteringOptimizer::new(",
            "ClusteringPolicy::new(",
            "MyopicPolicy::derive(",
            "PeriodicPolicy::energy_balanced(",
            "AggressivePolicy::new(",
        ],
        says: "outside crates/spec — go through Scenario::solve()",
    },
    TokenRule {
        rule: "objective-score",
        covers: |path| !path.starts_with("crates/core/"),
        needles: &[
            "capture_probability >",
            "capture_probability <",
            "capture_probability.partial_cmp",
        ],
        says: "outside crates/core re-hard-codes QoM — rank through Objective::utility",
    },
    TokenRule {
        rule: "serve-unwrap",
        covers: |path| path.starts_with("crates/serve/src/"),
        needles: &[".unwrap()", ".expect("],
        says: "on a serve request path — answer a structured error instead",
    },
    TokenRule {
        rule: "instant-now",
        covers: |path| !path.starts_with("crates/obs/src/"),
        needles: &["Instant::now"],
        says: "outside evcap-obs — use an obs timing span",
    },
    TokenRule {
        rule: "thread-spawn",
        covers: |path| path != "crates/sim/src/parallel.rs" && path != "crates/serve/src/server.rs",
        needles: &["thread::spawn", "thread::Builder"],
        says: "outside evcap_sim::parallel / the server pool",
    },
    TokenRule {
        rule: "print",
        covers: |path| !path.starts_with("crates/cli/src/"),
        needles: &["println!", "eprintln!"],
        says: "outside crates/cli — emit an obs record or return the text",
    },
    TokenRule {
        rule: "batch-setup",
        covers: |path| path == "crates/sim/src/batch.rs",
        needles: &[
            "EventSchedule::generate(",
            "EventSchedule::generate_stationary(",
            ".run(",
            ".run_observed(",
            ".run_on(",
            ".run_on_observed(",
        ],
        says: "in the batch layer rebuilds per-seed set-up — share the batch's sampler and \
               table and call the kernel",
    },
    TokenRule {
        rule: "unsafe",
        covers: |_| true,
        needles: &["unsafe"],
        says: "outside the serve signal shim",
    },
];

/// The one file allowed `unsafe`, each use with a `SAFETY:` comment on
/// its line or within the 4 lines above.
const SIGNAL_SHIM: &str = "crates/serve/src/signal.rs";

/// A crate root: the facade's `src/lib.rs`, or any crate's `src/lib.rs`
/// or `src/main.rs`.
pub(super) fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")
}

/// Files no content rule applies to: tests, benches, examples, the
/// compat shims and the analyzer itself. Crate-root rules still do.
fn content_exempt(path: &str) -> bool {
    ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|seg| path.contains(seg))
        || ["examples/", "compat/", "crates/xtask/"]
            .iter()
            .any(|top| path.starts_with(top))
}

fn matches_at(toks: &[Tok], at: usize, needle: &[Tok]) -> bool {
    toks.get(at..at + needle.len()).is_some_and(|window| {
        window
            .iter()
            .zip(needle)
            .all(|(t, n)| t.kind == n.kind && t.text == n.text)
    })
}

/// Token-rule and crate-root findings for one file. `test` is the
/// per-token test mask from [`crate::syntax::parse_tokens`].
pub(super) fn check_file(
    file: &str,
    src: &str,
    toks: &[Tok],
    test: &[bool],
    w: &Waivers,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if is_crate_root(file) {
        root_findings(file, src, toks, w, &mut out);
    }
    if content_exempt(file) {
        return out;
    }
    let needles: Vec<(&TokenRule, &str, Vec<Tok>)> = TOKEN_RULES
        .iter()
        .filter(|r| (r.covers)(file))
        .flat_map(|r| r.needles.iter().map(move |n| (r, *n, lex(n))))
        .collect();
    let json_covered = file != "crates/obs/src/jsonl.rs" && file != "crates/cli/src/json.rs";

    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if json_covered
            && t.kind == TokKind::Str
            && t.text.contains("{\\\"")
            && !w.covers(file, t.line, "json-fmt")
        {
            out.push(Finding::new(
                "json-fmt",
                file,
                t.line,
                "hand-rolled JSON literal — use the shared writers (evcap-obs jsonl / cli json)"
                    .to_owned(),
            ));
        }
        for (rule, needle, toks_of) in &needles {
            if !matches_at(toks, i, toks_of) {
                continue;
            }
            let mut says = rule.says;
            if rule.rule == "unsafe" && file == SIGNAL_SHIM {
                if safety_documented(src, t.line) {
                    continue;
                }
                says = "in the signal shim without a SAFETY: comment";
            }
            if !w.covers(file, t.line, rule.rule) {
                out.push(Finding::new(
                    rule.rule,
                    file,
                    t.line,
                    format!("`{needle}` {says}"),
                ));
            }
        }
    }
    out
}

/// True when line `line` (1-based) or one of the 4 lines above it
/// carries a `SAFETY:` comment.
fn safety_documented(src: &str, line: u32) -> bool {
    let first = (line as usize).saturating_sub(5);
    src.lines()
        .skip(first)
        .take(line as usize - first)
        .any(|l| l.contains("SAFETY:"))
}

/// `forbid-unsafe` and `crate-docs`. Both report line 1 and accept their
/// escape anywhere in the root file.
fn root_findings(file: &str, src: &str, toks: &[Tok], w: &Waivers, out: &mut Vec<Finding>) {
    let pinned = ["#![forbid(unsafe_code)]", "#![deny(unsafe_code)]"]
        .iter()
        .any(|attr| {
            let attr = lex(attr);
            (0..toks.len()).any(|i| matches_at(toks, i, &attr))
        });
    if !pinned && !w.covers_file(file, "forbid-unsafe") {
        out.push(Finding::new(
            "forbid-unsafe",
            file,
            1,
            "crate root lacks #![forbid(unsafe_code)] (or #![deny] + module opt-out)".to_owned(),
        ));
    }
    let documented = src
        .lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| l.trim_start().starts_with("//!"));
    if !documented && !w.covers_file(file, "crate-docs") {
        out.push(Finding::new(
            "crate-docs",
            file,
            1,
            "crate root does not open with //! documentation".to_owned(),
        ));
    }
}

/// `store-certify`: every `crates/serve` function that loads an artifact
/// must call `evcap_audit::certify` later in the same body.
pub(super) fn store_certify(g: &Graph, w: &Waivers) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !f.file.starts_with("crates/serve/src/") {
            continue;
        }
        let calls = &g.facts[i].calls;
        for load in calls.iter().filter(|c| is_artifact_load(&f.body, c)) {
            let certified = calls.iter().any(|c| c.tok > load.tok && is_certify(c));
            if !certified && !w.covers(&f.file, load.line, "store-certify") {
                out.push(Finding::new(
                    "store-certify",
                    &f.file,
                    load.line,
                    "deserialized artifact served without an evcap_audit::certify gate".to_owned(),
                ));
            }
        }
    }
    out
}

/// `.load(…)` (atomic loads excluded, as in the call graph), `Store::load`
/// or any `rehydrate` call.
fn is_artifact_load(body: &[Tok], call: &Call) -> bool {
    match &call.kind {
        CallKind::Method { name, .. } if name == "load" => !is_atomic_op(body, name, call.tok),
        CallKind::Method { name, .. } | CallKind::Free { name } => name == "rehydrate",
        CallKind::Path { segments } => match segments.as_slice() {
            [.., ty, name] if ty == "Store" && name == "load" => true,
            [.., name] => name == "rehydrate",
            [] => false,
        },
        CallKind::Macro { .. } => false,
    }
}

fn is_certify(call: &Call) -> bool {
    matches!(&call.kind, CallKind::Path { segments }
        if matches!(segments.as_slice(), [.., k, name] if k == "evcap_audit" && name == "certify"))
}
