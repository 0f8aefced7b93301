//! Panic reachability: from the serve request-path roots, no path may
//! reach a panic site.
//!
//! Panic sources per function body:
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!` macro uses.
//!   (`assert!` family is deliberately *not* a source: asserts state
//!   invariants the code relies on; turning every assert into a finding
//!   would bury the real signal.)
//! - `.unwrap()` / `.expect(…)` method calls — unless the call resolves
//!   to a method the enclosing type itself defines (a parser's own
//!   `fn expect` is an ordinary call, not `Option::expect`).
//! - Runtime slice/array indexing, in the crates listed in
//!   [`Config::index_crates`] only: the numeric kernels index tightly in
//!   loops with shapes proved at construction, and flagging all of them
//!   would drown the serve/store findings this analysis exists for.
//!   Bracket groups containing only numeric literals / range dots are
//!   skipped (fixed-size array accesses the compiler checks; the blind
//!   spot — a literal index into a runtime-sized slice — is documented).
//!
//! A `deepcheck:allow(panic-path)` waiver on a source line suppresses the
//! site; on a call line it cuts traversal through that call.

use crate::callgraph::Graph;
use crate::syntax::CallKind;

use super::{Config, Finding, Waivers};

/// A panic source inside one function.
struct Site {
    line: u32,
    what: String,
}

pub(super) fn check(g: &Graph, cfg: &Config, w: &Waivers) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut roots = Vec::new();
    for spec in &cfg.panic_roots {
        let m = g.find_roots(spec);
        if m.is_empty() {
            findings.push(Finding {
                rule: "panic-path",
                file: String::new(),
                line: 0,
                message: format!(
                    "root `{spec}` matches no function — the analysis config has drifted \
                     from the code; update the root list"
                ),
                chain: Vec::new(),
            });
        }
        roots.extend(m);
    }

    let parent = g.reach(&roots, |caller, e| {
        w.covers(&g.fns[caller].file, e.line, "panic-path")
    });

    for i in 0..g.fns.len() {
        if parent[i].is_none() {
            continue;
        }
        let f = &g.fns[i];
        for site in sites(g, i, cfg) {
            if w.covers(&f.file, site.line, "panic-path") {
                continue;
            }
            let mut chain = g.chain(&parent, i);
            chain.push(format!("{} at {}:{}", site.what, f.file, site.line));
            findings.push(Finding {
                rule: "panic-path",
                file: f.file.clone(),
                line: site.line,
                message: format!("{} reachable from a request-path root", site.what),
                chain,
            });
        }
    }
    findings
}

fn sites(g: &Graph, i: usize, cfg: &Config) -> Vec<Site> {
    let mut out = Vec::new();
    let f = &g.fns[i];
    for call in &g.facts[i].calls {
        match &call.kind {
            CallKind::Macro { name }
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) =>
            {
                out.push(Site {
                    line: call.line,
                    what: format!("`{name}!`"),
                });
            }
            CallKind::Method { name, recv }
                if matches!(name.as_str(), "unwrap" | "expect")
                    && !g.is_own_method(i, name, recv.as_deref()) =>
            {
                out.push(Site {
                    line: call.line,
                    what: format!("`.{name}()`"),
                });
            }
            _ => {}
        }
    }
    if cfg.index_crates.contains(&f.crate_name) {
        for idx in &g.facts[i].indexes {
            if !idx.literal_only {
                out.push(Site {
                    line: idx.line,
                    what: "slice indexing".to_owned(),
                });
            }
        }
    }
    out
}
