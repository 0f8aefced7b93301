//! `deepcheck --self-test`: a fixture corpus proving every rule can
//! fire — and stay quiet when it should.
//!
//! Each case is a miniature workspace (a few files with real paths) plus
//! an analysis config; expectations are (rule, substrings) pairs that
//! must match distinct findings, with no findings left over. A rule no
//! case can trigger fails the self-test.

use std::process::ExitCode;

use crate::files::crate_of;

use super::{analyze, Config, SourceUnit, RULES};

struct Case {
    label: &'static str,
    files: &'static [(&'static str, &'static str)],
    panic_roots: &'static [&'static str],
    alloc_roots: &'static [&'static str],
    lock_crates: &'static [&'static str],
    index_crates: &'static [&'static str],
    /// Expected findings: each entry must match one distinct finding by
    /// rule and by every substring appearing in its rendered form.
    expect: &'static [(&'static str, &'static [&'static str])],
}

/// The empty case: no files, no roots, no findings expected. Cases
/// override what they need with `..CASE`.
const CASE: Case = Case {
    label: "",
    files: &[],
    panic_roots: &[],
    alloc_roots: &[],
    lock_crates: &[],
    index_crates: &[],
    expect: &[],
};

const CASES: &[Case] = &[
    Case {
        label: "panic two calls deep fires with the full chain",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root() { helper(); }
fn helper() { deeper(); }
fn deeper() { maybe().unwrap(); }
fn maybe() -> Option<u32> { None }
"#,
        )],
        panic_roots: &["app::root"],
        expect: &[(
            "panic-path",
            &["`.unwrap()`", "root (", "helper (", "deeper ("],
        )],
        ..CASE
    },
    Case {
        label: "a justified waiver suppresses the site and is not stale",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root() { helper(); }
fn helper() {
    // deepcheck:allow(panic-path): fixture-justified invariant
    maybe().unwrap();
}
fn maybe() -> Option<u32> { None }
"#,
        )],
        panic_roots: &["app::root"],
        ..CASE
    },
    Case {
        label: "a waiver in unreachable code is reported stale",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root() {}
fn dead() {
    // deepcheck:allow(panic-path): nothing ever consults this
    maybe().unwrap();
}
fn maybe() -> Option<u32> { None }
"#,
        )],
        panic_roots: &["app::root"],
        expect: &[("stale-waiver", &["never consulted"])],
        ..CASE
    },
    Case {
        label: "a waiver naming an unknown rule is reported",
        files: &[(
            "crates/app/src/app.rs",
            r#"
// deepcheck:allow(panic-free): no such rule
pub fn root() {}
"#,
        )],
        panic_roots: &["app::root"],
        expect: &[("waiver", &["unknown rule", "panic-free"])],
        ..CASE
    },
    Case {
        label: "a waiver without a justification is reported",
        files: &[(
            "crates/app/src/app.rs",
            r#"
// deepcheck:allow(panic-path)
pub fn root() {}
"#,
        )],
        panic_roots: &["app::root"],
        expect: &[("waiver", &["justification"])],
        ..CASE
    },
    Case {
        label: "runtime slice indexing fires in an index-scoped crate",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root(xs: &[u64], i: usize) -> u64 { xs[i] }
"#,
        )],
        panic_roots: &["app::root"],
        index_crates: &["app"],
        expect: &[("panic-path", &["slice indexing"])],
        ..CASE
    },
    Case {
        label: "literal-only array indexing is not a panic source",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root(xs: [u64; 3]) -> u64 { xs[0] + xs[1] }
"#,
        )],
        panic_roots: &["app::root"],
        index_crates: &["app"],
        ..CASE
    },
    Case {
        label: "a type's own `expect` method is a call, not a panic",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub struct Parser { n: u32 }
impl Parser {
    pub fn root(&self) -> u32 { self.expect(1) }
    fn expect(&self, n: u32) -> u32 { self.n + n }
}
"#,
        )],
        panic_roots: &["app::Parser::root"],
        ..CASE
    },
    Case {
        label: "inverted lock orders across two functions form a cycle",
        files: &[("crates/app/src/app.rs", DEADLOCK_FIXTURE)],
        lock_crates: &["app"],
        expect: &[("lock-order", &["cycle", "`a` then `b`", "`b` then `a`"])],
        ..CASE
    },
    Case {
        label: "a consistent lock order is clean",
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<u32>, pub b: Mutex<u32> }
pub fn one(s: &S) {
    let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = s.b.lock().unwrap_or_else(|e| e.into_inner());
    drop(gb);
    drop(ga);
}
pub fn two(s: &S) {
    let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = s.b.lock().unwrap_or_else(|e| e.into_inner());
    drop(gb);
    drop(ga);
}
"#,
        )],
        lock_crates: &["app"],
        ..CASE
    },
    Case {
        label: "an inverted order through a precise self-method call is a cycle",
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<u32>, pub b: Mutex<u32> }
impl S {
    pub fn outer(&self) {
        let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());
        self.inner();
        drop(ga);
    }
    fn inner(&self) {
        let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());
        drop(gb);
    }
    pub fn other(&self) {
        let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());
        let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());
        drop(ga);
        drop(gb);
    }
}
"#,
        )],
        lock_crates: &["app"],
        expect: &[("lock-order", &["cycle", "`a` then `b`", "`b` then `a`"])],
        ..CASE
    },
    Case {
        label: "a name-aliased method edge does not smuggle lock order",
        // `v.len()` on a Vec aliases `Registry::len`, which locks `a`. If
        // alias edges propagated acquisition sets, `tick` would appear to
        // take `b` then `a` and close a cycle against `snapshot`'s real
        // `a` then `b`. They must not.
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct Registry { pub a: Mutex<Vec<u8>>, pub b: Mutex<u32> }
impl Registry {
    pub fn len(&self) -> usize {
        self.a.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
    pub fn snapshot(&self) -> usize {
        let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());
        let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());
        let n = ga.len() + *gb as usize;
        drop(gb);
        drop(ga);
        n
    }
}
pub fn tick(r: &Registry, v: &Vec<u8>) -> usize {
    let gb = r.b.lock().unwrap_or_else(|e| e.into_inner());
    let n = v.len();
    drop(gb);
    n
}
"#,
        )],
        lock_crates: &["app"],
        ..CASE
    },
    Case {
        label: "a lock held across file I/O is flagged",
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<Vec<u8>> }
pub fn flush_all(s: &S) {
    let g = s.a.lock().unwrap_or_else(|e| e.into_inner());
    std::fs::write("/tmp/evcap-fixture", b"x").ok();
    drop(g);
}
"#,
        )],
        lock_crates: &["app"],
        expect: &[("lock-blocking", &["`a`", "fs::write"])],
        ..CASE
    },
    Case {
        label: "a temporary guard dropped at the statement end is clean",
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<Vec<u8>> }
pub fn bump(s: &S) {
    s.a.lock().unwrap_or_else(|e| e.into_inner()).push(1);
    std::fs::write("/tmp/evcap-fixture", b"x").ok();
}
"#,
        )],
        lock_crates: &["app"],
        ..CASE
    },
    Case {
        label: "a lock held across a transitively-blocking callee is flagged",
        files: &[(
            "crates/app/src/app.rs",
            r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<u32> }
pub fn root(s: &S) {
    let g = s.a.lock().unwrap_or_else(|e| e.into_inner());
    persist();
    drop(g);
}
fn persist() { std::fs::write("/tmp/evcap-fixture", b"x").ok(); }
"#,
        )],
        lock_crates: &["app"],
        expect: &[("lock-blocking", &["persist", "fs::write"])],
        ..CASE
    },
    Case {
        label: "a lock held across a solver call is flagged",
        files: &[
            (
                "crates/app/src/app.rs",
                r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<u32> }
pub fn root(s: &S) {
    let g = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let _p = evcap_spec::solve();
    drop(g);
}
"#,
            ),
            ("crates/spec/src/solve.rs", "pub fn solve() -> u32 { 7 }\n"),
        ],
        lock_crates: &["app"],
        expect: &[("lock-blocking", &["solve", "solver compute"])],
        ..CASE
    },
    Case {
        label: "an allocation one call deep fires with the chain",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn hot() -> u32 { warm() }
fn warm() -> u32 { let s = format!("x{}", 1); s.len() as u32 }
"#,
        )],
        alloc_roots: &["app::hot"],
        expect: &[("alloc-hot", &["`format!`", "hot (", "warm ("])],
        ..CASE
    },
    Case {
        label: "an allocating constructor path fires",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn hot() -> Vec<u8> { Vec::new() }
"#,
        )],
        alloc_roots: &["app::hot"],
        expect: &[("alloc-hot", &["Vec::new"])],
        ..CASE
    },
    Case {
        label: "a waiver on a call line cuts traversal through it",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn hot() -> u32 {
    // deepcheck:allow(alloc-hot): cold-start fill, allocation-free afterwards
    warm()
}
fn warm() -> u32 { let s = format!("x{}", 1); s.len() as u32 }
"#,
        )],
        alloc_roots: &["app::hot"],
        ..CASE
    },
    Case {
        label: "trait-object calls over-approximate onto every impl",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub trait Step { fn go(&self) -> u32; }
pub struct A;
impl Step for A { fn go(&self) -> u32 { 1 } }
pub struct B;
impl Step for B { fn go(&self) -> u32 { maybe().unwrap() } }
pub fn root(t: &dyn Step) -> u32 { t.go() }
fn maybe() -> Option<u32> { None }
"#,
        )],
        panic_roots: &["app::root"],
        expect: &[("panic-path", &["`.unwrap()`", "B::go"])],
        ..CASE
    },
    Case {
        label: "a root that matches no function is config drift",
        files: &[("crates/app/src/app.rs", "pub fn root() {}\n")],
        panic_roots: &["app::missing"],
        expect: &[("panic-path", &["matches no function"])],
        ..CASE
    },
    Case {
        label: "test code is outside the graph",
        files: &[(
            "crates/app/src/app.rs",
            r#"
pub fn root() { helper(); }
fn helper() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::helper();
        maybe().unwrap();
    }
}
"#,
        )],
        panic_roots: &["app::root"],
        ..CASE
    },

    // Convention rules: one finding per needle, waivers, scoping.
    Case {
        label: "solve-site fires outside spec",
        files: &[("crates/bench/src/seeded.rs", "fn f() {\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n")],
        expect: &[("solve-site", &[])],
        ..CASE
    },
    Case {
        label: "solve-site is legal inside crates/spec",
        files: &[("crates/spec/src/seeded.rs", "fn f() {\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n")],
        ..CASE
    },
    Case {
        label: "serve-unwrap fires on request paths",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let v = body.parse().unwrap();\n}\n")],
        expect: &[("serve-unwrap", &[])],
        ..CASE
    },
    Case {
        label: "serve-unwrap ignores other crates",
        files: &[("crates/sim/src/seeded.rs", "fn f() {\n    let v = body.parse().unwrap();\n}\n")],
        ..CASE
    },
    Case {
        label: "instant-now fires outside evcap-obs",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let t = Instant::now();\n}\n")],
        expect: &[("instant-now", &[])],
        ..CASE
    },
    Case {
        label: "instant-now is legal inside evcap-obs",
        files: &[("crates/obs/src/seeded.rs", "fn f() {\n    let t = Instant::now();\n}\n")],
        ..CASE
    },
    Case {
        label: "thread-spawn fires outside the sanctioned files",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    std::thread::spawn(|| {});\n}\n")],
        expect: &[("thread-spawn", &[])],
        ..CASE
    },
    Case {
        label: "json-fmt fires on hand-rolled JSON",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let s = format!(\"{{\\\"a\\\":{n}}}\");\n}\n")],
        expect: &[("json-fmt", &[])],
        ..CASE
    },
    Case {
        label: "print fires in library crates",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    eprintln!(\"draining\");\n}\n")],
        expect: &[("print", &[])],
        ..CASE
    },
    Case {
        label: "print is legal inside the CLI",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    println!(\"listening\");\n}\n")],
        ..CASE
    },
    Case {
        label: "print with an escape passes",
        files: &[("crates/bench/src/seeded.rs", "fn f() {\n    eprintln!(\"# perf\"); // deepcheck:allow(print): stderr report by design\n}\n")],
        ..CASE
    },
    Case {
        label: "store-certify fires on an uncertified store load in serve",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    serve(loaded);\n}\n")],
        expect: &[("store-certify", &[])],
        ..CASE
    },
    Case {
        label: "store-certify passes when certify gates the load",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    match loaded {\n        Ok(solved) => match evcap_audit::certify(scenario, &solved) {\n            Ok(_) => keep(solved),\n            Err(_) => reject(),\n        },\n        Err(_) => miss(),\n    }\n}\n")],
        ..CASE
    },
    Case {
        label: "store-certify fires on a bare rehydrate in serve",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let solved = evcap_spec::rehydrate(&scenario, &params)?;\n}\n")],
        expect: &[("store-certify", &[])],
        ..CASE
    },
    Case {
        label: "store-certify ignores atomic loads",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let stop = shared.shutdown.load(Ordering::SeqCst);\n}\n")],
        ..CASE
    },
    Case {
        label: "store-certify ignores loads outside serve",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let rec = store.load(key);\n}\n")],
        ..CASE
    },
    Case {
        label: "store-certify with an escape passes",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    // deepcheck:allow(store-certify): debug endpoint, never served to clients\n    let rec = store.lock().ok()?.load(key);\n}\n")],
        ..CASE
    },
    Case {
        label: "batch-setup fires on per-seed set-up in the batch layer",
        files: &[("crates/sim/src/batch.rs", "fn f() {\n    let schedule = EventSchedule::generate(pmf, slots, seed)?;\n    let report = sim.run_on(&schedule, policy, &mut mk)?;\n}\n")],
        expect: &[("batch-setup", &[]), ("batch-setup", &[])],
        ..CASE
    },
    Case {
        label: "batch-setup ignores per-seed set-up elsewhere",
        files: &[("crates/sim/src/engine.rs", "fn f() {\n    let schedule = EventSchedule::generate(self.pmf, self.slots, self.seed)?;\n    let report = self.run_on_observed(&schedule, policy, mk, observer);\n}\n")],
        ..CASE
    },
    Case {
        label: "batch-setup with an escape passes",
        files: &[("crates/sim/src/batch.rs", "fn f() {\n    // deepcheck:allow(batch-setup): cross-check against a standalone run\n    let report = sim.run(policy, &mut mk)?;\n}\n")],
        ..CASE
    },
    Case {
        label: "objective-score fires on raw QoM ranking outside core",
        files: &[("crates/spec/src/seeded.rs", "fn f() {\n    if eval.capture_probability > best.capture_probability {\n        best = eval;\n    }\n}\n")],
        expect: &[("objective-score", &[])],
        ..CASE
    },
    Case {
        label: "objective-score is legal inside crates/core",
        files: &[("crates/core/src/seeded.rs", "fn f() {\n    if eval.capture_probability > best.capture_probability {\n        best = eval;\n    }\n}\n")],
        ..CASE
    },
    Case {
        label: "objective-score with an escape passes",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    // deepcheck:allow(objective-score): feasibility floor, not a ranking\n    let ok = eval.capture_probability > 0.0;\n}\n")],
        ..CASE
    },
    Case {
        label: "unsafe fires outside the signal shim",
        files: &[("crates/sim/src/seeded.rs", "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n")],
        expect: &[("unsafe", &[])],
        ..CASE
    },
    Case {
        label: "unsafe in the shim without SAFETY still fires",
        files: &[("crates/serve/src/signal.rs", "fn f() {\n    unsafe { libc_signal(2, handler as usize) };\n}\n")],
        expect: &[("unsafe", &[])],
        ..CASE
    },
    Case {
        label: "unsafe in the shim with SAFETY passes",
        files: &[("crates/serve/src/signal.rs", "fn f() {\n    // SAFETY: handler is async-signal-safe and 'static.\n    unsafe { libc_signal(2, handler as usize) };\n}\n")],
        ..CASE
    },
    Case {
        label: "unsafe_code in an attribute is not the unsafe token",
        files: &[("crates/sim/src/seeded.rs", "#![forbid(unsafe_code)]\nfn f() {}\n")],
        ..CASE
    },
    Case {
        label: "forbid-unsafe + crate-docs fire on a bare crate root",
        files: &[("crates/seeded/src/lib.rs", "pub fn f() {}\n")],
        expect: &[("forbid-unsafe", &[]), ("crate-docs", &[])],
        ..CASE
    },
    Case {
        label: "a documented, forbidding crate root passes",
        files: &[("crates/seeded/src/lib.rs", "//! Seeded crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n")],
        ..CASE
    },
    Case {
        label: "deepcheck:allow on the same line waives the finding",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let t = Instant::now(); // deepcheck:allow(instant-now): wall clock for a banner\n}\n")],
        ..CASE
    },
    Case {
        label: "deepcheck:allow on the preceding line waives the finding",
        files: &[("crates/bench/src/seeded.rs", "fn f() {\n    // deepcheck:allow(solve-site): ablation needs a raw policy\n    let p = GreedyPolicy::optimize(&pmf, budget, &model);\n}\n")],
        ..CASE
    },
    Case {
        label: "a mismatched deepcheck:allow fails twice: finding plus stale escape",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let t = Instant::now(); // deepcheck:allow(json-fmt): wrong rule\n}\n")],
        expect: &[("instant-now", &[]), ("stale-waiver", &[])],
        ..CASE
    },
    Case {
        label: "stale-allow fires on an escape with nothing to suppress",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    // deepcheck:allow(print): removed the debug print, forgot the escape\n    let n = 1;\n}\n")],
        expect: &[("stale-waiver", &[])],
        ..CASE
    },
    Case {
        label: "stale-allow fires on an unknown rule name",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let t = Instant::now(); // deepcheck:allow(instant-nao): typo\n}\n")],
        expect: &[("instant-now", &[]), ("waiver", &[])],
        ..CASE
    },
    Case {
        label: "a crate-root escape that still suppresses is not stale",
        files: &[("crates/seeded/src/lib.rs", "//! Seeded crate.\n// deepcheck:allow(forbid-unsafe): proc-macro crate, lint inapplicable\npub fn f() {}\n")],
        ..CASE
    },
    Case {
        label: "code below a column-0 #[cfg(test)] is exempt",
        files: &[("crates/cli/src/seeded.rs", "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g() {\n        let t = Instant::now();\n    }\n}\n")],
        ..CASE
    },
    Case {
        label: "files under tests/ are exempt",
        files: &[("crates/serve/tests/seeded.rs", "fn f() {\n    let v = body.parse().unwrap();\n    let t = Instant::now();\n}\n")],
        ..CASE
    },
    Case {
        label: "compat shims are exempt from content rules",
        files: &[("compat/criterion/src/seeded.rs", "fn f() {\n    let t = Instant::now();\n}\n")],
        ..CASE
    },
    Case {
        label: "comment lines do not trip content rules",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    // e.g. Instant::now() would be wrong here\n}\n")],
        ..CASE
    },
    Case {
        label: "store-certify: a certify in a comment does not certify the load",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    // evcap_audit::certify(scenario, &loaded) runs elsewhere\n    serve(loaded);\n}\n")],
        expect: &[("store-certify", &[])],
        ..CASE
    },
    Case {
        label: "store-certify: a real certify ten lines below the load passes",
        files: &[("crates/serve/src/seeded.rs", "fn f() {\n    let loaded = store.lock().ok()?.load(key);\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    let d = 4;\n    let e = 5;\n    let f = 6;\n    let g = 7;\n    let h = 8;\n    let i = 9;\n    match evcap_audit::certify(scenario, &loaded) {\n        Ok(_) => keep(loaded),\n        Err(_) => reject(),\n    }\n}\n")],
        ..CASE
    },
    Case {
        label: "instant-now: Instant::now inside a string literal is not a clock read",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let s = \"never call Instant::now here\";\n}\n")],
        ..CASE
    },
    Case {
        label: "instant-now: Instant:: and now() split across two lines still fires",
        files: &[("crates/cli/src/seeded.rs", "fn f() {\n    let t = Instant::\n        now();\n}\n")],
        expect: &[("instant-now", &[])],
        ..CASE
    },
];

/// The intentionally-deadlockable fixture: two functions taking the same
/// pair of mutexes in opposite orders. Shared with the integration tests
/// so the lock-order rule is proved against the exact canonical shape.
pub const DEADLOCK_FIXTURE: &str = r#"
use std::sync::Mutex;
pub struct S { pub a: Mutex<u32>, pub b: Mutex<u32> }
pub fn ab(s: &S) {
    let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = s.b.lock().unwrap_or_else(|e| e.into_inner());
    drop(gb);
    drop(ga);
}
pub fn ba(s: &S) {
    let gb = s.b.lock().unwrap_or_else(|e| e.into_inner());
    let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());
    drop(ga);
    drop(gb);
}
"#;

fn case_units(case: &Case) -> Vec<SourceUnit> {
    case.files
        .iter()
        .map(|(path, src)| SourceUnit {
            crate_name: Some(crate_of(path).unwrap_or_else(|| "app".to_owned())),
            file: (*path).to_owned(),
            src: (*src).to_owned(),
        })
        .collect()
}

fn case_config(case: &Case) -> Config {
    Config {
        panic_roots: case.panic_roots.iter().map(|s| (*s).to_owned()).collect(),
        alloc_roots: case.alloc_roots.iter().map(|s| (*s).to_owned()).collect(),
        lock_crates: case.lock_crates.iter().map(|s| (*s).to_owned()).collect(),
        index_crates: case.index_crates.iter().map(|s| (*s).to_owned()).collect(),
    }
}

pub(super) fn run() -> ExitCode {
    for case in CASES {
        for (rule, _) in case.expect {
            assert!(
                RULES.iter().any(|(name, _)| name == rule),
                "self-test case `{}` expects unknown rule `{rule}`",
                case.label
            );
        }
    }

    let mut failures = 0usize;
    for case in CASES {
        let report = analyze(&case_units(case), &case_config(case));
        let mut rendered: Vec<(&'static str, String)> = report
            .findings
            .iter()
            .map(|f| (f.rule, f.rendered()))
            .collect();
        let mut ok = true;
        for (rule, subs) in case.expect {
            let hit = rendered
                .iter()
                .position(|(r, text)| r == rule && subs.iter().all(|s| text.contains(s)));
            match hit {
                Some(i) => {
                    rendered.remove(i);
                }
                None => ok = false,
            }
        }
        if !rendered.is_empty() {
            ok = false;
        }
        if ok {
            println!("ok   {}", case.label);
        } else {
            failures += 1;
            println!("FAIL {} — expected {:?}", case.label, case.expect);
            for f in &report.findings {
                println!("     got: {}", f.rendered().replace('\n', "\n     "));
            }
        }
    }

    for (name, _) in RULES {
        let fired = CASES
            .iter()
            .any(|c| c.expect.iter().any(|(r, _)| r == name));
        if !fired {
            failures += 1;
            println!("FAIL rule `{name}` is never exercised by any self-test case");
        }
    }

    if failures == 0 {
        println!(
            "deepcheck self-test: {} cases, all rules fire — ok",
            CASES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("deepcheck self-test: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
