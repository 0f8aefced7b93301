//! Approximate workspace call graph.
//!
//! Nodes are the [`FnDef`]s extracted by [`crate::syntax`]; edges are call
//! sites resolved by name. Resolution is deliberately an
//! *over-approximation* — when a call could reach several functions it
//! gets an edge to all of them, so reachability analyses (panic, lock,
//! allocation) can miss nothing that static names permit. The price is
//! false edges; the waiver mechanism exists for exactly those.
//!
//! ## Resolution rules (documented and asserted by tests)
//!
//! 1. `Type::name(…)` — resolved precisely to methods of `Type` when the
//!    workspace defines any; otherwise falls through to rule 3 with the
//!    qualifier treated as a module/crate path.
//! 2. `self.name(…)` — resolved precisely to the enclosing impl type's
//!    own method when it defines one; otherwise rule 4.
//! 3. `name(…)` / `path::to::name(…)` — every free function named `name`;
//!    when a path segment matches a crate name (`evcap_spec::solve`), only
//!    that crate's free functions.
//! 4. `recv.name(…)` — every method named `name` anywhere in the
//!    workspace (trait objects and generic receivers make the true target
//!    undecidable without type inference; this is the documented
//!    trait-object approximation). Two carve-outs keep the noise down:
//!    `.unwrap(…)` / `.expect(…)` on a non-`self` receiver produce no
//!    edges — they are overwhelmingly `Option`/`Result` adapters and the
//!    panic analysis models them as sources, so aliasing them onto a
//!    workspace type's own `expect` would fabricate paths; and atomic
//!    operations (`.load(…)`, `.store(…)`, `.fetch_add(…)`, …) whose
//!    arguments mention a memory `Ordering` are cut — without that,
//!    `hits.load(Ordering::Relaxed)` would alias `Store::load`.
//! 5. Macro invocations produce no edges — analyses treat the relevant
//!    ones (`panic!`, `format!`, …) as sources directly.

use std::collections::{BTreeMap, VecDeque};

/// Path qualifiers that belong to the standard library: calls through
/// them are cut rather than over-approximated onto same-named workspace
/// functions. (A workspace module shadowing one of these names would
/// lose edges — none does, and the fixture tests assert the policy.)
fn is_std_qualifier(q: &str) -> bool {
    matches!(
        q,
        // modules
        "std" | "core" | "alloc" | "fs" | "io" | "mem" | "process" | "thread" | "time"
            | "cmp" | "fmt" | "str" | "slice" | "iter" | "env" | "net" | "path" | "ffi"
            | "hint" | "ptr" | "sync" | "atomic" | "collections" | "array" | "char" | "ops"
            // common std types
            | "File" | "OpenOptions" | "TcpStream" | "TcpListener" | "UdpSocket" | "Instant"
            | "Duration" | "SystemTime" | "PathBuf" | "Path" | "String" | "Vec" | "Box"
            | "Arc" | "Rc" | "Mutex" | "RwLock" | "Condvar" | "HashMap" | "HashSet"
            | "BTreeMap" | "BTreeSet" | "VecDeque" | "Option" | "Result" | "Ordering"
            | "AtomicBool" | "AtomicU64" | "AtomicUsize" | "AtomicU32" | "NonZeroUsize"
            | "Cell" | "RefCell" | "PoisonError" | "Cow" | "Ipv4Addr" | "SocketAddr"
    )
}

use crate::lexer::{Tok, TokKind};
use crate::syntax::{body_facts, BodyFacts, Call, CallKind, FnDef};

/// True when a `.name(…)` call at `call_tok` is an atomic operation: a
/// method that exists on the std atomics, called with arguments that
/// mention a memory `Ordering` — not a workspace method.
pub fn is_atomic_op(body: &[Tok], name: &str, call_tok: usize) -> bool {
    matches!(
        name,
        "load"
            | "store"
            | "swap"
            | "fetch_add"
            | "fetch_sub"
            | "fetch_and"
            | "fetch_or"
            | "fetch_xor"
            | "fetch_update"
            | "compare_exchange"
            | "compare_exchange_weak"
    ) && args_mention_ordering(body, call_tok)
}

/// True when any token inside the call's argument parens is a memory
/// `Ordering` path (`Ordering::Relaxed`, a bare `Relaxed`, …).
fn args_mention_ordering(body: &[Tok], call_tok: usize) -> bool {
    let open = call_tok + 1;
    if !body.get(open).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let mut depth = 0i32;
    for t in &body[open..] {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if matches!(t.kind, TokKind::Ident)
            && matches!(
                t.text.as_str(),
                "Ordering" | "Relaxed" | "SeqCst" | "Acquire" | "Release" | "AcqRel"
            )
        {
            return true;
        }
    }
    false
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index into [`Graph::fns`].
    pub callee: usize,
    /// 1-based source line of the call site in the caller's file.
    pub line: u32,
    /// Token index of the callee name in the caller's body stream.
    pub tok: usize,
    /// True when this edge came from the name-based method fallback
    /// (rule 4) rather than a precise resolution. Reachability analyses
    /// follow approximate edges (missing nothing); the lock-*order*
    /// analysis does not propagate acquisition sets across them, because
    /// lock identity is receiver-name-based and an aliased receiver makes
    /// that identity meaningless.
    pub approx: bool,
}

/// The workspace call graph.
pub struct Graph {
    pub fns: Vec<FnDef>,
    /// Per-function syntactic facts (call sites, indexing sites).
    pub facts: Vec<BodyFacts>,
    /// Per-function resolved outgoing edges, parallel to `fns`.
    pub edges: Vec<Vec<Edge>>,
    /// Free functions by name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods (fns with a `self_ty` or defined in a trait) by name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by (type, name).
    by_ty_method: BTreeMap<(String, String), Vec<usize>>,
}

impl Graph {
    /// Builds the graph over a set of function definitions.
    pub fn build(fns: Vec<FnDef>) -> Graph {
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_ty_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.self_ty.is_some() || f.trait_name.is_some() {
                methods_by_name.entry(f.name.clone()).or_default().push(i);
                if let Some(ty) = &f.self_ty {
                    by_ty_method
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
                if let Some(tr) = &f.trait_name {
                    // `Trait::method(x)` UFCS calls resolve through the
                    // trait name too.
                    by_ty_method
                        .entry((tr.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
            } else {
                free_by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        let facts: Vec<BodyFacts> = fns.iter().map(|f| body_facts(&f.body)).collect();
        let mut g = Graph {
            fns,
            facts,
            edges: Vec::new(),
            free_by_name,
            methods_by_name,
            by_ty_method,
        };
        g.edges = (0..g.fns.len()).map(|i| g.resolve_fn(i)).collect();
        g
    }

    fn resolve_fn(&self, i: usize) -> Vec<Edge> {
        let mut out = Vec::new();
        for call in &self.facts[i].calls {
            let (targets, approx) = self.resolve_call(i, call);
            for t in targets {
                out.push(Edge {
                    callee: t,
                    line: call.line,
                    tok: call.tok,
                    approx,
                });
            }
        }
        out
    }

    /// All functions a call of this shape could reach (empty for calls
    /// into std / closures / macros). The second value is true when the
    /// targets came from the name-based method fallback — an approximate
    /// resolution (see [`Edge::approx`]).
    pub fn resolve_call(&self, caller: usize, call: &Call) -> (Vec<usize>, bool) {
        match &call.kind {
            CallKind::Macro { .. } => (Vec::new(), false),
            CallKind::Free { name } => (
                self.free_by_name.get(name).cloned().unwrap_or_default(),
                false,
            ),
            CallKind::Path { segments } => {
                let name = match segments.last() {
                    Some(n) => n.clone(),
                    None => return (Vec::new(), false),
                };
                let qual = segments
                    .iter()
                    .rev()
                    .nth(1)
                    .filter(|q| !matches!(q.as_str(), "self" | "super" | "crate"));
                if let Some(q) = qual {
                    if let Some(v) = self.by_ty_method.get(&(q.clone(), name.clone())) {
                        return (v.clone(), false);
                    }
                    // A std qualifier (`std::fs::write`, `String::from`,
                    // `Instant::now`) never resolves into the workspace;
                    // without this cut, `fs::write` would alias any
                    // workspace function named `write`.
                    if is_std_qualifier(q) {
                        return (Vec::new(), false);
                    }
                    // A crate-ish qualifier (`evcap_spec::solve`) narrows
                    // the free-function candidates to that crate.
                    let crate_q = q.trim_start_matches("evcap_").replace('-', "_");
                    if let Some(v) = self.free_by_name.get(&name) {
                        let narrowed: Vec<usize> = v
                            .iter()
                            .copied()
                            .filter(|&i| {
                                let c = &self.fns[i].crate_name;
                                c == q || c.trim_start_matches("evcap_") == crate_q
                            })
                            .collect();
                        if !narrowed.is_empty() {
                            return (narrowed, false);
                        }
                        // Unknown qualifier (a module path): keep every
                        // candidate rather than dropping the edge.
                        return (v.clone(), false);
                    }
                }
                (
                    self.free_by_name.get(&name).cloned().unwrap_or_default(),
                    false,
                )
            }
            CallKind::Method { name, recv } => {
                if recv.as_deref() == Some("self") {
                    if let Some(ty) = &self.fns[caller].self_ty {
                        if let Some(v) = self.by_ty_method.get(&(ty.clone(), name.clone())) {
                            return (v.clone(), false);
                        }
                    }
                }
                // `Option`/`Result` adapters: the panic analysis models
                // these as sources; aliasing them onto a workspace type's
                // own `expect` would fabricate paths into it.
                if matches!(name.as_str(), "unwrap" | "expect") {
                    return (Vec::new(), false);
                }
                // Atomic ops: `hits.load(Ordering::Relaxed)` must not
                // alias `Store::load`.
                if is_atomic_op(&self.fns[caller].body, name, call.tok) {
                    return (Vec::new(), false);
                }
                (
                    self.methods_by_name.get(name).cloned().unwrap_or_default(),
                    true,
                )
            }
        }
    }

    /// True when a `.unwrap()` / `.expect(…)` call site resolves to a
    /// method the workspace itself defines on the enclosing type (e.g. a
    /// parser's own `fn expect`) — then it is an ordinary call edge, not a
    /// panic source.
    pub fn is_own_method(&self, caller: usize, name: &str, recv: Option<&str>) -> bool {
        if recv != Some("self") {
            return false;
        }
        match &self.fns[caller].self_ty {
            Some(ty) => self
                .by_ty_method
                .contains_key(&(ty.clone(), name.to_owned())),
            None => false,
        }
    }

    /// Finds functions matching a `crate::name` or `crate::Type::name`
    /// root spec. Returns indices (possibly several — e.g. one name
    /// implemented for two types).
    pub fn find_roots(&self, spec: &str) -> Vec<usize> {
        let parts: Vec<&str> = spec.split("::").collect();
        let mut out = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            let matches = match parts.as_slice() {
                [krate, name] => f.crate_name == *krate && f.name == *name,
                [krate, ty, name] => {
                    f.crate_name == *krate && f.name == *name && f.self_ty.as_deref() == Some(*ty)
                }
                _ => false,
            };
            if matches {
                out.push(i);
            }
        }
        out
    }

    /// Breadth-first reachability from `roots`, skipping edges for which
    /// `skip_edge(caller, edge)` returns true (waived call lines).
    /// Returns a parent map: `reached[i] = Some(caller)` for non-roots,
    /// `Some(i)` (self) for roots, `None` for unreached.
    pub fn reach(
        &self,
        roots: &[usize],
        mut skip_edge: impl FnMut(usize, &Edge) -> bool,
    ) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut q = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                q.push_back(r);
            }
        }
        while let Some(i) = q.pop_front() {
            for e in &self.edges[i] {
                if parent[e.callee].is_some() {
                    continue;
                }
                if skip_edge(i, e) {
                    continue;
                }
                parent[e.callee] = Some(i);
                q.push_back(e.callee);
            }
        }
        parent
    }

    /// Reconstructs the call chain `root → … → target` from a parent map,
    /// as `name (file:line)` strings.
    pub fn chain(&self, parent: &[Option<usize>], target: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = target;
        loop {
            let f = &self.fns[cur];
            rev.push(format!("{} ({}:{})", f.qualified(), f.file, f.line));
            match parent[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
            if rev.len() > self.fns.len() {
                break; // defensive: malformed parent map
            }
        }
        rev.reverse();
        rev
    }
}
