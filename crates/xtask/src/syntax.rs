//! Item extraction: functions, impl blocks, and per-body syntactic facts.
//!
//! Sits on top of [`crate::lexer`] and produces the units the call-graph
//! builder consumes: every `fn` in a file, qualified by its impl type and
//! trait (when inside an `impl`), with its body token stream captured and
//! its test-ness recorded (`#[test]` / `#[cfg(test)]` subtrees are parsed
//! but excluded from analysis by the callers).
//!
//! ## Approximation boundaries (deliberate, documented)
//!
//! - Items nested *inside* function bodies (local `fn`, local `impl`) are
//!   not indexed separately: their tokens belong to the enclosing
//!   function, so their calls and panic sites are attributed to it. This
//!   over-approximates reachability, never under-approximates it.
//! - The impl type is the last plain path segment of the impl header
//!   (`impl<K, V> ShardedCache<K, V>` → `ShardedCache`); blanket impls on
//!   references or `Box<dyn T>` collapse to the outermost nominal
//!   segment.
//! - Any attribute containing the token `test` (`#[test]`,
//!   `#[cfg(test)]`, `#[cfg(any(test, feature = "x"))]`) marks the item —
//!   and, for modules, the whole subtree — as test code.

use crate::lexer::{lex, Tok, TokKind};

/// One function definition with its captured body.
#[derive(Debug)]
pub struct FnDef {
    /// The crate this function lives in (the directory name under
    /// `crates/`, or `evcap` for the workspace facade in `src/`).
    pub crate_name: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The function's bare name.
    pub name: String,
    /// `Some(Type)` when defined in an `impl Type` / `impl Trait for Type`.
    pub self_ty: Option<String>,
    /// `Some(Trait)` for `impl Trait for Type` methods and trait-default
    /// bodies.
    pub trait_name: Option<String>,
    /// Inside a `#[cfg(test)]` subtree or carrying a test attribute.
    pub is_test: bool,
    /// Body tokens (exclusive of the outer braces); empty for bodyless
    /// trait declarations.
    pub body: Vec<Tok>,
}

impl FnDef {
    /// `Type::name` or plain `name`, for display.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Extracts every function from one file's source.
pub fn parse_file(crate_name: &str, file: &str, src: &str) -> Vec<FnDef> {
    parse_tokens(crate_name, file, &lex(src)).0
}

/// Extracts every function from a lexed file, plus a per-token test mask:
/// `true` for tokens inside `#[cfg(test)]` / `#[test]` items, the same
/// test-ness the functions carry.
pub fn parse_tokens(crate_name: &str, file: &str, toks: &[Tok]) -> (Vec<FnDef>, Vec<bool>) {
    let mut out = Vec::new();
    let mut test = vec![false; toks.len()];
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false; // attribute seen since the last item
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        let is_test = in_test(&scopes) || pending_test;
        let keyword = (t.kind == TokKind::Ident).then_some(t.text.as_str());
        let next = if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let (end, has_test) = scan_attribute(toks, i + 1);
            pending_test |= has_test;
            end
        } else if t.is_punct('{') {
            scopes.push(Scope {
                kind: ScopeKind::Other,
                cfg_test: is_test,
            });
            pending_test = false;
            i + 1
        } else if t.is_punct('}') {
            scopes.pop();
            i + 1
        } else if t.is_punct(';') {
            pending_test = false;
            i + 1
        } else if keyword == Some("impl") {
            let (next, scope) = scan_impl_header(toks, i, is_test);
            scopes.push(scope);
            pending_test = false;
            next
        } else if keyword == Some("trait") {
            let name = toks
                .get(i + 1)
                .filter(|n| n.kind == TokKind::Ident)
                .map(|n| n.text.clone());
            let j = seek_punct(toks, i + 1, '{');
            scopes.push(Scope {
                kind: ScopeKind::Trait {
                    name: name.unwrap_or_default(),
                },
                cfg_test: is_test,
            });
            pending_test = false;
            j + 1
        } else if keyword == Some("fn") {
            let (next, def) = scan_fn(toks, i, crate_name, file, &scopes, is_test);
            out.extend(def);
            pending_test = false;
            next
        } else {
            i + 1
        };
        let next = next.min(toks.len());
        test[i..next].fill(is_test);
        i = next;
    }
    (out, test)
}

#[derive(Debug)]
enum ScopeKind {
    Other,
    Impl {
        ty: Option<String>,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    cfg_test: bool,
}

fn in_test(scopes: &[Scope]) -> bool {
    scopes.last().is_some_and(|s| s.cfg_test)
}

/// Scans `#[…]` starting at the `[` index; returns (index past `]`,
/// whether the attribute mentions the `test` token).
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('[') {
            depth += 1;
        } else if toks[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, has_test);
            }
        } else if toks[i].is_ident("test") {
            has_test = true;
        }
        i += 1;
    }
    (i, has_test)
}

/// First index at or after `from` whose token is punctuation `c`.
fn seek_punct(toks: &[Tok], from: usize, c: char) -> usize {
    let mut i = from;
    while i < toks.len() && !toks[i].is_punct(c) {
        i += 1;
    }
    i
}

/// Parses an `impl` header starting at the `impl` token. Returns the index
/// just past the opening `{` and the scope to push.
fn scan_impl_header(toks: &[Tok], at: usize, cfg_test: bool) -> (usize, Scope) {
    let mut i = at + 1;
    // Generic parameters on the impl itself.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(toks, i);
    }
    // First path: the trait (if `for` follows) or the self type.
    let (j, first) = scan_type_path(toks, i);
    i = j;
    let (ty, trait_name) = if toks.get(i).is_some_and(|t| t.is_ident("for")) {
        let (k, second) = scan_type_path(toks, i + 1);
        i = k;
        (second, first)
    } else {
        (first, None)
    };
    let open = seek_punct(toks, i, '{');
    (
        open + 1,
        Scope {
            kind: ScopeKind::Impl { ty, trait_name },
            cfg_test,
        },
    )
}

/// Reads a type path (idents, `::`, generic groups, leading `&`/`mut`/
/// `dyn`), returning the index of the terminator (`for`, `where`, `{`) and
/// the last plain identifier seen at angle depth 0.
fn scan_type_path(toks: &[Tok], from: usize) -> (usize, Option<String>) {
    let mut i = from;
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(i) {
        if t.is_punct('{') || t.is_ident("for") || t.is_ident("where") {
            break;
        }
        if t.is_punct('<') {
            i = skip_angles(toks, i);
            continue;
        }
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut" | "crate") {
            last = Some(t.text.clone());
        }
        i += 1;
    }
    (i, last)
}

/// Skips a balanced `<…>` group starting at the `<` index.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Parses one `fn` starting at the `fn` token: name, signature skip, body
/// capture. Returns the index to resume scanning from and the definition
/// (None for `fn`-pointer types and other non-definitions).
fn scan_fn(
    toks: &[Tok],
    at: usize,
    crate_name: &str,
    file: &str,
    scopes: &[Scope],
    is_test: bool,
) -> (usize, Option<FnDef>) {
    let Some(name_tok) = toks.get(at + 1) else {
        return (at + 1, None);
    };
    if !matches!(name_tok.kind, TokKind::Ident | TokKind::RawIdent) {
        // `fn(…)` function-pointer type — not a definition.
        return (at + 1, None);
    }
    let name = name_tok.text.clone();
    let line = toks[at].line;

    // Find the body `{` (or `;` for a bodyless declaration), skipping the
    // parameter list and anything parenthesized/bracketed in the return
    // type and where clause.
    let mut i = at + 2;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let body_open = loop {
        let Some(t) = toks.get(i) else {
            return (i, None);
        };
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                // Trait/extern declaration without a body.
                return (
                    i + 1,
                    Some(make_def(
                        crate_name,
                        file,
                        line,
                        name,
                        scopes,
                        is_test,
                        Vec::new(),
                    )),
                );
            }
            if t.is_punct('{') {
                break i;
            }
        }
        i += 1;
    };

    // Capture the body: everything inside the balanced braces.
    let mut depth = 0i32;
    let mut j = body_open;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    let body: Vec<Tok> = toks[body_open + 1..j.min(toks.len())].to_vec();
    (
        (j + 1).min(toks.len()),
        Some(make_def(
            crate_name, file, line, name, scopes, is_test, body,
        )),
    )
}

fn make_def(
    crate_name: &str,
    file: &str,
    line: u32,
    name: String,
    scopes: &[Scope],
    is_test: bool,
    body: Vec<Tok>,
) -> FnDef {
    let (self_ty, trait_name) = match scopes.last().map(|s| &s.kind) {
        Some(ScopeKind::Impl { ty, trait_name }) => (ty.clone(), trait_name.clone()),
        Some(ScopeKind::Trait { name }) => (None, Some(name.clone())),
        _ => (None, None),
    };
    FnDef {
        crate_name: crate_name.to_owned(),
        file: file.to_owned(),
        line,
        name,
        self_ty,
        trait_name,
        is_test,
        body,
    }
}

// ---------------------------------------------------------------------------
// Body facts: calls, macro uses, indexing sites
// ---------------------------------------------------------------------------

/// How a call site spells its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free function (or local closure, unresolvable).
    Free { name: String },
    /// `a::b::name(…)` — segments include the final name.
    Path { segments: Vec<String> },
    /// `.name(…)` — with the receiver identifier when it is a simple
    /// `recv.name(…)` chain tail (`shard.lru.lock()` → recv `lru`).
    Method { name: String, recv: Option<String> },
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro { name: String },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub kind: CallKind,
    /// 1-based source line.
    pub line: u32,
    /// Index of the callee-name token in the body token stream.
    pub tok: usize,
    /// Number of argument tokens between the call's parentheses (0 for
    /// `lock()`; used to split `RwLock::read()` from `io::Read::read(buf)`).
    pub arg_tokens: usize,
}

/// One `expr[…]` indexing site.
#[derive(Debug, Clone)]
pub struct IndexSite {
    pub line: u32,
    pub tok: usize,
    /// The bracket content is only numeric literals and `.` range dots —
    /// overwhelmingly a fixed-size-array access, which the compiler
    /// bounds-checks; these are skipped by the panic rule (documented
    /// blind spot: a literal index into a runtime-sized slice).
    pub literal_only: bool,
}

/// Everything the analyses need from one body.
#[derive(Debug, Default)]
pub struct BodyFacts {
    pub calls: Vec<Call>,
    pub indexes: Vec<IndexSite>,
}

/// Keywords that can directly precede `[` or `(` without forming a call
/// or index expression.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// Extracts call sites and indexing sites from a body token stream.
pub fn body_facts(body: &[Tok]) -> BodyFacts {
    let mut facts = BodyFacts::default();
    for i in 0..body.len() {
        let t = &body[i];
        if matches!(t.kind, TokKind::Ident | TokKind::RawIdent) && !is_keyword(&t.text) {
            // Macro use: name ! ( / [ / {
            if body.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && body
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
            {
                facts.calls.push(Call {
                    kind: CallKind::Macro {
                        name: t.text.clone(),
                    },
                    line: t.line,
                    tok: i,
                    arg_tokens: 0,
                });
                continue;
            }
            // Call: name (
            if body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                let arg_tokens = count_arg_tokens(body, i + 1);
                let kind = classify_call(body, i);
                if let Some(kind) = kind {
                    facts.calls.push(Call {
                        kind,
                        line: t.line,
                        tok: i,
                        arg_tokens,
                    });
                }
                continue;
            }
        }
        // Indexing: `[` after an ident, `)` or `]` (but not a macro's
        // `name![…]`, caught above since the prev token would be `!`).
        if t.is_punct('[') && i > 0 {
            let prev = &body[i - 1];
            let indexable = (matches!(prev.kind, TokKind::Ident | TokKind::RawIdent)
                && !is_keyword(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexable {
                facts.indexes.push(IndexSite {
                    line: t.line,
                    tok: i,
                    literal_only: bracket_is_literal_only(body, i),
                });
            }
        }
    }
    facts
}

/// Counts tokens between the balanced parens opening at `open`.
fn count_arg_tokens(body: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    let mut count = 0usize;
    while i < body.len() {
        if body[i].is_punct('(') {
            depth += 1;
        } else if body[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return count;
            }
        } else if depth >= 1 {
            count += 1;
        }
        i += 1;
    }
    count
}

/// True when every token inside the bracket group at `open` is a numeric
/// literal or a `.` (range dot).
fn bracket_is_literal_only(body: &[Tok], open: usize) -> bool {
    let mut depth = 0i32;
    let mut i = open;
    let mut any = false;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return any;
            }
        } else if depth >= 1 {
            if t.kind == TokKind::Num || t.is_punct('.') {
                any = true;
            } else {
                return false;
            }
        }
        i += 1;
    }
    false
}

/// Classifies the call whose name token sits at `i`. Returns `None` for
/// definitions (`fn name(`).
fn classify_call(body: &[Tok], i: usize) -> Option<CallKind> {
    let name = body[i].text.clone();
    if i == 0 {
        return Some(CallKind::Free { name });
    }
    let prev = &body[i - 1];
    if prev.is_ident("fn") {
        return None;
    }
    if prev.is_punct('.') {
        let recv = body.get(i.wrapping_sub(2)).and_then(|r| {
            (matches!(r.kind, TokKind::Ident | TokKind::RawIdent)).then(|| r.text.clone())
        });
        return Some(CallKind::Method { name, recv });
    }
    if prev.is_punct(':') && i >= 2 && body[i - 2].is_punct(':') {
        let mut segments = vec![name];
        let mut j = i as i64 - 2;
        loop {
            // j points at the second ':' of a `::`; step past it.
            let before = j - 1;
            if before < 0 {
                break;
            }
            let mut k = before;
            // Skip a turbofish group `::<…>` backwards.
            if body[k as usize].is_punct('>') {
                let mut depth = 0i32;
                while k >= 0 {
                    if body[k as usize].is_punct('>') {
                        depth += 1;
                    } else if body[k as usize].is_punct('<') {
                        depth -= 1;
                        if depth == 0 {
                            k -= 1;
                            break;
                        }
                    }
                    k -= 1;
                }
                // A turbofish is itself preceded by `::`.
                if k >= 1 && body[k as usize].is_punct(':') && body[(k - 1) as usize].is_punct(':')
                {
                    k -= 2;
                } else {
                    break;
                }
            }
            if k >= 0 && matches!(body[k as usize].kind, TokKind::Ident | TokKind::RawIdent) {
                segments.push(body[k as usize].text.clone());
                // Continue if another `::` precedes this segment.
                if k >= 2
                    && body[(k - 1) as usize].is_punct(':')
                    && body[(k - 2) as usize].is_punct(':')
                {
                    j = k - 1;
                    continue;
                }
            }
            break;
        }
        segments.reverse();
        return Some(CallKind::Path { segments });
    }
    Some(CallKind::Free { name })
}
