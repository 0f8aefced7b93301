//! Fixture tests for the deepcheck lexer: the literal grammar must never
//! let string or comment contents masquerade as code, and the
//! disambiguation cases (lifetimes vs. chars, raw identifiers, nested
//! generics) must tokenize the way the downstream analyses assume.

use xtask::lexer::{lex, Tok, TokKind};

fn kinds(toks: &[Tok]) -> Vec<TokKind> {
    toks.iter().map(|t| t.kind).collect()
}

fn texts(toks: &[Tok]) -> Vec<&str> {
    toks.iter().map(|t| t.text.as_str()).collect()
}

#[test]
fn raw_strings_swallow_their_contents() {
    // A `.lock()` call and a `panic!` inside raw strings must be a single
    // Str token each — the rules would otherwise see phantom sites.
    let toks = lex(r####"let a = r"x.lock()"; let b = r#"panic!("no")"#;"####);
    let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 2);
    assert_eq!(strs[0].text, r#"r"x.lock()""#);
    assert_eq!(strs[1].text, r##"r#"panic!("no")"#"##);
    assert!(!toks
        .iter()
        .any(|t| t.is_ident("lock") || t.is_ident("panic")));
}

#[test]
fn raw_string_hash_fences_nest_correctly() {
    // The closing delimiter must match the opening fence depth: `"#` inside
    // an `r##"…"##` literal does not terminate it.
    let toks = lex(r###"r##"inner "# still inside"##"###);
    assert_eq!(kinds(&toks), vec![TokKind::Str]);
    assert_eq!(toks[0].text, r###"r##"inner "# still inside"##"###);
}

#[test]
fn byte_strings_and_byte_chars() {
    let toks = lex(r#"let x = b"bytes"; let y = b'\0';"#);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Str && t.text == "b\"bytes\""));
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Char && t.text == r"b'\0'"));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = lex("fn f<'a>(x: &'a str) -> &'static str { 'q' ; x }");
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["a", "a", "static"]);
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, vec!["'q'"]);
}

#[test]
fn labeled_loops_lex_as_lifetimes() {
    let toks = lex("'outer: loop { break 'outer; }");
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["outer", "outer"]);
}

#[test]
fn raw_identifiers_keep_their_name() {
    let toks = lex("fn r#match(r#type: u32) -> u32 { r#type }");
    let raws: Vec<&Tok> = toks
        .iter()
        .filter(|t| t.kind == TokKind::RawIdent)
        .collect();
    assert_eq!(raws.len(), 3);
    assert_eq!(raws[0].text, "match");
    assert_eq!(raws[1].text, "type");
    // `is_ident` treats raw and plain identifiers alike, which is what the
    // item extractor relies on.
    assert!(raws[0].is_ident("match"));
}

#[test]
fn nested_generics_are_plain_punctuation() {
    // `BTreeMap<String, Vec<Option<u32>>>` — the `>>>` run must come out
    // as three separate Punct tokens, never a shift operator or a string.
    let toks = lex("let m: BTreeMap<String, Vec<Option<u32>>> = Default::default();");
    let close: Vec<&Tok> = toks.iter().filter(|t| t.is_punct('>')).collect();
    assert_eq!(close.len(), 3);
    assert!(toks.iter().any(|t| t.is_ident("Option")));
}

#[test]
fn comments_are_invisible() {
    let toks = lex(concat!(
        "// line: x.lock()\n",
        "/* block panic!(\"no\") /* nested */ still comment */\n",
        "/// doc .unwrap()\n",
        "fn ok() {}\n",
    ));
    assert_eq!(texts(&toks), vec!["fn", "ok", "(", ")", "{", "}"]);
}

#[test]
fn line_numbers_survive_multiline_literals() {
    let toks = lex("let a = \"one\nstring\";\nfn g() {}");
    let g = toks.iter().find(|t| t.is_ident("g")).expect("fn g lexed");
    assert_eq!(g.line, 3);
}

#[test]
fn line_numbers_count_string_continuations() {
    // A `\`-newline inside a string skips the next line's indentation but
    // is still a line break: every later token keeps its real line.
    let toks = lex("let a = \"one \\\n    two\";\nfn g() {}");
    let g = toks.iter().find(|t| t.is_ident("g")).expect("fn g lexed");
    assert_eq!(g.line, 3);
}

#[test]
fn unterminated_literals_degrade_without_panicking() {
    // The lexer must tolerate broken input (it runs over arbitrary trees).
    let toks = lex("let s = \"never closed");
    assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    let toks = lex("let s = r#\"never closed");
    assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    let _ = lex("/* never closed");
}

#[test]
fn numeric_literals_with_suffixes_and_bases() {
    let toks = lex("let x = 0xFF_u32 + 1_000 + 2.5e3_f64 + 0b1010;");
    let nums: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(nums.len(), 4, "got {nums:?}");
}
