//! A std-only Rust lexer for the deepcheck analyzer.
//!
//! This is not a compiler front end: it produces a flat token stream that
//! is *sufficient* for the syntactic analyses in `deepcheck` — item
//! boundaries, call sites, lock acquisitions, indexing expressions. The
//! hard part of lexing Rust at this depth is making sure *strings and
//! comments can never masquerade as code*: a `panic!` inside a doc
//! comment, a `".lock()"` inside a string literal, or a `#` inside a raw
//! string must all be invisible to the rules. The lexer therefore handles
//! the full literal grammar (raw strings with arbitrary hash fences, byte
//! strings, char vs. lifetime disambiguation, nested block comments,
//! `r#ident` raw identifiers) and treats everything else as single-char
//! punctuation — multi-char operators like `::` and `->` are recognized
//! downstream by looking at adjacent tokens.

/// What a token is, at the granularity the analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `impl`, `lock`, …). Keywords are
    /// not distinguished here; consumers match on the text.
    Ident,
    /// A raw identifier (`r#type`); `text` holds the part after `r#`.
    RawIdent,
    /// A lifetime (`'a`, `'static`); `text` holds the name without `'`.
    Lifetime,
    /// Any string-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    /// `text` is the raw source slice including delimiters.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'\0'`.
    Char,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character: `{ } ( ) [ ] . , ; : ! # …`.
    Punct,
}

/// One lexed token: kind, source text, and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True when this token is punctuation equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// True when this token is an identifier (raw or plain) equal to `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self.kind, TokKind::Ident | TokKind::RawIdent) && self.text == s
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes Rust source into tokens, dropping comments and whitespace.
///
/// Unterminated literals and comments are tolerated (the rest of the file
/// is swallowed into the pending token): the analyzer must never panic on
/// weird input, merely degrade.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        bytes: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        out: Vec::with_capacity(src.len() / 6),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.string(self.pos),
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if is_ident_start(b) => self.ident(),
                _ => {
                    self.push(TokKind::Punct, self.pos, self.pos + 1, self.line);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, end: usize, line: u32) {
        self.out.push(Tok {
            kind,
            text: self.src[start..end].to_owned(),
            line,
        });
    }

    fn line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    return;
                }
            } else {
                self.pos += 1;
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `b'…'`, `br#"…"#`.
    /// Returns false when the `r`/`b` turns out to start a plain
    /// identifier, leaving `pos` untouched.
    fn raw_or_byte_string(&mut self) -> bool {
        let start = self.pos;
        let first = self.bytes[start];
        let mut i = start + 1;
        let mut is_raw = first == b'r';
        if first == b'b' && self.bytes.get(i) == Some(&b'r') {
            is_raw = true;
            i += 1;
        }
        let mut hashes = 0usize;
        if is_raw {
            while self.bytes.get(i) == Some(&b'#') {
                hashes += 1;
                i += 1;
            }
        }
        match self.bytes.get(i) {
            Some(b'"') if is_raw => {
                self.raw_string_body(start, i + 1, hashes);
                true
            }
            Some(b'"') if first == b'b' => {
                self.string(start);
                true
            }
            Some(b'\'') if first == b'b' && !is_raw => {
                // Byte char b'…': reuse char lexing, keep the prefix.
                self.pos = i;
                self.byte_char(start);
                true
            }
            Some(&c) if first == b'r' && hashes == 1 && is_ident_start(c) => {
                // Raw identifier r#ident.
                let mut j = i;
                while self.bytes.get(j).copied().is_some_and(is_ident_continue) {
                    j += 1;
                }
                let line = self.line;
                self.out.push(Tok {
                    kind: TokKind::RawIdent,
                    text: self.src[i..j].to_owned(),
                    line,
                });
                self.pos = j;
                true
            }
            // Plain identifier starting with r/b (`rate`, `bytes`, …).
            _ => false,
        }
    }

    /// Consumes a raw string whose body starts at `body` with `hashes`
    /// fence hashes; the token spans from `start`.
    fn raw_string_body(&mut self, start: usize, body: usize, hashes: usize) {
        let line = self.line;
        let mut i = body;
        while i < self.bytes.len() {
            if self.bytes[i] == b'\n' {
                self.line += 1;
                i += 1;
                continue;
            }
            if self.bytes[i] == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.bytes.get(i + 1 + k) != Some(&b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    i += 1 + hashes;
                    self.push(TokKind::Str, start, i, line);
                    self.pos = i;
                    return;
                }
            }
            i += 1;
        }
        self.push(TokKind::Str, start, i, line);
        self.pos = i;
    }

    /// Consumes a normal (escaped) string literal; `start` may sit before
    /// a `b` prefix, `self.pos`-relative quote discovery is not needed —
    /// the opening quote is the last byte before the body.
    fn string(&mut self, start: usize) {
        let line = self.line;
        // Find the opening quote (start, start+1 for b"…").
        let mut i = start;
        while self.bytes[i] != b'"' {
            i += 1;
        }
        i += 1;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'\\' => {
                    // A `\`-newline continuation still ends a source line.
                    if self.bytes.get(i + 1) == Some(&b'\n') {
                        self.line += 1;
                    }
                    i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                b'"' => {
                    i += 1;
                    self.push(TokKind::Str, start, i, line);
                    self.pos = i;
                    return;
                }
                _ => i += 1,
            }
        }
        self.push(TokKind::Str, start, i.min(self.bytes.len()), line);
        self.pos = i;
    }

    /// After a `'`: a lifetime (`'a`, `'_`, `'static`) or a char literal
    /// (`'x'`, `'\n'`, `'\''`). A lifetime is an identifier not followed
    /// by a closing quote.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let line = self.line;
        let next = self.peek(1);
        if next.is_some_and(is_ident_start) {
            // Scan the identifier; decide by the byte after it.
            let mut j = self.pos + 1;
            while self.bytes.get(j).copied().is_some_and(is_ident_continue) {
                j += 1;
            }
            if self.bytes.get(j) != Some(&b'\'') {
                // Lifetime.
                self.out.push(Tok {
                    kind: TokKind::Lifetime,
                    text: self.src[start + 1..j].to_owned(),
                    line,
                });
                self.pos = j;
                return;
            }
        }
        self.byte_char(start);
    }

    /// Consumes a char literal starting at the `'` at `self.pos` (the
    /// token spans from `start`, which may include a `b` prefix).
    fn byte_char(&mut self, start: usize) {
        let line = self.line;
        let mut i = self.pos + 1; // past the opening '
        if self.bytes.get(i) == Some(&b'\\') {
            i += 2; // escape + escaped byte ('\n', '\'', '\\', '\u{…}' handled below)
            if self.bytes.get(i - 1) == Some(&b'u') {
                while i < self.bytes.len() && self.bytes[i] != b'\'' {
                    i += 1;
                }
            }
        } else if i < self.bytes.len() {
            // Advance one UTF-8 scalar.
            i += 1;
            while i < self.bytes.len() && (self.bytes[i] & 0xC0) == 0x80 {
                i += 1;
            }
        }
        if self.bytes.get(i) == Some(&b'\'') {
            i += 1;
        }
        self.push(TokKind::Char, start, i, line);
        self.pos = i;
    }

    fn number(&mut self) {
        let start = self.pos;
        let line = self.line;
        let mut i = self.pos;
        // Integer part (covers 0x/0b/0o digits and `_` separators and any
        // alphanumeric suffix like u64 / f32).
        while self
            .bytes
            .get(i)
            .copied()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            i += 1;
        }
        // Fractional part: a dot followed by a digit (leaves `0..n` ranges
        // and method calls like `1.max(…)` alone).
        if self.bytes.get(i) == Some(&b'.')
            && self
                .bytes
                .get(i + 1)
                .copied()
                .is_some_and(|b| b.is_ascii_digit())
        {
            i += 1;
            while self
                .bytes
                .get(i)
                .copied()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                i += 1;
            }
        }
        self.push(TokKind::Num, start, i, line);
        self.pos = i;
    }

    fn ident(&mut self) {
        let start = self.pos;
        let line = self.line;
        let mut i = self.pos;
        while self.bytes.get(i).copied().is_some_and(is_ident_continue) {
            i += 1;
        }
        self.push(TokKind::Ident, start, i, line);
        self.pos = i;
    }
}
