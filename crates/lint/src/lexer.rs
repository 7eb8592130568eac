//! A small hand-rolled Rust lexer — comment, string, raw-string and
//! char/lifetime aware — producing the token stream the rule engine
//! matches against.
//!
//! The container this workspace builds in has no crates.io access, so
//! there is no `syn`/`proc-macro2` to lean on; the lexer below covers
//! exactly what the rules need and nothing more:
//!
//! * comments (line and nested block) are **trivia**: they produce no
//!   tokens, so a banned word inside a comment can never trip a rule —
//!   but line comments are scanned for `qns-lint:` directives;
//! * string literals (escaped, raw with any `#` depth, byte/C
//!   prefixed) collapse into single [`TokKind::Str`] tokens carrying
//!   their content, so `"call .unwrap() here"` is invisible to the
//!   identifier-matching rules;
//! * `'a` lifetimes are distinguished from `'a'` char literals;
//! * identifiers are maximal (`unwrap_or_else` is one token, never a
//!   false `unwrap`).
//!
//! Everything else (numbers, punctuation) is tokenized just precisely
//! enough to anchor sequence matches like `.` `unwrap` or
//! `panic` `!`.

/// What kind of lexeme a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (maximal `[A-Za-z_][A-Za-z0-9_]*`).
    Ident,
    /// A string literal of any flavor; `text` holds the *content*
    /// (without quotes, prefixes or `#` fences, escapes unprocessed).
    Str,
    /// A lifetime (`'a`, `'static`); `text` holds the name.
    Lifetime,
    /// A numeric literal (`text` holds the raw spelling).
    Num,
    /// A single punctuation character.
    Punct,
}

/// One token with its line number (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// The token's kind.
    pub kind: TokKind,
    /// The token's text (see [`TokKind`] for what it holds).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` for an identifier spelled exactly `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` for the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first().copied() == Some(c as u8)
    }
}

/// One `qns-lint:` directive found in a line comment.
#[derive(Clone, Debug)]
pub struct Directive {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The directive payload, trimmed: `allow(rule, …)`.
    pub payload: String,
}

/// A lexed file: code tokens plus lint directives.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// The code tokens, in source order.
    pub toks: Vec<Tok>,
    /// Every `qns-lint:` directive, in source order.
    pub directives: Vec<Directive>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes one Rust source file. Never fails: unterminated constructs
/// simply consume to end-of-file (the workspace's own sources are the
/// input, and they compile).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(0),
                b'\'' => self.lifetime_or_char(),
                _ if c.is_ascii_digit() => self.number(),
                _ if is_ident_start(c) => self.ident_or_prefixed_string(),
                _ => {
                    self.push(TokKind::Punct, self.i, self.i + 1, self.line);
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, end: usize, line: u32) {
        self.out.toks.push(Tok {
            kind,
            text: self.src[start..end].to_string(),
            line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let text = &self.src[start..self.i];
        if let Some(pos) = text.find("qns-lint:") {
            self.out.directives.push(Directive {
                line: self.line,
                payload: text[pos + "qns-lint:".len()..].trim().to_string(),
            });
        }
    }

    fn block_comment(&mut self) {
        // Nested, as in Rust. Trivia: no directive scanning here (the
        // directive grammar is line-comment only, documented in
        // docs/ANALYSIS.md).
        let mut depth = 0usize;
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
            } else if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    return;
                }
            } else {
                self.i += 1;
            }
        }
    }

    /// An escaped (non-raw) string starting at the opening quote;
    /// `self.i` points at `"`. Emits the content.
    fn string(&mut self, _prefix_len: usize) {
        let line = self.line;
        self.i += 1; // opening quote
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => break,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let end = self.i.min(self.b.len());
        self.push(TokKind::Str, start, end, line);
        self.i = end + 1; // closing quote
    }

    /// A raw string; `self.i` points at the first `#` or the `"`.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.i += 1;
        }
        if self.peek(0) != Some(b'"') {
            // Not actually a raw string (e.g. `r#ident`); rewind is
            // handled by the caller never entering here in that case.
            return;
        }
        self.i += 1;
        let start = self.i;
        'scan: while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
            } else if self.b[self.i] == b'"' {
                // Need `hashes` trailing #s to close.
                for h in 0..hashes {
                    if self.peek(1 + h) != Some(b'#') {
                        self.i += 1;
                        continue 'scan;
                    }
                }
                break;
            }
            self.i += 1;
        }
        let end = self.i.min(self.b.len());
        self.push(TokKind::Str, start, end, line);
        self.i = (end + 1 + hashes).min(self.b.len());
    }

    fn lifetime_or_char(&mut self) {
        // `'a` / `'static` (lifetime) vs `'a'` / `'\n'` (char).
        if self
            .peek(1)
            .is_some_and(is_ident_start)
            // A quote right after one ident char means a char literal.
            && self.peek(2) != Some(b'\'')
        {
            let line = self.line;
            self.i += 1;
            let start = self.i;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            self.push(TokKind::Lifetime, start, self.i, line);
            return;
        }
        // Char (or byte-char) literal: consume to the closing quote,
        // honoring escapes. Produces no token — rules never need char
        // contents.
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        while self.i < self.b.len() && (is_ident_continue(self.b[self.i])) {
            self.i += 1;
        }
        // Fractional part — but not a `..` range or a method call on a
        // literal (`1.max(2)`), both of which continue with non-digits.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
        }
        // Exponent sign: `1.0e-3` stops the alnum scan at `-`.
        if (self.peek(0) == Some(b'-') || self.peek(0) == Some(b'+'))
            && self
                .b
                .get(self.i.wrapping_sub(1))
                .is_some_and(|&e| e == b'e' || e == b'E')
            && start + 1 < self.i
        {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
        }
        self.push(TokKind::Num, start, self.i, line);
    }

    fn ident_or_prefixed_string(&mut self) {
        let line = self.line;
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        let id = &self.src[start..self.i];
        let next = self.peek(0);
        match (id, next) {
            // Raw strings: r"…", r#"…"#, br#"…"#, cr"…".
            ("r" | "br" | "cr", Some(b'"')) => self.raw_string(),
            ("r" | "br" | "cr", Some(b'#')) => {
                // `r#"…"#` raw string vs `r#ident` raw identifier.
                let mut j = self.i;
                while self.b.get(j) == Some(&b'#') {
                    j += 1;
                }
                if self.b.get(j) == Some(&b'"') {
                    self.raw_string();
                } else if id == "r" {
                    // Raw identifier `r#foo`: emit `foo`.
                    self.i += 1; // '#'
                    let is = self.i;
                    while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                        self.i += 1;
                    }
                    self.push(TokKind::Ident, is, self.i, line);
                } else {
                    self.push(TokKind::Ident, start, self.i, line);
                }
            }
            // Byte / C strings with escapes: b"…", c"…".
            ("b" | "c", Some(b'"')) => self.string(1),
            // Byte char literal: b'…'.
            ("b", Some(b'\'')) => self.lifetime_or_char(),
            _ => self.push(TokKind::Ident, start, self.i, line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_identifiers() {
        let src = r##"
            // calls unwrap() on a HashMap
            /* nested /* block with panic! */ still a comment */
            let s = "unwrap inside a string";
            let r = r#"raw "quoted" unwrap"#;
            let b = b"byte unwrap";
            x.unwrap_or_default();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unwrap"));
        assert!(!ids.iter().any(|i| i == "HashMap"));
        assert!(ids.iter().any(|i| i == "unwrap_or_default"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'q' }").toks;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        // The 'x' char literal produced no spurious lifetime/ident.
        assert!(!toks
            .iter()
            .any(|t| t.text == "q" && t.kind == TokKind::Ident));
    }

    #[test]
    fn directives_are_collected_with_their_lines() {
        let src = "let a = 1;\n// qns-lint: allow(panic)\nlet b = x.unwrap();\n";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 1);
        assert_eq!(lexed.directives[0].line, 2);
        assert_eq!(lexed.directives[0].payload, "allow(panic)");
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let src = r####"let x = r##"has "# inside"##; y.collect::<Vec<_>>();"####;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, r##"has "# inside"##);
        assert!(lexed.toks.iter().any(|t| t.is_ident("collect")));
    }

    #[test]
    fn string_escapes_do_not_end_the_literal() {
        let lexed = lex(r#"let s = "a \" b"; t.clone();"#);
        assert!(lexed.toks.iter().any(|t| t.is_ident("clone")));
        let s: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].text, r#"a \" b"#);
    }

    #[test]
    fn numbers_ranges_and_tuple_access_lex_cleanly() {
        let lexed = lex("for i in 0..n { x.0 += 1.5e-3; }");
        assert!(lexed.toks.iter().any(|t| t.is_ident("n")));
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.5e-3"));
    }
}
