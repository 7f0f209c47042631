//! An in-tree Rust lexer: the token foundation of the lint engine.
//!
//! The workspace builds fully offline, so instead of `syn`/`proc-macro2`
//! this module hand-lexes the subset of Rust's lexical grammar the lint
//! rules need to be exact on this codebase: nested block comments, all
//! string flavors (plain, byte, C, and raw with hash fences), character
//! literals vs. lifetimes vs. loop labels, raw identifiers, and numeric
//! literals (so `1..2` never fuses into a float).
//!
//! Every byte of the input is covered by exactly one token or by
//! inter-token whitespace; tokens carry byte spans and 0-based line
//! numbers, so downstream passes can always recover the original text
//! and report precise locations. Comments and literals are real tokens
//! (not stripped), which rules out a text scanner's false-positive
//! class by construction: a rule that inspects only
//! [`TokenKind::is_code`] tokens cannot fire inside a string or a
//! comment.

/// What a token is, lexically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `decide_output`, `r#match`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// A character literal (`'x'`, `'\n'`, `'\u{1F600}'`) or byte
    /// character (`b'x'`).
    Char,
    /// A string literal of any flavor: `"…"`, `b"…"`, `c"…"`,
    /// `r"…"`, `r#"…"#`, `br#"…"#`, `cr"…"`.
    Str,
    /// A numeric literal (`42`, `0xFF_u64`, `1.5e-3`).
    Num,
    /// A `// …` comment (including `///` and `//!` doc comments).
    LineComment,
    /// A `/* … */` comment, nesting handled (including `/** … */`).
    BlockComment,
    /// A single punctuation character (`.`, `(`, `<`, `#`, …).
    Punct,
}

impl TokenKind {
    /// Whether this token participates in code (not a comment or a
    /// string/char literal). Rules that scan only code tokens cannot
    /// fire inside masked regions by construction.
    #[must_use]
    pub fn is_code(self) -> bool {
        !matches!(
            self,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Str | TokenKind::Char
        )
    }

    /// Whether this token is a comment.
    #[must_use]
    pub fn is_comment(self) -> bool {
        matches!(self, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// One lexed token: kind plus location.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte, exclusive.
    pub end: usize,
    /// 0-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    #[must_use]
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// Lexes `src` into a complete token stream.
///
/// The lexer never fails: malformed input (an unterminated string, a
/// stray byte) degrades to best-effort tokens that still cover the
/// text, because a lint pass must report on in-progress code rather
/// than refuse it.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 0,
        out: Vec::with_capacity(src.len() / 4),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => self.ident_or_prefixed(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, start_line: usize) {
        self.out.push(Token {
            kind,
            start,
            end: self.pos,
            line: start_line,
        });
    }

    /// Advances one position, tracking line breaks.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.push(TokenKind::LineComment, start, start_line);
    }

    fn block_comment(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, start, start_line);
    }

    /// A plain (escaped) string body starting at the opening quote;
    /// `start` is where the token began (it may include a `b`/`c`
    /// prefix consumed by the caller).
    fn string(&mut self, start: usize) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' if self.pos + 1 < self.bytes.len() => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push(TokenKind::Str, start, start_line);
    }

    /// A raw string body: `pos` sits at the first `#` or the opening
    /// quote; `start` covers the already-consumed `r`/`br`/`cr` prefix.
    fn raw_string(&mut self, start: usize) {
        let start_line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"'
                && self.bytes[self.pos + 1..]
                    .iter()
                    .take_while(|&&h| h == b'#')
                    .count()
                    >= hashes
            {
                self.pos += 1 + hashes;
                break;
            }
            self.bump();
        }
        self.push(TokenKind::Str, start, start_line);
    }

    /// Disambiguates `'a'` (char), `'a` (lifetime/label), and `'\n'`
    /// (escaped char). A `'` opens a char literal exactly when the
    /// quoted content closes with another `'` right after one character
    /// or escape; otherwise it is a lifetime.
    fn char_or_lifetime(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        let after = self.peek(1);
        let is_char = match after {
            Some(b'\\') => true,
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() => {
                // `'x'` is a char; `'x` followed by anything else is a
                // lifetime or label (`''` never occurs in valid Rust).
                self.peek(2) == Some(b'\'')
            }
            Some(c) if c >= 0x80 => true, // multi-byte scalar: `'é'`
            _ => false,
        };
        if !is_char {
            // Lifetime: the quote plus an identifier.
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80)
            {
                self.pos += 1;
            }
            self.push(TokenKind::Lifetime, start, start_line);
            return;
        }
        self.pos += 1; // opening quote
        if self.peek(0) == Some(b'\\') {
            // Escapes like `'\u{1F600}'` span to the closing quote.
            self.pos += 2;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                self.bump();
            }
        } else {
            // One (possibly multi-byte) character.
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| (c & 0b1100_0000) == 0b1000_0000)
            {
                self.pos += 1;
            }
        }
        if self.peek(0) == Some(b'\'') {
            self.pos += 1;
        }
        self.push(TokenKind::Char, start, start_line);
    }

    fn number(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        // Integer part, radix prefixes, suffixes: alphanumerics and
        // underscores all fold in (`0xFF_u64`).
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            // An exponent sign continues the literal: `1e-3`, `2.5E+9`.
            let c = self.bytes[self.pos];
            self.pos += 1;
            if (c == b'e' || c == b'E')
                && matches!(self.peek(0), Some(b'+') | Some(b'-'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                self.pos += 1;
            }
        }
        // A fraction only when a digit follows the dot — `1..2` stays
        // two integers — and never directly after a field-access dot,
        // so `x.0.1` lexes as two tuple indices, not `0.1`.
        let after_field_dot = self
            .out
            .last()
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == ".");
        if !after_field_dot
            && self.peek(0) == Some(b'.')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                let c = self.bytes[self.pos];
                self.pos += 1;
                if (c == b'e' || c == b'E')
                    && matches!(self.peek(0), Some(b'+') | Some(b'-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    self.pos += 1;
                }
            }
        }
        self.push(TokenKind::Num, start, start_line);
    }

    /// An identifier — or one of the literal prefixes (`r"`, `br#"`,
    /// `b"`, `b'`, `c"`, `cr"`, `r#ident`).
    fn ident_or_prefixed(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80)
        {
            self.pos += 1;
        }
        let ident = &self.src[start..self.pos];
        match (ident, self.peek(0)) {
            ("r" | "br" | "cr", Some(b'"')) => self.raw_string(start),
            ("r" | "br" | "cr", Some(b'#')) => {
                // `r#"…"#` is a raw string; `r#ident` is a raw
                // identifier. Look past the hashes for the quote.
                let mut j = self.pos;
                while self.bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'"') {
                    self.raw_string(start);
                } else if ident == "r" {
                    // Raw identifier: consume `#` and the name.
                    self.pos += 1;
                    while self
                        .peek(0)
                        .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80)
                    {
                        self.pos += 1;
                    }
                    self.push(TokenKind::Ident, start, start_line);
                } else {
                    self.push(TokenKind::Ident, start, start_line);
                }
            }
            ("b" | "c", Some(b'"')) => self.string(start),
            ("b", Some(b'\'')) => {
                // Byte char `b'x'` / `b'\n'`: reuse the char scanner by
                // rewinding its start to include the prefix.
                self.pos += 1; // the quote
                if self.peek(0) == Some(b'\\') {
                    self.pos += 2;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                        self.bump();
                    }
                } else {
                    self.pos += 1;
                }
                if self.peek(0) == Some(b'\'') {
                    self.pos += 1;
                }
                self.push(TokenKind::Char, start, start_line);
            }
            _ => self.push(TokenKind::Ident, start, start_line),
        }
    }

    fn punct(&mut self) {
        let (start, start_line) = (self.pos, self.line);
        // One full character (stray non-ASCII bytes outside identifiers
        // are tolerated, not split mid-scalar).
        let ch_len = self.src[self.pos..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.pos += ch_len;
        self.push(TokenKind::Punct, start, start_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn code_text(src: &str) -> String {
        lex(src)
            .into_iter()
            .filter(|t| t.kind.is_code())
            .map(|t| t.text(src))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn idents_puncts_numbers() {
        let toks = kinds("fn f(x: u64) -> u64 { x + 0xFF_u64 }");
        assert!(toks.contains(&(TokenKind::Ident, "fn")));
        assert!(toks.contains(&(TokenKind::Num, "0xFF_u64")));
        assert!(toks.contains(&(TokenKind::Punct, "+")));
    }

    #[test]
    fn range_does_not_fuse_into_float() {
        let toks = kinds("for i in 1..20 {}");
        assert!(toks.contains(&(TokenKind::Num, "1")));
        assert!(toks.contains(&(TokenKind::Num, "20")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Num && t.contains('.')));
    }

    #[test]
    fn floats_and_exponents_lex_whole() {
        let toks = kinds("let x = 1.5e-3 + 2.0E+9;");
        assert!(toks.contains(&(TokenKind::Num, "1.5e-3")));
        assert!(toks.contains(&(TokenKind::Num, "2.0E+9")));
    }

    #[test]
    fn tuple_field_access_is_not_a_float() {
        let toks = kinds("let y = x.0.1;");
        assert!(toks.contains(&(TokenKind::Num, "0")));
        assert!(toks.contains(&(TokenKind::Num, "1")));
    }

    #[test]
    fn line_and_nested_block_comments() {
        let src = "a // trailing .unwrap()\n/* outer /* inner */ still */ b";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::LineComment, "// trailing .unwrap()")));
        assert!(toks.contains(&(TokenKind::BlockComment, "/* outer /* inner */ still */")));
        assert_eq!(code_text(src), "a b");
    }

    #[test]
    fn strings_of_every_flavor_are_single_tokens() {
        for src in [
            "\"plain .unwrap()\"",
            "b\"bytes\"",
            "c\"cstr\"",
            "r\"raw\"",
            "r#\"fenced \" quote\"#",
            "br#\"raw bytes\"#",
            "cr\"raw c\"",
            "\"escaped \\\" quote\"",
        ] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].0, TokenKind::Str, "{src}");
            assert_eq!(toks[0].1, src, "{src}");
        }
    }

    #[test]
    fn raw_string_fence_requires_matching_hashes() {
        let src = "r##\"inner \"# still inside\"## after";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[0].1, "r##\"inner \"# still inside\"##");
        assert!(toks.contains(&(TokenKind::Ident, "after")));
    }

    #[test]
    fn char_vs_lifetime_vs_label() {
        let src = "fn f<'a>(x: &'a str) { 'outer: loop { break 'outer; } g('x', '\\'', b'y') }";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'outer")));
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Char, "'\\''")));
        assert!(toks.contains(&(TokenKind::Char, "b'y'")));
    }

    #[test]
    fn unicode_char_literal_and_escape() {
        let toks = kinds("let a = 'é'; let b = '\\u{1F600}';");
        assert!(toks.contains(&(TokenKind::Char, "'é'")));
        assert!(toks.contains(&(TokenKind::Char, "'\\u{1F600}'")));
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_string() {
        let toks = kinds("let r#match = r#\"s\"#;");
        assert!(toks.contains(&(TokenKind::Ident, "r#match")));
        assert!(toks.contains(&(TokenKind::Str, "r#\"s\"#")));
    }

    #[test]
    fn identifier_ending_in_r_does_not_open_raw_string() {
        let toks = kinds("let wire = tracer \"s\"");
        assert!(toks.contains(&(TokenKind::Ident, "tracer")));
        assert!(toks.contains(&(TokenKind::Str, "\"s\"")));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n\"two\nline\"\nb /* c\nd */ e";
        let toks = lex(src);
        let find = |text: &str| toks.iter().find(|t| t.text(src) == text).unwrap().line;
        assert_eq!(find("a"), 0);
        assert_eq!(find("\"two\nline\""), 1);
        assert_eq!(find("b"), 3);
        assert_eq!(find("e"), 4);
    }

    #[test]
    fn unterminated_string_still_covers_the_tail() {
        let toks = lex("let x = \"oops");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Str);
        assert_eq!(toks.last().unwrap().end, "let x = \"oops".len());
    }

    #[test]
    fn every_code_byte_is_covered_in_order() {
        let src = "fn f() { g(\"x\", 'y', 1.0); } // done";
        let toks = lex(src);
        let mut last = 0;
        for t in &toks {
            assert!(t.start >= last, "overlap at {t:?}");
            assert!(src[last..t.start].chars().all(char::is_whitespace));
            last = t.end;
        }
        assert!(src[last..].chars().all(char::is_whitespace));
    }
}
