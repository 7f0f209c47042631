//! The lint-ready view of one source file: its token stream plus the
//! two derived per-line facts the rules consume — which lines sit in
//! test-gated code (`#[cfg(test)]`, `#[test]`), and a column-preserving
//! render of only the *code* tokens, with no bytes from strings, chars,
//! or comments.

use crate::lexer::{lex, Token, TokenKind};

/// One source file, lexed and annotated.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated
    /// (`crates/core/src/switch/decide.rs`).
    pub rel: String,
    /// The raw source text.
    pub text: String,
    /// The complete token stream.
    pub tokens: Vec<Token>,
    /// Per 0-based line: inside a test-gated item.
    test_lines: Vec<bool>,
    /// Per 0-based line: the line's code tokens only, columns kept.
    code_lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and annotates `text` as the file at `rel`.
    #[must_use]
    pub fn new(rel: &str, text: String) -> Self {
        let rel = rel.replace('\\', "/");
        let tokens = lex(&text);
        let line_count = text.lines().count().max(1);
        let code_lines = render_code_lines(&text, &tokens, line_count);
        let test_lines = test_lines(&text, &tokens, line_count);
        SourceFile {
            rel,
            text,
            tokens,
            test_lines,
            code_lines,
        }
    }

    /// Every line's code-only render (strings, chars, and comments
    /// blanked; columns preserved), for window-scanning rules.
    #[must_use]
    pub fn code_lines(&self) -> &[String] {
        &self.code_lines
    }

    /// Whether the 0-based line sits inside a test-gated region.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Iterates the code tokens (everything except comments and
    /// string/char literals).
    pub fn code_tokens(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| t.kind.is_code())
    }
}

/// Renders each line keeping only code tokens at their original
/// columns; bytes from comments and literals become spaces.
fn render_code_lines(text: &str, tokens: &[Token], line_count: usize) -> Vec<String> {
    // Start byte of each line.
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    let mut lines: Vec<Vec<u8>> = text
        .lines()
        .map(|l| vec![b' '; l.len()])
        .collect::<Vec<_>>();
    lines.resize(line_count.max(lines.len()), Vec::new());
    for tok in tokens.iter().filter(|t| t.kind.is_code()) {
        // Code tokens never span lines (only strings and comments do).
        let Some(&line_start) = starts.get(tok.line) else {
            continue;
        };
        let col = tok.start - line_start;
        if let Some(row) = lines.get_mut(tok.line) {
            let end = (col + (tok.end - tok.start)).min(row.len());
            row[col..end].copy_from_slice(&text.as_bytes()[tok.start..tok.start + (end - col)]);
        }
    }
    lines
        .into_iter()
        .map(|row| String::from_utf8_lossy(&row).into_owned())
        .collect()
}

/// Marks the lines of test-gated items by walking every `#[cfg(...)]` /
/// `#[test]` attribute in the code-token stream and brace-matching the
/// item (or statement) it covers.
fn test_lines(text: &str, tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut gated = vec![false; line_count];
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind.is_code()).collect();
    let is = |at: usize, s: &str| code.get(at).is_some_and(|t| t.text(text) == s);

    let mut ci = 0;
    while ci < code.len() {
        // Outer attributes only: `#![...]` covers no item of its own.
        if !(code[ci].kind == TokenKind::Punct && is(ci, "#") && is(ci + 1, "[")) {
            ci += 1;
            continue;
        }
        let attr = ci;
        ci = attr_end(text, &code, attr);
        let norm: String = code[attr + 2..ci.saturating_sub(1)]
            .iter()
            .map(|t| t.text(text))
            .collect();
        let is_cfg = norm.starts_with("cfg(") || norm.starts_with("cfg_attr(");
        if !(norm == "test" || is_cfg && cfg_mentions(&norm, "test")) {
            continue;
        }

        // Skip any further attributes to the covered item/statement.
        let mut item = ci;
        while is(item, "#") && is(item + 1, "[") {
            item = attr_end(text, &code, item);
        }
        // Brace-match the covered region: to the matching close of the
        // first `{`, or to a `;`/`,` at depth 0, or to the close of the
        // enclosing block (an annotated last-in-block expression).
        let mut depth = 0usize;
        let mut end_line = code.get(item).map_or(code[attr].line, |t| t.line);
        for t in &code[item.min(code.len())..] {
            match t.text(text) {
                "{" => depth += 1,
                "}" if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                "}" => break, // enclosing block closed first
                ";" | "," if depth == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
        }
        for g in gated.iter_mut().take(end_line + 1).skip(code[attr].line) {
            *g = true;
        }
    }
    gated
}

/// The code index just past the `]` that closes the attribute whose `#`
/// sits at code index `hash`.
pub(crate) fn attr_end(text: &str, code: &[&Token], hash: usize) -> usize {
    let mut depth = 0usize;
    for (at, t) in code.iter().enumerate().skip(hash + 1) {
        match t.text(text) {
            "[" => depth += 1,
            "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return at + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Whether the normalized cfg text mentions the bare token `word`
/// outside a `not(...)` — `cfg(all(test,feature="x"))` mentions `test`,
/// `cfg(not(test))` and `cfg(feature="latest")` do not.
fn cfg_mentions(norm: &str, word: &str) -> bool {
    let bytes = norm.as_bytes();
    let mut from = 0;
    while let Some(rel) = norm[from..].find(word) {
        let at = from + rel;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let after = at + word.len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok && !norm[..at].ends_with("not(") {
            return true;
        }
        from = after;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/core/src/demo.rs", src.to_string())
    }

    #[test]
    fn code_lines_blank_strings_and_comments() {
        let f = file("let a = \".unwrap()\"; // panic!\nlet b = 2;\n");
        assert!(!f.code_lines()[0].contains("unwrap"));
        assert!(!f.code_lines()[0].contains("panic"));
        assert!(f.code_lines()[0].contains("let a ="));
        assert_eq!(f.code_lines()[1], "let b = 2;");
    }

    #[test]
    fn code_lines_preserve_columns() {
        let f = file("abc(\"xx\", y);\n");
        assert_eq!(f.code_lines()[0], "abc(    , y);");
    }

    #[test]
    fn cfg_test_region_spans_the_module() {
        let f = file("fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also() {}\n");
        let flags: Vec<bool> = (0..6).map(|l| f.is_test_line(l)).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_all_test_and_feature_is_a_test_region() {
        let f = file("#[cfg(all(test, feature = \"sanitizer\"))]\nmod m {\n    fn t() {}\n}\n");
        assert!(f.is_test_line(2));
    }

    #[test]
    fn cfg_not_test_and_lookalike_features_do_not_gate() {
        let f = file("#[cfg(not(test))]\nfn a() {}\n#[cfg(feature = \"latest\")]\nfn b() {}\n");
        assert!((0..4).all(|l| !f.is_test_line(l)));
    }

    #[test]
    fn test_attribute_gates_the_function() {
        let f = file("#[test]\nfn t() {\n    boom();\n}\nfn hot() {}\n");
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(4));
    }

    #[test]
    fn cfg_test_enum_variant_covers_only_its_lines() {
        let f = file("enum T {\n    A,\n    #[cfg(test)]\n    B,\n}\nfn hot() {}\n");
        let flags: Vec<bool> = (0..6).map(|l| f.is_test_line(l)).collect();
        assert_eq!(flags, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn cfg_gate_inside_a_string_does_not_gate() {
        let f = file("let s = \"#[cfg(test)] mod t {\";\nfn hot() {}\n");
        assert!(!f.is_test_line(1));
    }
}
