//! A lightweight Rust lexer: just enough fidelity for invariant linting.
//!
//! The lexer produces a flat token stream with line numbers, handling the
//! constructs that defeat naive regex scanning — nested block comments,
//! string/raw-string/byte-string/char literals (a `rename(` inside a
//! string must not trip the durability rule), lifetimes vs char literals, and
//! float vs integer vs range-expression numeric literals (`1.0` is a
//! float, `1..2` is not, `1.max(2)` is a method call). Comments are not
//! tokens; they land in a side table keyed by line so rules can look up
//! justification comments (`// ordering: …`) adjacent to a site.
//!
//! A second pass, [`strip_test_regions`], removes every item annotated
//! `#[test]` or `#[cfg(test)]` (and everything nested inside it) from the
//! stream: test code is allowed to compare floats and use any atomic
//! ordering it likes.

/// Token categories. Keywords are ordinary [`Kind::Ident`] tokens; rules
/// match on the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/octal/binary and suffixed forms).
    Int,
    /// Float literal (`1.0`, `1e-12`, `2f64`, `1.`).
    Float,
    /// String literal of any flavor (plain, raw, byte, raw byte).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Operator or delimiter, maximal-munched (`::`, `<=`, `..=`, …).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token category.
    pub kind: Kind,
    /// Exact source text (for [`Kind::Str`] the text is not preserved —
    /// literals are opaque to every rule).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// One comment (line `//…` or block `/*…*/`), with the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including the delimiters.
    pub text: String,
}

/// A lexed file: tokens plus the comment side table.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unknown bytes are skipped (the linter must never panic on
/// weird input — it lints the code that enforces that very property).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..i].to_string(),
                });
            }
            b'"' => i = lex_string(b, i, &mut line, &mut out, 0),
            b'r' if matches!(b.get(i + 1), Some(b'"') | Some(b'#')) => {
                i = lex_raw_or_ident(src, b, i, &mut line, &mut out, 1)
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => i = lex_char(b, i + 1, &mut line, &mut out),
            b'b' if b.get(i + 1) == Some(&b'"') => i = lex_string(b, i + 1, &mut line, &mut out, 1),
            b'b' if b.get(i + 1) == Some(&b'r')
                && matches!(b.get(i + 2), Some(b'"') | Some(b'#')) =>
            {
                i = lex_raw_or_ident(src, b, i, &mut line, &mut out, 2)
            }
            b'\'' => i = lex_quote(src, b, i, &mut line, &mut out),
            b'0'..=b'9' => i = lex_number(src, b, i, line, &mut out),
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: Kind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => i = lex_punct(src, b, i, line, &mut out),
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Plain or byte string starting with the quote at `b[start + skip]`
/// (where `skip` covers a `b` prefix). Returns the index past the literal.
fn lex_string(b: &[u8], start: usize, line: &mut u32, out: &mut Lexed, skip: usize) -> usize {
    let tok_line = *line;
    let mut i = start + skip + 1; // past the opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    out.tokens.push(Tok {
        kind: Kind::Str,
        text: String::new(),
        line: tok_line,
    });
    i
}

/// Raw (byte) string `r#"…"#` — or a raw identifier `r#ident`, which shares
/// the `r#` prefix. `prefix` is 1 for `r`, 2 for `br`.
fn lex_raw_or_ident(
    src: &str,
    b: &[u8],
    start: usize,
    line: &mut u32,
    out: &mut Lexed,
    prefix: usize,
) -> usize {
    let mut i = start + prefix;
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        // `r#ident` (raw identifier): lex the identifier part.
        let id_start = i;
        let mut j = i;
        while j < b.len() && is_ident_continue(b[j]) {
            j += 1;
        }
        out.tokens.push(Tok {
            kind: Kind::Ident,
            text: src[id_start..j].to_string(),
            line: *line,
        });
        return j;
    }
    let tok_line = *line;
    i += 1; // past the quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                i += 1 + hashes;
                break;
            }
        }
        i += 1;
    }
    out.tokens.push(Tok {
        kind: Kind::Str,
        text: String::new(),
        line: tok_line,
    });
    i
}

/// Char or byte-char literal whose opening `'` is at `b[start]`.
fn lex_char(b: &[u8], start: usize, line: &mut u32, out: &mut Lexed) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => {
                i += 1;
                break;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    out.tokens.push(Tok {
        kind: Kind::Char,
        text: String::new(),
        line: *line,
    });
    i
}

/// A `'` is either a char literal (`'a'`, `'\n'`) or a lifetime (`'a`,
/// `'static`): look past the identifier run for a closing quote.
fn lex_quote(src: &str, b: &[u8], start: usize, line: &mut u32, out: &mut Lexed) -> usize {
    if let Some(&next) = b.get(start + 1) {
        if is_ident_start(next) {
            let mut j = start + 1;
            while j < b.len() && is_ident_continue(b[j]) {
                j += 1;
            }
            if b.get(j) != Some(&b'\'') {
                out.tokens.push(Tok {
                    kind: Kind::Lifetime,
                    text: src[start..j].to_string(),
                    line: *line,
                });
                return j;
            }
        }
    }
    lex_char(b, start, line, out)
}

fn lex_number(src: &str, b: &[u8], start: usize, line: u32, out: &mut Lexed) -> usize {
    let mut i = start;
    let mut kind = Kind::Int;
    if b[i] == b'0'
        && matches!(
            b.get(i + 1),
            Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
        )
    {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        out.tokens.push(Tok {
            kind,
            text: src[start..i].to_string(),
            line,
        });
        return i;
    }
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    if b.get(i) == Some(&b'.') {
        match b.get(i + 1) {
            Some(d) if d.is_ascii_digit() => {
                kind = Kind::Float;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
            }
            // `1.max(2)` is a method call, `1..2` is a range; `1.` alone
            // is a float.
            Some(&d) if is_ident_start(d) || d == b'.' => {}
            _ => {
                kind = Kind::Float;
                i += 1;
            }
        }
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        let mut j = i + 1;
        if matches!(b.get(j), Some(b'+') | Some(b'-')) {
            j += 1;
        }
        if b.get(j).is_some_and(|d| d.is_ascii_digit()) {
            kind = Kind::Float;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, …).
    let suffix_start = i;
    while i < b.len() && is_ident_continue(b[i]) {
        i += 1;
    }
    if matches!(&src[suffix_start..i], "f32" | "f64") {
        kind = Kind::Float;
    }
    out.tokens.push(Tok {
        kind,
        text: src[start..i].to_string(),
        line,
    });
    i
}

/// Multi-character operators, longest first (maximal munch).
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

fn lex_punct(src: &str, b: &[u8], start: usize, line: u32, out: &mut Lexed) -> usize {
    for op in OPS {
        if src[start..].starts_with(op) {
            out.tokens.push(Tok {
                kind: Kind::Punct,
                text: (*op).to_string(),
                line,
            });
            return start + op.len();
        }
    }
    out.tokens.push(Tok {
        kind: Kind::Punct,
        text: (b[start] as char).to_string(),
        line,
    });
    start + 1
}

/// Removes every item marked `#[test]` / `#[cfg(test)]` (attribute and
/// item body both) from the token stream. An attribute is treated as
/// test-only when it contains the identifier `test` and no `not` (so
/// `#[cfg(not(test))]` code stays linted).
pub fn strip_test_regions(tokens: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let close = match matching_bracket(&tokens, i + 1) {
                Some(c) => c,
                None => {
                    out.push(tokens[i].clone());
                    i += 1;
                    continue;
                }
            };
            let inner = &tokens[i + 2..close];
            let has = |name: &str| {
                inner
                    .iter()
                    .any(|t| t.kind == Kind::Ident && t.text == name)
            };
            if has("test") && !has("not") {
                i = skip_item(&tokens, close + 1);
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index of the `]` matching the `[` at `open`, tolerating nested brackets.
fn matching_bracket(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Skips one item starting at `from` (more attributes, then either a
/// braced body or a `;`-terminated item). Returns the index past it.
fn skip_item(tokens: &[Tok], mut from: usize) -> usize {
    // Further attributes on the same item.
    while from < tokens.len()
        && tokens[from].text == "#"
        && tokens.get(from + 1).is_some_and(|t| t.text == "[")
    {
        match matching_bracket(tokens, from + 1) {
            Some(c) => from = c + 1,
            None => return tokens.len(),
        }
    }
    let mut depth = 0usize;
    while from < tokens.len() {
        match tokens[from].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return from + 1;
                }
            }
            ";" if depth == 0 => return from + 1,
            _ => {}
        }
        from += 1;
    }
    from
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let lexed = lex("let s = \"unwrap() // not a comment\"; // real: unwrap()\nx");
        assert!(lexed.tokens.iter().all(|t| !t.text.contains("unwrap")));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("real"));
        assert_eq!(lexed.tokens.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let lexed = lex("r#\"has \"quotes\" inside\"# r#fn b\"bytes\" br#\"raw\"#");
        let kinds: Vec<Kind> = lexed.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, vec![Kind::Str, Kind::Ident, Kind::Str, Kind::Str]);
        assert_eq!(lexed.tokens[1].text, "fn");
    }

    #[test]
    fn chars_vs_lifetimes() {
        let lexed = lex("'a' 'static '\\n' &'b str b'x'");
        let kinds: Vec<Kind> = lexed.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Kind::Char,
                Kind::Lifetime,
                Kind::Char,
                Kind::Punct,
                Kind::Lifetime,
                Kind::Ident,
                Kind::Char,
            ]
        );
    }

    #[test]
    fn number_flavors() {
        let lexed = lex("1.0 1e-12 2f64 0x1f 1..2 1.max(2) 7u64 1.");
        let kinds: Vec<(Kind, String)> = lexed
            .tokens
            .iter()
            .map(|t| (t.kind, t.text.clone()))
            .collect();
        assert_eq!(kinds[0], (Kind::Float, "1.0".into()));
        assert_eq!(kinds[1], (Kind::Float, "1e-12".into()));
        assert_eq!(kinds[2], (Kind::Float, "2f64".into()));
        assert_eq!(kinds[3], (Kind::Int, "0x1f".into()));
        assert_eq!(kinds[4].0, Kind::Int);
        assert_eq!(kinds[5], (Kind::Punct, "..".into()));
        assert_eq!(kinds[6].0, Kind::Int);
        // 1.max(2): int, dot, ident, (, int, )
        assert_eq!(kinds[7], (Kind::Int, "1".into()));
        assert_eq!(kinds[8], (Kind::Punct, ".".into()));
        assert_eq!(kinds[9], (Kind::Ident, "max".into()));
        let last = kinds.last().unwrap();
        assert_eq!(*last, (Kind::Float, "1.".into()));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "code");
    }

    #[test]
    fn operators_munch_maximally() {
        assert_eq!(
            texts("a <= b >>= c ..= d"),
            vec!["a", "<=", "b", ">>=", "c", "..=", "d"]
        );
    }

    #[test]
    fn test_regions_are_stripped() {
        let src = "fn keep() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn gone() { y.unwrap(); } }\n\
                   #[test]\nfn also_gone() { z.unwrap(); }\n\
                   #[cfg(not(test))]\nfn kept_too() { w.unwrap(); }\n";
        let toks = strip_test_regions(lex(src).tokens);
        let names: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"kept_too"));
        assert!(!names.contains(&"gone"));
        assert!(!names.contains(&"also_gone"));
    }
}
