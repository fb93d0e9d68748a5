//! `ustr-lint` — the workspace invariant linter.
//!
//! The repo's core guarantees — byte-identical probability answers across
//! every executor, justified atomic orderings, fsync-before-rename
//! durability, and mutex guards that never straddle blocking calls — used
//! to live only in tests and reviewer memory (panic-free serving paths are
//! clippy's to enforce: `#![deny(..)]` in the three serving crates). This
//! crate makes them structural: a lightweight Rust [`lexer`] feeds a
//! [`rules`] engine that walks every workspace source file and reports
//! named, `--explain`-able violations with `file:line` diagnostics.
//! Audited exceptions live in the checked-in `lint-allow.toml` baseline
//! ([`allow`]); CI runs the binary with `--workspace --deny` so an
//! unjustified regression fails the build.
//!
//! The linter is std-only (this workspace builds with no external crates,
//! so no `syn`, no dylint) and lexical by design: rules are heuristics
//! over a token stream, tuned to this codebase's idioms, not a type
//! checker. See `INVARIANTS.md` at the workspace root for the catalog of
//! enforced invariants and `ustr-lint --explain <rule>` for each rule's
//! rationale and escape hatch.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod rules;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

pub use allow::AllowList;
use lexer::{lex, strip_test_regions, Comment, Tok};
pub use rules::{all_rules, Rule};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (`float-determinism`, `lock-hygiene`, …).
    pub rule: &'static str,
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong at the site.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A lexed source file ready for rule checks: test regions stripped,
/// comments in a by-line side table.
pub struct SourceFile {
    /// Workspace-relative path, unix separators (rules scope on it).
    pub rel: String,
    /// Token stream with `#[test]` / `#[cfg(test)]` items removed.
    pub tokens: Vec<Tok>,
    /// Comment text concatenated per starting line.
    pub comment_by_line: HashMap<u32, String>,
}

impl SourceFile {
    /// Lexes `src` as the file at `rel`.
    pub fn new(rel: impl Into<String>, src: &str) -> Self {
        let lexed = lex(src);
        let mut comment_by_line: HashMap<u32, String> = HashMap::new();
        for Comment { line, text } in &lexed.comments {
            let slot = comment_by_line.entry(*line).or_default();
            slot.push_str(text);
            slot.push(' ');
        }
        Self {
            rel: rel.into(),
            tokens: strip_test_regions(lexed.tokens),
            comment_by_line,
        }
    }

    /// Whether any comment starting on `line` or up to `back` lines above
    /// it contains `needle`.
    pub fn comment_near(&self, line: u32, back: u32, needle: &str) -> bool {
        (line.saturating_sub(back)..=line).any(|l| {
            self.comment_by_line
                .get(&l)
                .is_some_and(|c| c.contains(needle))
        })
    }

    /// Brace depth *before* each token (index `i` is the depth at which
    /// token `i` sits). Used by the scope-sensitive rules.
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = Vec::with_capacity(self.tokens.len());
        let mut d = 0u32;
        for t in &self.tokens {
            match t.text.as_str() {
                "{" => {
                    depths.push(d);
                    d += 1;
                }
                "}" => {
                    d = d.saturating_sub(1);
                    depths.push(d);
                }
                _ => depths.push(d),
            }
        }
        depths
    }

    /// `fn` body token ranges `(start, end)` — `start` is the index of the
    /// opening `{`, `end` of the matching `}`. Nested functions/closures
    /// produce nested ranges; callers wanting the innermost enclosing body
    /// pick the tightest range containing their index.
    pub fn fn_bodies(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let toks = &self.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].text == "fn"
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == lexer::Kind::Ident)
            {
                // Find the body's opening brace: the first `{` before a `;`
                // (a `;` first means a trait method signature / extern fn).
                let mut j = i + 2;
                let mut angle = 0i32; // `where` clauses and generics may nest
                let mut open = None;
                while let Some(t) = toks.get(j) {
                    match t.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        ";" if angle <= 0 => break,
                        "{" if angle <= 0 => {
                            open = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let mut depth = 0usize;
                    let mut k = open;
                    while let Some(t) = toks.get(k) {
                        match t.text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    out.push((open, k));
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            i += 1;
        }
        out
    }
}

/// Everything `lint_paths` found, plus allowlist bookkeeping.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the baseline.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a baseline entry.
    pub suppressed: usize,
    /// Baseline entries that matched nothing (stale — should be pruned).
    pub unused_allows: Vec<String>,
    /// Files checked.
    pub files: usize,
}

/// Lints one in-memory file with an explicit rule set, ignoring each
/// rule's path scope (fixture mode: the caller vouches the file stands in
/// for an in-scope one).
pub fn lint_source_forced(rel: &str, src: &str, rule_names: &[&str]) -> Vec<Diagnostic> {
    let file = SourceFile::new(rel, src);
    all_rules()
        .iter()
        .filter(|r| rule_names.contains(&r.name()))
        .flat_map(|r| r.check(&file))
        .collect()
}

/// Lints `files` (workspace-relative path, contents) against `rules`,
/// applying scopes and the baseline.
pub fn lint_files(
    files: &[(String, String)],
    rules: &[Box<dyn Rule>],
    allow: &AllowList,
) -> LintReport {
    let mut report = LintReport {
        files: files.len(),
        ..Default::default()
    };
    let mut used = vec![false; allow.entries.len()];
    for (rel, src) in files {
        let file = SourceFile::new(rel.clone(), src);
        for rule in rules {
            if !rule.applies(rel) {
                continue;
            }
            for diag in rule.check(&file) {
                if allow.covers(diag.rule, rel, &mut used) {
                    report.suppressed += 1;
                } else {
                    report.diagnostics.push(diag);
                }
            }
        }
    }
    for (i, u) in used.iter().enumerate() {
        if !u {
            let e = &allow.entries[i];
            report
                .unused_allows
                .push(format!("{} @ {}", e.rule, e.path));
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Walks the workspace at `root` and returns `(rel_path, contents)` for
/// every project source file: `src/**/*.rs` of the root crate and of each
/// crate under `crates/`. Excluded: `vendor/` (third-party stand-ins),
/// `target/`, and the per-crate `tests/`, `benches/`, `examples/` trees
/// (non-production code may compare floats freely — in-file
/// `#[cfg(test)]` regions are stripped separately by the lexer).
pub fn workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("cannot read {}: {e}", crates.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((rel, src));
        }
    }
    Ok(())
}

/// Lints the whole workspace at `root` with every rule and the baseline at
/// `root/lint-allow.toml`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let files = workspace_files(root)?;
    let allow = AllowList::load(&root.join("lint-allow.toml"))?;
    Ok(lint_files(&files, &all_rules(), &allow))
}
