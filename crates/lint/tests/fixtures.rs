//! End-to-end linter tests: every rule fires on its violating fixture and
//! stays quiet on the clean twin (through the real binary, exit codes and
//! all), and the workspace itself lints green against the committed
//! `lint-allow.toml` baseline.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every rule, paired with the fixture slug its files are named after.
const RULES: &[(&str, &str)] = &[
    ("float-determinism", "float_determinism"),
    ("atomics-justify", "atomics_justify"),
    ("durability-rename", "durability_rename"),
    ("lock-hygiene", "lock_hygiene"),
];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the real `ustr-lint` binary in fixture mode (`--rule R --deny F`)
/// and returns `(succeeded, combined output)`.
fn lint_fixture(rule: &str, file: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ustr-lint"))
        .arg("--rule")
        .arg(rule)
        .arg("--deny")
        .arg(fixture(file))
        .output()
        .expect("ustr-lint binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn every_rule_fires_on_its_violating_fixture() {
    for (rule, slug) in RULES {
        let (ok, text) = lint_fixture(rule, &format!("{slug}_violating.rs"));
        assert!(
            !ok,
            "{rule} should exit nonzero on its violating fixture; output:\n{text}"
        );
        assert!(
            text.contains(&format!("[{rule}]")),
            "{rule} diagnostics should name the rule; output:\n{text}"
        );
    }
}

#[test]
fn every_rule_passes_its_clean_fixture() {
    for (rule, slug) in RULES {
        let (ok, text) = lint_fixture(rule, &format!("{slug}_clean.rs"));
        assert!(
            ok,
            "{rule} should exit zero on its clean fixture; output:\n{text}"
        );
        assert!(
            text.contains("0 violation(s)"),
            "{rule} clean fixture should report zero violations; output:\n{text}"
        );
    }
}

#[test]
fn explain_and_list_cover_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_ustr-lint"))
        .arg("--list")
        .output()
        .expect("ustr-lint --list runs");
    let listing = String::from_utf8_lossy(&out.stdout).into_owned();
    for (rule, _) in RULES {
        assert!(listing.contains(rule), "--list should mention {rule}");
        let out = Command::new(env!("CARGO_BIN_EXE_ustr-lint"))
            .arg("--explain")
            .arg(rule)
            .output()
            .expect("ustr-lint --explain runs");
        assert!(out.status.success(), "--explain {rule} should succeed");
        assert!(
            out.stdout.len() > 200,
            "--explain {rule} should print a real rationale"
        );
    }
}

/// The acceptance gate: the workspace as committed has zero unjustified
/// violations, every baseline entry is live, and the exception budget
/// stays small.
#[test]
fn workspace_lints_green_with_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = ustr_lint::workspace_files(&root).expect("workspace walk succeeds");
    assert!(
        files.len() > 50,
        "workspace walk should see the whole repo, got {} files",
        files.len()
    );
    let allow = ustr_lint::AllowList::load(&root.join("lint-allow.toml"))
        .expect("committed baseline parses");
    assert!(
        allow.entries.len() <= 10,
        "audited-exception budget exceeded: {} entries (max 10)",
        allow.entries.len()
    );
    let report = ustr_lint::lint_files(&files, &ustr_lint::all_rules(), &allow);
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace has unjustified violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale lint-allow.toml entries: {:?}",
        report.unused_allows
    );
}
