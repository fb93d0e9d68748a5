//! The `ustr-lint` binary: lint the workspace (CI mode) or explicit files
//! (fixture mode), explain rules, list rules.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ustr_lint::{all_rules, lint_files, lint_source_forced, AllowList, Rule};

const USAGE: &str = "\
ustr-lint — workspace invariant linter (determinism, atomics, durability)

USAGE:
    ustr-lint --workspace [--root DIR] [--deny] [--allow FILE]
    ustr-lint --rule NAME [--rule NAME]... [--deny] FILE...
    ustr-lint --explain NAME
    ustr-lint --list

MODES:
    --workspace        Lint every project source under DIR (default `.`):
                       src/ of the root crate and of each crate under
                       crates/. vendor/, tests/, benches/, examples/ and
                       #[cfg(test)] regions are exempt.
    FILE...            Lint specific files with the rules named by --rule,
                       ignoring rule path scopes (fixture mode).

OPTIONS:
    --deny             Exit nonzero when any violation is reported.
    --root DIR         Workspace root for --workspace (default `.`).
    --allow FILE       Baseline file (default ROOT/lint-allow.toml).
    --rule NAME        Restrict to (workspace mode) or force (file mode)
                       the named rule. Repeatable.
    --explain NAME     Print a rule's rationale and exit.
    --list             List rules and exit.
";

struct Args {
    workspace: bool,
    deny: bool,
    root: PathBuf,
    allow: Option<PathBuf>,
    rules: Vec<String>,
    explain: Option<String>,
    list: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        deny: false,
        root: PathBuf::from("."),
        allow: None,
        rules: Vec::new(),
        explain: None,
        list: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--deny" => args.deny = true,
            "--list" => args.list = true,
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--allow" => {
                args.allow = Some(PathBuf::from(it.next().ok_or("--allow needs a value")?))
            }
            "--rule" => args.rules.push(it.next().ok_or("--rule needs a value")?),
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a value")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rules = all_rules();

    if args.list {
        for rule in &rules {
            println!("{:<20} {}", rule.name(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.explain {
        return match rules.iter().find(|r| r.name() == name.as_str()) {
            Some(rule) => {
                println!("{}: {}\n\n{}", rule.name(), rule.summary(), rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: no rule named `{name}` (try --list)");
                ExitCode::from(2)
            }
        };
    }
    for name in &args.rules {
        if !rules.iter().any(|r| r.name() == name.as_str()) {
            eprintln!("error: no rule named `{name}` (try --list)");
            return ExitCode::from(2);
        }
    }

    if args.workspace {
        run_workspace(&args, rules)
    } else if !args.files.is_empty() {
        run_files(&args)
    } else {
        eprintln!("error: pass --workspace or at least one FILE\n\n{USAGE}");
        ExitCode::from(2)
    }
}

fn run_workspace(args: &Args, rules: Vec<Box<dyn Rule>>) -> ExitCode {
    let rules: Vec<Box<dyn Rule>> = if args.rules.is_empty() {
        rules
    } else {
        rules
            .into_iter()
            .filter(|r| args.rules.iter().any(|n| n == r.name()))
            .collect()
    };
    let files = match ustr_lint::workspace_files(&args.root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let allow_path = args
        .allow
        .clone()
        .unwrap_or_else(|| args.root.join("lint-allow.toml"));
    let allow = match AllowList::load(&allow_path) {
        Ok(allow) => allow,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = lint_files(&files, &rules, &allow);
    for diag in &report.diagnostics {
        println!("{diag}");
    }
    for stale in &report.unused_allows {
        eprintln!("warning: stale lint-allow.toml entry matched nothing: {stale}");
    }
    let n = report.diagnostics.len();
    eprintln!(
        "ustr-lint: {} file(s), {} violation(s), {} allowlisted",
        report.files, n, report.suppressed
    );
    if n > 0 {
        eprintln!(
            "ustr-lint: run `ustr-lint --explain <rule>` for any rule above; audited \
             exceptions go in lint-allow.toml"
        );
    }
    exit_for(n, args.deny)
}

fn run_files(args: &Args) -> ExitCode {
    if args.rules.is_empty() {
        eprintln!("error: file mode needs at least one --rule NAME\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = args.rules.iter().map(String::as_str).collect();
    let mut n = 0usize;
    for path in &args.files {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = path.to_string_lossy().replace('\\', "/");
        for diag in lint_source_forced(&rel, &src, &names) {
            println!("{diag}");
            n += 1;
        }
    }
    eprintln!(
        "ustr-lint: {} file(s), {} violation(s) [rules: {}]",
        args.files.len(),
        n,
        names.join(", ")
    );
    exit_for(n, args.deny)
}

fn exit_for(violations: usize, deny: bool) -> ExitCode {
    if violations > 0 && deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
