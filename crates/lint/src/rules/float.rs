//! `float-determinism`: probability arithmetic stays in the canonical
//! modules.

use crate::lexer::Kind;
use crate::{Diagnostic, SourceFile};

use super::Rule;

/// Crates whose sources carry query answers and must not grow ad-hoc
/// float math (probabilities are computed once, canonically, in
/// `ustr-uncertain`).
const SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/baseline/src/",
    "crates/service/src/",
    "crates/live/src/",
    "crates/net/src/",
    "crates/store/src/",
    "crates/suffix/src/",
    "crates/rmq/src/",
];

/// The canonical-probability modules: the one place raw float arithmetic
/// is the point. (`kstats.rs` is deliberately *not* here — telemetry
/// counters must stay integer.)
const WHITELIST: &[&str] = &[
    "crates/uncertain/src/canon.rs",
    "crates/uncertain/src/string.rs",
    "crates/uncertain/src/plane.rs",
    "crates/uncertain/src/transform.rs",
    "crates/uncertain/src/chars.rs",
    "crates/uncertain/src/worlds.rs",
    "crates/uncertain/src/correlation.rs",
    "crates/uncertain/src/special.rs",
    "crates/uncertain/src/lib.rs",
    "crates/uncertain/src/error.rs",
];

/// Methods on floats that perform arithmetic whose result depends on
/// libm/rounding behavior — exactly what must happen at a single
/// summation site to keep answers byte-identical.
const FLOAT_METHODS: &[&str] = &[
    "ln", "exp", "exp2", "exp_m1", "ln_1p", "log", "log2", "log10", "powf", "powi", "sqrt", "cbrt",
    "hypot", "recip", "mul_add", "sin", "cos", "tan",
];

const ARITH: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];
const CMP: &[&str] = &["<", ">", "<=", ">=", "==", "!="];

/// Flags raw float arithmetic, transcendental calls, and float-literal
/// comparisons outside the canonical-probability modules.
pub struct FloatDeterminism;

impl Rule for FloatDeterminism {
    fn name(&self) -> &'static str {
        "float-determinism"
    }

    fn summary(&self) -> &'static str {
        "float arithmetic/comparisons outside the canonical-probability modules"
    }

    fn explain(&self) -> &'static str {
        "Every executor must return byte-identical probabilities (the PR 3/PR 5 \
         canonical-probability contract): answers are computed by one summation path in \
         ustr-uncertain (`match_probability` / `MatchKernel`), in one order, with one set of \
         `ln`/`exp` calls. A stray `f64` sum, tolerance, or comparison anywhere else can \
         silently fork that contract — two code paths that are mathematically equal but not \
         bit-equal. This rule flags, outside the whitelisted ustr-uncertain modules: float \
         transcendental/arithmetic method calls (`.ln()`, `.exp()`, `.powf()`, …), arithmetic \
         where a float literal is an operand, and comparisons against float literals. \
         It is a lexical heuristic: identifier-vs-identifier float math is not seen — reviews \
         still matter. Audited exceptions (e.g. construction-time level probabilities) go in \
         lint-allow.toml with a reason explaining why the site cannot fork query answers. \
         See INVARIANTS.md."
    }

    fn applies(&self, rel: &str) -> bool {
        if WHITELIST.contains(&rel) {
            return false;
        }
        SCOPE.iter().any(|p| rel.starts_with(p)) || rel.starts_with("crates/uncertain/src/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            // `.ln()` and friends.
            if t.kind == Kind::Ident
                && FLOAT_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                out.push(Diagnostic {
                    rule: self.name(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "float method `.{}()` outside the canonical-probability modules",
                        t.text
                    ),
                });
            }
            if t.kind != Kind::Float {
                continue;
            }
            // Arithmetic with a float literal operand. A `-` directly
            // after `= ( [ { , ; => return` (or a comparison) is unary
            // negation of a constant, not arithmetic.
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let prev2 = i.checked_sub(2).map(|p| toks[p].text.as_str());
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let unary_neg = prev == Some("-")
                && matches!(
                    prev2,
                    None | Some(
                        "=" | "("
                            | "["
                            | "{"
                            | ","
                            | ";"
                            | "=>"
                            | "return"
                            | "<"
                            | ">"
                            | "<="
                            | ">="
                            | "=="
                            | "!="
                            | "+"
                            | "-"
                            | "*"
                            | "/"
                    )
                );
            let prev_arith = prev.is_some_and(|p| ARITH.contains(&p)) && !unary_neg;
            let next_arith = next.is_some_and(|n| ARITH.contains(&n))
                // `0.5)` then `- x` is fine; but `0.5 - x` directly is
                // arithmetic. A trailing `-`/`+` before `)`/`,`/`;` cannot
                // happen, so any arith op directly after the literal counts.
                ;
            if prev_arith || next_arith {
                out.push(Diagnostic {
                    rule: self.name(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "raw float arithmetic with literal `{}` outside the \
                         canonical-probability modules",
                        t.text
                    ),
                });
                continue;
            }
            let prev_cmp = prev.is_some_and(|p| CMP.contains(&p));
            let next_cmp = next.is_some_and(|n| CMP.contains(&n));
            if prev_cmp || next_cmp {
                out.push(Diagnostic {
                    rule: self.name(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "float comparison against literal `{}` outside the \
                         canonical-probability modules",
                        t.text
                    ),
                });
            }
        }
        out
    }
}
