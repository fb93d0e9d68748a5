//! The rule registry: every enforced invariant as a named, explainable
//! check over a lexed [`SourceFile`].

mod atomics;
mod durability;
mod float;
mod locks;

use crate::{Diagnostic, SourceFile};

pub use atomics::AtomicsJustify;
pub use durability::DurabilityRename;
pub use float::FloatDeterminism;
pub use locks::LockHygiene;

/// One lint rule. Rules are lexical heuristics tuned to this codebase —
/// see each `explain()` for what is matched, why the invariant exists,
/// and how to record an audited exception.
pub trait Rule {
    /// Stable kebab-case name (diagnostics, `--rule`, `--explain`,
    /// `lint-allow.toml` all use it).
    fn name(&self) -> &'static str;

    /// One-line summary shown by `--list`.
    fn summary(&self) -> &'static str;

    /// Long-form rationale shown by `--explain`.
    fn explain(&self) -> &'static str;

    /// Whether the rule runs on the workspace-relative path `rel` (unix
    /// separators). Bypassed in fixture mode (`--rule` with explicit
    /// files).
    fn applies(&self, rel: &str) -> bool;

    /// Runs the check.
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic>;
}

/// Every rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatDeterminism),
        Box::new(AtomicsJustify),
        Box::new(DurabilityRename),
        Box::new(LockHygiene),
    ]
}
