//! `durability-rename`: atomic-replace renames are fsynced on both sides.

use crate::{Diagnostic, SourceFile};

use super::Rule;

/// Persistence code lives here.
const SCOPE: &[&str] = &["crates/store/src/"];

/// Calls that establish the renamed file's content durability before the
/// rename: anything fsync-flavored, plus the project helpers that fsync
/// internally before returning.
const DURABLE_WRITERS: &[&str] = &["write_wal_file"];

/// Flags `rename(…)` calls in `ustr-store` without a preceding
/// content-fsync and a following directory-fsync in the same function.
pub struct DurabilityRename;

impl Rule for DurabilityRename {
    fn name(&self) -> &'static str {
        "durability-rename"
    }

    fn summary(&self) -> &'static str {
        "rename without fsync-before and directory-fsync-after in ustr-store"
    }

    fn explain(&self) -> &'static str {
        "The store's crash-safety story is temp-file + rename: write the new bytes to a \
         sibling file, fsync them, rename over the target, fsync the parent directory. Skip \
         the first fsync and a crash can leave the *renamed* file empty or torn (the rename \
         survived, the data did not — the classic ext4 trap); skip the directory fsync and \
         the rename itself may vanish. This rule requires every `rename(…)` call in \
         crates/store/src to have, within the same function, (a) an earlier call whose name \
         contains `sync` or is a known fsyncing writer (`write_wal_file`), and (b) a later \
         call whose name contains `sync` (normally `fsync_parent_dir`). Helpers that fsync \
         internally keep the rule green at their call sites by being listed as durable \
         writers — extend the list (in crates/lint/src/rules/durability.rs) when adding \
         one, or record a lint-allow.toml exception with the reason the ordering is safe. \
         See INVARIANTS.md."
    }

    fn applies(&self, rel: &str) -> bool {
        SCOPE.iter().any(|p| rel.starts_with(p))
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = &file.tokens;
        let bodies = file.fn_bodies();
        for (i, t) in toks.iter().enumerate() {
            if t.text != "rename" || toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
                continue;
            }
            // Innermost enclosing fn body.
            let Some(&(start, end)) = bodies
                .iter()
                .filter(|(s, e)| *s < i && i < *e)
                .min_by_key(|(s, e)| e - s)
            else {
                continue;
            };
            let is_durable_call = |j: usize| {
                let t = &toks[j];
                (t.text.contains("sync") || DURABLE_WRITERS.contains(&t.text.as_str()))
                    && toks.get(j + 1).is_some_and(|n| n.text == "(")
            };
            let fsynced_before = (start..i).any(is_durable_call);
            let dir_fsynced_after = (i + 1..end).any(|j| {
                toks[j].text.contains("sync") && toks.get(j + 1).is_some_and(|n| n.text == "(")
            });
            if !fsynced_before {
                out.push(Diagnostic {
                    rule: self.name(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: "rename without a preceding fsync of the renamed content in \
                              the same function"
                        .into(),
                });
            }
            if !dir_fsynced_after {
                out.push(Diagnostic {
                    rule: self.name(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: "rename without a following directory fsync \
                              (fsync_parent_dir) in the same function"
                        .into(),
                });
            }
        }
        out
    }
}
