#!/bin/sh
# The INVARIANTS.md rules no compiler lint checks, over the non-test code of
# every src/**/*.rs and crates/*/src/**/*.rs (or of the files named, with
# every check on):
#   atomics-justify  an atomic `Ordering::X` with no `// ordering:` comment
#                    on its line or the three above (§3);
#   lock-hygiene     a `let g = …lock()…`/`lock_clean(…)` guard still live at
#                    a join, socket/file I/O or fsync call (§5);
#   float-literal    a comparison against a float literal in the §1 crates,
#                    unless the file opts out with
#                    `#![allow(clippy::float_arithmetic)]` (§1).
# Test code is cut as CI's line count cuts it; string and char literals and
# `//` comments are stripped before matching. Prints one line per finding
# and exits 1 when there is one.  Usage: sh ci/invariants.sh [FILE.rs...]
set -eu
scope='^crates/(core|baseline|service|live|net|store|suffix|rmq)/src/|^crates/uncertain/src/kstats[.]rs$'
if [ $# -eq 0 ]; then cd "$(dirname "$0")/.." && set -- $(find src crates/*/src -name '*.rs' | sort); else scope=.; fi
awk -v scope="$scope" -v q="'" '
function report(rule, msg) { print FILENAME ":" FNR ": [" rule "] " msg; bad = 1 }
FNR == 1 { cut = pending = instr = depth = 0; ord = -9; name = ""; split("", guard); floats = FILENAME ~ scope }
cut { next }
pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { cut = 1; next }
{ pending = /^[[:space:]]*#\[cfg\(test\)\]/ }
/^#!\[allow\(clippy::float_arithmetic/ { floats = 0 }
{ code = note = ""
  for (i = 1; i <= length($0); i++) {
    c = substr($0, i, 1)
    if (instr) { if (c == "\\") i++; else if (c == "\"") instr = 0; continue }
    if (c == "\"") { instr = 1; continue }
    if (c == "/" && substr($0, i + 1, 1) == "/") { note = substr($0, i); break }
    if (c == q && substr($0, i + 1, 1) == "\\") { i += 2 + index(substr($0, i + 3), q); continue }
    if (c == q && substr($0, i + 2, 1) == q) { i += 2; continue }
    code = code c
  }
  if (note ~ /ordering:/) ord = FNR
  if (code ~ /Ordering::(Relaxed|SeqCst|Acquire|Release|AcqRel)/ && FNR - ord > 3)
    report("atomics-justify", "atomic Ordering without an adjacent // ordering: comment")
  for (g in guard) if (index(code, "drop(" g ")")) delete guard[g]
  if (code ~ /\.(join|write_all|read_exact|read_to_end|flush|accept|connect|sync_all|sync_data)\(/)
    for (g in guard) report("lock-hygiene", "guard " g " is still live across this blocking call")
  if (match(code, /let (mut )?[a-z_][a-z0-9_]* = /)) { name = substr(code, RSTART, RLENGTH); sub(/^let (mut )?/, "", name); sub(/ = $/, "", name); at = depth }
  if (name != "" && depth == at && code ~ /(\.lock|lock_clean)\(/) guard[name] = depth
  depth += gsub(/[{]/, "{", code) - gsub(/[}]/, "}", code)
  if (code ~ /;/ && depth <= at) name = ""
  for (g in guard) if (guard[g] > depth) delete guard[g]
  if (floats && (code ~ /([^=>-]|^)(<|>|<=|>=|==|!=) *-? *[0-9][0-9_]*([.][0-9]|[eE][+-]?[0-9]|_?f(32|64))/ ||
                 code ~ /(^|[^.A-Za-z0-9_])[0-9][0-9_]*([.][0-9][0-9_]*([eE][+-]?[0-9_]+)?|[eE][+-]?[0-9_]+)(_?f(32|64))? *(<|>|==|!=)/))
    report("float-literal", "comparison against a float literal: use ustr_uncertain::canon")
}
END { exit bad }' "$@"
