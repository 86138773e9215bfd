//! `branch-state-clone` — the walkers' branch state is cloned only at
//! task-split points.
//!
//! # Rationale
//!
//! The enumeration walkers keep one mutable `(L, R, P, Q)` branch
//! state per recursion *level* in pooled, undo-restored frames, which
//! makes the steady-state walk allocation-free (see the README's
//! "Branch state & memory model"). That property is easy to lose: a
//! single `.clone()` / `.to_vec()` of a branch set inside a branch
//! body reintroduces a per-node allocation, and on deep skewed
//! instances the walk regresses from "allocates nothing" to "allocates
//! `O(depth · width)` per node" without any test failing — the output
//! is still correct, only the perf trajectory silently decays.
//!
//! The one place branch state legitimately becomes an owned copy is
//! the copy-on-split snapshot at the root split
//! (`BranchTask::snapshot`): the parallel engine needs an immutable,
//! exactly-serial `(L, R, P, Q)` payload there, and nowhere else.
//!
//! The rule therefore forbids, in non-test code of the four walker
//! files, `.clone()` / `.to_vec()` whose receiver is a branch-state
//! set (`l`, `r`, `p`, `q`, `nl` — bare or as a field), except inside
//! the body of a `fn snapshot` (the blessed split-point helper).
//! Scratch state with distinct names (`r_counts`, `budget`, …) is not
//! matched. Suppress a deliberate site with
//! `// fbe-lint: allow(branch-state-clone): <reason>`.

use crate::findings::Finding;
use crate::rules::{is_ident, token_positions};
use crate::walk::{Analysis, SourceFile};

/// Rule identifier.
pub const NAME: &str = "branch-state-clone";

/// The walker files holding branch-state hot loops.
const SCOPES: &[&str] = &[
    "crates/core/src/mbea.rs",
    "crates/core/src/fairbcem_pp.rs",
    "crates/core/src/bfairbcem.rs",
];

/// Identifiers that name branch-state sets in the walkers.
const BRANCH_SETS: &[&str] = &["l", "r", "p", "q", "nl"];

/// The cloning calls the rule polices.
const CLONE_TOKENS: &[&str] = &[".clone()", ".to_vec()"];

/// Per-line mask: true inside the body (signature through closing
/// brace) of any `fn snapshot` — the blessed copy-on-split helper.
fn snapshot_mask(file: &SourceFile) -> Vec<bool> {
    let mut mask = vec![false; file.scrub.lines.len()];
    let mut inside = false;
    let mut depth: i64 = 0;
    let mut seen_brace = false;
    for (idx, line) in file.scrub.lines.iter().enumerate() {
        if !inside && !token_positions(&line.code, "fn snapshot").is_empty() {
            inside = true;
            depth = 0;
            seen_brace = false;
        }
        if inside {
            mask[idx] = true;
            for c in line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        seen_brace = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if seen_brace && depth <= 0 {
                inside = false;
            }
        }
    }
    mask
}

/// The identifier directly preceding byte `at` in `code`, if any
/// (`"x.q.to_vec()"` at the token start yields `"q"`).
fn receiver_ident(code: &str, at: usize) -> &str {
    let head = &code[..at];
    let start = head
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident(c))
        .last()
        .map_or(at, |(i, _)| i);
    &head[start..]
}

/// Run the rule.
pub fn check(analysis: &Analysis, findings: &mut Vec<Finding>) {
    for file in &analysis.files {
        if !SCOPES.contains(&file.path.as_str()) {
            continue;
        }
        let blessed = snapshot_mask(file);
        for (idx, line) in file.scrub.lines.iter().enumerate() {
            let lineno = idx + 1;
            if file.in_test(lineno) || blessed.get(idx).copied() == Some(true) {
                continue;
            }
            for tok in CLONE_TOKENS {
                for at in token_positions(&line.code, tok) {
                    let recv = receiver_ident(&line.code, at);
                    if BRANCH_SETS.contains(&recv) {
                        findings.push(Finding::new(
                            NAME,
                            &file.path,
                            lineno,
                            format!(
                                "`{recv}{tok}` clones branch state inside a walker \
                                 branch body: mutate the pooled frame in place and \
                                 restore on backtrack; owned copies are allowed \
                                 only in the split-point `snapshot` helper"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_extraction() {
        let code = "let a = q.to_vec();";
        let at = code.find(".to_vec()").unwrap();
        assert_eq!(receiver_ident(code, at), "q");
        let code = "l: self.nl.clone(),";
        let at = code.find(".clone()").unwrap();
        assert_eq!(receiver_ident(code, at), "nl");
        let code = "r_counts.clone()";
        let at = code.find(".clone()").unwrap();
        assert_eq!(receiver_ident(code, at), "r_counts");
        // No receiver at all.
        assert_eq!(receiver_ident(".clone()", 0), "");
    }

    #[test]
    fn snapshot_mask_tracks_braces() {
        let src = "\
fn a() {}\n\
pub(crate) fn snapshot(\n\
    l: &[u32],\n\
) -> Vec<u32> {\n\
    l.to_vec()\n\
}\n\
fn b() {}\n";
        let f = SourceFile::parse("crates/core/src/mbea.rs", src);
        let mask = snapshot_mask(&f);
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
    }
}
