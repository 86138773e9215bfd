//! `lock-discipline` — two checks on `Mutex` usage.
//!
//! # Rationale
//!
//! The workspace's concurrency stack is hand-rolled: the parallel
//! engine's task channel (`core::parallel`) and the service (`service::engine`,
//! `service::catalog`) each guard state with `std::sync::Mutex`. Two
//! invariants are cheap to violate silently and expensive to debug:
//!
//! 1. **No nested acquisition.** Holding one `MutexGuard` while
//!    calling `.lock()` again (same or different mutex) is the classic
//!    deadlock shape — two threads acquiring in opposite orders hang
//!    forever, and an enumeration query that hangs holds its admission
//!    slot forever. The workspace convention is one lock at a time:
//!    copy what you need out of the first guard, drop it, then lock
//!    the second.
//! 2. **Poisoning policy is written down.** `lock().unwrap()` /
//!    `lock().expect(..)` turns one panicked worker into a cascade of
//!    panics in every later client of that mutex. Sometimes that is
//!    the right call (crash early in a test harness), but it must be a
//!    *decision*: any `.lock()` immediately unwrapped must mention the
//!    poisoning policy (the word "poison") in the expect message or a
//!    comment within the preceding two lines. Server-side code should
//!    recover instead (see `fbe_service::sync`).
//!
//! The nested-acquisition check is a heuristic, not an alias analysis:
//! it tracks `let`-bindings of `.lock()` results per brace depth and
//! flags any further `.lock()` before the binding's block closes or
//! `drop(binding)` runs. Locks passed across function boundaries are
//! out of scope. Suppress deliberate sites with
//! `// fbe-lint: allow(lock-discipline): <reason>`.

use crate::findings::Finding;
use crate::lexer::ScrubbedFile;
use crate::rules::{crate_sources, is_ident, justified_nearby};
use crate::walk::Analysis;

/// Rule identifier.
pub const NAME: &str = "lock-discipline";

/// The binding name of `let [mut] NAME = ...` on `code`, when the
/// statement's initializer contains `.lock()`.
fn lock_binding(code: &str) -> Option<String> {
    let let_at = crate::rules::token_positions(code, "let")
        .into_iter()
        .next()?;
    let rest = &code[let_at + 3..];
    let eq = rest.find('=')?;
    if !rest[eq..].contains(".lock()") {
        return None;
    }
    let name = rest[..eq].trim().trim_start_matches("mut ").trim();
    // Only simple bindings are tracked (patterns like tuples rarely
    // bind guards, and the heuristic must not misattribute drops).
    if !name.is_empty() && name.chars().all(is_ident) {
        Some(name.to_string())
    } else {
        None
    }
}

/// Detect `.lock()` immediately chained into `.unwrap()` / `.expect(`
/// (rustfmt may split the chain across lines), returning the
/// 1-indexed line numbers of the unwrap/expect tokens.
fn unwrapped_lock_lines(scrub: &ScrubbedFile) -> Vec<usize> {
    let (text, starts) = scrub.joined_code();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(".lock()") {
        let at = from + rel;
        let after = at + ".lock()".len();
        let trimmed = text[after..].trim_start();
        if trimmed.starts_with(".unwrap()") || trimmed.starts_with(".expect(") {
            let tok_at = after + (text[after..].len() - trimmed.len());
            out.push(ScrubbedFile::line_of(&starts, tok_at));
        }
        from = after;
    }
    out
}

/// Run the rule.
pub fn check(analysis: &Analysis, findings: &mut Vec<Finding>) {
    for file in crate_sources(analysis) {
        // (2) poisoning policy on unwrap-after-lock.
        for line in unwrapped_lock_lines(&file.scrub) {
            if file.in_test(line) {
                continue;
            }
            if !justified_nearby(file, line, 2, "poison") {
                findings.push(Finding::new(
                    NAME,
                    &file.path,
                    line,
                    "lock().unwrap()/expect() without a stated poisoning policy: \
                     recover (see fbe_service::sync) or comment why \
                     propagating the poison panic is intended",
                ));
            }
        }

        // (1) nested acquisition while a guard binding is live.
        let mut depth: i64 = 0;
        let mut held: Vec<(String, i64)> = Vec::new();
        for (idx, line) in file.scrub.lines.iter().enumerate() {
            let lineno = idx + 1;
            let code = line.code.as_str();
            if !file.in_test(lineno) && code.contains(".lock()") {
                if let Some((name, _)) = held.first() {
                    findings.push(Finding::new(
                        NAME,
                        &file.path,
                        lineno,
                        format!(
                            "`.lock()` while guard `{name}` is still held: \
                             nested Mutex acquisition risks deadlock; \
                             drop the first guard (or narrow its scope) first"
                        ),
                    ));
                }
                if let Some(name) = lock_binding(code) {
                    held.push((name, depth));
                }
            }
            // Explicit early drops release the binding.
            held.retain(|(name, _)| {
                crate::rules::token_positions(code, &format!("drop({name})")).is_empty()
            });
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            // A binding registered at depth D lives until its
            // enclosing block closes (depth drops below D).
            held.retain(|(_, d)| *d <= depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    #[test]
    fn binding_extraction() {
        assert_eq!(
            lock_binding("let mut st = self.state.lock().expect(\"x\");"),
            Some("st".to_string())
        );
        assert_eq!(lock_binding("let g = m.lock();"), Some("g".to_string()));
        assert_eq!(lock_binding("self.plans.lock().clear();"), None);
        assert_eq!(lock_binding("let x = y;"), None);
    }

    #[test]
    fn unwrapped_lock_spans_line_breaks() {
        let s = scrub("let a = m\n    .lock()\n    .unwrap();\n");
        assert_eq!(unwrapped_lock_lines(&s), vec![3]);
        let s = scrub("let a = m.lock().expect(\"poisoned\");\n");
        assert_eq!(unwrapped_lock_lines(&s), vec![1]);
        let s = scrub("let a = m.lock().unwrap_or_else(|p| p.into_inner());\n");
        assert!(unwrapped_lock_lines(&s).is_empty());
    }
}
