//! Embedded fixture self-tests: one positive/negative source pair per
//! rule, run through the full [`crate::check_analysis`] pipeline (so
//! scrubbing, test-region masking, and allow filtering are all in the
//! loop). These are the linter's own regression suite — if a rule's
//! heuristics change, these fixtures define what must keep firing and
//! what must stay quiet.

use crate::check_analysis;
use crate::walk::{Analysis, SourceFile};

/// Build an analysis from `(path, source)` pairs plus README lines.
fn analysis(files: &[(&str, &str)], readme: &str) -> Analysis {
    let mut a = Analysis::default();
    for (path, src) in files {
        a.files.push(SourceFile::parse(*path, src));
    }
    a.readme = readme.lines().map(|l| l.to_string()).collect();
    a
}

/// Lines on which `rule` fired in `path`.
fn fired(a: &Analysis, rule: &str, path: &str) -> Vec<usize> {
    check_analysis(a, None)
        .into_iter()
        .filter(|f| f.rule == rule && f.path == path)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- panic paths

const PANIC_POSITIVE: &str = r#"
pub fn handle(x: Option<u32>, v: &[u32]) -> u32 {
    let a = x.unwrap();
    let b = x.expect("always set");
    if a == 0 {
        panic!("boom");
    }
    a + b + v[0]
}
"#;

const PANIC_NEGATIVE: &str = r#"
pub fn handle(x: Option<u32>) -> Result<u32, String> {
    // Strings and comments mentioning unwrap() or panic! are not code.
    let msg = "do not panic!(now) or .unwrap() anything";
    x.ok_or_else(|| msg.to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v = vec![1u32];
        assert_eq!(v[0], Some(1).unwrap());
        if false {
            panic!("fine in tests");
        }
    }
}
"#;

#[test]
fn panic_paths_fixture_positive() {
    let a = analysis(&[("crates/service/src/fix.rs", PANIC_POSITIVE)], "");
    let lines = fired(&a, "no-panic-paths", "crates/service/src/fix.rs");
    // unwrap, expect, panic!, and the literal index v[0].
    assert_eq!(lines, vec![3, 4, 6, 8]);
}

#[test]
fn panic_paths_fixture_negative() {
    let a = analysis(
        &[
            ("crates/service/src/fix.rs", PANIC_NEGATIVE),
            // Same panicky source outside the scoped crates: not flagged.
            ("crates/core/src/fix.rs", PANIC_POSITIVE),
        ],
        "",
    );
    assert!(fired(&a, "no-panic-paths", "crates/service/src/fix.rs").is_empty());
    assert!(fired(&a, "no-panic-paths", "crates/core/src/fix.rs").is_empty());
}

// ------------------------------------------------------------ lock discipline

const LOCKS_POSITIVE: &str = r#"
pub fn transfer(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let mut ga = a.lock().unwrap();
    let gb = b.lock();
    *ga += 1;
    drop(gb);
}
"#;

const LOCKS_NEGATIVE: &str = r#"
pub fn transfer(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    {
        // Writers never panic while holding this lock: poisoned is unreachable.
        let mut ga = a.lock().unwrap();
        *ga += 1;
    }
    let gb = b.lock();
    drop(gb);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_nest() {
        let m = std::sync::Mutex::new(0u32);
        let g = m.lock().unwrap();
        let h = std::sync::Mutex::new(1u32).lock();
        drop((g, h));
    }
}
"#;

#[test]
fn locks_fixture_positive() {
    let a = analysis(&[("crates/bench/src/fix.rs", LOCKS_POSITIVE)], "");
    let lines = fired(&a, "lock-discipline", "crates/bench/src/fix.rs");
    // Line 3: lock().unwrap() with no poisoning note.
    // Line 4: second .lock() while `ga` is still held.
    assert_eq!(lines, vec![3, 4]);
}

#[test]
fn locks_fixture_negative() {
    let a = analysis(&[("crates/bench/src/fix.rs", LOCKS_NEGATIVE)], "");
    assert!(fired(&a, "lock-discipline", "crates/bench/src/fix.rs").is_empty());
}

// ------------------------------------------------------------ atomic ordering

const ATOMICS_POSITIVE: &str = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn bump(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::SeqCst)
}
"#;

const ATOMICS_NEGATIVE: &str = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn bump(c: &AtomicU64) -> u64 {
    // lint: ordering: monotonic counter, readers only need eventual counts
    c.fetch_add(1, Ordering::Relaxed)
}
"#;

#[test]
fn atomics_fixture_positive() {
    let a = analysis(&[("crates/bench/src/fix.rs", ATOMICS_POSITIVE)], "");
    assert_eq!(
        fired(&a, "atomic-ordering", "crates/bench/src/fix.rs"),
        vec![4]
    );
}

#[test]
fn atomics_fixture_negative() {
    let a = analysis(
        &[
            ("crates/bench/src/fix.rs", ATOMICS_NEGATIVE),
            // Audited core: no justification needed.
            ("crates/service/src/metrics.rs", ATOMICS_POSITIVE),
        ],
        "",
    );
    assert!(fired(&a, "atomic-ordering", "crates/bench/src/fix.rs").is_empty());
    assert!(fired(&a, "atomic-ordering", "crates/service/src/metrics.rs").is_empty());
}

// -------------------------------------------------------------- api symmetry

const SYMMETRY_POSITIVE: &str = r#"
pub fn scan_with(s: &str, k: usize) -> usize {
    s.len() + k
}
"#;

const SYMMETRY_NEGATIVE: &str = r#"
pub fn scan_with(s: &str, k: usize) -> usize {
    s.len() + k
}
pub fn scan(s: &str) -> usize {
    scan_with(s, 0)
}
"#;

const PROTOCOL_FIXTURE: &str = r#"
pub fn parse_request(line: &str) -> u32 {
    match line {
        "PING" => 0,
        "ENUM" => 1,
        _ => 2,
    }
}
"#;

const README_OK: &str = "\
### Protocol
```text
PING
ENUM <graph> alpha=A
```
";

const README_STALE: &str = "\
### Protocol
```text
PING
STATUS
```
";

#[test]
fn symmetry_fixture_positive() {
    let a = analysis(
        &[
            ("crates/core/src/fix.rs", SYMMETRY_POSITIVE),
            ("crates/service/src/protocol.rs", PROTOCOL_FIXTURE),
        ],
        README_STALE,
    );
    let core = fired(&a, "api-symmetry", "crates/core/src/fix.rs");
    assert_eq!(core, vec![2], "scan_with without scan must fire");
    let proto = fired(&a, "api-symmetry", "crates/service/src/protocol.rs");
    // ENUM matched but undocumented + STATUS documented but unmatched.
    assert_eq!(proto.len(), 2, "verb drift must fire both directions");
}

#[test]
fn symmetry_fixture_negative() {
    let a = analysis(
        &[
            ("crates/core/src/fix.rs", SYMMETRY_NEGATIVE),
            ("crates/service/src/protocol.rs", PROTOCOL_FIXTURE),
        ],
        README_OK,
    );
    assert!(fired(&a, "api-symmetry", "crates/core/src/fix.rs").is_empty());
    assert!(fired(&a, "api-symmetry", "crates/service/src/protocol.rs").is_empty());
}

// ------------------------------------------------------ determinism hygiene

const DETERMINISM_POSITIVE: &str = r#"
use std::collections::HashMap;
pub fn tally(xs: &[u32]) -> HashMap<u32, u32> {
    let mut m = HashMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
"#;

const DETERMINISM_NEGATIVE: &str = r#"
use std::collections::BTreeMap;
pub fn tally(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
"#;

#[test]
fn determinism_fixture_positive() {
    let a = analysis(&[("crates/core/src/fix.rs", DETERMINISM_POSITIVE)], "");
    let lines = fired(&a, "determinism-hygiene", "crates/core/src/fix.rs");
    assert_eq!(lines, vec![2, 3, 4]);
}

#[test]
fn determinism_fixture_negative() {
    let a = analysis(
        &[
            ("crates/core/src/fix.rs", DETERMINISM_NEGATIVE),
            // Hash maps outside the core are keyed lookup, not emission.
            ("crates/service/src/fix.rs", DETERMINISM_POSITIVE),
        ],
        "",
    );
    assert!(fired(&a, "determinism-hygiene", "crates/core/src/fix.rs").is_empty());
    assert!(fired(&a, "determinism-hygiene", "crates/service/src/fix.rs").is_empty());
}

// ------------------------------------------------------------- forbid unsafe

const UNSAFE_FREE_ROOT: &str = "pub fn f() -> u32 { 1 }\n";
const PINNED_ROOT: &str = "#![forbid(unsafe_code)]\npub fn f() -> u32 { 1 }\n";
const GENUINE_UNSAFE_ROOT: &str = "pub fn f(p: *const u32) -> u32 { unsafe { *p } }\n";

#[test]
fn forbid_unsafe_fixture_positive() {
    let a = analysis(&[("crates/foo/src/lib.rs", UNSAFE_FREE_ROOT)], "");
    assert_eq!(fired(&a, "forbid-unsafe", "crates/foo/src/lib.rs"), vec![1]);
}

#[test]
fn forbid_unsafe_fixture_negative() {
    let a = analysis(
        &[
            ("crates/foo/src/lib.rs", PINNED_ROOT),
            // A crate with genuine unsafe cannot carry the attribute.
            ("crates/bar/src/lib.rs", GENUINE_UNSAFE_ROOT),
        ],
        "",
    );
    assert!(fired(&a, "forbid-unsafe", "crates/foo/src/lib.rs").is_empty());
    assert!(fired(&a, "forbid-unsafe", "crates/bar/src/lib.rs").is_empty());
}

// --------------------------------------------------------- branch-state clone

const BRANCH_STATE_POSITIVE: &str = r#"
pub fn branch(l: &[u32], q: &mut Vec<u32>) -> Vec<u32> {
    let ql = q.to_vec();
    let copy = l.clone();
    drop(ql);
    copy
}
"#;

const BRANCH_STATE_NEGATIVE: &str = r#"
pub struct Task { l: Vec<u32> }
pub fn split(l: &[u32], nl: &[u32], r_counts: &[u32], budget: &[u32]) -> Task {
    // Scratch state with its own name is fine.
    let _counts = r_counts.to_vec();
    let _budget = budget.clone();
    snapshot(l, nl)
}
fn snapshot(
    l: &[u32],
    nl: &[u32],
) -> Task {
    // The blessed copy-on-split site: owned copies are the point.
    let mut owned = l.to_vec();
    owned.extend_from_slice(&nl.to_vec());
    Task { l: owned }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_clone() {
        let q = vec![1u32];
        assert_eq!(q.to_vec(), q.clone());
    }
}
"#;

#[test]
fn branch_state_fixture_positive() {
    let a = analysis(&[("crates/core/src/mbea.rs", BRANCH_STATE_POSITIVE)], "");
    let lines = fired(&a, "branch-state-clone", "crates/core/src/mbea.rs");
    // q.to_vec() and l.clone() inside a branch body.
    assert_eq!(lines, vec![3, 4]);
}

#[test]
fn branch_state_fixture_negative() {
    let a = analysis(
        &[
            ("crates/core/src/mbea.rs", BRANCH_STATE_NEGATIVE),
            // The same clones outside the walker files: not this rule's business.
            ("crates/core/src/fix.rs", BRANCH_STATE_POSITIVE),
        ],
        "",
    );
    assert!(fired(&a, "branch-state-clone", "crates/core/src/mbea.rs").is_empty());
    assert!(fired(&a, "branch-state-clone", "crates/core/src/fix.rs").is_empty());
}

// ---------------------------------------------------- metrics render symmetry

const METRICS_POSITIVE: &str = r#"
use std::sync::atomic::AtomicU64;
pub struct Metrics {
    pub queries_total: AtomicU64,
    pub orphan_counter: AtomicU64,
}
impl Metrics {
    fn counters(&self) -> [(&'static str, &AtomicU64); 1] {
        [("queries_total", &self.queries_total)]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn naming_a_counter_in_a_test_does_not_render_it() {
        let _ = "orphan_counter";
    }
}
"#;

const METRICS_NEGATIVE: &str = r#"
use std::sync::atomic::AtomicU64;
pub struct Histogram {
    count: AtomicU64,
}
pub struct Metrics {
    pub queries_total: AtomicU64,
    pub latency: Histogram,
}
impl Metrics {
    fn counters(&self) -> [(&'static str, &AtomicU64); 1] {
        [("queries_total", &self.queries_total)]
    }
}
"#;

#[test]
fn metrics_fixture_positive() {
    let a = analysis(&[("crates/service/src/metrics.rs", METRICS_POSITIVE)], "");
    let lines = fired(
        &a,
        "metrics-render-symmetry",
        "crates/service/src/metrics.rs",
    );
    // Only the orphan: the test-module literal does not count.
    assert_eq!(lines, vec![5]);
}

#[test]
fn metrics_fixture_negative() {
    let a = analysis(
        &[
            ("crates/service/src/metrics.rs", METRICS_NEGATIVE),
            // The same orphan anywhere else is not this rule's business.
            ("crates/service/src/other.rs", METRICS_POSITIVE),
        ],
        "",
    );
    assert!(fired(
        &a,
        "metrics-render-symmetry",
        "crates/service/src/metrics.rs"
    )
    .is_empty());
    assert!(fired(&a, "metrics-render-symmetry", "crates/service/src/other.rs").is_empty());
}
