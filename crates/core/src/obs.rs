//! Lightweight query tracing: structured span trees with zero cost
//! when disabled.
//!
//! Every query the service (or a `--trace` CLI run) executes passes
//! through the same stages — pruning (core peel, 2-hop construction,
//! colorful peel), candidate-plan resolution, enumeration, and the
//! canonical sort — but until now only their *sum* was observable.
//! A [`SpanRecorder`] threads through
//! [`crate::prepared::PreparedQuery::prepare_rec`] (the prune stages
//! and `plan-resolve`), [`crate::prepared::PreparedQuery::stream`]
//! (the one `enumerate` span, with its `EnumStats` detail), and
//! `execute_rec` / `count_rec` / `maximum_rec` on top of it (adding
//! `sort`), and collects one [`Span`] per stage, so a slow query can be
//! attributed to the stage (or, at the coordinator, the shard) that
//! actually burned the time.
//!
//! # Zero-allocation-off-by-default
//!
//! Recording must not perturb the walkers' no-clone/no-alloc
//! invariants or the benchmark trajectory, so a disabled recorder is
//! inert: [`SpanRecorder::disabled`] holds an empty `Vec` (which does
//! not allocate), every record method returns before touching the
//! clock, and detail strings are built through closures that are never
//! called when disabled. Spans are recorded only at single-threaded
//! orchestration boundaries — never inside parallel workers, whose
//! per-worker accounting already arrives via
//! [`crate::biclique::EnumStats`].

use std::time::{Duration, Instant};

/// One recorded stage: a name, its nesting depth in the span tree,
/// wall time, and optional `key=value` detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (static: span names are a documented vocabulary, see
    /// the README's Observability glossary).
    pub name: &'static str,
    /// Nesting depth; children follow their parent with `depth + 1`
    /// (the span list is a preorder serialization of the tree).
    pub depth: u8,
    /// Wall-clock time spent in the stage (children included for
    /// scope spans).
    pub elapsed: Duration,
    /// Free-form `key=value` annotations (e.g. `EnumStats` fields).
    pub detail: String,
}

/// Collects a span tree for one query. See the module docs for the
/// off-by-default contract.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    depth: u8,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// An inert recorder: no allocation, no clock reads, no spans.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder {
            enabled: false,
            depth: 0,
            spans: Vec::new(),
        }
    }

    /// A live recorder that collects spans.
    pub fn enabled() -> SpanRecorder {
        SpanRecorder {
            enabled: true,
            depth: 0,
            spans: Vec::new(),
        }
    }

    /// True when spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a leaf span with a caller-measured duration.
    pub fn leaf(&mut self, name: &'static str, elapsed: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                depth: self.depth,
                elapsed,
                detail: String::new(),
            });
        }
    }

    /// Record a leaf span with lazily-built detail; `detail` is only
    /// called (and only allocates) when the recorder is enabled.
    pub fn leaf_with(
        &mut self,
        name: &'static str,
        elapsed: Duration,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                depth: self.depth,
                elapsed,
                detail: detail(),
            });
        }
    }

    /// Time `f` and record it as a leaf span. Disabled recorders run
    /// `f` directly without reading the clock.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.leaf(name, t0.elapsed());
        out
    }

    /// Time `f` as a scope span whose inner recordings become
    /// children: the scope is inserted *before* its children in the
    /// span list (preorder), with `elapsed` covering the whole scope.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let mark = self.spans.len();
        let depth = self.depth;
        self.depth += 1;
        let t0 = Instant::now();
        let out = f(self);
        let elapsed = t0.elapsed();
        self.depth = depth;
        self.spans.insert(
            mark,
            Span {
                name,
                depth,
                elapsed,
                detail: String::new(),
            },
        );
        out
    }

    /// Attach lazily-built detail to the most recently recorded span
    /// (replacing any existing detail). No-op when disabled or when
    /// nothing has been recorded; `detail` is only called when it will
    /// be stored.
    pub fn annotate_last(&mut self, detail: impl FnOnce() -> String) {
        if self.enabled {
            if let Some(last) = self.spans.last_mut() {
                last.detail = detail();
            }
        }
    }

    /// The recorded spans, in preorder.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consume the recorder, yielding its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Render the span tree as indented `span ...` lines (the format
    /// the service's `SLOWLOG` payload and traced `ENUM` replies use).
    pub fn render(&self) -> Vec<String> {
        render_spans(&self.spans)
    }
}

/// Render a span list (preorder, depth-encoded) as indented lines:
/// `span <name> us=<micros> [detail]`, two spaces per depth level.
pub fn render_spans(spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .map(|s| {
            let indent = "  ".repeat(s.depth as usize);
            let detail = if s.detail.is_empty() {
                String::new()
            } else {
                format!(" {}", s.detail)
            };
            format!(
                "span {indent}{} us={}{detail}",
                s.name,
                s.elapsed.as_micros()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_runs_closures() {
        let mut rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.leaf("a", Duration::from_micros(5));
        let mut detail_built = false;
        rec.leaf_with("b", Duration::ZERO, || {
            detail_built = true;
            "x=1".into()
        });
        let got = rec.timed("c", || 41 + 1);
        assert_eq!(got, 42);
        let got = rec.scope("d", |r| {
            r.leaf("inner", Duration::ZERO);
            7
        });
        assert_eq!(got, 7);
        assert!(!detail_built, "detail closures must not run when disabled");
        assert!(rec.spans().is_empty());
        assert!(rec.render().is_empty());
    }

    #[test]
    fn scope_inserts_parent_before_children_in_preorder() {
        let mut rec = SpanRecorder::enabled();
        rec.scope("prepare", |r| {
            r.leaf("core-peel", Duration::from_micros(10));
            r.scope("colorful", |r| {
                r.leaf("2hop", Duration::from_micros(3));
            });
        });
        rec.leaf_with("enumerate", Duration::from_micros(20), || "nodes=5".into());
        let names: Vec<(&str, u8)> = rec.spans().iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            names,
            vec![
                ("prepare", 0),
                ("core-peel", 1),
                ("colorful", 1),
                ("2hop", 2),
                ("enumerate", 0),
            ]
        );
        // The inner scope's (real) elapsed covers its child scope's.
        assert!(rec.spans()[0].elapsed >= rec.spans()[2].elapsed);
        let lines = rec.render();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("span prepare us="));
        assert!(lines[1].starts_with("span   core-peel us="));
        assert!(lines[3].starts_with("span     2hop us="));
        assert!(lines[4].ends_with("nodes=5"));
    }

    #[test]
    fn annotate_last_sets_detail_only_when_enabled() {
        let mut rec = SpanRecorder::disabled();
        let mut built = false;
        rec.annotate_last(|| {
            built = true;
            "x=1".into()
        });
        assert!(!built);

        let mut rec = SpanRecorder::enabled();
        rec.annotate_last(|| "orphan".into()); // nothing recorded yet
        assert!(rec.spans().is_empty());
        rec.leaf("enumerate", Duration::ZERO);
        rec.annotate_last(|| "nodes=7".into());
        assert_eq!(rec.spans()[0].detail, "nodes=7");
        assert!(rec.render()[0].ends_with("nodes=7"));
    }

    #[test]
    fn nested_depth_restores_after_scope() {
        let mut rec = SpanRecorder::enabled();
        rec.scope("a", |r| {
            r.leaf("a1", Duration::ZERO);
        });
        rec.leaf("b", Duration::ZERO);
        assert_eq!(rec.spans()[2].name, "b");
        assert_eq!(rec.spans()[2].depth, 0);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
    }
}
