//! Span records of the traced run and the self-time arithmetic on them.
//!
//! A traced run keeps one [`SpanRec`] per span in memory — the
//! benchmark's own timers around public calls plus the spans the
//! service appends to traced `ENUM` replies — and writes them out when
//! the run ends. The service reports each span's duration and nesting
//! but not its start, so [`place`] lays siblings out one after another
//! (concurrent `shard` fan-out spans side by side).

use std::io::{self, Write};

/// One span of one request: offsets in microseconds from the start of
/// the request's root span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Request index within the traced stream.
    pub req: u32,
    /// Span name (benchmark timers are dotted `layer.what` names).
    pub name: String,
    /// Start offset (µs).
    pub start: f64,
    /// End offset (µs).
    pub end: f64,
    /// Index of the parent span in the same record list.
    pub parent: Option<usize>,
}

/// A `span <indent><name> us=<n> [detail]` line of a traced reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpan {
    /// Nesting depth (two spaces of indent per level).
    pub depth: usize,
    /// Span name.
    pub name: String,
    /// Duration (µs).
    pub us: f64,
    /// `key=value` annotations.
    pub detail: String,
}

impl ProgramSpan {
    /// A numeric `key=value` annotation.
    pub fn num(&self, key: &str) -> Option<f64> {
        crate::client::field(&self.detail, key)?.parse().ok()
    }
}

/// Parse one span line (without its `# ` reply prefix).
pub fn parse_span(line: &str) -> Option<ProgramSpan> {
    let rest = line.strip_prefix("span ")?;
    let name_at = rest.len() - rest.trim_start_matches(' ').len();
    let (name, tail) = rest[name_at..].split_once(' ')?;
    let (us, detail) = tail.split_once(' ').unwrap_or((tail, ""));
    Some(ProgramSpan {
        depth: name_at / 2,
        name: name.to_string(),
        us: us.strip_prefix("us=")?.parse().ok()?,
        detail: detail.to_string(),
    })
}

/// Append `spans` (preorder, depth-encoded) to `out` as children of
/// `parent`, starting at offset `start`. Siblings follow one another;
/// consecutive `shard` siblings (the coordinator's parallel fan-out)
/// start together.
pub fn place(spans: &[ProgramSpan], req: u32, parent: usize, start: f64, out: &mut Vec<SpanRec>) {
    // Per depth: the parent index, the next free offset, and the start
    // of the previous sibling when it was a `shard` span.
    let mut parents = vec![parent];
    let mut cursors = vec![start];
    let mut shard_start: Vec<Option<f64>> = vec![None];
    for s in spans {
        let d = s.depth.min(parents.len() - 1);
        parents.truncate(d + 1);
        cursors.truncate(d + 1);
        shard_start.truncate(d + 1);
        let begin = match (s.name == "shard", shard_start[d]) {
            (true, Some(t)) => t,
            _ => cursors[d],
        };
        let end = begin + s.us;
        out.push(SpanRec {
            req,
            name: s.name.clone(),
            start: begin,
            end,
            parent: Some(parents[d]),
        });
        cursors[d] = cursors[d].max(end);
        shard_start[d] = (s.name == "shard").then_some(begin);
        parents.push(out.len() - 1);
        cursors.push(begin);
        shard_start.push(None);
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once;
/// parts outside the parent's interval are ignored).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut clipped: Vec<(f64, f64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in clipped {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Write spans as TSV: `req name start_us end_us parent self_us`.
pub fn write_tsv(spans: &[SpanRec], w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "req\tname\tstart_us\tend_us\tparent\tself_us")?;
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{:.1}\t{:.1}\t{parent}\t{own:.1}",
            s.req, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            req: 0,
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            rec("root", 0.0, 100.0, None),
            rec("a", 0.0, 30.0, Some(0)),
            rec("b", 20.0, 50.0, Some(0)),  // overlaps a: counted once
            rec("c", 90.0, 120.0, Some(0)), // clipped at the parent's end
            rec("a1", 5.0, 10.0, Some(1)),
            rec("a2", 8.0, 12.0, Some(1)),  // overlaps a1
            rec("b1", 60.0, 70.0, Some(2)), // outside b entirely
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 30.0 - 7.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 30.0);
        assert_eq!(own[4], 5.0);
    }

    #[test]
    fn parses_service_span_lines_and_lays_them_out() {
        let lines = [
            "span prepare us=100",
            "span   core-peel us=40",
            "span   colorful-lower us=20",
            "span     2hop us=15",
            "span   plan-resolve us=10",
            "span enumerate us=200 threads=1 nodes=57 emitted=3 aborted=false peak_bytes=64",
            "span sort us=5",
        ];
        let spans: Vec<ProgramSpan> = lines.iter().filter_map(|l| parse_span(l)).collect();
        assert_eq!(spans.len(), lines.len());
        assert_eq!((spans[3].depth, spans[3].name.as_str()), (2, "2hop"));
        assert_eq!(spans[5].num("nodes"), Some(57.0));
        let mut out = vec![rec("engine.handle", 0.0, 400.0, None)];
        place(&spans, 0, 0, 10.0, &mut out);
        let at = |i: usize| (out[i].start, out[i].end, out[i].parent);
        assert_eq!(at(1), (10.0, 110.0, Some(0))); // prepare
        assert_eq!(at(2), (10.0, 50.0, Some(1))); // core-peel
        assert_eq!(at(3), (50.0, 70.0, Some(1))); // colorful-lower
        assert_eq!(at(4), (50.0, 65.0, Some(3))); // 2hop
        assert_eq!(at(5), (70.0, 80.0, Some(1))); // plan-resolve
        assert_eq!(at(6), (110.0, 310.0, Some(0))); // enumerate
        assert_eq!(at(7), (310.0, 315.0, Some(0))); // sort
        let own = self_times(&out);
        assert_eq!(own[0], 400.0 - 305.0);
        assert_eq!(own[1], 100.0 - 70.0);
        assert_eq!(own[3], 5.0);
    }

    #[test]
    fn shard_spans_run_side_by_side() {
        let spans: Vec<ProgramSpan> = [
            "span shard us=50 index=0 connect_us=5",
            "span shard us=70 index=1 connect_us=6",
            "span merge us=5",
        ]
        .iter()
        .filter_map(|l| parse_span(l))
        .collect();
        let mut out = vec![rec("engine.handle", 0.0, 100.0, None)];
        place(&spans, 0, 0, 0.0, &mut out);
        assert_eq!((out[1].start, out[1].end), (0.0, 50.0));
        assert_eq!((out[2].start, out[2].end), (0.0, 70.0));
        assert_eq!((out[3].start, out[3].end), (70.0, 75.0));
        assert_eq!(self_times(&out)[0], 25.0);
        assert_eq!(spans[1].num("connect_us"), Some(6.0));
    }
}
