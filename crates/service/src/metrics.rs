//! Atomic metrics registry served by `STATS` (flat `key value` lines)
//! and `METRICS` (Prometheus text exposition).
//!
//! # Units contract
//!
//! * **Latencies are recorded in microseconds**, saturating: a
//!   duration longer than `u64::MAX` µs (≈ 584 thousand years) is
//!   clamped, never wrapped. Sums (`*_sum_us`) accumulate those
//!   saturated µs values with a saturating add.
//! * **`uptime_s` truncates** toward zero ([`Duration::as_secs`]): a
//!   service 900 ms old reports `uptime_s 0`. Uptime is a gauge, not a
//!   counter.
//! * **`le` buckets are cumulative** (Prometheus semantics): the value
//!   at `le="10000"` counts every observation ≤ 10 000 µs, including
//!   those already counted at `le="1000"`, and the `+Inf` bucket
//!   always equals `*_count`. (`STATS` `latency_le_*` lines share
//!   this contract; they were per-range before PR 10 — a bug, given
//!   the `le` naming.)
//!
//! These invariants are asserted by the unit tests below.

use fair_biclique::StopReason;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is unbounded (`+Inf`).
pub const BUCKET_BOUNDS_US: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_US`].
/// Observations are stored per-range internally (one atomic increment
/// per observe, no cross-bucket contention) and rendered cumulatively
/// (Prometheus `le` semantics) by [`Histogram::cumulative`].
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; 6],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. See the module docs' units contract:
    /// µs, saturating, never wrapping.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        bump(&self.buckets[idx]);
        bump(&self.count);
        // Saturating add under contention: a CAS loop would be exact,
        // but statistics-grade accuracy doesn't justify it — clamp on
        // overflow instead of wrapping.
        let prev = self.sum_us.fetch_add(us, Ordering::Relaxed);
        if prev.checked_add(us).is_none() {
            self.sum_us.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed µs (saturated).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts, one per bound plus the final `+Inf`
    /// bucket: `cumulative()[i]` counts observations ≤ bound *i*, and
    /// the last entry equals [`Histogram::count`] (up to benign racing
    /// with concurrent `observe` calls).
    pub fn cumulative(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            out[i] = acc;
        }
        out
    }

    /// Append this histogram in Prometheus text exposition format:
    /// `# TYPE`, `_bucket{le=...}` lines ending at `le="+Inf"`, then
    /// `_sum` and `_count`. `labels` is either empty or a
    /// `key="value"` list *without* braces (composed with `le`).
    fn render_prometheus(&self, out: &mut Vec<String>, name: &str, labels: &str, typed: bool) {
        if typed {
            out.push(format!("# TYPE {name} histogram"));
        }
        let sep = if labels.is_empty() { "" } else { "," };
        let cum = self.cumulative();
        for (i, c) in cum.iter().enumerate() {
            let le = BUCKET_BOUNDS_US
                .get(i)
                .map_or("+Inf".to_string(), |us| us.to_string());
            out.push(format!("{name}_bucket{{{labels}{sep}le=\"{le}\"}} {c}"));
        }
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push(format!("{name}_sum{suffix} {}", self.sum_us()));
        out.push(format!("{name}_count{suffix} {}", self.count()));
    }
}

/// Lock-free counters + latency histograms for one service instance.
/// All methods take `&self`; relaxed ordering is fine — these are
/// statistics, not synchronization.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Every query received (before admission).
    pub queries_total: AtomicU64,
    /// Queries answered with `OK` (including truncated ones).
    pub queries_ok: AtomicU64,
    /// Queries answered with `ERR`.
    pub queries_err: AtomicU64,
    /// Queries refused by admission control.
    pub rejected_busy: AtomicU64,
    /// Queries truncated by their deadline.
    pub truncated_deadline: AtomicU64,
    /// Queries truncated by a result/node cap.
    pub truncated_budget: AtomicU64,
    /// Queries truncated by cancellation (shutdown).
    pub truncated_cancelled: AtomicU64,
    /// Plan-cache hits.
    pub plan_cache_hits: AtomicU64,
    /// Plan-cache misses (plans prepared).
    pub plan_cache_misses: AtomicU64,
    /// Graphs loaded or generated into the catalog.
    pub graphs_loaded: AtomicU64,
    /// Graph updates applied (`ADDEDGE` / `DELEDGE` / `ADDVERTEX`).
    pub updates_applied: AtomicU64,
    /// TCP connections the server accepted and served.
    pub connections_accepted: AtomicU64,
    /// Coordinator requests fanned out to shard servers.
    pub shard_fanouts: AtomicU64,
    /// Shard calls that failed (connect/timeout/protocol error).
    pub shard_errors: AtomicU64,
    /// Pooled shard connections found dead before any reply byte
    /// arrived and replaced by one fresh connection.
    pub shard_reconnects: AtomicU64,
    /// Results received from healthy shards but discarded because a
    /// sibling shard failed mid-fanout (partial-result accounting for
    /// `ERR SHARD` replies).
    pub shard_partial_results: AtomicU64,
    /// End-to-end query latency (admission → reply).
    pub latency: Histogram,
    /// Preparation-stage latency (prune + plan resolve), observed only
    /// on plan-cache misses — cache hits spend no prepare time.
    pub stage_prepare: Histogram,
    /// Enumeration-stage latency (walk + sort), observed per query.
    pub stage_enumerate: Histogram,
    /// Per-shard fan-out latency (connect + request + stream), one
    /// histogram per configured shard — empty on non-coordinators.
    /// Straggler shards show up as a fat tail at their index.
    pub shard_stream: Vec<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_shards(0)
    }
}

/// `ctr += 1`, relaxed.
pub fn bump(ctr: &AtomicU64) {
    ctr.fetch_add(1, Ordering::Relaxed);
}

impl Metrics {
    /// Fresh registry (uptime starts now).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh registry for a coordinator fanning out to `shards` shard
    /// servers: allocates one [`Histogram`] per shard index.
    pub fn with_shards(shards: usize) -> Self {
        Metrics {
            started: Instant::now(),
            queries_total: AtomicU64::new(0),
            queries_ok: AtomicU64::new(0),
            queries_err: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            truncated_deadline: AtomicU64::new(0),
            truncated_budget: AtomicU64::new(0),
            truncated_cancelled: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            graphs_loaded: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            shard_fanouts: AtomicU64::new(0),
            shard_errors: AtomicU64::new(0),
            shard_reconnects: AtomicU64::new(0),
            shard_partial_results: AtomicU64::new(0),
            latency: Histogram::new(),
            stage_prepare: Histogram::new(),
            stage_enumerate: Histogram::new(),
            shard_stream: (0..shards).map(|_| Histogram::new()).collect(),
        }
    }

    /// Name → field table of every public counter, in render order.
    /// Single source for [`Metrics::render`] and
    /// [`Metrics::render_prometheus`], so a counter added to the
    /// struct but missing here fails the `metrics-render-symmetry`
    /// lint rather than silently vanishing from both outputs.
    fn counters(&self) -> [(&'static str, &AtomicU64); 16] {
        [
            ("queries_total", &self.queries_total),
            ("queries_ok", &self.queries_ok),
            ("queries_err", &self.queries_err),
            ("rejected_busy", &self.rejected_busy),
            ("truncated_deadline", &self.truncated_deadline),
            ("truncated_budget", &self.truncated_budget),
            ("truncated_cancelled", &self.truncated_cancelled),
            ("plan_cache_hits", &self.plan_cache_hits),
            ("plan_cache_misses", &self.plan_cache_misses),
            ("graphs_loaded", &self.graphs_loaded),
            ("updates_applied", &self.updates_applied),
            ("connections_accepted", &self.connections_accepted),
            ("shard_fanouts", &self.shard_fanouts),
            ("shard_errors", &self.shard_errors),
            ("shard_reconnects", &self.shard_reconnects),
            ("shard_partial_results", &self.shard_partial_results),
        ]
    }

    /// Record one query's end-to-end latency (see the units contract
    /// in the module docs).
    pub fn observe_latency(&self, d: Duration) {
        self.latency.observe(d);
    }

    /// Record why a truncated query stopped.
    pub fn observe_truncation(&self, stop: StopReason) {
        match stop {
            StopReason::Deadline => bump(&self.truncated_deadline),
            StopReason::Cancelled => bump(&self.truncated_cancelled),
            StopReason::NodeCap | StopReason::ResultCap => bump(&self.truncated_budget),
        }
    }

    /// `STATS` payload lines (`<key> <value>`), stable order. The
    /// engine appends catalog/plan-cache gauges it owns.
    /// `latency_le_*` lines are cumulative (see the units contract).
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!("uptime_s {}", self.started.elapsed().as_secs())];
        for (name, ctr) in self.counters() {
            out.push(format!("{name} {}", ctr.load(Ordering::Relaxed)));
        }
        out.push(format!("latency_count {}", self.latency.count()));
        out.push(format!("latency_sum_us {}", self.latency.sum_us()));
        let cum = self.latency.cumulative();
        for (i, c) in cum.iter().enumerate() {
            let label = BUCKET_BOUNDS_US
                .get(i)
                .map_or("inf".to_string(), |us| format!("{us}us"));
            out.push(format!("latency_le_{label} {c}"));
        }
        out
    }

    /// `METRICS` payload: Prometheus text exposition format. Every
    /// sample family gets a `# TYPE` line; histogram buckets are
    /// cumulative and end at `le="+Inf"`; stage and shard histograms
    /// carry `stage=` / `shard=` labels.
    pub fn render_prometheus(&self) -> Vec<String> {
        let mut out = vec![
            "# TYPE fbe_uptime_seconds gauge".to_string(),
            format!("fbe_uptime_seconds {}", self.started.elapsed().as_secs()),
        ];
        for (name, ctr) in self.counters() {
            out.push(format!("# TYPE fbe_{name} counter"));
            out.push(format!("fbe_{name} {}", ctr.load(Ordering::Relaxed)));
        }
        self.latency
            .render_prometheus(&mut out, "fbe_query_latency_us", "", true);
        for (i, (stage, h)) in [
            ("prepare", &self.stage_prepare),
            ("enumerate", &self.stage_enumerate),
        ]
        .into_iter()
        .enumerate()
        {
            h.render_prometheus(
                &mut out,
                "fbe_stage_latency_us",
                &format!("stage=\"{stage}\""),
                i == 0,
            );
        }
        for (i, h) in self.shard_stream.iter().enumerate() {
            h.render_prometheus(
                &mut out,
                "fbe_shard_latency_us",
                &format!("shard=\"{i}\""),
                i == 0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(lines: &[String], k: &str) -> u64 {
        lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{k} ")))
            .unwrap_or_else(|| panic!("missing {k}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn counters_and_histogram() {
        let m = Metrics::new();
        bump(&m.queries_total);
        bump(&m.queries_ok);
        m.observe_latency(Duration::from_micros(500));
        m.observe_latency(Duration::from_millis(5));
        m.observe_latency(Duration::from_secs(20));
        m.observe_truncation(StopReason::Deadline);
        m.observe_truncation(StopReason::ResultCap);
        m.observe_truncation(StopReason::Cancelled);
        let lines = m.render();
        assert_eq!(find(&lines, "queries_total"), 1);
        assert_eq!(find(&lines, "latency_count"), 3);
        // `le` buckets are CUMULATIVE: each bound counts everything at
        // or below it, and the unbounded bucket equals the count.
        assert_eq!(find(&lines, "latency_le_1000us"), 1);
        assert_eq!(find(&lines, "latency_le_10000us"), 2);
        assert_eq!(find(&lines, "latency_le_100000us"), 2);
        assert_eq!(find(&lines, "latency_le_1000000us"), 2);
        assert_eq!(find(&lines, "latency_le_10000000us"), 2);
        assert_eq!(find(&lines, "latency_le_inf"), 3);
        assert_eq!(find(&lines, "truncated_deadline"), 1);
        assert_eq!(find(&lines, "truncated_budget"), 1);
        assert_eq!(find(&lines, "truncated_cancelled"), 1);
        assert!(find(&lines, "latency_sum_us") >= 20_000_000);
    }

    #[test]
    fn units_contract_truncation_and_saturation() {
        let m = Metrics::new();
        // Truncation: a fresh registry has lived for some nanoseconds,
        // but `uptime_s` floors to 0 (never rounds up).
        assert_eq!(find(&m.render(), "uptime_s"), 0);
        // Saturation: Duration::MAX exceeds u64::MAX µs; the recorded
        // value clamps (lands in +Inf, sum pegs at u64::MAX) rather
        // than wrapping.
        let h = Histogram::new();
        h.observe(Duration::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_us(), u64::MAX);
        assert_eq!(h.cumulative()[5], 1);
        assert_eq!(
            h.cumulative()[4],
            0,
            "clamped value stays above every bound"
        );
        // And the saturating add: a second huge observation must not
        // wrap the sum back around.
        h.observe(Duration::MAX);
        assert_eq!(h.sum_us(), u64::MAX);
    }

    #[test]
    fn prometheus_exposition_grammar() {
        let m = Metrics::with_shards(2);
        m.observe_latency(Duration::from_micros(500));
        m.stage_prepare.observe(Duration::from_micros(50));
        m.stage_enumerate.observe(Duration::from_micros(450));
        m.shard_stream[1].observe(Duration::from_millis(2));
        let lines = m.render_prometheus();
        // Every sample's family has a # TYPE line.
        let typed: Vec<&str> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        for l in lines.iter().filter(|l| !l.starts_with('#')) {
            let name = l
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(typed.contains(&name), "sample {l} has no # TYPE for {name}");
        }
        // Histogram buckets: monotone non-decreasing, ending at +Inf.
        let buckets: Vec<u64> = lines
            .iter()
            .filter(|l| l.starts_with("fbe_query_latency_us_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), 6);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert!(lines
            .iter()
            .any(|l| l.contains("fbe_query_latency_us_bucket{le=\"+Inf\"} 1")));
        // Labeled histograms: stage + shard labels compose with le.
        assert!(lines
            .iter()
            .any(|l| l.starts_with("fbe_stage_latency_us_bucket{stage=\"prepare\",le=\"1000\"}")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("fbe_shard_latency_us_bucket{shard=\"1\",le=\"10000\"} 1")));
        // Every counter from the table is exposed.
        for (name, _) in m.counters() {
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("fbe_{name} "))),
                "counter {name} missing from exposition"
            );
        }
    }
}
