//! Experiment harness utilities: timing (including the [`MicroBench`]
//! timer of the micro-benchmarks), table rendering, sweep
//! configuration, and TSV export.
//!
//! Every table and figure of the paper has a corresponding entry point
//! in [`experiments`]; the `harness = false` bench targets and the
//! `experiments` binary are thin wrappers around those functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Format a duration the way the paper reports runtimes: seconds with
/// four decimals, or `INF` when the run hit its budget (the paper's
/// 24-hour-limit marker).
pub fn fmt_time(d: Duration, aborted: bool) -> String {
    if aborted {
        "INF".to_string()
    } else {
        format!("{:.4}", d.as_secs_f64())
    }
}

/// Wall-clock timer of the `harness = false` micro-benchmark mains
/// (`micro`, `substrate_compare`).
///
/// Each case gets one warm-up call, which calibrates an iteration count
/// aiming at `sample_time` of wall clock per sample; then `samples`
/// samples are timed, and the median and minimum time per iteration
/// are printed. The first positional command-line argument filters the
/// case ids: `cargo bench --bench micro -- fcore` runs only the cases
/// whose id contains `fcore`.
#[derive(Debug, Clone)]
pub struct MicroBench {
    filter: Option<String>,
    samples: usize,
    sample_time: Duration,
}

/// Per-iteration times of one [`MicroBench`] case.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over the samples.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Calls per sample.
    pub iters: u32,
    /// Samples taken (1 when one call outlasts a sample's time).
    pub samples: usize,
}

/// The first argument that is not a flag (cargo passes `--bench`).
fn first_positional(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

impl MicroBench {
    /// 20 samples of about 200 ms per case, with the id filter taken
    /// from the command line.
    pub fn from_args() -> MicroBench {
        MicroBench {
            filter: first_positional(std::env::args().skip(1)),
            samples: 20,
            sample_time: Duration::from_millis(200),
        }
    }

    /// The same timer taking `n` samples per case (for slow cases).
    pub fn samples(&self, n: usize) -> MicroBench {
        MicroBench {
            samples: n.max(1),
            ..self.clone()
        }
    }

    /// Time `f` under `id` and print the case's line; `None` when the
    /// filter skips `id`.
    pub fn bench_function<O>(&self, id: &str, mut f: impl FnMut() -> O) -> Option<Timing> {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return None;
            }
        }
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.sample_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
        let samples = if once > self.sample_time {
            1
        } else {
            self.samples
        };
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed() / iters
            })
            .collect();
        times.sort();
        // Even sample counts take the lower middle: for timing
        // distributions the conservative (faster) of the two.
        let timing = Timing {
            median: times[(samples - 1) / 2],
            min: times[0],
            iters,
            samples,
        };
        println!(
            "{id:<40} time: [median {:>12} min {:>12}]  ({iters} iters x {samples} samples)",
            fmt_duration(timing.median),
            fmt_duration(timing.min),
        );
        Some(timing)
    }
}

/// A duration in ns, µs, ms or s, whichever keeps it readable.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// One output table (also serializable to TSV).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title, e.g. `Fig. 2(c) IMDB (vary alpha)`.
    pub title: String,
    /// Column headers; the first column is the x-axis label.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Render aligned to stdout.
    pub fn print(&self) {
        println!("\n## {}", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }

    /// TSV rendering (one comment line, one header line, then rows).
    pub fn to_tsv(&self) -> String {
        let mut s = format!("# {}\n{}\n", self.title, self.headers.join("\t"));
        for row in &self.rows {
            s.push_str(&row.join("\t"));
            s.push('\n');
        }
        s
    }

    /// Write the TSV under `target/experiments/`.
    pub fn save(&self, stem: &str) {
        let dir = std::path::Path::new("target/experiments");
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{stem}.tsv")), self.to_tsv());
        }
    }
}

/// Harness options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Reduced sweeps (fewer datasets / parameter values) for smoke
    /// runs and CI.
    pub quick: bool,
    /// Per-run wall-clock budget (the paper's "24 hours", scaled).
    pub budget: Duration,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            quick: false,
            budget: Duration::from_secs(5),
        }
    }
}

impl Opts {
    /// Parse from CLI args (`--quick`, `--budget-secs N`) and the
    /// `FBE_QUICK` / `FBE_BUDGET_SECS` environment variables.
    pub fn from_args() -> Self {
        let mut o = Opts::default();
        if std::env::var("FBE_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            o.quick = true;
        }
        if let Ok(s) = std::env::var("FBE_BUDGET_SECS") {
            if let Ok(n) = s.parse::<u64>() {
                o.budget = Duration::from_secs(n);
            }
        }
        let args: Vec<String> = std::env::args().collect();
        for (i, a) in args.iter().enumerate() {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--budget-secs" => {
                    if let Some(n) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                        o.budget = Duration::from_secs(n);
                    }
                }
                _ => {}
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_inf_marker() {
        assert_eq!(fmt_time(Duration::from_secs(1), true), "INF");
        assert_eq!(fmt_time(Duration::from_millis(1500), false), "1.5000");
    }

    #[test]
    fn table_renders_and_serializes() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        let tsv = t.to_tsv();
        assert!(tsv.contains("# demo"));
        assert!(tsv.contains("x\ty"));
        assert!(tsv.contains("1\t2"));
        t.print(); // smoke
    }

    #[test]
    fn default_opts() {
        let o = Opts::default();
        assert!(!o.quick);
        assert_eq!(o.budget, Duration::from_secs(5));
    }

    #[test]
    fn bench_function_records_and_prints() {
        let bench = MicroBench {
            filter: None,
            samples: 2,
            sample_time: Duration::from_millis(1),
        };
        let t = bench.bench_function("noop", || black_box(1 + 1)).unwrap();
        assert_eq!(t.samples, 2);
        assert!(t.iters >= 1 && t.min <= t.median);
        let t = bench
            .samples(3)
            .bench_function("direct", || black_box(2 * 2));
        assert_eq!(t.unwrap().samples, 3);
    }

    #[test]
    fn filter_skips_ids_without_the_first_positional_argument() {
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(first_positional(args(&["--bench"])), None);
        assert_eq!(
            first_positional(args(&["--bench", "fcore", "2hop"])).as_deref(),
            Some("fcore")
        );
        let bench = MicroBench {
            filter: Some("fcore".into()),
            samples: 1,
            sample_time: Duration::from_millis(1),
        };
        let mut ran = Vec::new();
        for id in [
            "fcore_youtube",
            "twohop",
            "cfcore_youtube",
            "peel/fcore",
            "peel/2hop",
        ] {
            if bench.bench_function(id, || 1).is_some() {
                ran.push(id);
            }
        }
        assert_eq!(ran, ["fcore_youtube", "cfcore_youtube", "peel/fcore"]);
    }

    #[test]
    fn formats_scale() {
        assert!(fmt_duration(Duration::from_nanos(12)).ends_with(" ns"));
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(12)).ends_with(" s"));
    }
}
