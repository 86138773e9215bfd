//! Experiment harness utilities: timing, table rendering, sweep
//! configuration, and TSV export.
//!
//! Every table and figure of the paper has a corresponding entry point
//! in [`experiments`]; the `harness = false` bench targets and the
//! `experiments` binary are thin wrappers around those functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

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
}
