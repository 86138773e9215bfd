//! Dynamic-graph update throughput: incremental fair-core repair
//! (`fair_biclique::incremental::CoreTracker`) vs recomputing the
//! core from scratch after every edit, on uniform graphs at (2, 2);
//! then the insertion repair alone on the Youtube analog at the paper's
//! single-side (8, 8) and bi-side (5, 5) defaults, with clean
//! insertions (no membership change, edge outside the core) reported
//! apart from dirty ones. The service's update verbs are measured at
//! the client by perfbench's `update-mix` workload.
//!
//! Run: `cargo bench --bench update_throughput` (`-- --quick` for a
//! reduced iteration count).

use bigraph::generate::random_uniform;
use bigraph::{BipartiteGraph, VertexId};
use fair_biclique::fcore::fcore_masks;
use fair_biclique::incremental::CoreTracker;
use fbe_datasets::corpus::{spec, Dataset};
use std::time::{Duration, Instant};

fn ups(n: u32, total: std::time::Duration) -> f64 {
    n as f64 / total.as_secs_f64().max(1e-9)
}

/// Deterministic xorshift so both strategies replay the same script.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Apply `steps` random edge flips, repairing the tracked core
/// incrementally after each one.
fn run_incremental(start: &BipartiteGraph, steps: u32, seed: u64) -> f64 {
    let mut g = start.clone();
    let mut tracker = CoreTracker::new(&g, 2, 2);
    let mut rng = seed;
    let t0 = Instant::now();
    for _ in 0..steps {
        let u = (xorshift(&mut rng) % g.n_upper() as u64) as VertexId;
        let v = (xorshift(&mut rng) % g.n_lower() as u64) as VertexId;
        if g.has_edge(u, v) {
            let g2 = g.without_edge(u, v).expect("edge removal");
            tracker.remove_edge(&g2, u, v);
            g = g2;
        } else {
            let g2 = g.with_edge(u, v).expect("edge insertion");
            tracker.add_edge(&g2, u, v);
            g = g2;
        }
    }
    ups(steps, t0.elapsed())
}

/// The same script, but peeling the core from scratch after each
/// splice — what a service without incremental maintenance pays.
fn run_scratch(start: &BipartiteGraph, steps: u32, seed: u64) -> f64 {
    let mut g = start.clone();
    let mut rng = seed;
    let t0 = Instant::now();
    for _ in 0..steps {
        let u = (xorshift(&mut rng) % g.n_upper() as u64) as VertexId;
        let v = (xorshift(&mut rng) % g.n_lower() as u64) as VertexId;
        g = if g.has_edge(u, v) {
            g.without_edge(u, v).expect("edge removal")
        } else {
            g.with_edge(u, v).expect("edge insertion")
        };
        let _ = fcore_masks(&g, 2, 2);
    }
    ups(steps, t0.elapsed())
}

/// Time `inserts` random non-edge insertions into `g` at `(alpha,
/// beta)`, each on the same tracker state: the edge is added and timed,
/// then removed again (untimed), so every insertion starts from the
/// core of `g`. Returns `(clean, dirty)` as (count, total repair time).
fn insertion_repair(
    g: &BipartiteGraph,
    alpha: u32,
    beta: u32,
    inserts: u32,
    seed: u64,
) -> [(u32, Duration); 2] {
    let mut tracker = CoreTracker::new(g, alpha, beta);
    let mut rng = seed;
    let mut out = [(0u32, Duration::ZERO); 2];
    let mut done = 0;
    while done < inserts {
        let u = (xorshift(&mut rng) % g.n_upper() as u64) as VertexId;
        let v = (xorshift(&mut rng) % g.n_lower() as u64) as VertexId;
        if g.has_edge(u, v) {
            continue;
        }
        let g2 = g.with_edge(u, v).expect("edge insertion");
        let t0 = Instant::now();
        let effect = tracker.add_edge(&g2, u, v);
        let dt = t0.elapsed();
        tracker.remove_edge(g, u, v);
        let slot = &mut out[usize::from(!effect.is_clean())];
        slot.0 += 1;
        slot.1 += dt;
        done += 1;
    }
    out
}

/// Mean µs per item, or `-` when there were none.
fn mean_us((n, total): (u32, Duration)) -> String {
    if n == 0 {
        "-".into()
    } else {
        format!("{:.2}", total.as_secs_f64() * 1e6 / f64::from(n))
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps: u32 = if quick { 100 } else { 1000 };
    println!("=== Dynamic-graph update throughput (updates/s, core at (2, 2)) ===");
    println!(
        "{:<28} {:>14} {:>14} {:>8}",
        "case", "incremental", "scratch", "speedup"
    );
    for (nu, nv, m) in [(200usize, 200usize, 2_000usize), (800, 800, 9_600)] {
        let label = format!("uniform {nu}x{nv} m={m}");
        let g = random_uniform(nu, nv, m, 2, 2, 7);
        let inc = run_incremental(&g, steps, 0xfbe7);
        let scratch = run_scratch(&g, steps.min(200), 0xfbe7);
        println!(
            "{label:<28} {inc:>14.0} {scratch:>14.0} {:>7.1}x",
            inc / scratch.max(1e-9)
        );
    }

    let yt = spec(Dataset::Youtube).build();
    let inserts: u32 = if quick { 256 } else { 2048 };
    println!();
    println!(
        "=== Insertion repair, Youtube analog ({}x{}, m={}), µs per insertion ===",
        yt.n_upper(),
        yt.n_lower(),
        yt.n_edges()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>8} {:>10} {:>12}",
        "(α, β)", "clean", "clean µs", "dirty", "dirty µs", "one-shot µs"
    );
    for (alpha, beta) in [(8u32, 8u32), (5, 5)] {
        let [clean, dirty] = insertion_repair(&yt, alpha, beta, inserts, 0xfbe7);
        let reps = 32u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(fcore_masks(&yt, alpha, beta));
        }
        let peel = mean_us((reps, t0.elapsed()));
        println!(
            "{:<10} {:>8} {:>10} {:>8} {:>10} {peel:>12}",
            format!("({alpha}, {beta})"),
            clean.0,
            mean_us(clean),
            dirty.0,
            mean_us(dirty)
        );
    }
}
