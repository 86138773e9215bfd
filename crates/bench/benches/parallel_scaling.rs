//! Work-stealing engine scaling: every miner at 1/2/4/8 threads.
//! Run: `cargo bench --bench parallel_scaling` (add `-- --quick` for
//! the reduced sweep).

fn main() {
    let opts = fbe_bench::Opts::from_args();
    println!(
        "=== Parallel scaling (engine extension) (budget {:?}/run, quick={}) ===",
        opts.budget, opts.quick
    );
    for (i, t) in fbe_bench::experiments::exp8_parallel_scaling(&opts)
        .into_iter()
        .enumerate()
    {
        t.print();
        t.save(&format!("parallel_scaling_{i}"));
    }
}
