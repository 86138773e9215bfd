//! `fbe` — the command-line interface to the fair-biclique library.
//!
//! Subcommands (see [`HELP`] for full usage):
//!
//! * `fbe generate` — write a synthetic graph (corpus analog or
//!   uniform random) as edge-list + attribute files;
//! * `fbe stats` — Table-I style statistics plus butterfly counts;
//! * `fbe prune` — run `FCore`/`CFCore` (or the bi-side variants) and
//!   report the reduction;
//! * `fbe enumerate` — enumerate SSFBC/BSFBC/PSSFBC/PBSFBC, printing
//!   results, the top-k largest, or just the count;
//! * `fbe maximum` — the single largest fair biclique under a size
//!   metric;
//! * `fbe serve` — the resident query service (graph catalog,
//!   prepared-plan cache, deadline-aware admission) over TCP;
//! * `fbe batch` — run service-protocol scripts offline or against a
//!   live server (`--connect`).
//!
//! `fbe enumerate` and `fbe maximum` parse into one query with a
//! [`fair_biclique::prepared::ResultMode`], which runs the `++` miners
//! through [`fair_biclique::prepared::PreparedQuery::answer`], the
//! call the service makes; `--threads <N>` above 1 runs that path on the
//! parallel engine, which splits the walk's root across the workers
//! under a global budget ([`fair_biclique::parallel`]), and `--sorted` makes enumerate
//! output byte-identical across thread counts.
//!
//! The binary is a thin wrapper around [`run`], which is fully unit
//! tested (argument parsing and command execution return strings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

/// Usage text.
pub const HELP: &str = "\
fbe — fairness-aware maximal biclique enumeration (ICDE 2023 reproduction)

USAGE:
  fbe generate --dataset <youtube|twitter|imdb|wiki-cat|dblp> --out <stem>
  fbe generate --uniform <NU,NV,M> [--attrs <AU,AV>] [--seed <N>] --out <stem>
  fbe stats <stem | edges-file> [--attrs <AU,AV>]
  fbe prune <stem> --alpha <N> --beta <N> [--bi] [--kind <none|fcore|colorful>]
  fbe enumerate <stem> --alpha <N> --beta <N> --delta <N>
        [--theta <F>] [--bi] [--algo <nsf|bcem|bcem++>]
        [--order <id|degree>] [--count-only] [--top <K>]
        [--budget-secs <N>] [--threads <N>] [--sorted]
        [--substrate <auto|sorted-vec|bitset>] [--trace]
  fbe maximum <stem> --alpha <N> --beta <N> --delta <N>
        [--bi] [--metric <vertices|edges>] [--order <id|degree>]
        [--budget-secs <N>] [--threads <N>]
        [--substrate <auto|sorted-vec|bitset>]
  fbe serve [--host <H>] [--port <P>] [--workers <N>] [--queue <N>]
        [--plan-cache <N>] [--default-limit <N>] [--data-root <DIR>]
        [--shards <HOST:PORT,...>]
  fbe batch [--connect <HOST:PORT>] [<script-file>|-]

A <stem> refers to the three files written by `fbe generate`:
  <stem>.edges, <stem>.uattr, <stem>.lattr
A bare edges file may be given instead (attributes default to value 0;
combine with --attrs to declare domain sizes).

--algo picks the paper's algorithm for the absolute models only: nsf
(NSF; BNSF with --bi), bcem (FairBCEM; BFairBCEM) or the default
bcem++ (FairBCEM++; BFairBCEM++). The baselines run serially (no
--threads above 1), and the proportion models (--theta) run only
bcem++.

--threads <N> with N > 1 runs any model (enumerate or maximum) on the
parallel engine, which hands the subtrees below the root to N workers;
budgets stay global, and with --sorted the output is byte-identical
across thread counts.

--substrate selects the candidate-set representation of the hot path:
sorted-vec merge intersections, u64 bitset rows with popcount, or
auto (the default: bitsets when the pruned core is small and dense).
Results are identical across substrates — only speed/memory differ.

--trace extends the stderr timing line with an indented per-stage span
tree (prepare: core-peel / 2hop / colorful peels, plan-resolve,
enumerate, sort — the same vocabulary the service's TRACE verb and
SLOWLOG use; see the README's Observability section). Stdout stays
byte-identical with and without it. Spans cover every bcem++ run, in
every output mode; the baselines (non-default --algo) keep the
one-line total.

--budget-secs bounds the search; a run it cuts short marks its count
(enumerate) or best-so-far (maximum) with \"(budget hit; lower bound)\".

fbe serve starts the resident query service on a TCP port (0 picks an
ephemeral port, printed on startup): named graphs are loaded once
(LOAD/GEN), repeat queries reuse cached prepared plans, and an
admission controller bounds concurrency and honors per-query
deadlines. fbe batch runs the same line protocol from a script file or
stdin — offline against an in-process engine, or against a live
server with --connect. Scripts can mutate resident graphs between
queries (ADDEDGE/DELEDGE/ADDVERTEX): the service repairs its fair
cores incrementally and keeps every cached plan whose core the update
did not touch. See the README's Service section for the protocol
grammar.

--data-root confines LOAD stems under a directory (absolute paths and
.. are refused with ERR PARSE). --shards turns the instance into a
scatter-gather coordinator: LOAD/GEN fan out with a per-shard SHARD
command that restricts each shard server to its slice of the
deterministic 2-hop-component partition, ENUM merges the shards'
sorted result streams (byte-identical to a single-process run) under
one global result budget, and a failed shard answers ERR SHARD
instead of hanging.

EXAMPLES:
  fbe generate --dataset youtube --out /tmp/yt
  fbe stats /tmp/yt
  fbe prune /tmp/yt --alpha 8 --beta 8 --kind colorful
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --top 3
  fbe enumerate /tmp/yt --alpha 5 --beta 5 --delta 2 --bi --count-only
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --threads 4 --sorted
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --substrate bitset
  fbe maximum /tmp/yt --alpha 8 --beta 8 --delta 2 --metric edges --threads 4
";

pub use commands::CliError;

/// Parse `argv` (without the program name) and execute, streaming
/// output to `out`. Output-stream failures surface as
/// [`CliError::Io`] (the binary maps `BrokenPipe` to a clean exit);
/// everything else is [`CliError::Usage`].
pub fn run_to(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parsed = args::parse(argv).map_err(CliError::Usage)?;
    commands::execute_to(parsed, out)
}

/// Parse `argv` (without the program name) and execute, returning the
/// text to print. Buffers everything — long-running commands
/// (`serve`) should go through [`run_to`].
pub fn run(argv: &[String]) -> Result<String, String> {
    let parsed = args::parse(argv)?;
    commands::execute(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_on_empty_or_flag() {
        assert!(run(&sv(&[])).unwrap().contains("USAGE"));
        assert!(run(&sv(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&sv(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn full_workflow_through_cli() {
        let dir = std::env::temp_dir().join("fbe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("g");
        let stem_s = stem.to_str().unwrap();

        // generate (uniform)
        let out = run(&sv(&[
            "generate",
            "--uniform",
            "30,30,200",
            "--seed",
            "7",
            "--out",
            stem_s,
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(stem.with_extension("edges").exists());

        // stats
        let out = run(&sv(&["stats", stem_s])).unwrap();
        assert!(out.contains("|E|=200"), "{out}");
        assert!(out.contains("butterflies"), "{out}");

        // prune
        let out = run(&sv(&["prune", stem_s, "--alpha", "2", "--beta", "2"])).unwrap();
        assert!(out.contains("remaining"), "{out}");

        // enumerate count-only
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("SSFBC count"), "{out}");

        // enumerate top-k, bi-side, parallel
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "1",
            "--bi",
            "--top",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("BSFBC"), "{out}");

        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--threads",
            "2",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("SSFBC count"), "{out}");

        // sorted output is byte-identical across thread counts
        let base = sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--sorted",
        ]);
        let one = run(&base).unwrap();
        for threads in ["2", "4"] {
            let mut argv = base.clone();
            argv.extend(sv(&["--threads", threads]));
            assert_eq!(run(&argv).unwrap(), one, "threads {threads}");
        }

        // ... and across candidate substrates
        for substrate in ["sorted-vec", "bitset", "auto"] {
            let mut argv = base.clone();
            argv.extend(sv(&["--substrate", substrate]));
            assert_eq!(run(&argv).unwrap(), one, "substrate {substrate}");
        }

        // parallel count-only and top-k stream; results match serial
        for extra in [vec!["--count-only"], vec!["--top", "2"]] {
            let mut serial = sv(&[
                "enumerate",
                stem_s,
                "--alpha",
                "2",
                "--beta",
                "1",
                "--delta",
                "1",
            ]);
            serial.extend(sv(&extra));
            let mut par = serial.clone();
            par.extend(sv(&["--threads", "3"]));
            assert_eq!(run(&par).unwrap(), run(&serial).unwrap(), "{extra:?}");
        }

        // bi-side parallel goes through the engine too
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "1",
            "--bi",
            "--threads",
            "3",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("BSFBC count"), "{out}");

        // maximum search, serial and parallel, agree
        let m1 = run(&sv(&[
            "maximum", stem_s, "--alpha", "2", "--beta", "1", "--delta", "1",
        ]))
        .unwrap();
        let m4 = run(&sv(&[
            "maximum",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(m1.contains("maximum SSFBC"), "{m1}");
        assert_eq!(m1, m4);

        // --threads with a non-default algorithm is rejected
        assert!(run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--algo",
            "nsf",
            "--threads",
            "2",
        ]))
        .is_err());

        // proportion
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--theta",
            "0.4",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("PSSFBC count"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_dataset_variant() {
        let dir = std::env::temp_dir().join("fbe_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("yt");
        let out = run(&sv(&[
            "generate",
            "--dataset",
            "youtube",
            "--out",
            stem.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("Youtube"), "{out}");
        let st = run(&sv(&["stats", stem.to_str().unwrap()])).unwrap();
        assert!(st.contains("|U|=1473"), "{st}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_arguments_report_errors() {
        assert!(run(&sv(&["generate", "--out", "/tmp/x"])).is_err());
        assert!(run(&sv(&["generate", "--uniform", "bogus", "--out", "/tmp/x"])).is_err());
        assert!(run(&sv(&[
            "enumerate",
            "/nonexistent",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0"
        ]))
        .is_err());
        assert!(run(&sv(&[
            "prune",
            "/nonexistent",
            "--alpha",
            "1",
            "--beta",
            "1"
        ]))
        .is_err());
        let err = run(&sv(&[
            "enumerate",
            "/tmp/x",
            "--alpha",
            "0",
            "--beta",
            "1",
            "--delta",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("alpha"), "{err}");
        // prune refuses alpha = 0 the same way (it once ran as 1).
        let err = run(&sv(&["prune", "/tmp/x", "--alpha", "0", "--beta", "1"])).unwrap_err();
        assert!(err.contains("prune: alpha must be >= 1"), "{err}");
        // The proportion models have no baselines: --theta with a
        // non-default --algo is refused, not run as bcem++.
        let err = run(&sv(&[
            "enumerate",
            "/nonexistent",
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--theta",
            "0.4",
            "--algo",
            "nsf",
        ]))
        .unwrap_err();
        assert!(err.contains("--algo"), "{err}");
    }
}
