//! Job-level benchmark of the AMPC sparse-coloring reproduction.
//!
//! ```text
//! jobbench --workload <forest-seq|powerlaw-par2|serve-2k> --seed <n>
//!          --seconds <s> --trace <0|1> [--serve-bin <path to ampc-serve>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that splits each job by crate and writes its spans
//! to `.jobbench/spans-<workload>-<seed>.jsonl`. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`.
//! `run.sh` builds this package and `ampc-serve`, then runs it.

mod alloc;
mod http;
mod job;
mod library;
mod serve;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Duration;

use ampc_coloring::runtime::{perf, simd};
use ampc_coloring::RuntimeConfig;
use ampc_coloring_bench::Workload;

use crate::library::Library;
use crate::spans::Spans;

#[global_allocator]
static ALLOCATOR: alloc::GatedCounter = alloc::GatedCounter;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Nodes per graph of the library workloads: small enough that a 25-second
/// run times the forty jobs the p75 tail needs even on a slow 2-core host.
const LIBRARY_NODES: usize = 50_000;

/// The command line of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
}

/// A graph seed for `index`-th graph of input stream `stream`, derived from
/// the run's seed (SplitMix64), so one seed always gives the same inputs.
pub fn graph_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|arg| arg == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse().map_err(|_| format!("bad {name} {raw:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(error) => {
            eprintln!("jobbench: {error}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let workload = flag(args, "--workload")?;
    let run = Run {
        seed: number(args, "--seed")?,
        seconds: Duration::from_secs(number(args, "--seconds")?),
    };
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let host = format!(
        "{{\"nproc\": {}, \"simd\": \"{}\", \"perf\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd::dispatch_path(),
        perf::available()
    );
    println!("host: {host}");

    let forest = Library {
        workload: Workload::ForestUnion {
            n: LIBRARY_NODES,
            k: 2,
        },
        runtime: RuntimeConfig::Sequential,
    };
    let powerlaw = Library {
        workload: Workload::PowerLaw {
            n: LIBRARY_NODES,
            edges_per_node: 2,
        },
        runtime: RuntimeConfig::parallel().with_threads(2),
    };
    let serve_bin = || flag(args, "--serve-bin").map(PathBuf::from);
    let spans = Spans::new();
    let outcome = match (workload, trace) {
        ("forest-seq", false) => forest.measure(&run),
        ("forest-seq", true) => forest.trace(&run, &spans),
        ("powerlaw-par2", false) => powerlaw.measure(&run),
        ("powerlaw-par2", true) => powerlaw.trace(&run, &spans),
        ("serve-2k", false) => serve::measure(&run, &serve_bin()?),
        ("serve-2k", true) => serve::trace(&run, &serve_bin()?, &spans),
        _ => return Err(format!("unknown workload {workload:?}")),
    }?;
    if trace {
        let dir = PathBuf::from(".jobbench");
        let path = dir.join(format!("spans-{workload}-{}.jsonl", run.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    format!("{{\"host\": {host}}}\n{}", spans.to_json_lines()),
                )
            })
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for error in outcome.errors.iter().take(20) {
        eprintln!("jobbench: check failed: {error}");
    }
    if outcome.attempted == 0 {
        return Err("no job was attempted".to_string());
    }
    Ok(outcome.json())
}
