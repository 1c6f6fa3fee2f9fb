//! The repository benchmark: one command, three workloads, end-to-end
//! and per-layer metrics (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc-repl --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, and the
//! span tree with counter deltas is written to
//! `perfbench/out/<workload>-seed<seed>.trace.json`.

mod hist;
mod host;
mod inproc;
mod layers;
mod serve;
mod spans;

use std::fmt::Write as _;

use layers::Values;
use spans::Recorder;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

const WORKLOADS: [&str; 3] = ["tpcc-repl", "ycsb-b-cross", "serve-smallbank"];

/// End-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("vtps", "txn/vs"),
    ("vlat_p50_us", "vus"),
    ("vlat_p99_us", "vus"),
    ("host_tps", "txn/s"),
    ("host_cpu_us_per_txn", "us/txn"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("serve_p50_us", "us"),
    ("serve_capacity_rps", "req/s"),
];

/// Medians of the repeated set-up of one run, seconds.
pub struct Setup {
    pub setup_s: f64,
    pub build_s: f64,
    pub load_s: f64,
}

/// What one workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// The span tree of a traced run.
    pub recorder: Option<Recorder>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--catalog" => {
                print_catalog();
                std::process::exit(0);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Every per-layer metric as `(name, unit, better)`.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    layers::per_layer_catalog(&inproc::TPCC_TYPES, &inproc::YCSB_TYPES)
}

/// Prints the per-layer metric list as the `per_layer` array of
/// `BENCHMARK.json`.
fn print_catalog() {
    let layer: Vec<String> = per_layer()
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    println!("[\n{}\n]", layer.join(",\n"));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds;
    let outcome = match args.workload.as_str() {
        "tpcc-repl" => inproc::run(
            inproc::Kind::tpcc(),
            "tpcc-repl",
            args.seed,
            seconds,
            args.trace,
        ),
        "ycsb-b-cross" => inproc::run(
            inproc::Kind::ycsb(),
            "ycsb-b-cross",
            args.seed,
            seconds,
            args.trace,
        ),
        _ => serve::run(args.seed, seconds, args.trace),
    };

    if let Some(rec) = &outcome.recorder {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, rec.to_json(&args.workload, args.seed)));
        match written {
            Ok(()) => eprintln!("[{}] trace written to {}", args.workload, path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = outcome.values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        eprintln!("  {name:<44} {v:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    if !outcome.correct {
        eprintln!("perfbench: correctness check FAILED");
        std::process::exit(1);
    }
}
