//! One benchmark for the repository: full solves to a stated tolerance and
//! served-request latency, end to end, with a traced run that breaks them
//! down by crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-poisson --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `solve-poisson`, `solve-scenarios`, `serve-mix`. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
//! separate, traced run reports the per-layer metrics and writes its spans
//! to `perfbench/out/`. The last line of standard output is the JSON
//! result; the lines above it print every metric with its unit and
//! evidence, `fail_frac`, and the host and run record.

mod host;
mod inputs;
mod layers;
mod probe;
mod problems;
mod report;
mod serve;
mod solve;
mod spans;
mod stats;

use std::time::Instant;

use report::Outcome;
use spans::Tracer;

const WORKLOADS: [&str; 3] = ["solve-poisson", "solve-scenarios", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, spans::to_json_lines(tr.spans())));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        let mut tr = Tracer::new(true, Instant::now());
        layers::run(&args.workload, args.seed, args.seconds, &mut tr, &mut out)?;
        write_spans(args, &tr);
    } else if let Some(w) = solve::workload(&args.workload) {
        solve::run(&w, args.seed, args.seconds, &mut out)?;
    } else {
        let plan = serve::Plan {
            seconds: args.seconds,
            setup_reps: solve::SETUP_REPS,
            traced: false,
        };
        let mut tr = Tracer::new(false, Instant::now());
        serve::run(args.seed, &plan, &mut tr, &mut out)?;
    }
    out.validate()?;
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let record = host::record(
                &args.workload,
                args.seed,
                args.seconds,
                args.trace,
                &out.samples,
            );
            out.print(&record);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
