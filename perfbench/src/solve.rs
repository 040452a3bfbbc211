//! The solve workloads: rounds of full solves to a stated tolerance.

use std::time::Instant;

use gmg_trace::Trace;
use polymg::{PlanCache, Variant};

use crate::host;
use crate::probe::Probe;
use crate::problems::{self, check, inputs, prepare, same_bits, Inputs, Prepared, Problem};
use crate::report::{Outcome, Overheads, TAIL_BEYOND};
use crate::spans::Tracer;
use crate::stats::{geomean, median, tail};

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Timed rounds a run makes at least, so the tail statistic has ten
/// samples beyond it.
const MIN_ROUNDS: usize = 11;

/// A solve workload: its problems and the time one round takes at
/// reference speed.
pub struct Workload {
    pub set: &'static [Problem],
    pub nominal_round_s: f64,
}

impl Workload {
    /// Rounds a run of `seconds` makes. The count is fixed rather than
    /// timed, so the tail statistic's rank does not move with the host's
    /// speed; at reference speed the run lasts about `seconds`.
    fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_round_s).round() as usize).max(MIN_ROUNDS)
    }
}

/// A problem ready to solve, with its inputs and the first round's answer.
pub struct Member {
    pub prep: Prepared,
    pub inputs: Inputs,
    pub first: Option<(Vec<f64>, usize)>,
}

impl Member {
    /// Solve once and check it: the first solve against the tolerance and
    /// error bound, every later one bitwise against the first.
    pub fn solve_checked(&mut self, tr: &mut Tracer, id: u64) -> (Summary, Result<(), String>) {
        let f = &self.inputs.rhs.f;
        let s = match self.prep.solve(f, tr, id) {
            Ok(s) => s,
            Err(e) => return (Summary::default(), Err(e)),
        };
        let summary = Summary {
            elapsed_ns: s.elapsed_ns,
            cycles: s.cycles,
            fresh_bytes: s.fresh_bytes,
        };
        let verdict = match &self.first {
            None => {
                let r = check(&self.prep.problem, &self.inputs, &s);
                if r.is_ok() {
                    self.first = Some((s.v, s.cycles));
                }
                r
            }
            Some((v, cycles)) if *cycles == s.cycles && same_bits(v, &s.v) => Ok(()),
            Some((_, cycles)) => Err(format!(
                "{}: round {id} differs from the first round ({} vs {cycles} cycles)",
                self.prep.problem.name, s.cycles
            )),
        };
        (summary, verdict)
    }
}

/// What a solve cost, without its grid.
#[derive(Clone, Copy, Default)]
pub struct Summary {
    pub elapsed_ns: u64,
    pub cycles: usize,
    pub fresh_bytes: u64,
}

/// Cold set-up of `set`: clear the plan cache, then build, compile,
/// construct the engine and run the first cycle of every problem.
pub fn cold_setup(
    set: &[Problem],
    ins: &[Inputs],
    tr: &mut Tracer,
    per_problem_clear: bool,
) -> Result<Vec<Prepared>, String> {
    PlanCache::global().clear();
    set.iter()
        .zip(ins)
        .map(|(p, i)| {
            if per_problem_clear {
                PlanCache::global().clear();
            }
            let mut prep = prepare(p, Variant::OptPlus, 1, i.coeff.as_deref(), tr, 0)?;
            prep.first_cycle(&i.rhs.f, tr, 0)?;
            Ok(prep)
        })
        .collect()
}

/// The untraced run: `setup_s` and the round, per-solve and memory
/// metrics of one solve workload. Every timed sample is scaled to
/// reference host speed by a probe reading taken just before it.
pub fn run(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let set = w.set;
    let mut tr = Tracer::new(false, Instant::now());
    // the set-up probe matches a small 2-D grid: set-up is mostly compile
    let mut setup_probe = Probe::matched(2, 63);
    let mut probes: Vec<Probe> = set
        .iter()
        .map(|p| Probe::matched(p.ndims, p.n as usize))
        .collect();
    let mut factors = Vec::new();
    let ins: Vec<Inputs> = set.iter().map(|p| inputs(p, seed)).collect();
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut preps = Vec::new();
    for _ in 0..SETUP_REPS {
        let factor = setup_probe.factor();
        let t0 = Instant::now();
        preps = cold_setup(set, &ins, &mut tr, false)?;
        let raw = t0.elapsed().as_secs_f64();
        setup.push(raw * factor);
        setup_raw.push(raw);
        factors.push(("set-up", factor));
    }
    let mut members: Vec<Member> = preps
        .into_iter()
        .zip(ins)
        .map(|(prep, inputs)| Member {
            prep,
            inputs,
            first: None,
        })
        .collect();
    // warm-up round, untimed: also the reference every later round matches
    for m in members.iter_mut() {
        let (_, r) = m.solve_checked(&mut tr, 0);
        out.check(r);
    }
    let (mut rounds, mut rounds_raw) = (Vec::new(), Vec::new());
    // per problem: solve times in ms, scaled and raw
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); members.len()];
    let mut raw_ms: Vec<Vec<f64>> = vec![Vec::new(); members.len()];
    for id in 1..=w.rounds(seconds) as u64 {
        let (mut round, mut round_raw) = (0.0, 0.0);
        for (k, m) in members.iter_mut().enumerate() {
            let factor = probes[k].factor();
            let (sum, r) = m.solve_checked(&mut tr, id);
            out.check(r);
            let raw = sum.elapsed_ns as f64 * 1e-9;
            round += raw * factor;
            round_raw += raw;
            scaled[k].push(raw * factor * 1e3);
            raw_ms[k].push(raw * 1e3);
            factors.push((m.prep.problem.name, factor));
        }
        rounds.push(round);
        rounds_raw.push(round_raw);
    }
    let speed = |name: &str| {
        let f: Vec<f64> = factors
            .iter()
            .filter(|x| x.0 == name)
            .map(|x| x.1)
            .collect();
        median(&f)
    };
    for (m, times) in members.iter().zip(&raw_ms) {
        let name = m.prep.problem.name;
        let cycles = m.first.as_ref().map_or(0, |f| f.1);
        out.notes.push(format!(
            "solve {name}: raw median {:.3} ms over {} solves, {cycles} cycles to {:.0e}, speed factor {:.4}",
            median(times),
            times.len(),
            m.prep.problem.tol,
            speed(name)
        ));
    }
    out.notes.push(format!(
        "raw: setup_s {:.6} s (speed factor {:.4}), solve_s {:.6} s",
        median(&setup_raw),
        speed("set-up"),
        median(&rounds_raw),
    ));
    out.median("setup_s", "s", &setup);
    out.median("solve_s", "s", &rounds);
    out.tail("solve_s_tail", "s", &rounds);
    out.count(
        "serve_grids_per_s",
        "1/s",
        set.len() as f64 / median(&rounds),
    );
    // A pooled percentile over problems of different sizes falls between
    // two problems' clusters and flips with noise; the typical problem's
    // request time is steady.
    let p50: Vec<f64> = scaled.iter().map(|x| median(x)).collect();
    let tails: Vec<f64> = scaled.iter().map(|x| tail(x, TAIL_BEYOND).value).collect();
    out.count("req_p50_ms", "ms", geomean(&p50));
    out.count("req_tail_ms", "ms", geomean(&tails));
    out.count("peak_rss_mb", "MiB", host::peak_rss_mb().ok_or("no VmHWM")?);
    out.samples = vec![
        ("setups", setup.len()),
        ("rounds", rounds.len()),
        ("solves", rounds.len() * set.len()),
    ];
    Ok(())
}

/// How one traced-run round is measured.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Spans,
    EngineTrace,
}

/// The traced run's main loop over a solve workload's members: rounds
/// rotate between no tracing, benchmark spans, and the engine's own
/// trace, giving both tracing overheads from interleaved samples.
pub fn traced_loop(
    members: &mut [&mut Member],
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Overheads {
    const MODES: [Mode; 3] = [Mode::Off, Mode::Spans, Mode::EngineTrace];
    let mut times: [Vec<f64>; 3] = Default::default();
    let t0 = Instant::now();
    let mut round = 0usize;
    while round < 2 * MODES.len() || t0.elapsed().as_secs_f64() < seconds {
        let mode = MODES[round % MODES.len()];
        tr.set_enabled(mode == Mode::Spans);
        let id = 100 + round as u64;
        let mut ns = 0;
        for m in members.iter_mut() {
            if mode == Mode::EngineTrace {
                m.prep.runner.engine_mut().set_trace(Trace::enabled());
            }
            let (sum, r) = m.solve_checked(tr, id);
            if mode == Mode::EngineTrace {
                m.prep.runner.engine_mut().set_trace(Trace::disabled());
            }
            out.check(r);
            ns += sum.elapsed_ns;
        }
        times[round % MODES.len()].push(ns as f64);
        round += 1;
    }
    tr.set_enabled(true);
    let off = median(&times[0]);
    Overheads {
        bench_pct: 100.0 * (median(&times[1]) / off - 1.0),
        engine_pct: 100.0 * (median(&times[2]) / off - 1.0),
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "solve-poisson" => Some(Workload {
            set: &problems::POISSON,
            nominal_round_s: 1.05,
        }),
        "solve-scenarios" => Some(Workload {
            set: &problems::SCENARIOS,
            nominal_round_s: 0.83,
        }),
        _ => None,
    }
}
