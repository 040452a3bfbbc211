//! The traced run: every per-layer metric, from the benchmark's spans and
//! the crates' own counters.

use std::time::Instant;

use gmg_multigrid::handopt::HandOpt;
use polymg::{PlanCache, Variant};

use crate::host;
use crate::problems::{self, inputs, prepare, Inputs, Problem};
use crate::report::Outcome;
use crate::serve;
use crate::solve::{self, Member};
use crate::spans::Tracer;
use crate::stats::median;

/// Seconds of serving in a solve workload's traced run (its `server.*`
/// layer metrics).
const SERVER_LEG_S: f64 = 2.0;
/// Cycles timed per ladder rung and scaling point, after one warm-up.
const LEG_CYCLES: usize = 3;
/// Span ids of the traced run's phases.
const ID_FIRST_ROUND: u64 = 1;
const ID_SCALING: u64 = 1 << 40;
const ID_LADDER: u64 = 1 << 41;

fn ms(ns: f64) -> f64 {
    ns * 1e-6
}

/// Time `LEG_CYCLES` cycles after a warm-up, median in ms; returns the
/// grid after the last cycle too.
fn timed_cycles(
    f: &[f64],
    mut cycle: impl FnMut(&mut [f64]) -> Result<(), String>,
) -> Result<(f64, Vec<f64>), String> {
    let mut v = vec![0.0; f.len()];
    cycle(&mut v)?;
    let mut times = Vec::new();
    for _ in 0..LEG_CYCLES {
        let t0 = Instant::now();
        cycle(&mut v)?;
        times.push(ms(t0.elapsed().as_nanos() as f64));
    }
    Ok((median(&times), v))
}

/// The paper's variant ladder (Fig. 9/11b) on `poisson2d-V`, re-run on
/// today's engine at one thread, plus the hand-optimized baseline. Every
/// rung must agree with `polymg-opt+` to round-off.
fn ladder(p: &Problem, ins: &Inputs, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let f = &ins.rhs.f;
    let rungs = [
        ("naive", Variant::Naive),
        ("opt", Variant::Opt),
        ("optplus", Variant::OptPlus),
        ("dtile-optplus", Variant::DtileOptPlus),
    ];
    let mut grids = Vec::new();
    for (name, variant) in rungs {
        let mut prep = prepare(p, variant, 1, None, tr, ID_LADDER)?;
        let (t, v) = timed_cycles(f, |v| {
            prep.runner
                .cycle_with_stats(v, f)
                .map(|_| ())
                .map_err(|e| format!("{name}: {e}"))
        })?;
        out.count(format!("core.ladder.{name}.cycle_ms"), "ms", t);
        out.count(
            format!("core.ladder.{name}.intermediate_bytes"),
            "bytes",
            prep.stats.intermediate_bytes as f64,
        );
        grids.push((name, v));
    }
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("one-thread pool: {e:?}"))?;
    let mut hand = HandOpt::new(p.cfg());
    let (t, v) = one.install(|| {
        timed_cycles(f, |v| {
            hand.cycle(v, f);
            Ok(())
        })
    })?;
    out.count("core.ladder.handopt.cycle_ms", "ms", t);
    grids.push(("handopt", v));
    let reference = grids[2].1.clone();
    let scale = reference.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    for (name, v) in &grids {
        let dev = v
            .iter()
            .zip(&reference)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        out.check(if dev <= 1e-9 * scale {
            Ok(())
        } else {
            Err(format!(
                "ladder rung {name} deviates from opt+ by {dev:.3e}"
            ))
        });
    }
    Ok(())
}

/// The same problems at `nproc` threads: cycle-time ratio against one
/// thread, and the pools' steal and park counts.
fn scaling(
    members: &[Member],
    one_thread_ms: &[f64],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let threads = host::nproc();
    let (mut steals, mut parks) = (0u64, 0u64);
    for (m, base) in members.iter().zip(one_thread_ms) {
        let p = &m.prep.problem;
        let f = &m.inputs.rhs.f;
        let mut prep = prepare(
            p,
            Variant::OptPlus,
            threads,
            m.inputs.coeff.as_deref(),
            tr,
            ID_SCALING,
        )?;
        let (t, _) = timed_cycles(f, |v| {
            prep.runner
                .cycle_with_stats(v, f)
                .map(|_| ())
                .map_err(|e| format!("{}: {e}", p.name))
        })?;
        out.count(format!("mg.scaling.{}", p.name), "ratio", base / t);
        let c = prep.runner.engine().thread_counters();
        steals += c.steals;
        parks += c.parks;
    }
    out.count("runtime.steals", "count", steals as f64);
    out.count("runtime.parks", "count", parks as f64);
    Ok(())
}

/// The whole traced run of `workload`: every problem set up cold and
/// solved once under spans, the workload's own loop, the server leg, the
/// nproc scaling leg and the variant ladder.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let misses0 = PlanCache::global().counters().1;
    let all = problems::all();
    let ins: Vec<Inputs> = all.iter().map(|p| inputs(p, seed)).collect();
    let preps = solve::cold_setup(&all, &ins, tr, true)?;
    let build: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "ir.build")
        .map(|s| s.dur_ns() as f64)
        .sum();
    out.count("ir.build_ms", "ms", ms(build));
    let mut members: Vec<Member> = preps
        .into_iter()
        .zip(ins)
        .map(|(prep, inputs)| Member {
            prep,
            inputs,
            first: None,
        })
        .collect();
    for m in members.iter_mut() {
        let name = m.prep.problem.name;
        let compile = tr.durations("core.compile", name);
        out.count(format!("core.compile_ms.{name}"), "ms", ms(compile[0]));
        out.count(
            format!("core.intermediate_bytes.{name}"),
            "bytes",
            m.prep.stats.intermediate_bytes as f64,
        );
        out.count(
            format!("core.peak_scratch_bytes.{name}"),
            "bytes",
            m.prep.stats.peak_scratch_bytes as f64,
        );
        let (sum, r) = m.solve_checked(tr, ID_FIRST_ROUND);
        out.check(r);
        out.count(format!("mg.cycles.{name}"), "count", sum.cycles as f64);
        // the engine's first solve, its set-up cycle included
        let fresh = (m.prep.setup_fresh_bytes + sum.fresh_bytes) as f64 / (1 + sum.cycles) as f64;
        out.count(
            format!("runtime.fresh_bytes_per_cycle.{name}"),
            "bytes",
            fresh,
        );
    }
    let residual: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "mg.residual" && s.id == ID_FIRST_ROUND)
        .map(|s| s.dur_ns() as f64)
        .sum();
    out.count("mg.residual_ms", "ms", ms(residual));

    let serve_plan = |secs| serve::Plan {
        seconds: secs,
        setup_reps: 1,
        traced: true,
    };
    let overheads = match solve::workload(workload) {
        Some(solve::Workload { set, .. }) => {
            let mut own: Vec<&mut Member> = members
                .iter_mut()
                .filter(|m| set.iter().any(|p| p.name == m.prep.problem.name))
                .collect();
            let o = solve::traced_loop(&mut own, seconds, tr, out);
            serve::run(seed, &serve_plan(SERVER_LEG_S), tr, out)?;
            o
        }
        None => serve::run(seed, &serve_plan(seconds), tr, out)?
            .ok_or("traced serve run reported no overheads")?,
    };
    out.count("trace.bench_overhead_pct", "%", overheads.bench_pct);
    out.count("trace.engine_overhead_pct", "%", overheads.engine_pct);

    // warm one-thread cycle time per problem: every cycle span after set-up
    let mut one_thread = Vec::new();
    for m in &members {
        let name = m.prep.problem.name;
        let cyc: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| {
                s.name == "mg.cycle" && s.tag == name && s.id >= ID_FIRST_ROUND && s.id < ID_SCALING
            })
            .map(|s| ms(s.dur_ns() as f64))
            .collect();
        let t = median(&cyc);
        out.count(format!("mg.cycle_ms.{name}"), "ms", t);
        one_thread.push(t);
    }
    scaling(&members, &one_thread, tr, out)?;
    ladder(&all[0], &members[0].inputs, tr, out)?;
    out.count(
        "core.plan_cache_misses",
        "count",
        (PlanCache::global().counters().1 - misses0) as f64,
    );
    Ok(())
}
