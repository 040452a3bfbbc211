//! The nine solve problems and the layer-by-layer calls that set up and
//! solve one of them, each wrapped in a benchmark span.

use std::time::Instant;

use gmg_ir::ParamBindings;
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::{
    build_scenario_pipeline, coeff_field, reciprocal_field, residual_norm_varcoef, scenario_config,
};
use gmg_multigrid::solver::{residual_norm, DslRunner};
use polymg::report::PlanStats;
use polymg::{PipelineOptions, Scenario, Variant};

use crate::inputs::{poisson_rhs, stream, Rhs};
use crate::spans::Tracer;

/// Cycles a solve may take before it counts as failed.
pub const CYCLE_CAP: usize = 40;

#[derive(Clone, Copy, Debug)]
pub struct Problem {
    pub name: &'static str,
    pub ndims: usize,
    pub n: i64,
    pub levels: u32,
    pub cycle: CycleType,
    pub scenario: Scenario,
    pub mixed: bool,
    pub tol: f64,
}

#[allow(clippy::too_many_arguments)]
const fn p(
    name: &'static str,
    ndims: usize,
    n: i64,
    levels: u32,
    cycle: CycleType,
    scenario: Scenario,
    mixed: bool,
    tol: f64,
) -> Problem {
    Problem {
        name,
        ndims,
        n,
        levels,
        cycle,
        scenario,
        mixed,
        tol,
    }
}

/// `solve-poisson`: the paper's problem at scaled class B, full depth.
pub const POISSON: [Problem; 3] = [
    p(
        "poisson2d-V",
        2,
        1023,
        9,
        CycleType::V,
        Scenario::Constant,
        false,
        1e-8,
    ),
    p(
        "poisson3d-V",
        3,
        63,
        5,
        CycleType::V,
        Scenario::Constant,
        false,
        1e-8,
    ),
    p(
        "poisson3d-W",
        3,
        63,
        5,
        CycleType::W,
        Scenario::Constant,
        false,
        1e-8,
    ),
];

/// `solve-scenarios`: the code paths `solve-poisson` never reaches.
pub const SCENARIOS: [Problem; 6] = [
    p(
        "varcoef2d",
        2,
        255,
        7,
        CycleType::V,
        Scenario::VarCoef,
        false,
        1e-8,
    ),
    p(
        "varcoef3d",
        3,
        31,
        4,
        CycleType::V,
        Scenario::VarCoef,
        false,
        1e-8,
    ),
    p(
        "mixed3d",
        3,
        63,
        5,
        CycleType::V,
        Scenario::Constant,
        true,
        1e-3,
    ),
    p(
        "rbgs2d",
        2,
        255,
        7,
        CycleType::V,
        Scenario::Rbgs,
        false,
        1e-8,
    ),
    p(
        "cheb2d",
        2,
        255,
        7,
        CycleType::V,
        Scenario::Chebyshev,
        false,
        1e-8,
    ),
    p(
        "wcycle2d",
        2,
        255,
        7,
        CycleType::W,
        Scenario::Constant,
        false,
        1e-8,
    ),
];

pub fn all() -> Vec<Problem> {
    POISSON.iter().chain(SCENARIOS.iter()).copied().collect()
}

impl Problem {
    pub fn cfg(&self) -> MgConfig {
        let mut cfg = MgConfig::new(self.ndims, self.n, self.cycle, SmoothSteps::s444());
        cfg.levels = self.levels;
        cfg
    }

    /// Constant-coefficient problems solved to 1e-8 carry the h²-scaled
    /// error check against the manufactured solution.
    pub fn checks_error(&self) -> bool {
        self.scenario != Scenario::VarCoef && !self.mixed
    }

    /// Index of the problem in [`all`], used as its input stream.
    fn index(&self) -> u64 {
        all()
            .iter()
            .position(|q| q.name == self.name)
            .expect("listed problem") as u64
    }
}

/// The inputs one problem is solved on.
pub struct Inputs {
    pub rhs: Rhs,
    pub coeff: Option<Vec<f64>>,
}

pub fn inputs(problem: &Problem, seed: u64) -> Inputs {
    let cfg = problem.cfg();
    Inputs {
        rhs: poisson_rhs(&cfg, stream(seed, problem.index())),
        coeff: (problem.scenario == Scenario::VarCoef).then(|| coeff_field(&cfg)),
    }
}

/// A problem compiled and bound to an engine.
pub struct Prepared {
    pub problem: Problem,
    pub cfg: MgConfig,
    pub runner: DslRunner,
    pub stats: PlanStats,
    pub coeff: Option<Vec<f64>>,
    /// Bytes the engine allocated fresh in its first cycle.
    pub setup_fresh_bytes: u64,
}

/// Build the pipeline (`ir`), compile it through the plan cache (`core`)
/// and wrap it in an engine (`runtime`), as `scenario_runner` does, but
/// with a span around each layer's call.
pub fn prepare(
    problem: &Problem,
    variant: Variant,
    threads: usize,
    coeff: Option<&[f64]>,
    tr: &mut Tracer,
    id: u64,
) -> Result<Prepared, String> {
    let cfg = problem.cfg();
    let tag = problem.name;
    let pipeline = tr.wrap("ir.build", tag, id, || {
        build_scenario_pipeline(&cfg, problem.scenario)
    });
    let mut opts = PipelineOptions::for_variant(variant, problem.ndims);
    opts.threads = threads;
    opts.mixed_precision = problem.mixed;
    let plan = tr
        .wrap("core.compile", tag, id, || {
            polymg::compile_cached(&pipeline, &ParamBindings::new(), opts)
        })
        .map_err(|e| format!("{tag}: compile failed: {e:?}"))?;
    let stats = tr.wrap("core.stats", tag, id, || polymg::report::stats(&plan));
    let runner_cfg = scenario_config(&cfg, problem.scenario);
    let runner = tr.wrap("runtime.engine", tag, id, || {
        let mut runner = DslRunner::from_plan(plan, &runner_cfg);
        if let Some(a) = coeff {
            runner.bind_extra("Ainv", reciprocal_field(a));
            runner.bind_extra("A", a.to_vec());
        }
        runner
    });
    Ok(Prepared {
        problem: *problem,
        cfg,
        runner,
        stats,
        coeff: coeff.map(<[f64]>::to_vec),
        setup_fresh_bytes: 0,
    })
}

/// One solve from v = 0 to the problem's tolerance.
pub struct Solve {
    pub v: Vec<f64>,
    pub cycles: usize,
    pub rel_res: f64,
    pub elapsed_ns: u64,
    /// Bytes the engine allocated fresh over the solve.
    pub fresh_bytes: u64,
}

impl Prepared {
    fn residual(&self, v: &[f64], f: &[f64]) -> f64 {
        let level = self.cfg.levels - 1;
        let (n, h) = (self.cfg.n_at(level), self.cfg.h_at(level));
        match &self.coeff {
            Some(a) => residual_norm_varcoef(self.cfg.ndims, n, h, v, f, a),
            None => residual_norm(self.cfg.ndims, n, h, v, f),
        }
    }

    /// One cycle from v = 0, the last step of cold set-up.
    pub fn first_cycle(&mut self, f: &[f64], tr: &mut Tracer, id: u64) -> Result<(), String> {
        let mut v = vec![0.0; f.len()];
        let tag = self.problem.name;
        let stats = tr
            .wrap("mg.cycle", tag, id, || {
                self.runner.cycle_with_stats(&mut v, f)
            })
            .map_err(|e| format!("{tag}: cycle failed: {e}"))?;
        self.setup_fresh_bytes = stats.fresh_bytes as u64;
        Ok(())
    }

    /// Cycle from v = 0 until ‖r‖/‖r₀‖ < tol or the cycle cap.
    pub fn solve(&mut self, f: &[f64], tr: &mut Tracer, id: u64) -> Result<Solve, String> {
        let tag = self.problem.name;
        let t0 = Instant::now();
        let open = tr.begin("mg.solve", tag, id);
        let mut v = vec![0.0; f.len()];
        let r0 = tr.wrap("mg.residual", tag, id, || self.residual(&v, f));
        let mut rel = 1.0;
        let mut cycles = 0;
        let mut fresh = 0u64;
        while cycles < CYCLE_CAP && rel >= self.problem.tol {
            let stats = tr
                .wrap("mg.cycle", tag, id, || {
                    self.runner.cycle_with_stats(&mut v, f)
                })
                .map_err(|e| format!("{tag}: cycle failed: {e}"))?;
            fresh += stats.fresh_bytes as u64;
            cycles += 1;
            rel = tr.wrap("mg.residual", tag, id, || self.residual(&v, f)) / r0;
        }
        tr.end(open);
        Ok(Solve {
            v,
            cycles,
            rel_res: rel,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
            fresh_bytes: fresh,
        })
    }
}

/// The checks one solve must pass on its own: tolerance within the cap,
/// and for constant problems the max-norm error against the manufactured
/// solution within `2·(π²/12)·h² + amp/8` (twice the leading truncation
/// error of the 5-/7-point Laplacian on `Π sin(πx)`, plus the largest
/// effect the seeded perturbation can have).
pub fn check(problem: &Problem, inputs: &Inputs, s: &Solve) -> Result<(), String> {
    // written so that a NaN residual or error fails the check
    let reached = s.rel_res < problem.tol;
    if !reached {
        return Err(format!(
            "{}: residual reduction {:.3e} misses tol {:.0e} after {} cycles",
            problem.name, s.rel_res, problem.tol, s.cycles
        ));
    }
    if problem.checks_error() {
        let cfg = problem.cfg();
        let h = cfg.h_at(cfg.levels - 1);
        let bound = 2.0 * (std::f64::consts::PI.powi(2) / 12.0) * h * h + inputs.rhs.amp / 8.0;
        let err =
            s.v.iter()
                .zip(&inputs.rhs.exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        let within = err <= bound;
        if !within {
            return Err(format!(
                "{}: max error {err:.3e} exceeds the h²-scaled bound {bound:.3e}",
                problem.name
            ));
        }
    }
    Ok(())
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
