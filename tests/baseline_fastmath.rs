//! On the baseline ISA (no AVX2/FMA, or `GMG_SIMD_ISA=baseline`) the
//! fast-math tier runs the exact row loop, so a `--fast-math` cycle must be
//! bitwise equal to an exact one. The host ISA is detected once per
//! process, so this file holds a single test that pins the baseline branch
//! before any kernel runs.

use gmg_trace::dispatch;
use polymg_repro::compiler::{KernelTier, PipelineOptions, Variant};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::solver::{setup_poisson, DslRunner};

#[test]
fn baseline_fast_math_cycle_is_bitwise_exact() {
    std::env::set_var("GMG_SIMD_ISA", "baseline");
    for ndims in [2usize, 3] {
        let n = if ndims == 2 { 63 } else { 15 };
        let cfg = MgConfig::new(ndims, n, CycleType::V, SmoothSteps::s444());
        let run = |fast_math: bool| {
            let mut opts = PipelineOptions::for_variant(Variant::OptPlus, ndims);
            opts.fast_math = fast_math;
            let mut runner = DslRunner::new(&cfg, opts, "baseline").expect("compile");
            let (mut v, f, _) = setup_poisson(&cfg);
            for _ in 0..2 {
                runner.cycle_with_stats(&mut v, &f).expect("cycle");
            }
            v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let exact = run(false);
        dispatch::reset();
        let fast = run(true);
        // the fast-math tier really dispatched — the equality is not vacuous
        let tiers = dispatch::tier_snapshot();
        assert!(
            tiers[KernelTier::FastMath.index()] > 0,
            "{ndims}-D tiers {tiers:?}"
        );
        assert_eq!(
            exact, fast,
            "{ndims}-D fast-math cycle diverged on the baseline ISA"
        );
    }
}
