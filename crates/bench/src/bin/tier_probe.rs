//! `tier-probe` — microbenchmark of one stencil stage across kernel tiers
//! (lane-safe vs fast-math, flat vs cache-blocked), bypassing the
//! multigrid harness entirely: one 2-D/3-D constant-coefficient stencil
//! over a dense grid, timed per `(tier, xblock)` selection. This is the
//! tool for answering "does fast-math pay on this host's ISA" and "does
//! blocking pay at which row length" without cycle-level noise
//! (`GMG_SIMD_ISA` pins the ISA branch).
//!
//! ```text
//! tier-probe [--n N] [--reps R] [--dims 2|3] [--wide]
//! ```
//!
//! `--wide` switches to the dense-neighborhood operator for the dimension
//! (9-point in 2-D, 27-point in 3-D — the shape Galerkin coarsening
//! produces), which has ~4× the arithmetic intensity of the star stencil.

use gmg_ir::expr::Access;
use gmg_ir::{LinearForm, ParityPattern, Tap};
use gmg_poly::BoxDomain;
use gmg_runtime::kernel::{execute_stage_sel, KernelInput, Space, SpaceMut};
use polymg::specialize::classify;
use polymg::{KernelBody, KernelCase, KernelImpl, KernelSel, KernelTier, StageKernel};
use std::time::Instant;

fn unit_tap(offs: &[i64], coeff: f64) -> Tap {
    Tap {
        slot: 0,
        access: Access::offsets(offs),
        coeff,
        cfactor: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n: i64 = 512;
    let mut reps = 50usize;
    let mut ndims = 2usize;
    let mut wide = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--wide" => wide = true,
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n");
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().expect("--reps");
            }
            "--dims" => {
                i += 1;
                ndims = args[i].parse().expect("--dims");
            }
            other => panic!("unknown arg {other}"),
        }
        i += 1;
    }

    let (offsets, expect): (Vec<Vec<i64>>, KernelImpl) = match (ndims, wide) {
        (2, false) => (
            [[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0]]
                .iter()
                .map(|o| o.to_vec())
                .collect(),
            KernelImpl::Stencil2D5,
        ),
        (2, true) => {
            let mut o = Vec::new();
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    o.push(vec![dy, dx]);
                }
            }
            (o, KernelImpl::Stencil2D9)
        }
        (_, false) => (
            [
                [0, 0, 0],
                [0, 0, 1],
                [0, 0, -1],
                [0, 1, 0],
                [0, -1, 0],
                [1, 0, 0],
                [-1, 0, 0],
            ]
            .iter()
            .map(|o| o.to_vec())
            .collect(),
            KernelImpl::Stencil3D7,
        ),
        (_, true) => {
            let mut o = Vec::new();
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        o.push(vec![dz, dy, dx]);
                    }
                }
            }
            (o, KernelImpl::Stencil3D27)
        }
    };
    let taps: Vec<Tap> = offsets
        .iter()
        .enumerate()
        .map(|(k, o)| unit_tap(o, 0.1 + 0.05 * k as f64))
        .collect();
    let kernel = StageKernel {
        cases: vec![KernelCase {
            pattern: ParityPattern::any(ndims),
            body: KernelBody::Linear(LinearForm { bias: 0.25, taps }),
        }],
    };
    let tag = classify(&kernel, ndims);
    assert_eq!(tag, expect);

    let e = n + 2;
    let extents: Vec<i64> = vec![e; ndims];
    let origin: Vec<i64> = vec![0; ndims];
    let len = extents.iter().product::<i64>() as usize;
    let mut input = vec![0.0f64; len];
    for (i, v) in input.iter_mut().enumerate() {
        *v = (i % 97) as f64 * 0.01;
    }
    let region = BoxDomain::interior(ndims, n);
    let points = (n as f64).powi(ndims as i32);

    let sels: Vec<(String, KernelSel)> = vec![
        (
            "lane_safe".into(),
            KernelSel {
                impl_tag: tag,
                tier: KernelTier::LaneSafe,
                xblock: 0,
            },
        ),
        (
            "lane_safe b128".into(),
            KernelSel {
                impl_tag: tag,
                tier: KernelTier::LaneSafe,
                xblock: 128,
            },
        ),
        (
            "fast_math".into(),
            KernelSel {
                impl_tag: tag,
                tier: KernelTier::FastMath,
                xblock: 0,
            },
        ),
        (
            "fast_math b128".into(),
            KernelSel {
                impl_tag: tag,
                tier: KernelTier::FastMath,
                xblock: 128,
            },
        ),
    ];

    let mut reference: Option<Vec<u64>> = None;
    for (label, sel) in &sels {
        let mut out = vec![0.0f64; len];
        // warm-up + correctness probe
        {
            let mut sp = SpaceMut {
                data: &mut out,
                origin: &origin,
                extents: &extents,
            };
            let ins = [KernelInput::Grid(Space {
                data: &input,
                origin: &origin,
                extents: &extents,
            })];
            execute_stage_sel(*sel, &kernel, &region, &mut sp, &ins, &[0.0]);
        }
        let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => {
                if sel.tier != KernelTier::FastMath {
                    assert_eq!(&bits, r, "{label} diverged bitwise");
                }
            }
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut sp = SpaceMut {
                data: &mut out,
                origin: &origin,
                extents: &extents,
            };
            let ins = [KernelInput::Grid(Space {
                data: &input,
                origin: &origin,
                extents: &extents,
            })];
            execute_stage_sel(*sel, &kernel, &region, &mut sp, &ins, &[0.0]);
            best = best.min(t0.elapsed().as_nanos() as f64 / points);
        }
        println!("{label:<16} best {best:8.3} ns/point");
    }
}
