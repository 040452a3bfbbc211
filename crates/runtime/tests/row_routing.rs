//! Row-kernel routing: the kernel for a row comes from the row, not from
//! the stage's classification tag. A constant stage the classifier tags
//! `Generic` (a tap at offset 3 fits no family) must still run the
//! const-arity table at the selection's tier — its case lands in the
//! `lane_safe` (or `fast_math`) bucket of the `kernel_tiers` histogram —
//! and stay bitwise equal to its interpreter twin. One test per file: the
//! dispatch histograms are process-wide.

use gmg_ir::expr::{Access, Expr, Operand};
use gmg_ir::{LinearForm, ParityPattern, Tap};
use gmg_poly::{BoxDomain, Interval};
use gmg_runtime::kernel::{execute_stage_sel, KernelInput, Space, SpaceMut};
use gmg_trace::dispatch;
use polymg::specialize::classify;
use polymg::{KernelBody, KernelCase, KernelImpl, KernelSel, KernelTier, StageKernel};

fn run(
    sel: KernelSel,
    kernel: &StageKernel,
    input: &[f64],
    e: i64,
    region: &BoxDomain,
) -> Vec<f64> {
    let ext = [e, e];
    let origin = [0i64, 0];
    let mut buf = vec![0.0; (e * e) as usize];
    let mut out = SpaceMut {
        data: &mut buf,
        origin: &origin,
        extents: &ext,
    };
    let ins = [KernelInput::Grid(Space {
        data: input,
        origin: &origin,
        extents: &ext,
    })];
    execute_stage_sel(sel, kernel, region, &mut out, &ins, &[0.0]);
    buf
}

#[test]
fn generic_tagged_constant_rows_take_the_arity_table() {
    let offsets: [[i64; 2]; 5] = [[0, 0], [0, 3], [0, -3], [1, 0], [-1, 0]];
    let taps: Vec<Tap> = offsets
        .iter()
        .enumerate()
        .map(|(j, o)| Tap {
            slot: 0,
            access: Access::offsets(o),
            coeff: 0.3 - 0.11 * j as f64,
            cfactor: None,
        })
        .collect();
    let mut twin_expr = Expr::Const(0.25);
    for t in &taps {
        twin_expr = twin_expr + Expr::Const(t.coeff) * Operand::Slot(0).read(t.access.clone());
    }
    let kernel = StageKernel {
        cases: vec![KernelCase {
            pattern: ParityPattern::any(2),
            body: KernelBody::Linear(LinearForm { bias: 0.25, taps }),
        }],
    };
    let twin = StageKernel {
        cases: vec![KernelCase {
            pattern: ParityPattern::any(2),
            body: KernelBody::Interpreted(twin_expr),
        }],
    };
    assert_eq!(classify(&kernel, 2), KernelImpl::Generic);

    let e = 40i64;
    let input: Vec<f64> = (0..e * e)
        .map(|i| ((i * 53) % 97) as f64 * 0.01 - 0.4)
        .collect();
    let region = BoxDomain::new(vec![Interval::new(1, e - 2), Interval::new(3, e - 4)]);

    // what schedule lowering hands an untagged stage
    let sel = KernelSel::generic();
    dispatch::reset();
    let got = run(sel, &kernel, &input, e, &region);
    let tiers = dispatch::tier_snapshot();
    let impls = dispatch::impl_snapshot();
    let kinds = dispatch::snapshot();
    assert_eq!(tiers[KernelTier::LaneSafe.index()], 1, "tiers {tiers:?}");
    assert_eq!(tiers[0], 0, "tiers {tiers:?}");
    assert_eq!(
        impls[KernelImpl::Generic.index()],
        1,
        "the tag stays the label"
    );
    assert_eq!(
        kinds[dispatch::Kind::UnitUnrolled as usize],
        1,
        "kinds {kinds:?}"
    );

    let want = run(KernelSel::generic(), &twin, &input, e, &region);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "flat index {i}: {a} vs {b}");
    }

    // fast-math reaches the untagged stage too
    dispatch::reset();
    let fm = KernelSel {
        tier: KernelTier::FastMath,
        ..sel
    };
    run(fm, &kernel, &input, e, &region);
    let tiers = dispatch::tier_snapshot();
    assert_eq!(tiers[KernelTier::FastMath.index()], 1, "tiers {tiers:?}");
    assert_eq!(tiers[0], 0, "tiers {tiers:?}");
}
