//! Distributed 2-D Poisson V-/W-cycle with communication aggregation.
//!
//! The finest level is decomposed across ranks ([`RankLayout`]); all
//! coarser levels are agglomerated onto rank 0 and solved by the
//! shared-memory `handopt` recursion (standard practice for small coarse
//! grids — the gather/scatter shows up in [`CommStats::collectives`]).
//!
//! Smoothing uses **deep ghost zones**: with ghost depth `g`, one exchange
//! provides enough halo for `g` Jacobi steps; step `s` of a batch computes
//! the owned rows extended by `g − 1 − s` rows into the halo (redundant
//! work), so after the batch the owned rows are exactly what a global sweep
//! would hold. This is Williams et al.'s communication aggregation, which
//! the paper identifies as "equivalent to overlapped tiling, but applied in
//! a distributed-memory parallelization setting" — depth 1 is the classic
//! exchange-every-step scheme; deeper halos trade redundant flops for
//! fewer, larger messages.
//!
//! The smoother batches are *not* hand-looped: each batch size lowers once
//! into a hand-assembled [`ExecProgram`] (a `HaloExchange` hook op followed
//! by one `RunUntiledStage` per step per rank over the shrinking-halo
//! domain, plus a `CopyLiveOut` parity fix-up for odd batches) and runs on
//! the shared schedule VM ([`gmg_runtime::Engine`]); the `HaloExchange` op
//! calls back into [`crate::halo::exchange_views`] through
//! [`gmg_runtime::ExecHooks`].

// Index-based loops here mirror the math (multi-slice stencil updates); clippy prefers iterators but the indices are the clearer notation.
#![allow(clippy::needless_range_loop)]

use crate::decomp::RankLayout;
use crate::halo::{exchange, exchange_views_chaos, CommStats, HaloError, HaloMeta, SubGrid};
use gmg_ir::expr::Operand;
use gmg_ir::ParityPattern;
use gmg_multigrid::config::{CycleType, MgConfig, SmootherKind};
use gmg_multigrid::handopt::HandOpt;
use gmg_poly::{BoxDomain, Interval};
use gmg_runtime::{Engine, ExecError, ExecHooks, SlotView};
use polymg::schedule::{ExecOp, ExecProgram, OpInput, SlotSpec, StageExec};
use polymg::{ChaosOptions, FaultPlan, KernelBody, KernelCase, StageKernel};
use std::collections::HashMap;
use std::sync::Arc;

/// Distributed 2-D Poisson solver state.
pub struct DistPoisson2D {
    cfg: MgConfig,
    layout: RankLayout,
    ghost_depth: i64,
    /// Per-rank iterate / modulo partner / RHS at the finest level.
    u: Vec<SubGrid>,
    tmp: Vec<SubGrid>,
    rhs: Vec<SubGrid>,
    /// Agglomerated coarse-level solver (levels − 1 of the hierarchy).
    coarse: HandOpt,
    coarse_cfg: MgConfig,
    /// Dense coarse buffers on "rank 0".
    coarse_rhs: Vec<f64>,
    coarse_e: Vec<f64>,
    stats: CommStats,
    /// Redundant halo points computed by aggregated smoothing.
    pub redundant_points: usize,
    /// Schedule-VM engines for the fine-level smoother, keyed by batch size
    /// (steps per exchange), paired with the redundant points one run adds.
    vms: HashMap<usize, (Engine, usize)>,
    /// One fault plan shared by every smoother engine and the halo layer,
    /// so fault decisions and counters stay globally ordered across the
    /// whole distributed run.
    chaos: Arc<FaultPlan>,
}

/// [`ExecHooks`] of the distributed smoother programs: a `HaloExchange` op
/// exchanges the iterate slots through the simulated communication layer.
struct DistHooks<'m> {
    metas: &'m [HaloMeta],
    u_slots: &'m [usize],
    stats: CommStats,
    chaos: &'m FaultPlan,
}

impl ExecHooks for DistHooks<'_> {
    fn halo_exchange(
        &mut self,
        depth: usize,
        slots: &mut SlotView<'_, '_>,
    ) -> Result<(), ExecError> {
        let mut views = slots.many_mut(self.u_slots)?;
        let stats = exchange_views_chaos(self.metas, &mut views, depth as i64, Some(self.chaos))
            .map_err(|e| match e {
                HaloError::RetriesExhausted { attempts, .. } => ExecError::HaloFailed {
                    attempts,
                    detail: e.to_string(),
                },
            })?;
        self.stats.add(stats);
        Ok(())
    }
}

impl DistPoisson2D {
    /// New solver: `p` ranks, ghost depth `g ≥ 1`.
    pub fn new(cfg: MgConfig, p: usize, ghost_depth: i64) -> Self {
        assert_eq!(cfg.ndims, 2, "distributed solver is 2-D");
        assert_eq!(
            cfg.smoother,
            SmootherKind::Jacobi,
            "deep-halo aggregation implemented for Jacobi"
        );
        assert!(cfg.levels >= 2, "need at least one coarse level");
        assert!(ghost_depth >= 1);
        let n = cfg.n_at(cfg.levels - 1);
        let layout = RankLayout::new(n, p);
        let owned = layout.owned.clone();
        let mk = || -> Vec<SubGrid> {
            owned
                .iter()
                .map(|&(lo, hi)| SubGrid::new(lo, hi, ghost_depth, n))
                .collect()
        };
        let mut coarse_cfg = cfg.clone();
        coarse_cfg.levels = cfg.levels - 1;
        coarse_cfg.n = cfg.n_at(cfg.levels - 2);
        let clen = coarse_cfg.alloc_len(coarse_cfg.levels - 1);
        DistPoisson2D {
            coarse: HandOpt::new(coarse_cfg.clone()),
            coarse_cfg,
            layout,
            ghost_depth,
            u: mk(),
            tmp: mk(),
            rhs: mk(),
            cfg,
            coarse_rhs: vec![0.0; clen],
            coarse_e: vec![0.0; clen],
            stats: CommStats::default(),
            redundant_points: 0,
            vms: HashMap::new(),
            chaos: Arc::new(FaultPlan::disabled()),
        }
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Arm (or with `None`, disarm) deterministic fault injection across
    /// the whole distributed stack: one shared plan drives the halo layer
    /// and every smoother engine.
    pub fn set_chaos(&mut self, opts: Option<ChaosOptions>) {
        self.chaos = Arc::new(match opts {
            Some(o) => FaultPlan::new(o),
            None => FaultPlan::disabled(),
        });
        for (engine, _) in self.vms.values_mut() {
            engine.set_fault_plan(self.chaos.clone());
        }
    }

    /// The shared fault plan (disabled by default) — read its counters to
    /// see what fired and what was recovered.
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.chaos
    }

    /// One multigrid cycle: `v ← cycle(v, f)` on dense global buffers
    /// (scattered to ranks, gathered back — counted as collectives, as a
    /// real driver would only do once per solve, not per cycle; callers
    /// benchmarking communication should use the per-cycle deltas of
    /// [`Self::stats`] minus the scatter/gather of this convenience entry).
    pub fn cycle(&mut self, v: &mut [f64], f: &[f64]) -> Result<(), ExecError> {
        for g in self.u.iter_mut() {
            g.load_owned(v);
        }
        for g in self.rhs.iter_mut() {
            g.load_owned(f);
        }
        self.stats.collectives += 2;
        // rhs halo: smoothing in the halo region needs rhs there too
        self.stats.add(exchange(&mut self.rhs, self.ghost_depth));

        let shape = self.cfg.cycle;
        self.run_cycle(shape)?;

        for g in &self.u {
            g.store_owned(v);
        }
        self.stats.collectives += 1;
        Ok(())
    }

    fn run_cycle(&mut self, shape: CycleType) -> Result<(), ExecError> {
        let steps = self.cfg.steps;
        // pre-smoothing with aggregation
        self.smooth(steps.pre)?;
        // residual into tmp (owned rows; needs u halo 1)
        self.exchange_u(1);
        self.residual_into_tmp();
        // restrict to agglomerated coarse rhs (needs tmp halo 1)
        self.stats.add(exchange(&mut self.tmp, 1));
        self.gather_restrict();
        // coarse solve (rank 0): first visit from zero guess
        self.coarse_e.fill(0.0);
        let rhs = std::mem::take(&mut self.coarse_rhs);
        let mut e = std::mem::take(&mut self.coarse_e);
        self.coarse.cycle(&mut e, &rhs);
        if matches!(shape, CycleType::W | CycleType::F) {
            // second coarse visit, same semantics as the shared-memory code
            self.coarse.cycle(&mut e, &rhs);
        }
        self.coarse_rhs = rhs;
        self.coarse_e = e;
        // scatter + interpolate + correct
        self.scatter_interp_correct();
        // post-smoothing
        self.smooth(steps.post)
    }

    /// Aggregated smoothing: batches of up to `g` steps per exchange, each
    /// batch executed as one schedule-VM program.
    fn smooth(&mut self, steps: usize) -> Result<(), ExecError> {
        let g = self.ghost_depth as usize;
        let mut done = 0usize;
        while done < steps {
            let batch = g.min(steps - done);
            self.smooth_batch_vm(batch)?;
            done += batch;
        }
        Ok(())
    }

    fn exchange_u(&mut self, depth: i64) {
        self.stats.add(exchange(&mut self.u, depth));
    }

    /// Slot ids of the per-rank triples `(u, tmp, rhs)`.
    fn slot_u(r: usize) -> usize {
        3 * r
    }
    fn slot_tmp(r: usize) -> usize {
        3 * r + 1
    }
    fn slot_rhs(r: usize) -> usize {
        3 * r + 2
    }

    /// Lower one smoother batch into an [`ExecProgram`]: an exchange hook
    /// op, then per step per rank one untiled Jacobi sweep over the
    /// shrinking-halo domain, then (odd batches) a `CopyLiveOut` moving the
    /// final iterate from the modulo partner back into `u`. Returns the
    /// program and the redundant halo points one run computes.
    fn build_batch_program(&self, batch: usize) -> (ExecProgram, usize) {
        let n = self.cfg.n_at(self.cfg.levels - 1);
        let h = self.cfg.h_at(self.cfg.levels - 1);
        let w = self.cfg.omega * h * h / 4.0;
        let inv_h2 = 1.0 / (h * h);
        let e = (n + 2) as usize;
        let nranks = self.layout.num_ranks();

        let mut slots = Vec::with_capacity(3 * nranks);
        for (r, g) in self.u.iter().enumerate() {
            for tag in ["u", "tmp", "rhs"] {
                slots.push(SlotSpec {
                    name: format!("{tag}{r}"),
                    origin: vec![g.first_row, 0],
                    extents: vec![g.stored_rows(), n + 2],
                    boundary: 0.0,
                    external: true,
                });
            }
        }

        // Same per-point expression (and evaluation order) as a global
        // Jacobi sweep, so distributed results stay bitwise identical:
        //   a = (4·u − u_W − u_E − u_N − u_S) · h⁻²;  u − ω·h²/4 · (a − f)
        let u = Operand::Slot(0);
        let f = Operand::Slot(1);
        let a =
            (4.0 * u.at(&[0, 0]) - u.at(&[0, -1]) - u.at(&[0, 1]) - u.at(&[-1, 0]) - u.at(&[1, 0]))
                * inv_h2;
        let expr = u.at(&[0, 0]) - w * (a - f.at(&[0, 0]));
        let kernels = vec![StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Interpreted(expr),
            }],
        }];

        let mut ops = vec![ExecOp::HaloExchange { depth: batch }];
        let mut redundant = 0usize;
        for s in 0..batch {
            let shrink = (batch - 1 - s) as i64;
            for r in 0..nranks {
                let (lo, hi) = self.layout.rows(r);
                let ylo = (lo - shrink).max(1);
                let yhi = (hi + shrink).min(n);
                // even steps read u and write tmp; odd steps the reverse
                let (src, dst) = if s % 2 == 0 {
                    (Self::slot_u(r), Self::slot_tmp(r))
                } else {
                    (Self::slot_tmp(r), Self::slot_u(r))
                };
                ops.push(ExecOp::RunUntiledStage {
                    stage: StageExec {
                        name: format!("jacobi.s{s}.r{r}"),
                        kernel: 0,
                        domain: BoxDomain::new(vec![Interval::new(ylo, yhi), Interval::new(1, n)]),
                        boundary: 0.0,
                        ins: vec![
                            OpInput::Slot {
                                slot: src,
                                boundary: 0.0,
                            },
                            OpInput::Slot {
                                slot: Self::slot_rhs(r),
                                boundary: 0.0,
                            },
                        ],
                        slot: Some(dst),
                        impl_tag: polymg::KernelImpl::Generic,
                        tier: polymg::KernelTier::LaneSafe,
                        xblock: 0,
                    },
                });
                redundant += ((yhi - ylo + 1) - (hi - lo + 1)).max(0) as usize * e;
            }
        }
        if batch % 2 == 1 {
            // the final iterate landed in tmp: copy the owned rows (full
            // width, matching the old buffer swap) back into u
            for r in 0..nranks {
                let (lo, hi) = self.layout.rows(r);
                ops.push(ExecOp::CopyLiveOut {
                    src: Self::slot_tmp(r),
                    dst: Self::slot_u(r),
                    region: BoxDomain::new(vec![Interval::new(lo, hi), Interval::new(0, n + 1)]),
                });
            }
        }

        (
            ExecProgram {
                name: format!("dist-jacobi-b{batch}"),
                slots,
                kernels,
                ops,
                pooled: false,
                threads: 0,
            },
            redundant,
        )
    }

    /// Run one `batch`-step smoother program on the shared VM.
    fn smooth_batch_vm(&mut self, batch: usize) -> Result<(), ExecError> {
        if !self.vms.contains_key(&batch) {
            let (program, redundant) = self.build_batch_program(batch);
            let mut engine = Engine::from_program(program);
            engine.set_fault_plan(self.chaos.clone());
            self.vms.insert(batch, (engine, redundant));
        }
        let Some((mut engine, redundant)) = self.vms.remove(&batch) else {
            return Err(ExecError::PlanViolation(
                "smoother VM missing right after insertion",
            ));
        };

        let nranks = self.layout.num_ranks();
        let metas: Vec<HaloMeta> = self.u.iter().map(HaloMeta::of).collect();
        let u_slots: Vec<usize> = (0..nranks).map(Self::slot_u).collect();
        let names: Vec<[String; 3]> = (0..nranks)
            .map(|r| [format!("u{r}"), format!("tmp{r}"), format!("rhs{r}")])
            .collect();

        let mut outputs: Vec<(&str, &mut [f64])> = Vec::with_capacity(2 * nranks);
        for (r, (gu, gt)) in self.u.iter_mut().zip(self.tmp.iter_mut()).enumerate() {
            outputs.push((&names[r][0], gu.data.as_mut_slice()));
            outputs.push((&names[r][1], gt.data.as_mut_slice()));
        }
        let inputs: Vec<(&str, &[f64])> = self
            .rhs
            .iter()
            .enumerate()
            .map(|(r, g)| (names[r][2].as_str(), g.data.as_slice()))
            .collect();

        let mut hooks = DistHooks {
            metas: &metas,
            u_slots: &u_slots,
            stats: CommStats::default(),
            chaos: &self.chaos,
        };
        let run = engine.run_with_hooks(&inputs, outputs, &mut hooks);
        // the engine goes back even when the run failed: a contained fault
        // must leave the solver reusable
        self.stats.add(hooks.stats);
        self.vms.insert(batch, (engine, redundant));
        run?;
        self.redundant_points += redundant;
        Ok(())
    }

    /// `tmp ← rhs − A·u` on owned rows.
    fn residual_into_tmp(&mut self) {
        let n = self.cfg.n_at(self.cfg.levels - 1);
        let h = self.cfg.h_at(self.cfg.levels - 1);
        let inv_h2 = 1.0 / (h * h);
        for r in 0..self.layout.num_ranks() {
            let (lo, hi) = self.layout.rows(r);
            let src = &self.u[r];
            let rh = &self.rhs[r];
            let dst = &mut self.tmp[r];
            for y in lo..=hi {
                let up = src.row(y - 1);
                let mid = src.row(y);
                let dn = src.row(y + 1);
                let rr = rh.row(y);
                let out = dst.row_mut(y);
                for x in 1..=n as usize {
                    let a = (4.0 * mid[x] - mid[x - 1] - mid[x + 1] - up[x] - dn[x]) * inv_h2;
                    out[x] = rr[x] - a;
                }
            }
        }
    }

    /// Full-weighting restriction of `tmp` into the rank-0 coarse RHS
    /// (gather collective).
    fn gather_restrict(&mut self) {
        let nc = self.coarse_cfg.n_at(self.coarse_cfg.levels - 1);
        let ec = (nc + 2) as usize;
        self.coarse_rhs.fill(0.0);
        for yc in 1..=nc {
            let yf = 2 * yc;
            let r = self.layout.rank_of(yf);
            let g = &self.tmp[r];
            let (um, mm, dm) = (g.row(yf - 1), g.row(yf), g.row(yf + 1));
            let out = &mut self.coarse_rhs[yc as usize * ec..(yc as usize + 1) * ec];
            for xc in 1..=nc as usize {
                let xf = 2 * xc;
                out[xc] = (um[xf - 1]
                    + um[xf + 1]
                    + dm[xf - 1]
                    + dm[xf + 1]
                    + 2.0 * (um[xf] + dm[xf] + mm[xf - 1] + mm[xf + 1])
                    + 4.0 * mm[xf])
                    / 16.0;
            }
        }
        self.stats.collectives += 1;
        self.stats.doubles += (nc as usize) * ec;
    }

    /// Scatter the coarse correction and apply bilinear interp + correction
    /// on owned rows.
    fn scatter_interp_correct(&mut self) {
        let n = self.cfg.n_at(self.cfg.levels - 1);
        let nc = self.coarse_cfg.n_at(self.coarse_cfg.levels - 1);
        let ec = (nc + 2) as usize;
        let coarse = &self.coarse_e;
        self.stats.collectives += 1;
        for r in 0..self.layout.num_ranks() {
            let (lo, hi) = self.layout.rows(r);
            // a real scatter ships coarse rows ⌊(lo−1)/2⌋ … ⌈(hi+1)/2⌉
            self.stats.doubles += (((hi + 1) / 2 + 1) - ((lo - 1) / 2) + 1).max(0) as usize * ec;
            let g = &mut self.u[r];
            for y in lo..=hi {
                let ys: &[usize] = &if y % 2 == 0 {
                    vec![(y / 2) as usize]
                } else {
                    vec![((y - 1) / 2) as usize, ((y + 1) / 2) as usize]
                };
                let out = g.row_mut(y);
                for x in 1..=n as usize {
                    let xs: &[usize] = &if x % 2 == 0 {
                        vec![x / 2]
                    } else {
                        vec![(x - 1) / 2, x.div_ceil(2)]
                    };
                    let mut acc = 0.0;
                    for &yc in ys {
                        for &xc in xs {
                            acc += coarse[yc * ec + xc];
                        }
                    }
                    out[x] += acc / (ys.len() * xs.len()) as f64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::SmoothSteps;
    use gmg_multigrid::solver::setup_poisson;

    fn cfg() -> MgConfig {
        MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444())
    }

    /// The distributed solver computes exactly the shared-memory result,
    /// for several rank counts and ghost depths.
    #[test]
    fn matches_shared_memory_exactly() {
        let cfg = cfg();
        let (v0, f, _) = setup_poisson(&cfg);
        let mut reference = v0.clone();
        let mut hand = HandOpt::new(cfg.clone());
        hand.cycle(&mut reference, &f);
        hand.cycle(&mut reference, &f);

        for p in [1usize, 2, 3, 4] {
            for g in [1i64, 2, 4] {
                let mut dist = DistPoisson2D::new(cfg.clone(), p, g);
                let mut v = v0.clone();
                dist.cycle(&mut v, &f).unwrap();
                dist.cycle(&mut v, &f).unwrap();
                let dev = v
                    .iter()
                    .zip(&reference)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    dev < 1e-13,
                    "p={p} g={g}: deviation {dev} from shared-memory"
                );
            }
        }
    }

    /// W-cycles agree too (two agglomerated coarse visits).
    #[test]
    fn wcycle_matches() {
        let cfg = MgConfig::new(2, 63, CycleType::W, SmoothSteps::s444());
        let (v0, f, _) = setup_poisson(&cfg);
        let mut reference = v0.clone();
        HandOpt::new(cfg.clone()).cycle(&mut reference, &f);
        let mut dist = DistPoisson2D::new(cfg.clone(), 3, 2);
        let mut v = v0;
        dist.cycle(&mut v, &f).unwrap();
        let dev = v
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(dev < 1e-13, "deviation {dev}");
    }

    /// Communication aggregation: deeper ghosts ⇒ fewer messages but more
    /// redundant computation; total exchanged volume for smoothing is
    /// roughly preserved.
    #[test]
    fn aggregation_trades_messages_for_redundancy() {
        let cfg = cfg();
        let (v0, f, _) = setup_poisson(&cfg);
        let run = |g: i64| {
            let mut d = DistPoisson2D::new(cfg.clone(), 4, g);
            let mut v = v0.clone();
            d.cycle(&mut v, &f).unwrap();
            (d.stats(), d.redundant_points)
        };
        let (s1, r1) = run(1);
        let (s4, r4) = run(4);
        assert!(
            s4.messages < s1.messages,
            "depth 4 should send fewer messages: {} vs {}",
            s4.messages,
            s1.messages
        );
        assert!(r1 == 0, "depth 1 does no redundant smoothing");
        assert!(r4 > 0, "depth 4 must recompute halo rows");
    }

    /// Convergence is unaffected by distribution (it is the same math).
    #[test]
    fn converges_like_shared_memory() {
        let mut cfg = cfg();
        cfg.steps = SmoothSteps {
            pre: 3,
            coarse: 60,
            post: 3,
        };
        let (mut v, f, _) = setup_poisson(&cfg);
        let mut dist = DistPoisson2D::new(cfg.clone(), 4, 2);
        let n = cfg.n_at(cfg.levels - 1);
        let h = cfg.h_at(cfg.levels - 1);
        let r0 = gmg_multigrid::solver::residual_norm(2, n, h, &v, &f);
        for _ in 0..5 {
            dist.cycle(&mut v, &f).unwrap();
        }
        let r5 = gmg_multigrid::solver::residual_norm(2, n, h, &v, &f);
        assert!(r5 < r0 * 1e-3, "{r0} → {r5}");
    }

    /// Injected halo faults (drops + short reads) are recovered by retry:
    /// the cycle succeeds and its result is bitwise-identical to the
    /// fault-free run.
    #[test]
    fn halo_chaos_recovers_bitwise() {
        let cfg = cfg();
        let (v0, f, _) = setup_poisson(&cfg);
        let mut clean = v0.clone();
        DistPoisson2D::new(cfg.clone(), 3, 2)
            .cycle(&mut clean, &f)
            .unwrap();

        let mut dist = DistPoisson2D::new(cfg.clone(), 3, 2);
        dist.set_chaos(Some(
            ChaosOptions::new(42, 0.3).with_sites(polymg::chaos::SITE_HALO),
        ));
        let mut v = v0;
        dist.cycle(&mut v, &f)
            .expect("halo faults must be recovered");
        assert_eq!(v, clean, "recovered run must match fault-free bitwise");
        let snap = dist.fault_plan().snapshot();
        assert!(snap.total_fired() > 0, "this seed/rate must actually fire");
        assert_eq!(snap.total_fired(), snap.total_recovered());
    }
}
