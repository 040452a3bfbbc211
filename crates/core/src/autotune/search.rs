//! Seeded evolutionary search over the extended tuning space.
//!
//! The §3.2.4 sweep evaluates every tile/group combination — 80 points in
//! 2-D, 135 in 3-D — and each evaluation is a real multigrid solve, so the
//! sweep is exactly what a serving fleet cannot afford. This module
//! replaces it with a small memetic (μ+λ)-style evolutionary search in the
//! spirit of Schmitt et al. 2019: tournament selection, one-point crossover
//! and per-field neighbor mutation over a genome of axis *indices*, plus an
//! elitist coordinate line-scan of the incumbent best (one axis per
//! generation) that guarantees the lattice optimum on separable metric
//! surfaces — all under a hard evaluation budget of ≤ 25% of the
//! corresponding sweep.
//!
//! Determinism contract: every decision the search makes — seeding,
//! parent selection, crossover points, mutations, dedup order — is driven
//! by a [splitmix64] stream from [`SearchParams::seed`] and by the order of
//! reported metrics. No wall clock, no global RNG. Same seed + same metric
//! sequence ⇒ identical candidate trajectory, which is what makes the
//! server's online tuner and this crate's proptests reproducible.
//!
//! The genome covers the paper's two axes plus two new ones:
//! `smooth_band` (the diamond-tile time-band height — schedule-only, like
//! tiles and grouping) and the kernel tier. The fast-math tier reassociates
//! and therefore changes results bitwise, so the tier axis only exists when
//! the caller sets [`SearchParams::allow_fast_math`] — the server does that
//! only for sessions that already opted in.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::collections::{BTreeSet, VecDeque};

use super::{TuneConfig, TuneError, TuneSample, GROUP_LIMITS};
use crate::specialize::KernelTier;

/// Smoother time-band heights explored by the search (the "smoother steps"
/// scheduling axis; maps onto `PipelineOptions::dtile_band`).
pub const SMOOTH_BANDS: [usize; 4] = [1, 2, 4, 8];

/// splitmix64 — tiny, seedable, and good enough for search decisions.
#[derive(Clone, Debug)]
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u32) -> bool {
        (self.next_u64() % 100) < u64::from(pct)
    }
}

/// One ordered axis of the search lattice.
#[derive(Clone, Debug)]
enum Axis {
    Tile(Vec<i64>),
    Group(Vec<usize>),
    Band(Vec<usize>),
    Tier(Vec<KernelTier>),
}

impl Axis {
    fn len(&self) -> usize {
        match self {
            Axis::Tile(v) => v.len(),
            Axis::Group(v) => v.len(),
            Axis::Band(v) => v.len(),
            Axis::Tier(v) => v.len(),
        }
    }
}

fn axes_for(ndims: usize, allow_fast_math: bool) -> Result<Vec<Axis>, TuneError> {
    let mut axes: Vec<Axis> = match ndims {
        2 => vec![
            Axis::Tile(vec![8, 16, 32, 64]),
            Axis::Tile(vec![64, 128, 256, 512]),
        ],
        3 => vec![
            Axis::Tile(vec![8, 16, 32]),
            Axis::Tile(vec![8, 16, 32]),
            Axis::Tile(vec![64, 128, 256]),
        ],
        other => return Err(TuneError::UnsupportedRank(other)),
    };
    axes.push(Axis::Group(GROUP_LIMITS.to_vec()));
    axes.push(Axis::Band(SMOOTH_BANDS.to_vec()));
    // the tier axis is the fast-math choice: it exists only where
    // fast-math numerics are allowed
    if allow_fast_math {
        axes.push(Axis::Tier(KernelTier::ALL.to_vec()));
    }
    Ok(axes)
}

/// Knobs of the evolutionary search. [`SearchParams::for_rank`] gives the
/// defaults used everywhere in-tree; they are tuned so the budget stays at
/// 25% of the §3.2.4 sweep for the same rank.
#[derive(Clone, Debug)]
pub struct SearchParams {
    /// Seed of the decision stream. Two searches with the same seed over
    /// the same metric emit identical candidate sequences.
    pub seed: u64,
    /// Generation size (gen-0 is seeded with the default configuration and
    /// the two lattice corners before random fill).
    pub population: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-axis mutation probability in percent.
    pub mutation_pct: u32,
    /// Hard evaluation budget; [`EvoSearch::next_candidate`] returns `None`
    /// once it is spent.
    pub max_evals: usize,
    /// Whether the fast-math kernel tier is part of the space. Keep this
    /// off unless the consumer already opted into fast-math numerics.
    pub allow_fast_math: bool,
}

impl SearchParams {
    /// Defaults for a rank: budget = 25% of the corresponding sweep
    /// (80 → 20 evaluations in 2-D, 135 → 33 in 3-D).
    pub fn for_rank(ndims: usize) -> Result<SearchParams, TuneError> {
        let max_evals = match ndims {
            2 => 20,
            3 => 33,
            other => return Err(TuneError::UnsupportedRank(other)),
        };
        Ok(SearchParams {
            seed: 0x5eed_0001,
            population: 6,
            tournament: 3,
            mutation_pct: 40,
            max_evals,
            allow_fast_math: false,
        })
    }

    pub fn with_seed(mut self, seed: u64) -> SearchParams {
        self.seed = seed;
        self
    }

    pub fn with_budget(mut self, max_evals: usize) -> SearchParams {
        self.max_evals = max_evals;
        self
    }

    pub fn with_fast_math(mut self, allow: bool) -> SearchParams {
        self.allow_fast_math = allow;
        self
    }
}

/// Result of a completed [`search`] run.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best configuration found and its metric.
    pub best: TuneSample,
    /// Configurations actually evaluated.
    pub evals: usize,
    /// Every evaluation in order (the "candidate trajectory" the
    /// determinism proptests compare).
    pub trajectory: Vec<TuneSample>,
}

/// Stepwise ask/tell evolutionary search. The server's online tuner drives
/// this one trial at a time between requests; [`search`] wraps it into a
/// synchronous loop for offline use.
#[derive(Clone, Debug)]
pub struct EvoSearch {
    params: SearchParams,
    axes: Vec<Axis>,
    rng: Rng,
    /// Candidates proposed but not yet reported/discarded.
    pending: VecDeque<Vec<usize>>,
    /// Every genome ever proposed (dedup set; discarded genomes stay here
    /// so a faulted configuration is not proposed twice).
    seen: BTreeSet<Vec<usize>>,
    /// Reported `(genome, metric)` pairs, in report order.
    evaluated: Vec<(Vec<usize>, f64)>,
    /// Next axis of the memetic line-scan pass (== `axes.len()` once the
    /// pass is complete and GA breeding has taken over).
    scan_axis: usize,
    space: usize,
}

impl EvoSearch {
    pub fn new(ndims: usize, params: SearchParams) -> Result<EvoSearch, TuneError> {
        let axes = axes_for(ndims, params.allow_fast_math)?;
        let space = axes.iter().map(Axis::len).product();
        let mut s = EvoSearch {
            rng: Rng::new(params.seed),
            params,
            axes,
            pending: VecDeque::new(),
            seen: BTreeSet::new(),
            evaluated: Vec::new(),
            scan_axis: 0,
            space,
        };
        s.seed_generation_zero();
        Ok(s)
    }

    /// Gen-0: the deployed default configuration first (so the search's
    /// baseline is always measured), then the two lattice corners, then
    /// random fill — all deduplicated.
    fn seed_generation_zero(&mut self) {
        let default_genome = self.encode(&TuneConfig::new(
            crate::options::default_tiles(self.ndims()),
            6, // PipelineOptions default group_limit
        ));
        let lo = vec![0usize; self.axes.len()];
        let hi: Vec<usize> = self.axes.iter().map(|a| a.len() - 1).collect();
        for g in [default_genome, lo, hi] {
            self.propose(g);
        }
        let mut guard = 0;
        while self.pending.len() < self.params.population && guard < 1000 {
            let g = self.random_genome();
            self.propose(g);
            guard += 1;
        }
    }

    fn ndims(&self) -> usize {
        self.axes
            .iter()
            .filter(|a| matches!(a, Axis::Tile(_)))
            .count()
    }

    fn random_genome(&mut self) -> Vec<usize> {
        let mut g = Vec::with_capacity(self.axes.len());
        for i in 0..self.axes.len() {
            let n = self.axes[i].len();
            g.push(self.rng.below(n));
        }
        g
    }

    fn propose(&mut self, genome: Vec<usize>) -> bool {
        if self.seen.insert(genome.clone()) {
            self.pending.push_back(genome);
            true
        } else {
            false
        }
    }

    fn decode(&self, genome: &[usize]) -> TuneConfig {
        let mut tiles = Vec::new();
        let mut group = 6;
        let mut band = 4;
        let mut tier = KernelTier::LaneSafe;
        for (axis, &idx) in self.axes.iter().zip(genome) {
            match axis {
                Axis::Tile(v) => tiles.push(v[idx]),
                Axis::Group(v) => group = v[idx],
                Axis::Band(v) => band = v[idx],
                Axis::Tier(v) => tier = v[idx],
            }
        }
        TuneConfig {
            tile_sizes: tiles,
            group_limit: group,
            smooth_band: band,
            tier,
        }
    }

    /// Inverse of [`decode`](EvoSearch::decode). Panics if the config is
    /// not on the lattice — callers must only hand back configs this search
    /// emitted.
    fn encode(&self, cfg: &TuneConfig) -> Vec<usize> {
        let mut genome = Vec::with_capacity(self.axes.len());
        let mut t = 0usize;
        for axis in &self.axes {
            let idx = match axis {
                Axis::Tile(v) => {
                    let i = v
                        .iter()
                        .position(|&x| x == cfg.tile_sizes[t])
                        .expect("tile size off the search lattice");
                    t += 1;
                    i
                }
                Axis::Group(v) => v
                    .iter()
                    .position(|&x| x == cfg.group_limit)
                    .expect("group limit off the search lattice"),
                Axis::Band(v) => v
                    .iter()
                    .position(|&x| x == cfg.smooth_band)
                    .expect("smooth band off the search lattice"),
                Axis::Tier(v) => v
                    .iter()
                    .position(|&x| x == cfg.tier)
                    .expect("kernel tier off the search lattice"),
            };
            genome.push(idx);
        }
        genome
    }

    /// Next configuration to measure, or `None` when the evaluation budget
    /// or the whole lattice is exhausted.
    pub fn next_candidate(&mut self) -> Option<TuneConfig> {
        if self.evaluated.len() >= self.params.max_evals {
            return None;
        }
        if self.pending.is_empty() {
            self.breed();
        }
        let genome = self.pending.pop_front()?;
        Some(self.decode(&genome))
    }

    /// Breed the next generation from everything evaluated so far.
    fn breed(&mut self) {
        if self.seen.len() >= self.space {
            return; // lattice exhausted
        }
        if self.evaluated.is_empty() {
            // nothing reported yet (everything discarded?) — refill randomly
            let mut guard = 0;
            while self.pending.is_empty() && guard < 1000 {
                let g = self.random_genome();
                self.propose(g);
                guard += 1;
            }
            return;
        }
        // Memetic line-scan pass before GA breeding: coordinate descent over
        // the incumbent best, one full axis per generation (the incumbent is
        // re-read between lines, so improvements recenter the scan). On a
        // separable metric surface one pass reaches the lattice optimum in
        // at most Σ(axis length − 1) evaluations past gen-0 — which is what
        // keeps the default budget (25% of the §3.2.4 sweep) sufficient to
        // match the full sweep. The GA below then spends any remaining
        // budget on cross-axis interactions the scan cannot see.
        while self.scan_axis < self.axes.len() {
            let incumbent = self
                .evaluated
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0
                .clone();
            let axis = self.scan_axis;
            self.scan_axis += 1;
            let mut any = false;
            for idx in 0..self.axes[axis].len() {
                let mut g = incumbent.clone();
                g[axis] = idx;
                any |= self.propose(g);
            }
            if any {
                return;
            }
        }
        let want = self.params.population.min(self.space - self.seen.len());
        let mut attempts = 0;
        while self.pending.len() < want && attempts < 200 {
            attempts += 1;
            let a = self.tournament();
            let b = self.tournament();
            let mut child = self.crossover(&a, &b);
            self.mutate(&mut child);
            self.propose(child);
        }
        // rng-driven breeding may stall near exhaustion: deterministically
        // scan the lattice for any unseen genome so the budget is usable
        if self.pending.is_empty() {
            let mut cursor = vec![0usize; self.axes.len()];
            loop {
                if !self.seen.contains(&cursor) {
                    self.propose(cursor.clone());
                    break;
                }
                // odometer increment; done when it wraps
                let mut i = 0;
                loop {
                    if i == self.axes.len() {
                        return;
                    }
                    cursor[i] += 1;
                    if cursor[i] < self.axes[i].len() {
                        break;
                    }
                    cursor[i] = 0;
                    i += 1;
                }
            }
        }
    }

    /// Tournament selection: best (lowest metric) of `k` random evaluated
    /// genomes.
    fn tournament(&mut self) -> Vec<usize> {
        let k = self.params.tournament.max(1);
        let mut best: Option<usize> = None;
        for _ in 0..k {
            let i = self.rng.below(self.evaluated.len());
            best = Some(match best {
                None => i,
                Some(j) if self.evaluated[i].1 < self.evaluated[j].1 => i,
                Some(j) => j,
            });
        }
        self.evaluated[best.unwrap()].0.clone()
    }

    /// One-point crossover.
    fn crossover(&mut self, a: &[usize], b: &[usize]) -> Vec<usize> {
        let cut = 1 + self.rng.below(a.len() - 1);
        let mut child = a[..cut].to_vec();
        child.extend_from_slice(&b[cut..]);
        child
    }

    /// Per-field neighbor mutation: each axis independently steps ±1 along
    /// its ordered domain with probability `mutation_pct`%, clamped by
    /// reflecting at the ends.
    fn mutate(&mut self, genome: &mut [usize]) {
        for (i, g) in genome.iter_mut().enumerate() {
            if !self.rng.chance(self.params.mutation_pct) {
                continue;
            }
            let n = self.axes[i].len();
            if n == 1 {
                continue;
            }
            let up = self.rng.chance(50);
            *g = if up {
                if *g + 1 < n {
                    *g + 1
                } else {
                    *g - 1
                }
            } else if *g > 0 {
                *g - 1
            } else {
                *g + 1
            };
        }
    }

    /// Report the measured metric for a candidate from
    /// [`next_candidate`](EvoSearch::next_candidate) (lower is better).
    pub fn report(&mut self, cfg: &TuneConfig, metric: f64) {
        let genome = self.encode(cfg);
        self.evaluated.push((genome, metric));
    }

    /// Drop a candidate without a metric (e.g. its trial faulted). The
    /// configuration stays in the dedup set and is not proposed again.
    pub fn discard(&mut self, _cfg: &TuneConfig) {
        // nothing to do: the genome was already removed from `pending` and
        // remains in `seen`; the method exists to make call sites explicit
    }

    /// Put a candidate back at the front of the queue (e.g. to retry a
    /// trial that failed for reasons unrelated to the configuration).
    pub fn requeue(&mut self, cfg: &TuneConfig) {
        let genome = self.encode(cfg);
        self.pending.push_front(genome);
    }

    /// Number of metrics reported so far.
    pub fn evals(&self) -> usize {
        self.evaluated.len()
    }

    /// Whether the search will emit no further candidates.
    pub fn finished(&mut self) -> bool {
        if self.evaluated.len() >= self.params.max_evals {
            return true;
        }
        if !self.pending.is_empty() {
            return false;
        }
        self.breed();
        self.pending.is_empty()
    }

    /// Best evaluated configuration so far.
    pub fn best(&self) -> Option<TuneSample> {
        self.evaluated
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(g, m)| TuneSample {
                config: self.decode(g),
                metric: *m,
            })
    }
}

/// Run the search to completion against a synchronous evaluator.
pub fn search(
    ndims: usize,
    params: &SearchParams,
    mut eval: impl FnMut(&TuneConfig) -> f64,
) -> Result<SearchOutcome, TuneError> {
    let mut s = EvoSearch::new(ndims, params.clone())?;
    let mut trajectory = Vec::new();
    while let Some(cfg) = s.next_candidate() {
        let metric = eval(&cfg);
        s.report(&cfg, metric);
        trajectory.push(TuneSample {
            config: cfg,
            metric,
        });
    }
    let best = s.best().ok_or(TuneError::EmptySpace)?;
    Ok(SearchOutcome {
        best,
        evals: trajectory.len(),
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface(cfg: &TuneConfig) -> f64 {
        // separable convex bowl centered off the default configuration
        let mut m = 0.0;
        m += ((cfg.tile_sizes[0] - 16).abs() as f64) / 8.0;
        m += ((cfg.tile_sizes[cfg.tile_sizes.len() - 1] - 128).abs() as f64) / 64.0;
        m += (cfg.group_limit as f64 - 8.0).abs();
        m += (cfg.smooth_band as f64 - 2.0).abs();
        m += match cfg.tier {
            KernelTier::LaneSafe => 0.0,
            _ => 1.0,
        };
        m
    }

    #[test]
    fn rejects_unsupported_rank() {
        let p = SearchParams::for_rank(2).unwrap();
        assert!(matches!(
            EvoSearch::new(5, p),
            Err(TuneError::UnsupportedRank(5))
        ));
        assert!(matches!(
            SearchParams::for_rank(1),
            Err(TuneError::UnsupportedRank(1))
        ));
    }

    #[test]
    fn budget_is_respected_and_best_is_min_of_trajectory() {
        for ndims in [2usize, 3] {
            let params = SearchParams::for_rank(ndims).unwrap();
            let out = search(ndims, &params, surface).unwrap();
            assert!(out.evals <= params.max_evals);
            assert_eq!(out.evals, out.trajectory.len());
            let min = out
                .trajectory
                .iter()
                .map(|s| s.metric)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(out.best.metric, min);
        }
    }

    #[test]
    fn first_candidate_is_the_deployed_default() {
        let mut s = EvoSearch::new(2, SearchParams::for_rank(2).unwrap()).unwrap();
        let first = s.next_candidate().unwrap();
        assert_eq!(first, TuneConfig::new(vec![32, 512], 6));
        let mut s3 = EvoSearch::new(3, SearchParams::for_rank(3).unwrap()).unwrap();
        assert_eq!(
            s3.next_candidate().unwrap(),
            TuneConfig::new(vec![16, 16, 128], 6)
        );
    }

    #[test]
    fn fast_math_only_explored_when_allowed() {
        let params = SearchParams::for_rank(2).unwrap().with_budget(80);
        let out = search(2, &params, surface).unwrap();
        assert!(out
            .trajectory
            .iter()
            .all(|s| s.config.tier != KernelTier::FastMath));

        let fm = params.clone().with_fast_math(true);
        let out = search(2, &fm, |c| surface(c) * 0.5).unwrap();
        // with the tier axis open and a generous budget the tier must
        // actually be explored
        assert!(out
            .trajectory
            .iter()
            .any(|s| s.config.tier == KernelTier::FastMath));
    }

    #[test]
    fn exhausts_small_lattices_without_duplicates() {
        // generous budget over the full 2-D extended lattice (no tier axis
        // without fast-math): 4·4·5·4 = 320 points, budget 1000 ⇒ must
        // visit each point at most once and stop at 320
        let params = SearchParams::for_rank(2).unwrap().with_budget(1000);
        let out = search(2, &params, surface).unwrap();
        assert_eq!(out.evals, 320);
        let mut seen = std::collections::BTreeSet::new();
        for s in &out.trajectory {
            assert!(seen.insert(format!("{:?}", s.config)), "duplicate candidate");
        }
        // exhaustive visit ⇒ the true optimum was found
        assert_eq!(out.best.metric, 0.0);
    }

    #[test]
    fn requeue_and_discard_drive_retry_flow() {
        let mut s = EvoSearch::new(2, SearchParams::for_rank(2).unwrap()).unwrap();
        let c1 = s.next_candidate().unwrap();
        s.requeue(&c1);
        let again = s.next_candidate().unwrap();
        assert_eq!(c1, again, "requeued candidate comes back first");
        s.discard(&again);
        let c2 = s.next_candidate().unwrap();
        assert_ne!(c1, c2, "discarded candidate is not re-proposed");
        assert_eq!(s.evals(), 0, "neither discard nor requeue counts as an eval");
    }
}
