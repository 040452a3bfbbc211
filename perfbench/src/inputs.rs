//! Seeded inputs. The workload seed reaches the program only through the
//! grids and frame orders generated here.

use gmg_multigrid::config::MgConfig;
use gmg_multigrid::solver::setup_poisson;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A uniform draw in `[-1, 1)` from the 53 high-quality bits of `x`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The stream key of one generated grid: the seed mixed with a caller
/// chosen index (problem, frame item, batch lane).
pub fn stream(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x5eed)))
}

/// A manufactured problem: the RHS the program receives, the continuous
/// exact solution of the unperturbed problem, and the perturbation's
/// amplitude (its effect on the solution is at most `amp/8` in max norm,
/// since the Green's function of `−∇²` on the unit cube integrates to at
/// most 1/8).
pub struct Rhs {
    pub f: Vec<f64>,
    pub exact: Vec<f64>,
    pub amp: f64,
}

/// `setup_poisson`'s right-hand side with every interior point moved by a
/// splitmix64 draw of amplitude `h²` (the discretisation error's order, so
/// the h²-scaled error check still holds and convergence is unchanged).
/// Ghost points stay at the Dirichlet value.
pub fn poisson_rhs(cfg: &MgConfig, key: u64) -> Rhs {
    let (_, mut f, exact) = setup_poisson(cfg);
    let level = cfg.levels - 1;
    let n = cfg.n_at(level) as usize;
    let h = cfg.h_at(level);
    let amp = h * h;
    let e = n + 2;
    let interior = |i: usize| {
        let mut rest = i;
        (0..cfg.ndims).all(|_| {
            let c = rest % e;
            rest /= e;
            (1..=n).contains(&c)
        })
    };
    let mut state = key;
    for (i, x) in f.iter_mut().enumerate() {
        if interior(i) {
            state = splitmix64(state);
            *x += amp * unit(state);
        }
    }
    Rhs { f, exact, amp }
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn shuffle(n: usize, key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = key;
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, SmoothSteps};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (ndims, n) in [(2, 31), (3, 15)] {
            let cfg = MgConfig::new(ndims, n, CycleType::V, SmoothSteps::s444());
            let a = poisson_rhs(&cfg, stream(1, 0));
            let b = poisson_rhs(&cfg, stream(1, 0));
            let c = poisson_rhs(&cfg, stream(2, 0));
            let d = poisson_rhs(&cfg, stream(1, 1));
            assert_eq!(bits(&a.f), bits(&b.f));
            assert_ne!(bits(&a.f), bits(&c.f));
            assert_ne!(bits(&a.f), bits(&d.f));
            // ghost ring untouched, interior within the stated amplitude
            let (_, f0, _) = setup_poisson(&cfg);
            let e = (n + 2) as usize;
            assert_eq!(a.f[0], f0[0]);
            assert_eq!(a.f[e - 1], f0[e - 1]);
            let dev =
                a.f.iter()
                    .zip(&f0)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
            assert!(dev > 0.0 && dev <= a.amp);
        }
        assert_eq!(shuffle(7, 3), shuffle(7, 3));
        assert_ne!(shuffle(7, 3), shuffle(7, 4));
        let mut s = shuffle(7, 3);
        s.sort_unstable();
        assert_eq!(s, (0..7).collect::<Vec<_>>());
    }
}
