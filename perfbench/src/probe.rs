//! Host-speed probes. The benchmark's hosts share cores and caches with
//! other tenants, and their speed drifts by a quarter over tens of
//! seconds, so every end-to-end time is reported at a reference speed:
//! each timed sample is scaled by `reference / t`, where `t` is the time
//! of a fixed, benchmark-owned kernel measured right before the sample.
//! The kernel is a Jacobi sweep of the Laplacian over a grid of the same
//! rank and size as the problem it stands next to, so it meets the same
//! cache pressure; measured on `solve-scenarios`, this cut the spread of
//! the round time across runs from 13% to 4%. Repository code never runs
//! inside a probe, so a change to it moves only the scaled times. Raw
//! times are printed beside the scaled ones.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::median;

/// Grid points a probe updates per reading (a few milliseconds).
const POINTS: usize = 2_000_000;
/// Readings a factor is the median of: a single reading is as noisy as the
/// host, while the host's speed drifts over seconds.
const WINDOW: usize = 5;

/// A probe's reading at reference speed: its median on the 2-vCPU host
/// the benchmark was defined on, per grid shape. Other shapes fall back
/// to 3.5 ns per point.
fn reference_s(ndims: usize, n: usize) -> f64 {
    match (ndims, n) {
        (2, 1023) => 3.3e-3,
        (3, 63) => 6.8e-3,
        (2, 255) => 7.0e-3,
        (3, 31) => 8.0e-3,
        (2, 63) => 5.5e-3,
        _ => POINTS as f64 * 3.5e-9,
    }
}

pub struct Probe {
    ndims: usize,
    /// Grid side including the ghost ring.
    e: usize,
    sweeps: usize,
    reference_s: f64,
    a: Vec<f64>,
    b: Vec<f64>,
    recent: VecDeque<f64>,
}

impl Probe {
    /// A probe over the `ndims`-D grid of interior size `n`.
    pub fn matched(ndims: usize, n: usize) -> Probe {
        assert!(ndims == 2 || ndims == 3, "2-D/3-D only");
        let e = n + 2;
        let len = e.pow(ndims as u32);
        let a: Vec<f64> = (0..len).map(|i| (i % 7) as f64).collect();
        Probe {
            ndims,
            e,
            sweeps: (POINTS / len).max(1),
            reference_s: reference_s(ndims, n),
            b: a.clone(),
            a,
            recent: VecDeque::with_capacity(WINDOW),
        }
    }

    /// Time one reading, in seconds.
    pub fn time(&mut self) -> f64 {
        let e = self.e;
        let t0 = Instant::now();
        for _ in 0..self.sweeps {
            let (a, b) = (&self.a, &mut self.b);
            if self.ndims == 2 {
                for y in 1..e - 1 {
                    for x in 1..e - 1 {
                        let i = y * e + x;
                        b[i] = 0.25 * (a[i - 1] + a[i + 1] + a[i - e] + a[i + e]);
                    }
                }
            } else {
                let p = e * e;
                for z in 1..e - 1 {
                    for y in 1..e - 1 {
                        for x in 1..e - 1 {
                            let i = z * p + y * e + x;
                            b[i] =
                                (a[i - 1] + a[i + 1] + a[i - e] + a[i + e] + a[i - p] + a[i + p])
                                    / 6.0;
                        }
                    }
                }
            }
            std::mem::swap(&mut self.a, &mut self.b);
        }
        std::hint::black_box(&self.a);
        t0.elapsed().as_secs_f64()
    }

    /// Take a reading and return the factor that scales a time measured
    /// right after it to reference speed, from the median of the last
    /// [`WINDOW`] readings.
    pub fn factor(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        let t = self.time();
        self.recent.push_back(t);
        self.reference_s / median(self.recent.make_contiguous())
    }
}
