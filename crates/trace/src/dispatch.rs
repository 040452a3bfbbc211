//! Process-wide kernel-dispatch histogram.
//!
//! `gmg-runtime::kernel` classifies every kernel-case execution into one of
//! six dispatch classes and bumps one relaxed atomic here — once per case
//! execution (i.e. per stage per tile), not per row, so the cost is noise.
//! Global statics (rather than per-`Trace` state) keep the hot path free of
//! any handle indirection; `reset()` lets harness sections scope the counts.

#[cfg(feature = "capture")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Which code path executed a kernel case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// Unit-stride const-arity row kernel (≤ 28 constant taps): the
    /// host ISA's AVX-512/AVX2 body or the plain unrolled loop.
    UnitUnrolled = 0,
    /// Unit-stride generic loop factored by coefficient spans (> 28 taps).
    UnitFactored = 1,
    /// Unit-stride generic per-tap loop (> 28 taps that do not factor).
    UnitFallback = 2,
    /// Strided row (restriction / interpolation accesses): the const-arity
    /// strided loop, or the generic per-tap loop beyond 28 taps.
    Strided = 3,
    /// Expression-tree interpreter (no linearized form).
    Interpreter = 4,
    /// Variable-coefficient tap loop (taps carry coefficient-grid factors).
    VarCoef = 5,
}

pub const KINDS: usize = 6;

pub const LABELS: [&str; KINDS] = [
    "unit_unrolled",
    "unit_factored",
    "unit_fallback",
    "strided",
    "interpreter",
    "varcoef",
];

#[cfg(feature = "capture")]
static COUNTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];

/// Count `n` executions of dispatch class `kind`.
#[inline]
pub fn record(kind: Kind, n: u64) {
    #[cfg(feature = "capture")]
    COUNTS[kind as usize].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "capture"))]
    {
        let _ = (kind, n);
    }
}

/// Current histogram, indexed like [`LABELS`].
pub fn snapshot() -> [u64; KINDS] {
    #[cfg(feature = "capture")]
    {
        let mut out = [0u64; KINDS];
        for (o, c) in out.iter_mut().zip(COUNTS.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
    #[cfg(not(feature = "capture"))]
    {
        [0u64; KINDS]
    }
}

/// Number of `KernelImpl` families (mirrors `polymg::specialize::KernelImpl`;
/// index 0 is the generic path).
pub const IMPLS: usize = 7;

/// Labels indexed by `KernelImpl::index()`.
pub const IMPL_LABELS: [&str; IMPLS] = [
    "generic",
    "stencil2d5",
    "stencil2d9",
    "stencil3d7",
    "stencil3d27",
    "restrict",
    "interp",
];

#[cfg(feature = "capture")]
static IMPL_COUNTS: [AtomicU64; IMPLS] = [const { AtomicU64::new(0) }; IMPLS];

/// Count `n` case executions dispatched to kernel-impl family
/// `impl_index` (`KernelImpl::index()`).
#[inline]
pub fn record_impl(impl_index: usize, n: u64) {
    #[cfg(feature = "capture")]
    IMPL_COUNTS[impl_index].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "capture"))]
    {
        let _ = (impl_index, n);
    }
}

/// Current per-kernel-impl histogram, indexed like [`IMPL_LABELS`].
pub fn impl_snapshot() -> [u64; IMPLS] {
    #[cfg(feature = "capture")]
    {
        let mut out = [0u64; IMPLS];
        for (o, c) in out.iter_mut().zip(IMPL_COUNTS.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
    #[cfg(not(feature = "capture"))]
    {
        [0u64; IMPLS]
    }
}

/// Number of tier buckets: index 0 counts cases that ran the generic tap
/// loop or the interpreter, indices 1.. mirror
/// `polymg::specialize::KernelTier::index()` for cases that ran a
/// const-arity row kernel.
pub const TIERS: usize = 3;

/// Labels indexed like [`TIERS`]' buckets.
pub const TIER_LABELS: [&str; TIERS] = ["generic", "lane_safe", "fast_math"];

#[cfg(feature = "capture")]
static TIER_COUNTS: [AtomicU64; TIERS] = [const { AtomicU64::new(0) }; TIERS];

/// Count `n` case executions run at implementation tier `tier_index`
/// (`KernelTier::index()`). Recorded alongside [`record_impl`], so the two
/// histograms share a total.
#[inline]
pub fn record_tier(tier_index: usize, n: u64) {
    #[cfg(feature = "capture")]
    TIER_COUNTS[tier_index].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "capture"))]
    {
        let _ = (tier_index, n);
    }
}

/// Current per-tier histogram, indexed like [`TIER_LABELS`].
pub fn tier_snapshot() -> [u64; TIERS] {
    #[cfg(feature = "capture")]
    {
        let mut out = [0u64; TIERS];
        for (o, c) in out.iter_mut().zip(TIER_COUNTS.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
    #[cfg(not(feature = "capture"))]
    {
        [0u64; TIERS]
    }
}

/// Zero all histograms (harness sections call this between experiments).
pub fn reset() {
    #[cfg(feature = "capture")]
    {
        for c in COUNTS.iter() {
            c.store(0, Ordering::Relaxed);
        }
        for c in IMPL_COUNTS.iter() {
            c.store(0, Ordering::Relaxed);
        }
        for c in TIER_COUNTS.iter() {
            c.store(0, Ordering::Relaxed);
        }
    }
}
