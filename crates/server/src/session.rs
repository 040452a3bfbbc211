//! Warm solve sessions keyed on the plan-cache fingerprint.
//!
//! A *session* is everything reusable about one compilation request: the
//! shared [`CompiledPipeline`] (an `Arc` out of the global plan cache) plus
//! a pool of idle [`DslRunner`]s — each holding an `Engine` whose persistent
//! worker pool and `BufferPool` stay warm between requests. Repeat requests
//! for the same shape therefore skip both compilation *and* allocation: the
//! first request pays the full cost, the steady state is pure execution.
//!
//! The key is [`polymg::cache::fingerprint`] over (pipeline, bindings,
//! options) — exactly the plan cache's notion of identity — so two requests
//! share a session iff they would share a compiled plan. Tuned
//! configurations (satellite: `--tuned FILE`) are applied *before* the key
//! is computed, so a tuned and an untuned request for the same shape are
//! correctly distinct sessions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gmg_ir::ParamBindings;
use gmg_multigrid::config::MgConfig;
use gmg_multigrid::scenario::{build_scenario_pipeline, scenario_config, ScenarioSpec};
use gmg_multigrid::solver::DslRunner;
use polymg::{cache, ChaosOptions, CompiledPipeline, PipelineOptions, Scenario, TunedStore, Variant};

struct Session {
    plan: Arc<CompiledPipeline>,
    /// Warm runners not currently leased. Bounded by `max_idle`; a release
    /// beyond the bound drops the runner (its pools with it).
    idle: Vec<DslRunner>,
}

/// Shared session registry. All methods are `&self`; internal locking keeps
/// the registry consistent under concurrent workers.
pub struct SessionManager {
    sessions: Mutex<HashMap<u64, Session>>,
    /// Tuned-config store, shared across shards (and with the online tuner,
    /// which inserts winners at runtime — a lookup sees them immediately,
    /// and because options feed the session key, a winner simply routes the
    /// next acquire to a fresh session compiled with the tuned schedule).
    tuned: Option<Arc<Mutex<TunedStore>>>,
    chaos: Option<ChaosOptions>,
    /// Worker threads per engine (the runtime's own parallelism, distinct
    /// from the server's solve workers).
    engine_threads: usize,
    /// Idle runners retained per session.
    max_idle: usize,
    /// Fast-math knob applied to every session's options (`--fast-math`).
    /// Part of the session key via the plan fingerprint.
    fast_math: bool,
    pub session_hits: AtomicU64,
    pub session_misses: AtomicU64,
    pub engines_created: AtomicU64,
    pub tuned_applied: AtomicU64,
}

/// A leased runner. Return it with [`SessionManager::release`] so the next
/// request for the same shape reuses its warm pools.
pub struct Lease {
    pub key: u64,
    pub runner: DslRunner,
    /// True when this acquire created the session (compile path).
    pub created_session: bool,
    /// Structural pipeline fingerprint (pre-options) — the tuned store's
    /// key; the online tuner buckets live observations by it.
    pub plan_fp: u64,
}

impl SessionManager {
    pub fn new(
        tuned: Option<TunedStore>,
        chaos: Option<ChaosOptions>,
        engine_threads: usize,
        max_idle: usize,
    ) -> SessionManager {
        SessionManager::with_kernel_opts(tuned, chaos, engine_threads, max_idle, false)
    }

    /// [`new`](SessionManager::new) with an explicit `fast_math` knob.
    pub fn with_kernel_opts(
        tuned: Option<TunedStore>,
        chaos: Option<ChaosOptions>,
        engine_threads: usize,
        max_idle: usize,
        fast_math: bool,
    ) -> SessionManager {
        SessionManager::with_shared_store(
            tuned.map(|t| Arc::new(Mutex::new(t))),
            chaos,
            engine_threads,
            max_idle,
            fast_math,
        )
    }

    /// Full constructor over a *shared* tuned store: every shard (and the
    /// online tuner) holds the same `Arc`, so a winner recorded anywhere is
    /// visible to every subsequent [`acquire`](SessionManager::acquire).
    pub fn with_shared_store(
        tuned: Option<Arc<Mutex<TunedStore>>>,
        chaos: Option<ChaosOptions>,
        engine_threads: usize,
        max_idle: usize,
        fast_math: bool,
    ) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            tuned,
            chaos,
            engine_threads: engine_threads.max(1),
            max_idle: max_idle.max(1),
            fast_math,
            session_hits: AtomicU64::new(0),
            session_misses: AtomicU64::new(0),
            engines_created: AtomicU64::new(0),
            tuned_applied: AtomicU64::new(0),
        }
    }

    /// The pipeline options a request resolves to: the variant preset, the
    /// server's engine thread count, and — when a tuned entry matches the
    /// pipeline fingerprint — the persisted tile/group configuration.
    fn resolve_options(&self, cfg: &MgConfig, variant: Variant, pfp: u64) -> (PipelineOptions, bool) {
        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
        opts.threads = self.engine_threads;
        opts.fast_math = self.fast_math;
        if let Some(store) = &self.tuned {
            let entry = store.lock().unwrap().lookup(pfp, cfg.ndims).cloned();
            if let Some(entry) = entry {
                // the tuned tier is honored (the metric was measured there),
                // but a session that opted into fast-math never downgrades:
                // its clients verify against a fast-math reference
                opts = entry.config.apply(&opts);
                opts.fast_math |= self.fast_math;
                return (opts, true);
            }
        }
        (opts, false)
    }

    /// Lease a warm runner for the constant-coefficient default scenario.
    pub fn acquire(&self, cfg: &MgConfig, variant: Variant) -> Result<Lease, Vec<String>> {
        self.acquire_scenario(cfg, variant, ScenarioSpec::new(Scenario::Constant), None)
    }

    /// Lease a warm runner for a scenario, creating the session (compiling
    /// through the global plan cache) on first sight. The session key is
    /// the plan fingerprint of the *scenario* pipeline with the
    /// mixed-precision opt-in folded into the options, so distinct
    /// scenarios and precision tiers never share engines. The coefficient
    /// grid is (re)bound on every acquire — warm runners carry no stale
    /// `A` from a previous request.
    pub fn acquire_scenario(
        &self,
        cfg: &MgConfig,
        variant: Variant,
        spec: ScenarioSpec,
        coeff: Option<&[f64]>,
    ) -> Result<Lease, Vec<String>> {
        // The protocol layer already validated decoded requests; in-process
        // callers go through the same gate so an invalid spec surfaces as a
        // compile-style error, never a panic.
        if let Err(e) = spec.scenario.validate(spec.mixed, coeff.is_some()) {
            return Err(vec![e.to_string()]);
        }
        // a warm runner rebinds `Ainv` from this grid below: reject what
        // the reciprocal would turn into inf/NaN
        if let Some((i, x)) = coeff.and_then(gmg_multigrid::scenario::first_bad_coeff) {
            return Err(vec![format!(
                "coefficient {i} is {x}; it must be finite and > 0"
            )]);
        }
        let cfg = scenario_config(cfg, spec.scenario);
        let pipeline = build_scenario_pipeline(&cfg, spec.scenario);
        let bindings = ParamBindings::new();
        let plan_fp = cache::pipeline_fingerprint(&pipeline, &bindings);
        let (mut opts, tuned) = self.resolve_options(&cfg, variant, plan_fp);
        opts.mixed_precision = spec.mixed;
        let key = cache::fingerprint(&pipeline, &bindings, &opts);

        // Decide hit/miss, count it, and pop an idle runner under ONE lock
        // hold. Splitting these (check, count, pop as separate acquisitions)
        // is a TOCTOU: a hit could be counted for a session that no longer
        // exists, and two threads racing the same first-touch could each see
        // "exists" after only one counted the miss — breaking the
        // `hits + misses == acquires` accounting the trace publishes.
        let found = {
            let mut sessions = self.sessions.lock().unwrap();
            match sessions.get_mut(&key) {
                Some(s) => {
                    self.session_hits.fetch_add(1, Ordering::Relaxed);
                    Some((Arc::clone(&s.plan), s.idle.pop()))
                }
                None => {
                    self.session_misses.fetch_add(1, Ordering::Relaxed);
                    if tuned {
                        self.tuned_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    None
                }
            }
        };

        let created = found.is_none();
        let (plan, runner) = match found {
            Some((plan, runner)) => (plan, runner),
            None => {
                // Compile outside the sessions lock; the plan cache's
                // single-flight slot already serialises concurrent misses
                // on the same key without serialising different keys.
                let plan = polymg::compile_cached(&pipeline, &bindings, opts)?;
                let mut sessions = self.sessions.lock().unwrap();
                let session = sessions.entry(key).or_insert_with(|| Session {
                    plan: Arc::clone(&plan),
                    idle: Vec::new(),
                });
                // Two concurrent first-touches both count a miss (each saw
                // the empty registry under the lock); the loser adopts the
                // winner's session here.
                (Arc::clone(&session.plan), session.idle.pop())
            }
        };

        let mut runner = match runner {
            Some(r) => r,
            None => {
                self.engines_created.fetch_add(1, Ordering::Relaxed);
                let mut r = DslRunner::from_plan(Arc::clone(&plan), &cfg);
                r.engine_mut().set_chaos(self.chaos);
                r
            }
        };
        if let Some(a) = coeff {
            // rebind on every acquire (a warm runner may hold a previous
            // request's grid); Ainv is derived from the same wire grid so
            // client-side references recompute it bitwise-identically
            runner.bind_extra("Ainv", gmg_multigrid::scenario::reciprocal_field(a));
            runner.bind_extra("A", a.to_vec());
        }
        Ok(Lease {
            key,
            runner,
            created_session: created,
            plan_fp,
        })
    }

    /// Return a leased runner to its session's idle pool. Runners surviving
    /// a typed `ExecError` stay usable (the engine recovers its pools), so
    /// errors do not forfeit the warm state.
    pub fn release(&self, lease: Lease) {
        let mut sessions = self.sessions.lock().unwrap();
        if let Some(s) = sessions.get_mut(&lease.key) {
            if s.idle.len() < self.max_idle {
                s.idle.push(lease.runner);
            }
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, SmoothSteps};
    use gmg_multigrid::solver::setup_poisson;

    fn cfg2d() -> MgConfig {
        MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444())
    }

    #[test]
    fn acquire_release_reuses_warm_runner() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        assert!(lease.created_session);
        mgr.release(lease);
        let lease2 = mgr.acquire(&cfg, Variant::OptPlus).expect("hit");
        assert!(!lease2.created_session);
        assert_eq!(mgr.engines_created.load(Ordering::Relaxed), 1);
        assert_eq!(mgr.session_hits.load(Ordering::Relaxed), 1);
        assert_eq!(mgr.session_misses.load(Ordering::Relaxed), 1);
        mgr.release(lease2);
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn distinct_variants_get_distinct_sessions() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let a = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let b = mgr.acquire(&cfg, Variant::Naive).expect("compile");
        assert_ne!(a.key, b.key);
        mgr.release(a);
        mgr.release(b);
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn concurrent_acquires_count_exactly() {
        // hits + misses must equal acquires EXACTLY, even when many threads
        // race first-touch and warm paths across several shapes — the
        // single-lock decide-and-count in `acquire` is what guarantees it.
        let mgr = Arc::new(SessionManager::new(None, None, 1, 4));
        let shapes = [
            (cfg2d(), Variant::OptPlus),
            (cfg2d(), Variant::Opt),
            (
                MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444()),
                Variant::OptPlus,
            ),
        ];
        let threads = 8;
        let per_thread = 12;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mgr = Arc::clone(&mgr);
                let shapes = shapes.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let (cfg, variant) = &shapes[(t + i) % shapes.len()];
                        let lease = mgr.acquire(cfg, *variant).expect("acquire");
                        if i % 2 == 0 {
                            mgr.release(lease);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let hits = mgr.session_hits.load(Ordering::Relaxed);
        let misses = mgr.session_misses.load(Ordering::Relaxed);
        assert_eq!(
            hits + misses,
            (threads * per_thread) as u64,
            "hits ({hits}) + misses ({misses}) must equal acquires exactly"
        );
        assert!(misses >= shapes.len() as u64, "each shape misses at least once");
        assert_eq!(mgr.len(), shapes.len());
    }

    #[test]
    fn kernel_tier_knobs_split_sessions() {
        // fast_math participates in the plan fingerprint, so a fast-math
        // server and a default server must not share sessions.
        let default_mgr = SessionManager::new(None, None, 1, 4);
        let fm_mgr = SessionManager::with_kernel_opts(None, None, 1, 4, true);
        let cfg = cfg2d();
        let a = default_mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let b = fm_mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn bad_coefficient_grids_are_rejected_before_binding() {
        use polymg::Scenario;
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut a = gmg_multigrid::scenario::coeff_field(&cfg);
            a[3] = bad;
            let errs = mgr
                .acquire_scenario(
                    &cfg,
                    Variant::OptPlus,
                    ScenarioSpec::new(Scenario::VarCoef),
                    Some(&a),
                )
                .err()
                .expect("bad coefficient must not lease a runner");
            assert!(errs[0].contains("coefficient 3"), "{bad}: {errs:?}");
        }
        assert_eq!(mgr.len(), 0, "no session is created for a rejected grid");
    }

    #[test]
    fn scenario_specs_split_sessions() {
        use polymg::Scenario;
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let constant = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let mixed = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec {
                    scenario: Scenario::Constant,
                    mixed: true,
                },
                None,
            )
            .expect("compile");
        let a = gmg_multigrid::scenario::coeff_field(&cfg);
        let varcoef = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                Some(&a),
            )
            .expect("compile");
        let rbgs = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::Rbgs),
                None,
            )
            .expect("compile");
        let keys = [constant.key, mixed.key, varcoef.key, rbgs.key];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "sessions {i} and {j} must not share a key");
            }
        }
        for l in [constant, mixed, varcoef, rbgs] {
            mgr.release(l);
        }
        assert_eq!(mgr.len(), 4);
        // repeat scenario acquire is a warm hit on its own session
        let again = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                Some(&a),
            )
            .expect("hit");
        assert!(!again.created_session);
        mgr.release(again);
    }

    #[test]
    fn scenario_acquire_rejects_invalid_specs() {
        use polymg::Scenario;
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        // varcoef without a grid never reaches the compiler
        let errs = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                None,
            )
            .err()
            .expect("must reject");
        assert!(errs[0].contains("coefficient grid"));
        assert_eq!(mgr.len(), 0);
    }

    #[test]
    fn leased_runner_actually_solves() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let mut lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let (mut v, f, _) = setup_poisson(&cfg);
        lease.runner.cycle_with_stats(&mut v, &f).expect("cycle");
        assert!(v.iter().all(|x| x.is_finite()));
        mgr.release(lease);
    }
}
