//! The `serve-mix` workload: an in-process server driven by the
//! benchmark's own closed-loop TCP client, every grid verified bitwise.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use gmg_multigrid::config::MgConfig;
use gmg_multigrid::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use gmg_multigrid::solver::DslRunner;
use gmg_server::protocol::{
    self, BatchSolveRequest, BatchSolveResponse, ErrorCode, SolveRequest, SolveResponse,
};
use gmg_server::{default_mix, scenario_mix, start, MixItem, ServerConfig, ServerHandle};
use gmg_trace::Trace;
use polymg::{PipelineOptions, PlanCache, Scenario, Variant};

use crate::host;
use crate::inputs::{poisson_rhs, shuffle, splitmix64, stream};
use crate::report::{Outcome, Overheads};
use crate::spans::Tracer;
use crate::stats::median;

pub const CONNECTIONS: usize = 2;
pub const TENANTS: u32 = 4;
pub const BATCH: usize = 4;
const RETRIES: usize = 8;
const WARMUP_S: f64 = 1.0;

/// The three request opcodes.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Solve,
    SolveBatch,
    SolveScenario,
}

impl Op {
    const ALL: [Op; 3] = [Op::Solve, Op::SolveBatch, Op::SolveScenario];

    /// Metric-name suffix.
    fn name(self) -> &'static str {
        match self {
            Op::Solve => "solve",
            Op::SolveBatch => "solve_batch",
            Op::SolveScenario => "solve_scenario",
        }
    }
}

struct Grid {
    f: Vec<f64>,
    bits: Vec<u64>,
}

/// One entry of the frame deck, with its reference answers.
pub struct Item {
    op: Op,
    cfg: MgConfig,
    variant: Variant,
    iters: u16,
    scenario: Scenario,
    mixed: bool,
    coeff: Vec<f64>,
    grids: Vec<Grid>,
    runner: DslRunner,
    /// Median in-process time of the item's grids (reference runner).
    ref_ns: f64,
}

impl Item {
    fn request(&self, grid: &Grid, tenant: u32) -> SolveRequest {
        let zeros = vec![0.0; grid.f.len()];
        let mut req = SolveRequest::from_config(
            &self.cfg,
            self.variant,
            tenant,
            self.iters,
            zeros,
            grid.f.clone(),
        );
        req.scenario = self.scenario.wire_id();
        req.mixed = self.mixed;
        req.coeff = self.coeff.clone();
        req
    }

    /// Encode the item's frame for `tenant`.
    fn frame(&self, tenant: u32) -> (u8, Vec<u8>) {
        match self.op {
            Op::Solve => (
                protocol::OP_SOLVE,
                self.request(&self.grids[0], tenant).encode(),
            ),
            Op::SolveScenario => (
                protocol::OP_SOLVE_SCENARIO,
                self.request(&self.grids[0], tenant).encode_scenario(),
            ),
            Op::SolveBatch => {
                let reqs = self.grids.iter().map(|g| self.request(g, tenant)).collect();
                (
                    protocol::OP_SOLVE_BATCH,
                    BatchSolveRequest { reqs }.encode(),
                )
            }
        }
    }

    /// Run the item in process on the reference runner (fresh v = 0).
    fn solve_local(&mut self) -> Result<Vec<Vec<u64>>, String> {
        let mut out = Vec::new();
        for g in &self.grids {
            let mut v = vec![0.0; g.f.len()];
            for _ in 0..self.iters {
                self.runner
                    .cycle_with_stats(&mut v, &g.f)
                    .map_err(|e| format!("reference cycle failed: {e}"))?;
            }
            out.push(v.iter().map(|x| x.to_bits()).collect());
        }
        Ok(out)
    }
}

/// The deck: the four `default_mix` SOLVE shapes, the varcoef and
/// mixed-precision SOLVE_SCENARIO shapes, and one SOLVE_BATCH of four
/// perturbed grids of the first mix shape. References come from
/// `scenario_runner` before any timing.
pub fn deck(seed: u64) -> Result<Vec<Item>, String> {
    let mix = default_mix();
    let mut specs: Vec<(Op, MixItem, usize)> =
        mix.iter().map(|m| (Op::Solve, m.clone(), 1)).collect();
    specs.extend(
        scenario_mix(&[Scenario::VarCoef], true)
            .into_iter()
            .map(|m| (Op::SolveScenario, m, 1)),
    );
    specs.push((Op::SolveBatch, mix[0].clone(), BATCH));
    specs
        .into_iter()
        .enumerate()
        .map(|(k, (op, m, lanes))| {
            let coeff = if m.scenario.needs_coeff() {
                coeff_field(&m.cfg)
            } else {
                Vec::new()
            };
            let mut opts = PipelineOptions::for_variant(m.variant, m.cfg.ndims);
            opts.threads = 1;
            let spec = ScenarioSpec {
                scenario: m.scenario,
                mixed: m.mixed,
            };
            let runner = scenario_runner(
                &m.cfg,
                spec,
                opts,
                "perfbench-ref",
                (!coeff.is_empty()).then(|| coeff.clone()),
            )
            .map_err(|e| format!("reference runner: {e}"))?;
            let grids = (0..lanes)
                .map(|lane| Grid {
                    f: poisson_rhs(&m.cfg, stream(seed, 100 + 8 * k as u64 + lane as u64)).f,
                    bits: Vec::new(),
                })
                .collect();
            let mut item = Item {
                op,
                cfg: m.cfg,
                variant: m.variant,
                iters: m.iters,
                scenario: m.scenario,
                mixed: m.mixed,
                coeff,
                grids,
                runner,
                ref_ns: 0.0,
            };
            let mut times = Vec::new();
            let mut bits = Vec::new();
            for _ in 0..6 {
                let t0 = Instant::now();
                bits = item.solve_local()?;
                times.push(t0.elapsed().as_nanos() as f64);
            }
            item.ref_ns = median(&times[1..]);
            for (g, b) in item.grids.iter_mut().zip(bits) {
                g.bits = b;
            }
            Ok(item)
        })
        .collect()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 1,
        workers: 1,
        engine_threads: 1,
        ..ServerConfig::default()
    }
}

/// One frame's outcome as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    op: Op,
    item: usize,
    rtt_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
}

#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    /// (spans on, deck time ns): a deck's time is its frames' round trips.
    decks: Vec<(bool, f64)>,
    pings_ns: Vec<f64>,
    retries: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn backoff_ms(attempt: usize) -> u64 {
    2u64 << attempt.min(5)
}

/// Send one item and verify its reply. Returns the sample or the reason
/// the frame failed.
fn exchange(
    s: &mut TcpStream,
    item: &Item,
    idx: usize,
    tenant: u32,
    tr: &mut Tracer,
    id: u64,
    log: &mut ConnLog,
) -> Result<Sample, String> {
    let op = item.op.name();
    let t = Instant::now();
    let (opcode, payload) = tr.wrap("server.encode", op, id, || item.frame(tenant));
    let encode_ns = t.elapsed().as_nanos() as u64;
    let mut attempt = 0;
    let (reply, rtt_ns) = loop {
        let open = tr.begin("server.request", op, id);
        let t = Instant::now();
        protocol::write_frame(s, opcode, &payload).map_err(|e| format!("send: {e}"))?;
        let reply = protocol::read_frame(s).map_err(|e| format!("receive: {e}"))?;
        let rtt = t.elapsed().as_nanos() as u64;
        tr.end(open);
        if reply.opcode == protocol::OP_ERROR {
            match protocol::decode_error(&reply.payload) {
                Some((ErrorCode::QueueFull | ErrorCode::TenantLimit, _)) if attempt < RETRIES => {
                    log.retries += 1;
                    std::thread::sleep(Duration::from_millis(backoff_ms(attempt)));
                    attempt += 1;
                    continue;
                }
                e => return Err(format!("{op} frame answered with error {e:?}")),
            }
        }
        break (reply, rtt);
    };
    let t = Instant::now();
    let grids: Vec<Vec<f64>> = tr.wrap("server.decode", op, id, || match reply.opcode {
        protocol::OP_SOLVE_OK | protocol::OP_SOLVE_SCENARIO_OK => {
            SolveResponse::decode(&reply.payload).map(|r| vec![r.v])
        }
        protocol::OP_SOLVE_BATCH_OK => BatchSolveResponse::decode(&reply.payload).map(|r| r.vs),
        other => Err(format!("unexpected reply opcode {other:#04x}")),
    })?;
    let decode_ns = t.elapsed().as_nanos() as u64;
    let ok = grids.len() == item.grids.len()
        && grids.iter().zip(&item.grids).all(|(got, want)| {
            got.len() == want.bits.len()
                && got.iter().zip(&want.bits).all(|(x, b)| x.to_bits() == *b)
        });
    if !ok {
        return Err(format!("{op} reply differs from its in-process reference"));
    }
    Ok(Sample {
        op: item.op,
        item: idx,
        rtt_ns,
        encode_ns,
        decode_ns,
    })
}

fn ping(s: &mut TcpStream, tr: &mut Tracer, id: u64) -> Result<u64, String> {
    let open = tr.begin("server.ping", "ping", id);
    let t = Instant::now();
    protocol::write_frame(s, protocol::OP_PING, b"perfbench").map_err(|e| format!("ping: {e}"))?;
    let r = protocol::read_frame(s).map_err(|e| format!("pong: {e}"))?;
    let ns = t.elapsed().as_nanos() as u64;
    tr.end(open);
    if r.opcode != protocol::OP_PONG {
        return Err(format!("ping answered with opcode {:#04x}", r.opcode));
    }
    Ok(ns)
}

/// One closed-loop client connection: decks in seeded order until `end`;
/// decks started before `warm_end` are the untimed warm-up. In a traced
/// run decks alternate spans on and off, and a PING follows every frame.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: &str,
    items: &[Item],
    seed: u64,
    conn: usize,
    (warm_end, end): (Instant, Instant),
    traced: bool,
    tr: &mut Tracer,
    log: &mut ConnLog,
) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut deck_no = 0u64;
    while Instant::now() < end {
        let timed = Instant::now() >= warm_end;
        let key = stream_key(seed, conn, deck_no);
        let spans_on = traced && deck_no.is_multiple_of(2);
        tr.set_enabled(spans_on);
        let id = (conn as u64) << 32 | deck_no;
        let mut deck_ns = 0.0;
        for (k, &i) in shuffle(items.len(), key).iter().enumerate() {
            let tenant = (splitmix64(key ^ k as u64) % TENANTS as u64) as u32;
            log.attempted += 1;
            match exchange(&mut s, &items[i], i, tenant, tr, id, log) {
                Ok(sample) => {
                    deck_ns += sample.rtt_ns as f64;
                    if timed {
                        log.samples.push(sample);
                    }
                }
                Err(e) => log.failures.push(e),
            }
            if traced {
                let ns = ping(&mut s, tr, id)?;
                if timed {
                    log.pings_ns.push(ns as f64);
                }
            }
        }
        if timed {
            log.decks.push((spans_on, deck_ns));
        }
        deck_no += 1;
    }
    tr.set_enabled(traced);
    Ok(())
}

fn stream_key(seed: u64, conn: usize, deck_no: u64) -> u64 {
    stream(seed, 1 << 32 | (conn as u64) << 24 | deck_no)
}

fn stop(handle: ServerHandle) {
    handle.begin_shutdown();
    handle.join();
}

/// Cold start: from `start()` until one verified reply per deck item,
/// with the plan cache cleared.
fn cold_start(items: &[Item], tr: &mut Tracer, out: &mut Outcome) -> Result<f64, String> {
    PlanCache::global().clear();
    let t0 = Instant::now();
    let handle = start(server_config()).map_err(|e| format!("server start: {e}"))?;
    let mut log = ConnLog::default();
    let result = (|| {
        let mut s = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        for (i, item) in items.iter().enumerate() {
            out.check(exchange(&mut s, item, i, 0, tr, 0, &mut log).map(|_| ()));
        }
        Ok::<_, String>(t0.elapsed().as_secs_f64())
    })();
    stop(handle);
    result
}

/// Settings of one serve run.
pub struct Plan {
    pub seconds: f64,
    pub setup_reps: usize,
    pub traced: bool,
}

/// Run the serve workload. The untraced run reports the end-to-end
/// metrics; a traced run reports the `server.*` layer metrics instead and
/// returns its tracing overheads: client decks with spans against decks
/// without, and the deck's items solved in process with the engine trace
/// on against off.
pub fn run(
    seed: u64,
    plan: &Plan,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Option<Overheads>, String> {
    let mut items = deck(seed)?;
    // Server and clients share one CPU: cross-CPU wake-ups on a shared
    // virtual host made served latency swing by a quarter between
    // identical runs, where same-CPU switches keep it steady.
    let pinned = host::Pinned::first_allowed()?;
    out.notes.push(format!(
        "serve: server and clients pinned to cpu {}",
        pinned.cpu
    ));
    for it in &items {
        out.notes.push(format!(
            "deck {} {}-D n={} {} x{}: in-process {:.3} ms",
            it.op.name(),
            it.cfg.ndims,
            it.cfg.n,
            it.cfg.tag(),
            it.grids.len(),
            it.ref_ns * 1e-6
        ));
    }
    let mut setup = Vec::new();
    for _ in 0..plan.setup_reps {
        setup.push(cold_start(&items, tr, out)?);
    }
    let handle = start(server_config()).map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr().to_string();
    let warm_end = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    let window = (warm_end, warm_end + Duration::from_secs_f64(plan.seconds));
    let epoch = Instant::now();
    let results: Vec<Result<(ConnLog, Tracer), String>> = std::thread::scope(|sc| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, items) = (&addr, &items);
                sc.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut ctr = Tracer::new(plan.traced, epoch);
                    client(
                        addr,
                        items,
                        seed,
                        c,
                        window,
                        plan.traced,
                        &mut ctr,
                        &mut log,
                    )?;
                    Ok((log, ctr))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let timed_s = (Instant::now() - warm_end).as_secs_f64();
    let snap = handle.snapshot();
    stop(handle);
    let (mut samples, mut decks, mut pings) = (Vec::new(), Vec::new(), Vec::new());
    let mut retries = 0;
    for r in results {
        let (log, ctr) = r?;
        tr.absorb(ctr);
        out.attempted += log.attempted;
        out.failed += log.failures.len() as u64;
        out.errors.extend(log.failures.into_iter().take(20));
        samples.extend(log.samples);
        decks.extend(log.decks);
        pings.extend(log.pings_ns);
        retries += log.retries;
    }
    if samples.is_empty() || decks.is_empty() {
        return Err("serve run produced no timed samples".to_string());
    }
    if !plan.traced {
        let deck_s: Vec<f64> = decks.iter().map(|d| d.1 * 1e-9).collect();
        let rtt_ms: Vec<f64> = samples.iter().map(|s| s.rtt_ns as f64 * 1e-6).collect();
        let grids: usize = samples.iter().map(|s| items[s.item].grids.len()).sum();
        out.median("setup_s", "s", &setup);
        out.median("solve_s", "s", &deck_s);
        out.tail("solve_s_tail", "s", &deck_s);
        out.count("serve_grids_per_s", "1/s", grids as f64 / timed_s);
        out.median("req_p50_ms", "ms", &rtt_ms);
        out.tail("req_tail_ms", "ms", &rtt_ms);
        out.count("peak_rss_mb", "MiB", host::peak_rss_mb().ok_or("no VmHWM")?);
        out.samples = vec![
            ("setups", setup.len()),
            ("decks", decks.len()),
            ("frames", samples.len()),
        ];
        return Ok(None);
    }
    for op in Op::ALL {
        let name = op.name();
        let of_op: Vec<&Sample> = samples.iter().filter(|s| s.op == op).collect();
        let rtt: Vec<f64> = of_op.iter().map(|s| s.rtt_ns as f64 * 1e-6).collect();
        let over: Vec<f64> = of_op
            .iter()
            .map(|s| (s.rtt_ns as f64 - items[s.item].ref_ns) * 1e-6)
            .collect();
        out.median(format!("server.rtt_ms.{name}"), "ms", &rtt);
        out.median(format!("server.overhead_ms.{name}"), "ms", &over);
    }
    let us = |f: fn(&Sample) -> u64| {
        samples
            .iter()
            .map(|s| f(s) as f64 * 1e-3)
            .collect::<Vec<_>>()
    };
    out.median(
        "server.ping_us",
        "us",
        &pings.iter().map(|p| p * 1e-3).collect::<Vec<_>>(),
    );
    out.median("server.encode_us", "us", &us(|s| s.encode_ns));
    out.median("server.decode_us", "us", &us(|s| s.decode_ns));
    let lookups = (snap.session_hits + snap.session_misses).max(1);
    out.count(
        "server.session_hit_ratio",
        "ratio",
        snap.session_hits as f64 / lookups as f64,
    );
    out.count(
        "server.engines_created",
        "count",
        snap.engines_created as f64,
    );
    out.count(
        "server.queue_max_depth",
        "count",
        snap.queue_max_depth as f64,
    );
    out.count(
        "server.rejected",
        "count",
        (snap.rejected_queue_full + snap.rejected_tenant + snap.rejected_shutdown) as f64,
    );
    out.count("server.batches", "count", snap.batches as f64);
    out.count("server.coalesced", "count", snap.coalesced as f64);
    out.count("server.retries", "count", retries as f64);
    out.samples.push(("serve_frames", samples.len()));
    let on: Vec<f64> = decks.iter().filter(|d| d.0).map(|d| d.1).collect();
    let off: Vec<f64> = decks.iter().filter(|d| !d.0).map(|d| d.1).collect();
    if on.is_empty() || off.is_empty() {
        return Err("traced serve run needs decks with and without spans".to_string());
    }
    let mut times: [Vec<f64>; 2] = Default::default();
    for rep in 0..20 {
        let on = rep % 2 == 1;
        for it in items.iter_mut() {
            let trace = if on {
                Trace::enabled()
            } else {
                Trace::disabled()
            };
            it.runner.engine_mut().set_trace(trace);
        }
        let t0 = Instant::now();
        for it in items.iter_mut() {
            it.solve_local()?;
        }
        times[on as usize].push(t0.elapsed().as_nanos() as f64);
    }
    Ok(Some(Overheads {
        bench_pct: 100.0 * (median(&on) / median(&off) - 1.0),
        engine_pct: 100.0 * (median(&times[1]) / median(&times[0]) - 1.0),
    }))
}
