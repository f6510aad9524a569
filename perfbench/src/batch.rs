//! The batch workloads: seeded instances through the engine's worker
//! pool at `workers = nproc`.
//!
//! * `batch-dag` — precedence DAGs (five families × n ∈ {64, 96, 128},
//!   m = 8) whose cold phase-1 LPs take 10³–3·10³ pivots each: the LP is
//!   nearly all of the time, LIST and the cache next to nothing.
//! * `batch-wide` — independent tasks (n ∈ {512, …, 1024}, m = 16): few
//!   pivots (≈ n) on an LP with ≈ n rows, so the per-pivot cost of the
//!   dense basis inverse dominates, and LIST's share is at its largest.
//!
//! Every round's instances are distinct and seeded by `(seed, round,
//! index)`; the warm-up solves instances from another seed, so the
//! measured ones never hit the solve cache. Each job is timed by its
//! thread's CPU clock and followed by a machine-speed probe; the metrics
//! are those CPU times in reference ms (see `crate::ref_ms`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mtsp_analysis::ratio::our_params;
use mtsp_core::allotment::{round_allotment, solve_allotment_in};
use mtsp_core::list::{list_schedule_in, ListWorkspace};
use mtsp_core::{JzConfig, JzReport, Schedule};
use mtsp_engine::pool::solve_one;
use mtsp_engine::{
    config_fingerprint, instance_key, run_batch, CacheOutcome, Engine, EngineConfig, JobResult,
    SolveCache,
};
use mtsp_lp::SolveContext;
use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
use mtsp_model::Instance;
use mtsp_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{beyond, calm_median, median, percentile, sorted, Fnv, Rng};
use crate::{nproc, Outcome, Probe};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch-dag`.
    Dag,
    /// `batch-wide`.
    Wide,
}

const DAG_FAMILIES: [DagFamily; 5] = [
    DagFamily::Layered,
    DagFamily::Cholesky,
    DagFamily::SeriesParallel,
    DagFamily::ForkJoin,
    DagFamily::Wavefront,
];
/// Sizes are listed largest first: the pool drains jobs in submission
/// order, so each round ends with small jobs filling both workers.
const DAG_SIZES: [usize; 3] = [128, 96, 64];
const DAG_M: usize = 8;
const WIDE_SIZES: [usize; 5] = [1024, 896, 768, 640, 512];
const WIDE_M: usize = 16;
/// The `mtsp-lp` counters reported per instance (or per REPLAN).
pub const LP_COUNTERS: [(&str, Counter); 7] = [
    ("lp.simplex_iterations", Counter::SimplexIterations),
    ("lp.ftran", Counter::Ftran),
    ("lp.btran", Counter::Btran),
    ("lp.refactorizations", Counter::Refactorizations),
    ("lp.eta_updates", Counter::EtaUpdates),
    ("lp.cold_solves", Counter::ColdSolves),
    ("lp.warm_resolves", Counter::WarmResolves),
];
/// Side of the machine-speed probe's matrix: about the workload's mean
/// computed LP rows, so the probe works on a dense matrix the size of a
/// typical basis inverse (296 rows on `batch-dag`, 1538 on `batch-wide`).
fn probe_n(kind: Kind) -> usize {
    match kind {
        Kind::Dag => 256,
        Kind::Wide => 1536,
    }
}

/// Set-ups per run; `setup_s` is their calm median.
const SETUPS: usize = 9;
/// Seed and round of the warm-up instances: the same on every run, so
/// set-up does the same work whatever `--seed` is, and never a measured
/// round (rounds count up from 0).
const WARM_SEED: u64 = 0x5741_524d;
const WARM_ROUND: u64 = u64::MAX;

fn instance_seed(seed: u64, round: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed, round.wrapping_mul(1_000_003).wrapping_add(index));
    r.next_u64()
}

/// Seed of the DAG shapes (see [`instance`]).
const SHAPE_SEED: u64 = 0x5348_4150;
/// Rounds repeat their DAG shapes with this period (`batch-dag`).
const SHAPE_ROUNDS: u64 = 4;

/// Instance `index` of round `round`: its DAG shape is seeded by
/// `(round mod SHAPE_ROUNDS, index)` alone, its speedup profiles by
/// `seed` and `round` too. The LP's size, and with it the dense inverse's
/// memory and per-pivot cost (∝ rows²), is a function of the shape, so
/// fixed shapes keep a run's work and peak memory from swinging with the
/// seed or with how many rounds fit in the run, while every instance
/// stays distinct.
fn instance(f: DagFamily, n: usize, m: usize, seed: u64, round: u64, index: u64) -> Instance {
    let dag = f.generate(n, instance_seed(SHAPE_SEED, round % SHAPE_ROUNDS, index));
    let mut rng = StdRng::seed_from_u64(instance_seed(seed, round, index));
    let profiles = (0..dag.node_count())
        .map(|_| CurveFamily::Mixed.sample(&mut rng, m))
        .collect();
    Instance::new(dag, profiles).expect("one generated profile per node")
}

/// The instances of round `round`: a fixed family × size grid.
fn round_instances(kind: Kind, seed: u64, round: u64) -> Vec<Instance> {
    match kind {
        Kind::Dag => DAG_SIZES
            .iter()
            .flat_map(|&n| DAG_FAMILIES.iter().map(move |&f| (f, n)))
            .enumerate()
            .map(|(i, (f, n))| instance(f, n, DAG_M, seed, round, i as u64))
            .collect(),
        Kind::Wide => WIDE_SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| instance(DagFamily::Independent, n, WIDE_M, seed, round, i as u64))
            .collect(),
    }
}

/// Instances never measured, of the workload's smaller sizes: they start
/// the pool's threads and grow the solver's buffers before timing. Big
/// enough that set-up time is not just noise.
fn warmup_instances(kind: Kind) -> Vec<Instance> {
    let seed = |i: usize| instance_seed(WARM_SEED, WARM_ROUND, i as u64);
    match kind {
        Kind::Dag => DAG_FAMILIES
            .iter()
            .enumerate()
            .map(|(i, &f)| random_instance(f, CurveFamily::Mixed, 96, DAG_M, seed(i)))
            .collect(),
        Kind::Wide => (0..nproc())
            .map(|i| {
                random_instance(
                    DagFamily::Independent,
                    CurveFamily::Mixed,
                    512,
                    WIDE_M,
                    seed(i),
                )
            })
            .collect(),
    }
}

/// Allotment-LP rows in crashing form, computed from the instance:
/// |E| + #sources + n + 2.
fn lp_rows(ins: &Instance) -> usize {
    ins.dag().edge_count() + ins.dag().sources().len() + ins.n() + 2
}

fn fingerprint(rep: &JzReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(rep.schedule.makespan().to_bits());
    h.u64(rep.lp.cstar.to_bits());
    for t in rep.schedule.tasks() {
        h.u64(t.start.to_bits());
        h.u64(t.alloc as u64);
    }
    h.0
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One job as the pool ran it.
struct Job {
    result: JobResult,
    wall_ms: f64,
    cpu_ms: f64,
    probe_ms: f64,
    cache: CacheOutcome,
}

/// Runs `jobs` on `workers` threads the way the engine's pool does
/// (`run_batch`): each thread claims the next job index and solves it
/// with the pool's own `solve_one`, threading one `SolveContext` through
/// its jobs when `reuse` is set, against the engine's cache. Each job is
/// also timed by its thread's CPU clock, which `run_batch` does not
/// report, and followed by one machine-speed probe on the same thread.
/// Jobs come back in submission order.
fn pool_round(
    jobs: &[Instance],
    cfg: &JzConfig,
    workers: usize,
    cache: &SolveCache,
    reuse: bool,
    probe: &Probe,
) -> Vec<Job> {
    let config_fp = config_fingerprint(cfg);
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, Job)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..workers.clamp(1, jobs.len().max(1)))
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut ctx = SolveContext::new();
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(ins) = jobs.get(i) else { break };
                        if !reuse {
                            ctx = SolveContext::new();
                        }
                        let c0 = crate::thread_cpu_s();
                        let t0 = Instant::now();
                        let (result, cache) = solve_one(ins, cfg, config_fp, Some(cache), &mut ctx);
                        let wall_ms = ms(t0.elapsed());
                        let cpu_ms = (crate::thread_cpu_s() - c0) * 1e3;
                        let probe_ms = probe.run_ms();
                        mine.push((
                            i,
                            Job {
                                result,
                                wall_ms,
                                cpu_ms,
                                probe_ms,
                                cache,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("pool thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, j)| j).collect()
}

/// Runs one batch workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let workers = nproc();
    let mut out = Outcome::default();

    // Set-up: engine construction, the first round's instances and a
    // warm-up batch that starts the pool's threads and grows the solver's
    // buffers, done SETUPS times; the last engine is kept.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut gen_ms = Vec::new();
    let mut engine = None;
    let mut first = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let e = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        let g0 = Instant::now();
        first = round_instances(kind, seed, 0);
        gen_ms.push(ms(g0.elapsed()));
        let warm = e.solve_batch(&warmup_instances(kind));
        setups.push(t0.elapsed().as_secs_f64());
        if warm.results.iter().any(Result::is_err) {
            return Err("warm-up batch failed to solve".into());
        }
        engine = Some(e);
    }
    let engine = engine.expect("SETUPS > 0");
    let cfg = engine.config().clone();
    let cache = engine.cache_handle();

    let probe = Probe::new(probe_n(kind));
    // Per round: wall seconds and the jobs as run.
    let mut rounds: Vec<(f64, Vec<Job>)> = Vec::new();
    let mut edges = Vec::new();
    let mut rows = Vec::new();
    let mut sizes = Vec::new();
    let mut layer = Layer::default();
    let steal0 = crate::cpu_ticks();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let instances = if round == 0 {
            std::mem::take(&mut first)
        } else {
            let g0 = Instant::now();
            let v = round_instances(kind, seed, round);
            gen_ms.push(ms(g0.elapsed()));
            v
        };
        let t0 = Instant::now();
        let jobs = pool_round(
            &instances,
            &cfg.jz,
            workers,
            &cache,
            cfg.reuse_context,
            &probe,
        );
        let wall = t0.elapsed().as_secs_f64();
        let mut fingerprints = Vec::with_capacity(instances.len());
        for (i, (ins, job)) in instances.iter().zip(&jobs).enumerate() {
            edges.push(ins.dag().edge_count() as f64);
            rows.push(lp_rows(ins) as f64);
            sizes.push(ins.n());
            match &job.result {
                Ok(rep) => {
                    let verified = rep.schedule.verify(ins);
                    out.check(verified.is_ok(), || {
                        format!("round {round} job {i}: schedule fails verify: {verified:?}")
                    });
                    let r = rep.ratio_vs_cstar();
                    out.check(r <= rep.guarantee + 1e-6, || {
                        format!(
                            "round {round} job {i}: ratio {r} above guarantee {}",
                            rep.guarantee
                        )
                    });
                    fingerprints.push(Some(fingerprint(rep)));
                }
                Err(e) => {
                    out.check(false, || format!("round {round} job {i}: solve error {e}"));
                    fingerprints.push(None);
                }
            }
        }
        if trace {
            layer.trace_round(&mut out, &instances, &fingerprints, &cfg.jz, round)?;
        }
        rounds.push((wall, jobs));
        round += 1;
    }
    let steal = crate::steal_share(steal0, crate::cpu_ticks());

    // `batch-dag` rounds repeat their DAG shapes every SHAPE_ROUNDS
    // rounds: statistics are taken over whole periods, so a run that
    // fits one round more does not shift the mix of work. (Every
    // `batch-wide` round does the same work.)
    let used = match kind {
        Kind::Dag if rounds.len() as u64 >= SHAPE_ROUNDS => {
            rounds.len() - rounds.len() % SHAPE_ROUNDS as usize
        }
        _ => rounds.len(),
    };
    let measured: Vec<&Job> = rounds[..used].iter().flat_map(|r| &r.1).collect();
    // Each job's CPU time in reference ms, against the probe level of
    // its round (both threads, about a second on `batch-dag`).
    let cost: Vec<f64> = rounds[..used]
        .iter()
        .flat_map(|r| {
            let probe = crate::probe_level(&r.1.iter().map(|j| j.probe_ms).collect::<Vec<_>>());
            r.1.iter().map(move |j| crate::ref_ms(j.cpu_ms, probe))
        })
        .collect();
    let cpu = sorted(&measured.iter().map(|j| j.cpu_ms).collect::<Vec<_>>());
    let probes = sorted(&measured.iter().map(|j| j.probe_ms).collect::<Vec<_>>());
    let wall = sorted(&measured.iter().map(|j| j.wall_ms).collect::<Vec<_>>());
    let round_wall: f64 = rounds[..used].iter().map(|r| r.0).sum();
    let ratios: Vec<f64> = measured
        .iter()
        .filter_map(|j| j.result.as_ref().ok().map(|r| r.ratio_vs_cstar()))
        .collect();
    let lookups = measured.iter().filter(|j| j.cache.is_some()).count() as u64;
    let hits = measured.iter().filter(|j| j.cache == Some(true)).count() as u64;
    let jobs = measured.len();
    let busy_s = wall.iter().sum::<f64>() / 1e3;
    let ok_ratio = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    let e = &mut out.e2e;
    e.put("setup_s", calm_median(&setups));
    e.put("cpu_per_op_ref_ms", mean(&cost));
    let cost = sorted(&cost);
    e.put("solve_p50_ref_ms", percentile(&cost, 0.5));
    e.put("solve_p90_ref_ms", percentile(&cost, 0.9));
    e.put("ratio_cstar_mean", mean(&ratios));
    e.put(
        "ratio_cstar_max",
        ratios.iter().copied().fold(0.0, f64::max),
    );
    e.put("ok_ratio", ok_ratio);
    e.put("peak_rss_mb", crate::peak_rss_mb("self"));

    let cache_hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    layer.finish(
        &mut out,
        jobs,
        lookups,
        cache_hit_ratio,
        busy_s / (round_wall * workers as f64),
        median(&gen_ms),
    );

    let (lo, hi) = (
        sizes.iter().min().copied().unwrap_or(0),
        sizes.iter().max().copied().unwrap_or(0),
    );
    let maxf = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let (name, m, families) = match kind {
        Kind::Dag => (
            "batch-dag",
            DAG_M,
            "layered,cholesky,series-parallel,fork-join,wavefront",
        ),
        Kind::Wide => ("batch-wide", WIDE_M, "independent"),
    };
    out.descriptor = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {trace}, \"workers\": {workers}, \
         \"families\": \"{families}\", \"curve\": \"mixed\", \"n_min\": {lo}, \"n_max\": {hi}, \"m\": {m}, \
         \"rounds\": {round}, \"rounds_measured\": {used}, \"instances\": {jobs}, \"edges_mean\": {:?}, \"edges_max\": {:?}, \
         \"lp_rows_computed_mean\": {:?}, \"lp_rows_computed_max\": {:?}, \"solve_p90_beyond\": {}, \
         \"cpu_ms_per_op\": {}, \"cpu_solve_p50_ms\": {}, \"cpu_solve_p90_ms\": {}, \"probe_ms_p10_p50_p90\": [{}, {}, {}], \
         \"wall_jobs_per_s\": {}, \"wall_solve_p50_ms\": {}, \"wall_solve_p90_ms\": {}, \"setups\": {SETUPS}, \
         \"cache_lookups\": {lookups}, \"cache_hits\": {hits}, \"host_steal_share\": {steal:?}}}",
        mean(&edges),
        maxf(&edges),
        mean(&rows),
        maxf(&rows),
        beyond(cost.len(), 0.9),
        crate::num(mean(&cpu)),
        crate::num(percentile(&cpu, 0.5)),
        crate::num(percentile(&cpu, 0.9)),
        crate::num(percentile(&probes, 0.1)),
        crate::num(percentile(&probes, 0.5)),
        crate::num(percentile(&probes, 0.9)),
        crate::num(jobs as f64 / round_wall),
        crate::num(percentile(&wall, 0.5)),
        crate::num(percentile(&wall, 0.9)),
    );
    Ok(out)
}

/// One instance solved as the explicit phase composition of
/// `schedule_jz_in`, each phase timed.
pub struct Composed {
    /// Phase-1 LP optimum `C*`.
    pub cstar: f64,
    /// Final allotment (capped at μ).
    pub alloc: Vec<usize>,
    /// The LIST schedule.
    pub schedule: Schedule,
    /// Milliseconds in `solve_allotment_in`, `round_allotment` and
    /// `list_schedule_in`.
    pub ms: [f64; 3],
}

/// Phase 1 (`solve_allotment_in`) → rounding (`round_allotment`) → cap
/// at μ → phase 2 (`list_schedule_in`), at the paper's parameters.
pub fn compose(
    ctx: &mut SolveContext,
    ws: &mut ListWorkspace,
    ins: &Instance,
    jz: &JzConfig,
) -> Result<Composed, String> {
    let params = our_params(ins.m());
    let t0 = Instant::now();
    let lp = solve_allotment_in(ctx, ins, &jz.solver).map_err(|e| format!("phase 1: {e}"))?;
    let t1 = Instant::now();
    let (alloc_prime, _) =
        round_allotment(ins, &lp.x, params.rho).map_err(|e| format!("rounding: {e}"))?;
    let alloc: Vec<usize> = alloc_prime.iter().map(|&l| l.min(params.mu)).collect();
    let t2 = Instant::now();
    let schedule = list_schedule_in(ws, ins, &alloc, jz.priority);
    let t3 = Instant::now();
    Ok(Composed {
        cstar: lp.cstar,
        alloc,
        schedule,
        ms: [ms(t1 - t0), ms(t2 - t1), ms(t3 - t2)],
    })
}

/// Per-layer accumulators of the traced run.
#[derive(Debug, Default)]
struct Layer {
    phase1_ms: f64,
    rounding_ms: f64,
    list_ms: f64,
    canon_us: f64,
    counters: mtsp_obs::Counters,
    rows: f64,
    instances: usize,
    traced_ms: f64,
    untraced_ms: f64,
    lp_solve_ms: f64,
}

impl Layer {
    /// Re-solves one round three more times: through the engine's
    /// `run_batch` at `workers = 1` (untraced reference) and at
    /// `workers = nproc`, whose fingerprints must both match the measured
    /// pool's, and on this thread as the explicit phase composition with the span
    /// collector on (per-layer times, which must be bit-equal to
    /// `schedule_jz_in`).
    fn trace_round(
        &mut self,
        out: &mut Outcome,
        instances: &[Instance],
        pooled: &[Option<u64>],
        jz: &JzConfig,
        round: u64,
    ) -> Result<(), String> {
        let single = run_batch(instances, jz, 1, None, true);
        let engine_pool = run_batch(instances, jz, nproc(), None, true);
        self.untraced_ms += single.latencies.iter().map(|&d| ms(d)).sum::<f64>();
        let mut ctx = SolveContext::new();
        let mut ws = ListWorkspace::new();
        mtsp_obs::span::enable();
        for (i, ins) in instances.iter().enumerate() {
            let reference = single.results[i].as_ref().ok();
            let (a, b) = (pooled[i], reference.map(|r| fingerprint(r)));
            let c = engine_pool.results[i].as_ref().ok().map(|r| fingerprint(r));
            out.check(a.is_some() && a == b && b == c, || {
                format!(
                    "round {round} job {i}: fingerprint at workers {} differs from workers 1",
                    nproc()
                )
            });

            let k0 = Instant::now();
            std::hint::black_box(instance_key(ins));
            self.canon_us += k0.elapsed().as_secs_f64() * 1e6;

            let c0 = *ctx.counters();
            let c = compose(&mut ctx, &mut ws, ins, jz)?;
            self.counters.merge(&ctx.counters().diff(&c0));
            let [p1, rd, li] = c.ms;
            self.phase1_ms += p1;
            self.rounding_ms += rd;
            self.list_ms += li;
            self.traced_ms += p1 + rd + li;
            self.rows += lp_rows(ins) as f64;
            self.instances += 1;
            let equal = reference.is_some_and(|r| {
                r.lp.cstar.to_bits() == c.cstar.to_bits()
                    && r.alloc == c.alloc
                    && r.schedule.tasks().len() == c.schedule.tasks().len()
                    && r.schedule
                        .tasks()
                        .iter()
                        .zip(c.schedule.tasks())
                        .all(|(x, y)| {
                            x.start.to_bits() == y.start.to_bits()
                                && x.alloc == y.alloc
                                && x.duration.to_bits() == y.duration.to_bits()
                        })
            });
            out.check(equal, || {
                format!("round {round} job {i}: phase composition differs from schedule_jz_in")
            });
        }
        mtsp_obs::span::disable();
        let events = mtsp_obs::span::drain();
        self.lp_solve_ms += events
            .iter()
            .filter(|e| e.label == "lp.solve")
            .map(|e| e.dur_ns as f64 / 1e6)
            .sum::<f64>();
        Ok(())
    }

    fn finish(
        &self,
        out: &mut Outcome,
        jobs: usize,
        lookups: u64,
        hit_ratio: f64,
        busy: f64,
        gen_ms: f64,
    ) {
        let n = self.instances.max(1) as f64;
        let solve = self.phase1_ms + self.rounding_ms + self.list_ms;
        let share = |x: f64| if solve > 0.0 { x / solve } else { 0.0 };
        let pivots = self.counters.get(Counter::SimplexIterations) as f64;
        let l = &mut out.layer;
        l.put("core.phase1_ms", self.phase1_ms / n);
        l.put("core.phase1_share", share(self.phase1_ms));
        l.put("core.rounding_ms", self.rounding_ms / n);
        l.put("core.list_ms", self.list_ms / n);
        l.put("core.list_share", share(self.list_ms));
        for (name, c) in LP_COUNTERS {
            l.put(name, self.counters.get(c) as f64 / n);
        }
        l.put("lp.rows", self.rows / n);
        l.put(
            "lp.us_per_pivot",
            if pivots > 0.0 {
                self.phase1_ms * 1e3 / pivots
            } else {
                0.0
            },
        );
        l.put("lp.solve_ms", self.lp_solve_ms / n);
        l.put("engine.pool_busy_ratio", busy);
        l.put("engine.cache_hit_ratio", hit_ratio);
        l.put("engine.cache_lookups", lookups as f64);
        l.put("engine.canon_us", self.canon_us / n);
        for name in [
            "engine.replan_ms_p50",
            "engine.replan_ms_p90",
            "engine.lp_reuses_per_epoch",
            "serve.dispatch_us_p50",
            "serve.dispatch_us_p99",
            "serve.wal_append_us_p50",
            "serve.wal_append_us_p99",
            "serve.queue_depth_max",
            "serve.rejection_ratio",
            "serve.wal_appends",
            "serve.scan_ms",
            "serve.restore_ms",
            "serve.recovered_events",
            "model.wire_us_p50",
            "model.textio_parse_ms",
            "gen.lag_p99_ms",
        ] {
            // Sessions, the daemon and the wire are not exercised here.
            l.put(name, 0.0);
        }
        l.put("model.generate_ms", gen_ms);
        l.put("gen.sent", jobs as f64);
        l.put("gen.replies", jobs as f64);
        l.put(
            "trace.overhead_ratio",
            if self.untraced_ms > 0.0 {
                self.traced_ms / self.untraced_ms
            } else {
                0.0
            },
        );
    }
}
