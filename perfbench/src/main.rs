//! The repository benchmark. Runs one workload and prints, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Before it come the workload descriptor
//! (what exactly ran, with the raw and wall-clock figures) and the
//! failed ratio. METRICS.md is the catalogue.
//!
//! ```text
//! perfbench --mtsp PATH --workload batch-dag|batch-wide|serve-mixed \
//!           --seed N --seconds S --trace 0|1
//! ```

mod batch;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics and their units, in output order; every workload
/// reports each one (METRICS.md says what each means on each workload).
/// The costs of work are CPU times in reference milliseconds (`ref_ms`,
/// see [`ref_ms`]): on a shared virtual machine, wall time swings with
/// the neighbours and even CPU time with the host's speed, by more than
/// the bounds. Wall-clock rates and latencies go to the descriptor.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cpu_per_op_ref_ms", "ref_ms"),
    ("solve_p50_ref_ms", "ref_ms"),
    ("solve_p90_ref_ms", "ref_ms"),
    ("ratio_cstar_mean", "ratio"),
    ("ratio_cstar_max", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in output order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.phase1_ms", "ms"),
    ("core.phase1_share", "ratio"),
    ("core.rounding_ms", "ms"),
    ("core.list_ms", "ms"),
    ("core.list_share", "ratio"),
    ("lp.simplex_iterations", "count"),
    ("lp.ftran", "count"),
    ("lp.btran", "count"),
    ("lp.refactorizations", "count"),
    ("lp.eta_updates", "count"),
    ("lp.cold_solves", "count"),
    ("lp.warm_resolves", "count"),
    ("lp.rows", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.solve_ms", "ms"),
    ("engine.pool_busy_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_lookups", "count"),
    ("engine.canon_us", "us"),
    ("engine.replan_ms_p50", "ms"),
    ("engine.replan_ms_p90", "ms"),
    ("engine.lp_reuses_per_epoch", "ratio"),
    ("serve.dispatch_us_p50", "us"),
    ("serve.dispatch_us_p99", "us"),
    ("serve.wal_append_us_p50", "us"),
    ("serve.wal_append_us_p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejection_ratio", "ratio"),
    ("serve.wal_appends", "count"),
    ("serve.scan_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.recovered_events", "count"),
    ("model.wire_us_p50", "us"),
    ("model.textio_parse_ms", "ms"),
    ("model.generate_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.replies", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Threads, pool workers, shards and connections the load may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Named metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// `(name, value, unit)` in catalogue order, failing unless exactly
    /// the catalogue's metrics were measured.
    fn ordered(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::with_capacity(catalogue.len());
        for &(want, unit) in catalogue {
            let hit = self.0.iter().find(|(n, _)| *n == want);
            let (_, value) = hit.ok_or_else(|| format!("metric {want} was not measured"))?;
            out.push((want, *value, unit));
        }
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(out)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (instances solved, requests sent, checks run).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Metrics,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layer: Metrics,
    /// The workload descriptor, a JSON object.
    pub descriptor: String,
}

impl Outcome {
    /// Counts one checked operation, printing why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) process `pid` has used, in seconds, from
/// procfs (`utime` and `stime`, in the kernel's fixed 100 ticks/s).
/// Time the hypervisor steals, and time spent waiting for the disk, is
/// not charged to it, so it moves with the program's own work.
pub fn cpu_time_s(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name: state is the
            // first, utime the twelfth, stime the thirteenth.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU ticks of the machine from `/proc/stat`: time the
/// hypervisor ran something else while this guest wanted its CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`, nanosecond resolution; procfs would only
/// be as fine as the scheduler tick). The kernel leaves out time the
/// hypervisor stole and time spent waiting to run, so the figure moves
/// with the thread's own work.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes the `timespec` it is given,
    // which is valid, aligned and laid out as the C library expects.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Multiply-adds of one [`Probe::run_ms`] call.
const PROBE_WORK: usize = 100 * 256 * 256;

/// CPU milliseconds one [`Probe::run_ms`] call takes at the reference
/// speed.
pub const REF_PROBE_MS: f64 = 5.0;

/// A fixed kernel owned by the benchmark that measures how fast the
/// machine runs dense code right now: products of a fixed n × n matrix
/// with a vector, `PROBE_WORK` multiply-adds in all, timed by the
/// thread's CPU clock. It runs no code of the program. On a shared host
/// that speed drifts by ±20 % over seconds with no stolen time to show
/// for it (other guests share the cores' caches and clocks), and the
/// program's CPU times drift with it. A workload sizes the matrix like
/// its typical LP basis inverse, so the probe leans on the caches as the
/// work does. The matrix is built once and shared by the threads that
/// probe; it is part of the benchmark process's memory.
#[derive(Debug)]
pub struct Probe {
    n: usize,
    a: Vec<f64>,
}

impl Probe {
    /// A probe on an `n` × `n` matrix.
    pub fn new(n: usize) -> Probe {
        let a = (0..n * n)
            .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
            .collect();
        Probe { n, a }
    }

    /// Runs the kernel once; its thread CPU time in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let n = self.n;
        let mut x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        let c0 = thread_cpu_s();
        for _ in 0..(PROBE_WORK / (n * n)).max(1) {
            for (r, yr) in y.iter_mut().enumerate() {
                let row = &self.a[r * n..(r + 1) * n];
                *yr = row.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>();
            }
            let norm = y.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = yi / norm;
            }
        }
        std::hint::black_box(&x);
        (thread_cpu_s() - c0) * 1e3
    }
}

/// The machine's speed over a stretch of work, from the probe runs next
/// to it: their mean CPU time without the slowest run, which another
/// thread most likely interrupted (a probe shares the cores with every
/// thread of the machine, and the work's short pieces mostly run
/// uninterrupted). `0.0` when there are no runs.
pub fn probe_level(runs: &[f64]) -> f64 {
    let slowest = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let kept = if runs.len() > 2 {
        runs.len() - 1
    } else {
        runs.len()
    };
    let total: f64 = runs.iter().sum::<f64>() - if kept < runs.len() { slowest } else { 0.0 };
    if kept == 0 {
        0.0
    } else {
        total / kept as f64
    }
}

/// `cpu_ms` of the program's work, measured while the probe ran at
/// `probe_ms` ([`probe_level`]), in reference milliseconds: the work's
/// cost in probe runs, times `REF_PROBE_MS`. A change to the program
/// moves it; the host's drift, which slows the probe as much, does not.
pub fn ref_ms(cpu_ms: f64, probe_ms: f64) -> f64 {
    if probe_ms > 0.0 {
        cpu_ms * REF_PROBE_MS / probe_ms
    } else {
        0.0
    }
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings, recorded in descriptors: latency measured on a
/// shared virtual machine swings with it.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// A JSON number with every digit (`{:?}` is shortest round-trip).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

struct Args {
    mtsp: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        mtsp: PathBuf::from(get("--mtsp")?),
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other}")),
        },
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let out = match args.workload.as_str() {
        "batch-dag" => batch::run(batch::Kind::Dag, args.seed, args.seconds, args.trace)?,
        "batch-wide" => batch::run(batch::Kind::Wide, args.seed, args.seconds, args.trace)?,
        "serve-mixed" => serve::run(&args.mtsp, args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let metrics = if args.trace {
        out.layer.ordered(&PER_LAYER)?
    } else {
        out.e2e.ordered(&END_TO_END)?
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && finite && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    line.push_str("}}");
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    Ok(format!(
        "descriptor: {}\nfailed_ratio: {} ({} of {})\n{line}",
        out.descriptor,
        num(failed_ratio),
        out.failed,
        out.attempted
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_level_leaves_out_the_slowest_run() {
        // Five runs, one interrupted: the level is the mean of the rest,
        // and a cost scales with it.
        let level = probe_level(&[5.0, 4.0, 9.0, 6.0, 5.0]);
        assert_eq!(level, 5.0);
        assert_eq!(ref_ms(100.0, level), 100.0);
        assert_eq!(ref_ms(100.0, 10.0), 50.0);
        // Too few runs to tell an interrupted one apart: all count.
        assert_eq!(probe_level(&[4.0, 6.0]), 5.0);
        assert_eq!(probe_level(&[]), 0.0);
        assert_eq!(ref_ms(100.0, 0.0), 0.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
