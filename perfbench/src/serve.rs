//! The `serve-mixed` workload: open-loop multi-tenant wire traffic sent
//! to the real `mtsp serve` binary over a unix socket, then a kill and a
//! restart over the journals it left.
//!
//! Two connections (nproc = 2), each owning its tenants:
//! * the light connection carries 8 tenants × 2 sessions (m = 4) sending
//!   journaled writes (ARRIVE, EDGE, START, FINISH), reads (cheap
//!   REPLANs, SNAPSHOT) and SOLVEs of a small shared instance pool that
//!   hit the cross-tenant cache, at a fixed rate well below capacity;
//! * the heavy connection carries one tenant growing layered sessions to
//!   n ≈ 64–96 (m = 8), re-planning at a fixed cadence throughout.
//!
//! Light requests are mostly wire, registry, journal and cache work; the
//! heavy REPLANs hold a shard in the LP and so expose head-of-line
//! blocking. Requests go out on schedule whatever the replies do (open
//! loop), and each is timed from its due time. Those wall-clock
//! latencies go to the descriptor; the metrics are the daemon's CPU time
//! per reply and the heavy REPLANs' CPU time, in reference ms.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mtsp_core::list::ListWorkspace;
use mtsp_engine::{instance_key, SessionConfig};
use mtsp_lp::SolveContext;
use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
use mtsp_model::textio::{parse_instance, write_instance};
use mtsp_model::wire::{
    parse_request, parse_response, write_request, write_response, Request, Response, SessionEvent,
};
use mtsp_obs::{Counter, Counters};
use mtsp_serve::wal::{self, Wal};
use mtsp_serve::{daemon, FsyncPolicy, Quotas, Registry, ServeConfig, ServedSession};

use crate::stats::{beyond, calm_median, percentile, sorted, tail, LatencyReport, Rng, Timed};
use crate::{nproc, Outcome, Probe};

// The traffic below is assumed: the repository holds no record of real
// `mtsp serve` traffic, so the mix and rates are the benchmark's choice.
// Each constant says whether it was picked to resemble a plausible
// deployment or to keep runs steady on a small shared machine;
// METRICS.md lists them. A gain on `serve-mixed` is a gain on this mix,
// not a measured user-facing one.

/// Light tenants and sessions per tenant: enough sessions that requests
/// spread over both shards (chosen for coverage).
const LIGHT_TENANTS: usize = 8;
const LIGHT_SESSIONS: usize = 2;
/// Machines of a light session (small, so its REPLANs stay cheap).
const LIGHT_M: usize = 4;
/// Tasks a light session takes in before it is closed and reopened.
const LIGHT_TASKS: usize = 16;
/// Pending tasks a light session holds at most (keeps its REPLANs cheap).
const LIGHT_PENDING: usize = 6;
/// Verb weights of a light session's requests: ARRIVE, EDGE, START,
/// FINISH, REPLAN, SNAPSHOT (a guess at a write-heavy planner client:
/// about 3 journaled writes per read).
const LIGHT_WEIGHTS: [u64; 6] = [20, 8, 14, 14, 14, 10];
/// Share of light requests that are SOLVEs (assumed).
const SOLVE_SHARE: f64 = 0.1;
/// Distinct SOLVE instances shared by all light tenants: small, so
/// repeated SOLVEs hit the cross-tenant cache (chosen for coverage).
const SOLVE_POOL: usize = 48;
/// Seed of what every run shares whatever `--seed` is: the SOLVE pool
/// and the heavy tenant's sessions (profiles and edges). `--seed` varies
/// the light traffic: which tenant sends which request when. So the
/// quality ratios cover the same instances on every run, and the heavy
/// REPLANs do the same work, as `batch-dag`'s fixed DAG shapes do
/// (chosen for steadiness: drawn from `--seed`, they spread over five
/// seeds by 0.04 for the mean ratio, 0.11 for the max and 0.13 for the
/// REPLAN median).
const FIXED_SEED: u64 = 0x4649_5845;
const HEAVY_M: usize = 8;
/// Heavy REPLAN cycles per second, throughout: high enough that the
/// load of a 30 s run holds about 320 REPLANs, so p90 has over 30
/// samples beyond it (chosen for the statistics, not from traffic).
const HEAVY_RATE: f64 = 12.0;
/// Tasks the heavy tenant starts per cycle (its pending suffix grows by
/// the difference to the layer width).
const HEAVY_STARTS: usize = 2;
/// Tasks per layer of a heavy session, and predecessors per task in the
/// layer before.
const HEAVY_WIDTH: usize = 4;
const HEAVY_PREDS: usize = 2;
/// Heavy session sizes, in turn; with their profiles and edges drawn
/// from `FIXED_SEED`, the sessions, the stalls they cause and the
/// history a restart replays do not swing with the seed (chosen for
/// steadiness).
const HEAVY_SIZES: [usize; 3] = [64, 80, 96];
/// Grown heavy sessions kept open (bounds what a restart replays).
const HEAVY_OPEN: usize = 12;
/// Light requests per second: a rate the daemon serves with room to
/// spare (assumed, and low enough that light latency is service time,
/// not queueing).
const LIGHT_RATE: f64 = 200.0;
/// Share of `--seconds` the load runs; the rest is for checks.
const LOAD_SHARE: f64 = 0.9;
/// Light-request p99 limit, judged for the descriptor.
const P99_LIMIT_MS: f64 = 200.0;
/// How long after the last due time replies are still accepted.
const GRACE_S: f64 = 20.0;
/// Side of the machine-speed probe's matrix: about the heavy REPLANs'
/// mean computed LP rows (115).
const PROBE_N: usize = 128;
/// Probes on either side of a heavy REPLAN that scale its CPU time.
const PROBE_SPAN: usize = 2;
/// Daemon spawns timed for `setup_s` (which reports their calm median),
/// and restarts over the journals, each checked.
const SETUPS: usize = 21;
const RECOVERIES: usize = 3;

/// What a request does, with enough detail to replay it below the wire.
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Event(SessionEvent),
    Snapshot,
    Close,
    Solve(usize),
}

#[derive(Debug, Clone)]
struct Req {
    due: f64,
    light: bool,
    tenant: String,
    session: String,
    op: Op,
    /// Wire text: request line plus body, `\n`-terminated.
    text: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    Pending { planned: bool },
    Running,
    Finished,
}

/// The generator's model of one session: just enough state to emit only
/// requests the daemon accepts.
#[derive(Debug)]
struct Sim {
    tenant: String,
    session: String,
    m: usize,
    open: bool,
    t: f64,
    state: Vec<St>,
    preds: Vec<Vec<usize>>,
}

impl Sim {
    fn new(tenant: String, session: String, m: usize) -> Sim {
        Sim {
            tenant,
            session,
            m,
            open: false,
            t: 0.0,
            state: Vec::new(),
            preds: Vec::new(),
        }
    }

    fn tick(&mut self) -> f64 {
        self.t += 1.0;
        self.t
    }

    fn pending(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, St::Pending { .. }))
            .count()
    }

    fn startable(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&j| {
                self.state[j] == St::Pending { planned: true }
                    && self.preds[j].iter().all(|&p| self.state[p] == St::Finished)
            })
            .collect()
    }

    fn open_op(&mut self) -> Op {
        self.open = true;
        self.t = 0.0;
        self.state.clear();
        self.preds.clear();
        Op::Open(self.m)
    }

    fn arrive(&mut self, rng: &mut Rng) -> Op {
        let p1 = 1.0 + 9.0 * rng.unit();
        let d = 0.3 + 0.6 * rng.unit();
        let times = (1..=self.m).map(|l| p1 * (l as f64).powf(-d)).collect();
        self.state.push(St::Pending { planned: false });
        self.preds.push(Vec::new());
        Op::Event(SessionEvent::Arrive {
            t: self.tick(),
            times,
        })
    }

    fn edge(&mut self, pred: usize, succ: usize) -> Op {
        if !self.preds[succ].contains(&pred) {
            self.preds[succ].push(pred);
        }
        Op::Event(SessionEvent::Edge {
            t: self.tick(),
            pred,
            succ,
        })
    }

    fn start(&mut self, task: usize) -> Op {
        self.state[task] = St::Running;
        Op::Event(SessionEvent::Start {
            t: self.tick(),
            task,
        })
    }

    fn finish(&mut self, task: usize) -> Op {
        self.state[task] = St::Finished;
        Op::Event(SessionEvent::Finish {
            t: self.tick(),
            task,
        })
    }

    fn replan(&mut self) -> Op {
        for s in &mut self.state {
            if let St::Pending { planned } = s {
                *planned = true;
            }
        }
        Op::Event(SessionEvent::Replan { t: self.tick() })
    }

    /// The next light request: a valid operation drawn by weight.
    fn next_light(&mut self, rng: &mut Rng) -> Op {
        if !self.open {
            return self.open_op();
        }
        let n = self.state.len();
        if n >= LIGHT_TASKS && self.state.iter().all(|&s| s == St::Finished) {
            self.open = false;
            return Op::Close;
        }
        let pending_succ: Vec<usize> = (1..n)
            .filter(|&j| matches!(self.state[j], St::Pending { .. }))
            .collect();
        let startable = self.startable();
        let running: Vec<usize> = (0..n).filter(|&j| self.state[j] == St::Running).collect();
        let arrive_ok = n < LIGHT_TASKS && self.pending() < LIGHT_PENDING;
        let allowed = [
            arrive_ok,
            !pending_succ.is_empty(),
            !startable.is_empty(),
            !running.is_empty(),
            true,
            true,
        ];
        let weights: Vec<u64> = LIGHT_WEIGHTS
            .iter()
            .zip(allowed)
            .map(|(&w, ok)| if ok { w } else { 0 })
            .collect();
        let total: u64 = weights.iter().sum();
        let mut pick = rng.next_u64() % total;
        let mut which = 0;
        while pick >= weights[which] {
            pick -= weights[which];
            which += 1;
        }
        match which {
            0 => self.arrive(rng),
            1 => {
                let succ = pending_succ[rng.range(0, pending_succ.len())];
                let pred = rng.range(0, succ);
                self.edge(pred, succ)
            }
            2 => self.start(startable[rng.range(0, startable.len())]),
            3 => self.finish(running[rng.range(0, running.len())]),
            4 => self.replan(),
            _ => Op::Snapshot,
        }
    }
}

fn render(tenant: &str, session: &str, op: &Op, solve_bodies: &[String]) -> String {
    let (t, s) = (tenant.to_string(), session.to_string());
    let req = match op {
        Op::Open(m) => Request::Open {
            tenant: t,
            session: s,
            m: *m,
        },
        Op::Snapshot => Request::Snapshot {
            tenant: t,
            session: s,
        },
        Op::Close => Request::Close {
            tenant: t,
            session: s,
        },
        Op::Solve(k) => {
            let body = &solve_bodies[*k];
            let req = Request::Solve {
                tenant: t,
                body_lines: body.lines().count(),
            };
            return format!("{}\n{body}", write_request(&req));
        }
        Op::Event(ev) => match ev.clone() {
            SessionEvent::Arrive { t: at, times } => Request::Arrive {
                tenant: t,
                session: s,
                t: at,
                times,
            },
            SessionEvent::Edge { t: at, pred, succ } => Request::Edge {
                tenant: t,
                session: s,
                t: at,
                pred,
                succ,
            },
            SessionEvent::Machines { .. } => {
                unreachable!("the generator never changes machine counts")
            }
            SessionEvent::Start { t: at, task } => Request::Start {
                tenant: t,
                session: s,
                t: at,
                task,
            },
            SessionEvent::Finish { t: at, task } => Request::Finish {
                tenant: t,
                session: s,
                t: at,
                task,
            },
            SessionEvent::Replan { t: at } => Request::Replan {
                tenant: t,
                session: s,
                t: at,
            },
        },
    };
    format!("{}\n", write_request(&req))
}

/// Everything the generator produced from one seed.
struct Plan {
    /// Requests per connection, in due order: `[heavy, light]`.
    conns: [Vec<Req>; 2],
    /// When the load ends, seconds since its start.
    load_end: f64,
    solve_bodies: Vec<String>,
    /// Sessions open when the load ends, `(tenant, session)`.
    open_at_end: Vec<(String, String)>,
    heavy_sessions: usize,
    heavy_sizes: Vec<usize>,
}

fn push(conn: &mut Vec<Req>, due: f64, light: bool, sim: (&str, &str), op: Op, bodies: &[String]) {
    let text = render(sim.0, sim.1, &op, bodies);
    conn.push(Req {
        due,
        light,
        tenant: sim.0.to_string(),
        session: sim.1.to_string(),
        op,
        text,
    });
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let mut rng = Rng::new(seed, 0x5e4e);
    let mut fixed = Rng::new(FIXED_SEED, 0x5e4e);
    let solve_bodies: Vec<String> = (0..SOLVE_POOL)
        .map(|k| {
            let ins = random_instance(
                DagFamily::Layered,
                CurveFamily::PowerLaw,
                16,
                LIGHT_M,
                fixed.next_u64() ^ k as u64,
            );
            write_instance(&ins)
        })
        .collect();
    let load_end = LOAD_SHARE * seconds;

    let mut light: Vec<Sim> = (0..LIGHT_TENANTS)
        .flat_map(|t| {
            (0..LIGHT_SESSIONS)
                .map(move |s| Sim::new(format!("light{t}"), format!("s{s}"), LIGHT_M))
        })
        .collect();
    let mut light_reqs = Vec::new();
    {
        let count = (load_end * LIGHT_RATE).round() as usize;
        for k in 0..count {
            let due = k as f64 / LIGHT_RATE;
            let tenant = rng.range(0, LIGHT_TENANTS);
            if rng.unit() < SOLVE_SHARE {
                let name = format!("light{tenant}");
                let op = Op::Solve(rng.range(0, SOLVE_POOL));
                push(&mut light_reqs, due, true, (&name, "-"), op, &solve_bodies);
            } else {
                let sim = &mut light[tenant * LIGHT_SESSIONS + rng.range(0, LIGHT_SESSIONS)];
                let op = sim.next_light(&mut rng);
                let (t, s) = (sim.tenant.clone(), sim.session.clone());
                push(&mut light_reqs, due, true, (&t, &s), op, &solve_bodies);
            }
        }
    }

    let mut heavy_reqs = Vec::new();
    let mut heavy_sessions = 0;
    let mut heavy_sizes = Vec::new();
    let mut sim: Option<(Sim, usize, Vec<usize>)> = None;
    let mut open_heavy: Vec<String> = Vec::new();
    let cycles = (load_end * HEAVY_RATE).floor() as usize;
    for c in 0..cycles {
        let due = c as f64 / HEAVY_RATE;
        let (s, target, prev_layer) = sim.get_or_insert_with(|| {
            let mut s = Sim::new("heavy".into(), format!("h{heavy_sessions}"), HEAVY_M);
            let target = HEAVY_SIZES[heavy_sessions % HEAVY_SIZES.len()];
            heavy_sessions += 1;
            let op = s.open_op();
            push(
                &mut heavy_reqs,
                due,
                false,
                ("heavy", &s.session.clone()),
                op,
                &solve_bodies,
            );
            (s, target, Vec::new())
        });
        let name = s.session.clone();
        let key = ("heavy", name.as_str());
        for j in (0..s.state.len())
            .filter(|&j| s.state[j] == St::Running)
            .collect::<Vec<_>>()
        {
            let op = s.finish(j);
            push(&mut heavy_reqs, due, false, key, op, &solve_bodies);
        }
        for j in s.startable().into_iter().take(HEAVY_STARTS) {
            let op = s.start(j);
            push(&mut heavy_reqs, due, false, key, op, &solve_bodies);
        }
        let width = HEAVY_WIDTH.min(*target - s.state.len());
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let op = s.arrive(&mut fixed);
            push(&mut heavy_reqs, due, false, key, op, &solve_bodies);
            let j = s.state.len() - 1;
            layer.push(j);
            for k in 0..HEAVY_PREDS.min(prev_layer.len()) {
                // Distinct predecessors: a seeded rotation of the
                // previous layer.
                let off = fixed.range(0, prev_layer.len());
                let pred = prev_layer[(off + k) % prev_layer.len()];
                let op = s.edge(pred, j);
                push(&mut heavy_reqs, due, false, key, op, &solve_bodies);
            }
        }
        *prev_layer = layer;
        // The REPLAN is due half a cycle after the cycle's writes, so its
        // latency is its own (plus any queue it finds), not the writes'.
        let op = s.replan();
        push(
            &mut heavy_reqs,
            due + 0.5 / HEAVY_RATE,
            false,
            key,
            op,
            &solve_bodies,
        );
        if s.state.len() >= *target {
            // Finished growing: the session stays open (its journal is
            // what a restart replays) and the next cycle opens another;
            // beyond HEAVY_OPEN sessions the oldest is closed.
            heavy_sizes.push(s.state.len());
            open_heavy.push(s.session.clone());
            if open_heavy.len() > HEAVY_OPEN {
                let oldest = open_heavy.remove(0);
                let due = due + 0.5 / HEAVY_RATE;
                push(
                    &mut heavy_reqs,
                    due,
                    false,
                    ("heavy", &oldest),
                    Op::Close,
                    &solve_bodies,
                );
            }
            sim = None;
        }
    }
    let mut open_at_end: Vec<(String, String)> = light
        .iter()
        .filter(|s| s.open)
        .map(|s| (s.tenant.clone(), s.session.clone()))
        .collect();
    open_at_end.extend(open_heavy.into_iter().map(|s| ("heavy".to_string(), s)));
    if let Some((s, _, _)) = &sim {
        open_at_end.push((s.tenant.clone(), s.session.clone()));
    }
    Plan {
        conns: [heavy_reqs, light_reqs],
        load_end,
        solve_bodies,
        open_at_end,
        heavy_sessions,
        heavy_sizes,
    }
}

/// A spawned daemon, killed (and reaped) when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(mtsp: &Path, socket: PathBuf, wal_dir: &Path) -> Result<Daemon, String> {
        let child = Command::new(mtsp)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args([
                "--shards",
                &nproc().to_string(),
                "--fsync",
                "always",
                "--wal-dir",
            ])
            .arg(wal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mtsp.display()))?;
        Ok(Daemon { child, socket })
    }

    /// Connects, retrying until the daemon listens.
    fn connect(&mut self) -> Result<UnixStream, String> {
        let t0 = Instant::now();
        loop {
            if let Ok(s) = UnixStream::connect(&self.socket) {
                return Ok(s);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply as received: its text (reply line plus any body lines) and
/// the reply line as parsed by `wire::parse_response`, `None` when it
/// does not parse.
#[derive(Debug, Clone)]
struct Reply {
    text: String,
    parsed: Option<Response>,
}

impl Reply {
    /// Whether the daemon accepted the request: the reply parses and is
    /// not an `ERR`.
    fn ok(&self) -> bool {
        matches!(&self.parsed, Some(r) if !matches!(r, Response::Err { .. }))
    }
}

/// Splits a byte stream into whole replies: a reply line plus the body
/// lines its parsed header announces (`Response::body_lines`).
#[derive(Debug, Default)]
struct ReplyReader {
    buf: Vec<u8>,
    current: Option<Reply>,
    body_left: usize,
    lines: usize,
}

impl ReplyReader {
    fn feed(&mut self, bytes: &[u8], mut done: impl FnMut(Reply)) {
        self.buf.extend_from_slice(bytes);
        while let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            let line = String::from_utf8_lossy(&line).into_owned();
            self.lines += 1;
            match &mut self.current {
                Some(reply) if self.body_left > 0 => {
                    reply.text.push_str(&line);
                    self.body_left -= 1;
                }
                _ => {
                    let parsed = parse_response(&line, self.lines).ok();
                    self.body_left = parsed.as_ref().map_or(0, Response::body_lines);
                    self.current = Some(Reply { text: line, parsed });
                }
            }
            if self.body_left == 0 {
                if let Some(reply) = self.current.take() {
                    done(reply);
                }
            }
        }
    }
}

/// Sends `script` closed-loop and returns the replies.
fn roundtrip(stream: &mut UnixStream, script: &str, replies: usize) -> Result<Vec<Reply>, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(script.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut rr = ReplyReader::default();
    let mut out = Vec::new();
    let mut buf = [0u8; 1 << 16];
    while out.len() < replies {
        let k = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if k == 0 {
            return Err("daemon closed the connection".into());
        }
        rr.feed(&buf[..k], |r| out.push(r));
    }
    Ok(out)
}

fn texts(replies: &[Reply]) -> String {
    replies.iter().map(|r| r.text.as_str()).collect()
}

/// Times daemon spawn → first reply (a STATS probe).
fn start_daemon(
    mtsp: &Path,
    socket: PathBuf,
    wal_dir: &Path,
) -> Result<(Daemon, f64, Vec<Reply>), String> {
    let t0 = Instant::now();
    let mut d = Daemon::spawn(mtsp, socket, wal_dir)?;
    let mut s = d.connect()?;
    let reply = roundtrip(&mut s, "STATS\n", 1)?;
    Ok((d, t0.elapsed().as_secs_f64(), reply))
}

/// What one connection saw during the load.
#[derive(Debug, Default)]
struct ConnLog {
    sent: Vec<f64>,
    reply_at: Vec<Option<f64>>,
    replies: Vec<Reply>,
}

/// Drives one connection open-loop: this thread writes every request at
/// its due time whatever the replies do, while a second thread blocks on
/// the socket and stamps each reply as it arrives. (A single polling
/// thread would either quantize reply times to its poll interval or, with
/// socket read timeouts, to the kernel tick.)
fn drive(mut stream: UnixStream, reqs: &[Req], t0: Instant, deadline: f64) -> io::Result<ConnLog> {
    let now = || t0.elapsed().as_secs_f64();
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(250)))?;
    std::thread::scope(|sc| {
        let receiver = sc.spawn(move || -> io::Result<(Vec<Option<f64>>, Vec<Reply>)> {
            let mut at = vec![None; reqs.len()];
            let mut replies = Vec::with_capacity(reqs.len());
            let mut rr = ReplyReader::default();
            let mut buf = vec![0u8; 1 << 16];
            let mut res = Ok(());
            while replies.len() < reqs.len() && now() < deadline {
                match reader.read(&mut buf) {
                    Ok(0) => break,
                    Ok(k) => {
                        let t = now();
                        rr.feed(&buf[..k], |r| {
                            if let Some(slot) = at.get_mut(replies.len()) {
                                *slot = Some(t);
                            }
                            replies.push(r);
                        });
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
            // A daemon whose replies nobody reads stops reading requests,
            // which would leave the sender blocked for good: close the
            // socket, so its write fails and the requests count as missing.
            let _ = reader.shutdown(Shutdown::Both);
            res.map(|()| (at, replies))
        });
        let mut sent = Vec::with_capacity(reqs.len());
        for r in reqs {
            let wait = r.due - now();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            sent.push(now());
            if let Err(e) = stream.write_all(r.text.as_bytes()) {
                // The receiver sees the same failure as missing replies.
                eprintln!("perfbench: send failed: {e}");
                break;
            }
        }
        let (reply_at, replies) = receiver
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("receiver thread panicked")))?;
        sent.resize(reqs.len(), f64::NAN);
        Ok(ConnLog {
            sent,
            reply_at,
            replies,
        })
    })
}

fn snapshot_script(sessions: &[(String, String)]) -> String {
    sessions
        .iter()
        .map(|(t, s)| format!("SNAPSHOT {t} {s}\n"))
        .collect()
}

fn stats_value(reply: &str, name: &str) -> f64 {
    reply
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

fn registry(wal_dir: Option<PathBuf>) -> Result<Registry, String> {
    Registry::new(ServeConfig {
        shards: nproc(),
        wal_dir,
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("in-process registry: {e}"))
}

/// Runs the workload inside `.bench_run/`, removed afterwards.
pub fn run(mtsp: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = PathBuf::from(format!(".bench_run/serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let res = run_in(&dir, mtsp, seed, seconds, trace);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    res
}

fn run_in(
    dir: &Path,
    mtsp: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let g0 = Instant::now();
    let plan = plan(seed, seconds);
    let generate_ms = g0.elapsed().as_secs_f64() * 1e3;
    let wal_dir = dir.join("wal");

    // Set-up: spawn → first reply, SETUPS times over fresh journal
    // roots; the last daemon carries the load.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let root = if i + 1 == SETUPS {
            wal_dir.clone()
        } else {
            dir.join(format!("wal-setup{i}"))
        };
        let (d, secs, _) = start_daemon(mtsp, dir.join(format!("s{i}.sock")), &root)?;
        setups.push(secs);
        if i + 1 == SETUPS {
            live = Some(d);
        } else {
            d.kill();
        }
    }
    let mut daemon = live.expect("SETUPS > 0");

    // The load: per connection a sender and a receiver thread, open loop;
    // one more thread replays the heavy sessions in-process alongside
    // (`replay_heavy`), and its machine-speed probes also scale the
    // daemon's CPU time.
    let deadline = plan.load_end + GRACE_S;
    let streams = [daemon.connect()?, daemon.connect()?];
    let cpu0 = crate::cpu_time_s(&daemon.pid());
    let steal0 = crate::cpu_ticks();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut layer = ServeLayer::default();
    let (logs, replayed) = std::thread::scope(|sc| {
        let layer = &mut layer;
        let heavy = &plan.conns[0];
        let replayer = sc.spawn(move || layer.replay_heavy(heavy, t0, trace));
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&plan.conns)
            .map(|(s, reqs)| {
                sc.spawn(move || {
                    while Instant::now() < t0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    drive(s, reqs, t0, deadline)
                })
            })
            .collect();
        let logs: Vec<io::Result<ConnLog>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("connection thread panicked")))
            })
            .collect();
        let replayed = replayer
            .join()
            .unwrap_or_else(|_| Err("heavy replay thread panicked".to_string()));
        (logs, replayed)
    });
    replayed?;
    let steal = crate::steal_share(steal0, crate::cpu_ticks());
    let daemon_cpu_s = crate::cpu_time_s(&daemon.pid()) - cpu0;
    let logs: Vec<ConnLog> = logs
        .into_iter()
        .collect::<io::Result<_>>()
        .map_err(|e| format!("load: {e}"))?;

    // Per-request checks: a reply arrived in time and the daemon
    // accepted the request; a SOLVE reply must carry makespan and C*.
    for (c, (reqs, log)) in plan.conns.iter().zip(&logs).enumerate() {
        for (i, req) in reqs.iter().enumerate() {
            let reply = log.replies.get(i);
            let solve_ok = !matches!(req.op, Op::Solve(_))
                || matches!(reply.and_then(|r| r.parsed.as_ref()),
                    Some(Response::SolveOk { makespan, cstar, .. })
                        if makespan.is_finite() && *cstar > 0.0);
            out.check(
                log.reply_at[i].is_some() && reply.is_some_and(Reply::ok) && solve_ok,
                || {
                    format!(
                        "conn {c} request {i} ({}): reply {:?}",
                        req.text.lines().next().unwrap_or(""),
                        reply.and_then(|r| r.text.lines().next())
                    )
                },
            );
        }
    }

    // Live daemon: counters, snapshots of every open session, peak RSS.
    let mut probe = daemon.connect()?;
    let stats = texts(&roundtrip(&mut probe, "STATS\n", 1)?);
    let before = roundtrip(
        &mut probe,
        &snapshot_script(&plan.open_at_end),
        plan.open_at_end.len(),
    )?;
    drop(probe);
    let peak_rss = crate::peak_rss_mb(&daemon.pid());
    daemon.kill();

    if trace {
        layer.recovery_below_the_wire(&wal_dir)?;
    }

    // Restart over the journals, RECOVERIES times: every session's
    // SNAPSHOT must equal the one taken before the kill.
    let mut recoveries = Vec::new();
    for i in 0..RECOVERIES {
        let (mut d, secs, first) = start_daemon(mtsp, dir.join(format!("r{i}.sock")), &wal_dir)?;
        recoveries.push(secs);
        let recovered = stats_value(&texts(&first), "serve.recoveries");
        out.check(recovered as usize == plan.open_at_end.len(), || {
            format!(
                "restart {i}: {recovered} sessions recovered, {} were open",
                plan.open_at_end.len()
            )
        });
        let mut s = d.connect()?;
        let after = roundtrip(
            &mut s,
            &snapshot_script(&plan.open_at_end),
            plan.open_at_end.len(),
        )?;
        for (k, (a, b)) in before.iter().zip(&after).enumerate() {
            out.check(a.ok() && a.text == b.text, || {
                format!("restart {i}: snapshot of {:?} differs", plan.open_at_end[k])
            });
        }
        drop(s);
        d.kill();
    }

    // Each connection's reply stream must equal `serve_script` replayed
    // in-process on the same stream (both connections concurrently, as
    // on the daemon).
    let scripts: Vec<String> = plan
        .conns
        .iter()
        .map(|reqs| reqs.iter().map(|r| r.text.as_str()).collect())
        .collect();
    let reg = registry(None)?;
    let r0 = Instant::now();
    let transcripts: Vec<String> = std::thread::scope(|sc| {
        let hs: Vec<_> = scripts
            .iter()
            .map(|s| sc.spawn(|| daemon::serve_script(&reg, s)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let untraced_replay_s = r0.elapsed().as_secs_f64();
    reg.shutdown();
    for (c, (t, log)) in transcripts.iter().zip(&logs).enumerate() {
        out.check(*t == texts(&log.replies), || {
            format!("conn {c}: reply stream differs from serve_script")
        });
    }

    // End-to-end metrics.
    let [heavy, light] = &plan.conns;
    let [heavy_log, light_log] = [&logs[0], &logs[1]];
    let timed = |reqs: &[Req], log: &ConnLog, keep: &dyn Fn(&Req) -> bool| -> Vec<Timed> {
        reqs.iter()
            .zip(&log.reply_at)
            .filter(|(r, _)| keep(r))
            .map(|(r, &reply)| Timed { due: r.due, reply })
            .collect()
    };
    let light_wall = LatencyReport::new(&timed(light, light_log, &|_| true), deadline, 0.99);
    let solve_wall = LatencyReport::new(
        &timed(light, light_log, &|q| matches!(q.op, Op::Solve(_))),
        deadline,
        0.5,
    );
    let is_replan = |q: &Req| matches!(q.op, Op::Event(SessionEvent::Replan { .. }));
    let replan_wall = LatencyReport::new(&timed(heavy, heavy_log, &is_replan), deadline, 0.9);
    // Quality over the distinct SOLVE instances (first reply of each).
    let mut ratio_of: BTreeMap<usize, f64> = BTreeMap::new();
    for (req, reply) in light.iter().zip(&light_log.replies) {
        if let (
            Op::Solve(k),
            Some(Response::SolveOk {
                makespan, cstar, ..
            }),
        ) = (&req.op, &reply.parsed)
        {
            if *cstar > 0.0 {
                ratio_of.entry(*k).or_insert(makespan / cstar);
            }
        }
    }
    let ratios: Vec<f64> = ratio_of.into_values().collect();
    let replies = logs.iter().map(|l| l.replies.len()).sum::<usize>();
    let probes = layer.replan_probe_ms.clone();
    let load_probe = crate::probe_level(&probes);
    let cpu_per_op = daemon_cpu_s * 1e3 / replies.max(1) as f64;
    // Each REPLAN against the level of the probes around it (its own and
    // PROBE_SPAN on either side, about 0.4 s).
    let replan_cost: Vec<f64> = layer
        .replan_cpu_ms
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let near =
                &probes[i.saturating_sub(PROBE_SPAN)..(i + PROBE_SPAN + 1).min(probes.len())];
            crate::ref_ms(c, crate::probe_level(near))
        })
        .collect();
    let replan_cost = sorted(&replan_cost);
    let replan_cpu = sorted(&layer.replan_cpu_ms);
    let e = &mut out.e2e;
    e.put("setup_s", calm_median(&setups));
    e.put("cpu_per_op_ref_ms", crate::ref_ms(cpu_per_op, load_probe));
    e.put("solve_p50_ref_ms", percentile(&replan_cost, 0.5));
    e.put("solve_p90_ref_ms", percentile(&replan_cost, 0.9));
    e.put(
        "ratio_cstar_mean",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
    e.put(
        "ratio_cstar_max",
        ratios.iter().copied().fold(0.0, f64::max),
    );
    e.put(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    e.put("peak_rss_mb", peak_rss);

    // Per-layer metrics.
    if trace {
        layer.replay_dispatch(&plan, untraced_replay_s)?;
        layer.wal_appends(&plan, &dir.join("wal-bench"))?;
        layer.solve_pool(&plan.solve_bodies)?;
    }
    let lags: Vec<f64> = plan
        .conns
        .iter()
        .zip(&logs)
        .flat_map(|(reqs, log)| {
            reqs.iter()
                .zip(&log.sent)
                .map(|(r, &s)| (s - r.due).max(0.0) * 1e3)
        })
        .filter(|l| l.is_finite())
        .collect();
    let gen_lag = tail(&sorted(&lags), 0.99);
    // Light latency from the actual send: the part of the wall latency
    // the daemon (not a late generator) is charged with.
    let from_send: Vec<f64> = light_log
        .sent
        .iter()
        .zip(&light_log.reply_at)
        .filter_map(|(&s, r)| r.map(|r| (r - s) * 1e3))
        .collect();
    layer.finish(
        &mut out,
        &stats,
        generate_ms,
        gen_lag.value,
        logs.iter()
            .map(|l| l.sent.iter().filter(|s| s.is_finite()).count())
            .sum(),
        replies,
    );

    // Descriptor.
    let mut verbs: BTreeMap<&str, usize> = BTreeMap::new();
    for r in plan.conns.iter().flatten() {
        *verbs
            .entry(r.text.split_whitespace().next().unwrap_or(""))
            .or_default() += 1;
    }
    let verb_json: Vec<String> = verbs.iter().map(|(v, n)| format!("\"{v}\": {n}")).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|&x| crate::num(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let wall = |r: &LatencyReport| {
        format!(
            "{{\"samples\": {}, \"missing\": {}, \"p50_ms\": {}, \"tail_q\": {:?}, \"tail_ms\": {}}}",
            r.sent,
            r.missing,
            crate::num(r.p50),
            r.tail.q,
            crate::num(r.tail.value)
        )
    };
    out.descriptor = format!(
        "{{\"workload\": \"serve-mixed\", \"seed\": {seed}, \"trace\": {trace}, \"shards\": {}, \"connections\": 2, \
         \"fsync\": \"always\", \"traffic\": \"assumed (no traffic record)\", \"light_tenants\": {LIGHT_TENANTS}, \
         \"light_sessions_per_tenant\": {LIGHT_SESSIONS}, \"light_m\": {LIGHT_M}, \"light_tasks_per_session\": {LIGHT_TASKS}, \
         \"light_weights_arrive_edge_start_finish_replan_snapshot\": {LIGHT_WEIGHTS:?}, \"solve_share\": {SOLVE_SHARE:?}, \
         \"solve_pool\": {SOLVE_POOL}, \"light_rate\": {LIGHT_RATE:?}, \"load_s\": {:?}, \"heavy_m\": {HEAVY_M}, \
         \"heavy_rate\": {HEAVY_RATE:?}, \"heavy_sessions\": {}, \"heavy_n\": {:?}, \"verbs\": {{{}}}, \
         \"replans_timed\": {}, \"solve_p90_beyond\": {}, \"daemon_cpu_s\": {daemon_cpu_s:?}, \"replies\": {replies}, \
         \"cpu_ms_per_op\": {}, \"load_probe_level_ms\": {}, \"load_probes\": {}, \"cpu_replan_p50_ms\": {}, \
         \"cpu_replan_p90_ms\": {}, \
         \"wall_light\": {}, \"wall_light_meets_p99_limit_ms\": [{P99_LIMIT_MS:?}, {}], \"wall_light_p50_from_send_ms\": {}, \
         \"wall_solve\": {}, \"wall_replan\": {}, \"gen_lag_p50_ms\": {}, \
         \"setups\": {SETUPS}, \"setup_s_each\": [{}], \"recoveries\": {RECOVERIES}, \"wall_recovery_s_each\": [{}], \
         \"sessions_recovered\": {}, \"host_steal_share\": {steal:?}}}",
        nproc(),
        plan.load_end,
        plan.heavy_sessions,
        plan.heavy_sizes,
        verb_json.join(", "),
        replan_cpu.len(),
        beyond(replan_cpu.len(), 0.9),
        crate::num(cpu_per_op),
        crate::num(load_probe),
        probes.len(),
        crate::num(percentile(&replan_cpu, 0.5)),
        crate::num(percentile(&replan_cpu, 0.9)),
        wall(&light_wall),
        light_wall.meets(P99_LIMIT_MS),
        crate::num(percentile(&sorted(&from_send), 0.5)),
        wall(&solve_wall),
        wall(&replan_wall),
        crate::num(percentile(&sorted(&lags), 0.5)),
        list(&setups),
        list(&recoveries),
        plan.open_at_end.len(),
    );
    Ok(out)
}

/// Per-layer accumulators of the traced run, each from direct calls into
/// one crate's public functions.
#[derive(Debug, Default)]
struct ServeLayer {
    dispatch_us: Vec<f64>,
    wire_us: Vec<f64>,
    queue_depth_max: f64,
    cache_hits: f64,
    cache_lookups: f64,
    overhead: f64,
    replan_ms: Vec<f64>,
    replan_cpu_ms: Vec<f64>,
    replan_probe_ms: Vec<f64>,
    counters: Counters,
    rows: Vec<f64>,
    lp_solve_ms: f64,
    wal_us: Vec<f64>,
    scan_ms: f64,
    restore_ms: f64,
    recovered_events: f64,
    textio_ms: Vec<f64>,
    canon_us: Vec<f64>,
    core: [f64; 3],
    core_n: f64,
}

impl ServeLayer {
    /// `wal::scan` and `ServedSession::restore` over the journals the
    /// killed daemon left (read-only: the files are not modified).
    fn recovery_below_the_wire(&mut self, wal_dir: &Path) -> Result<(), String> {
        let t0 = Instant::now();
        let found = wal::scan(wal_dir);
        self.scan_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut ctx = SolveContext::new();
        let t1 = Instant::now();
        for r in found {
            self.recovered_events += r.log.events.len() as f64;
            ServedSession::restore(r.log, SessionConfig::new(), &Quotas::default(), &mut ctx)
                .map_err(|e| format!("restore {}/{}: {e}", r.tenant, r.session))?;
        }
        self.restore_ms = t1.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    /// `Registry::dispatch` on the load's streams (one thread per
    /// connection), each call timed, with `parse_request` and
    /// `write_response` timed around it and the span collector on.
    fn replay_dispatch(&mut self, plan: &Plan, untraced_s: f64) -> Result<(), String> {
        let reg = registry(None)?;
        mtsp_obs::span::enable();
        let t0 = Instant::now();
        let per_conn: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|sc| {
            let hs: Vec<_> = plan
                .conns
                .iter()
                .map(|reqs| {
                    let reg = &reg;
                    sc.spawn(move || {
                        let mut dispatch = Vec::new();
                        let mut wire = Vec::new();
                        let mut line_no = 1usize;
                        for r in reqs {
                            let mut lines = r.text.split_inclusive('\n');
                            let head = lines.next().unwrap_or("");
                            let body: String = lines.collect();
                            let w0 = Instant::now();
                            let parsed = parse_request(head.trim(), line_no);
                            let w_parse = w0.elapsed();
                            let Ok(req) = parsed else { continue };
                            let nbody = req.body_lines();
                            let d0 = Instant::now();
                            let reply = reg.dispatch(line_no, req, body);
                            let d = d0.elapsed();
                            let w1 = Instant::now();
                            std::hint::black_box(write_response(&reply.response));
                            let w = w_parse + w1.elapsed();
                            line_no += 1 + nbody;
                            if r.light {
                                dispatch.push(d.as_secs_f64() * 1e6);
                            }
                            wire.push(w.as_secs_f64() * 1e6);
                        }
                        (dispatch, wire)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let traced_s = t0.elapsed().as_secs_f64();
        mtsp_obs::span::disable();
        let _ = mtsp_obs::span::drain();
        for (d, w) in per_conn {
            self.dispatch_us.extend(d);
            self.wire_us.extend(w);
        }
        self.queue_depth_max = reg
            .render_gauges()
            .lines()
            .filter(|l| l.contains(".max="))
            .filter_map(|l| l.rsplit('=').next().and_then(|v| v.parse::<f64>().ok()))
            .fold(0.0, f64::max);
        let cs = reg.cache_stats();
        self.cache_hits = cs.hits as f64;
        self.cache_lookups = (cs.hits + cs.misses) as f64;
        self.overhead = if untraced_s > 0.0 {
            traced_s / untraced_s
        } else {
            0.0
        };
        reg.shutdown();
        Ok(())
    }

    /// The heavy connection's events through `ServedSession` on one
    /// context, as a shard applies them, during the load: each heavy
    /// REPLAN waits until a quarter cycle after its due time (off the
    /// daemon's own REPLAN), so the samples spread over the whole load
    /// rather than one stretch of the machine's drift. Each REPLAN is
    /// timed by wall and CPU clock and followed by a machine-speed probe;
    /// with `trace` it is also split by the span collector.
    fn replay_heavy(&mut self, reqs: &[Req], start: Instant, trace: bool) -> Result<(), String> {
        let quotas = Quotas::default();
        let probe = Probe::new(PROBE_N);
        let mut ctx = SolveContext::new();
        // Per session: the session, its edge count, and which tasks have
        // a predecessor (the rest are sources).
        let mut sessions: BTreeMap<(String, String), (ServedSession, usize, Vec<bool>)> =
            BTreeMap::new();
        for r in reqs {
            let key = (r.tenant.clone(), r.session.clone());
            match &r.op {
                Op::Open(m) => {
                    let s = ServedSession::open(*m, SessionConfig::new(), &quotas)?;
                    sessions.insert(key, (s, 0, Vec::new()));
                }
                Op::Close => {
                    sessions.remove(&key);
                }
                Op::Snapshot | Op::Solve(_) => {}
                Op::Event(ev) => {
                    let Some((s, edges, has_pred)) = sessions.get_mut(&key) else {
                        return Err(format!("event for unopened session {key:?}"));
                    };
                    let _ = match ev {
                        SessionEvent::Arrive { t, times } => {
                            has_pred.push(false);
                            s.arrive(*t, times, 0, &quotas)
                        }
                        SessionEvent::Edge { t, pred, succ } => {
                            *edges += 1;
                            if let Some(h) = has_pred.get_mut(*succ) {
                                *h = true;
                            }
                            s.edge(*t, *pred, *succ, 0)
                        }
                        SessionEvent::Machines { t, m } => s.machines(*t, *m, 0),
                        SessionEvent::Start { t, task } => s.start(*t, *task, 0),
                        SessionEvent::Finish { t, task } => s.mark_finished(*t, *task, 0),
                        SessionEvent::Replan { t } => {
                            let at = start + Duration::from_secs_f64(r.due + 0.25 / HEAVY_RATE);
                            std::thread::sleep(at.saturating_duration_since(Instant::now()));
                            let c0 = *ctx.counters();
                            if trace {
                                mtsp_obs::span::enable();
                            }
                            let cpu0 = crate::thread_cpu_s();
                            let t0 = Instant::now();
                            let reply = s.replan(*t, 0, &mut ctx);
                            self.replan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            self.replan_cpu_ms
                                .push((crate::thread_cpu_s() - cpu0) * 1e3);
                            mtsp_obs::span::disable();
                            self.replan_probe_ms.push(probe.run_ms());
                            self.lp_solve_ms += mtsp_obs::span::drain()
                                .iter()
                                .filter(|e| e.label == "lp.solve")
                                .map(|e| e.dur_ns as f64 / 1e6)
                                .sum::<f64>();
                            self.counters.merge(&ctx.counters().diff(&c0));
                            // Computed over the whole session so far: an
                            // upper bound on the pending suffix's LP.
                            let n = has_pred.len();
                            let sources = has_pred.iter().filter(|&&h| !h).count();
                            self.rows.push((*edges + sources + n + 2) as f64);
                            reply
                        }
                    };
                }
            }
        }
        Ok(())
    }

    /// `Wal::append` of every journaled event at `--fsync always`, on
    /// this machine's filesystem.
    fn wal_appends(&mut self, plan: &Plan, root: &Path) -> Result<(), String> {
        let mut w = Wal::new(root, FsyncPolicy::Always).map_err(|e| format!("wal: {e}"))?;
        for r in plan.conns.iter().flatten() {
            let res = match &r.op {
                Op::Open(m) => w.create(&r.tenant, &r.session, *m),
                Op::Close => w.remove(&r.tenant, &r.session),
                Op::Event(ev) => {
                    let t0 = Instant::now();
                    let res = w.append(&r.tenant, &r.session, ev);
                    self.wal_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    res
                }
                Op::Snapshot | Op::Solve(_) => Ok(()),
            };
            res.map_err(|e| format!("wal {}/{}: {e}", r.tenant, r.session))?;
        }
        Ok(())
    }

    /// `textio::parse_instance` and `instance_key` on every SOLVE body,
    /// and the phase split of the shared SOLVE instances.
    fn solve_pool(&mut self, bodies: &[String]) -> Result<(), String> {
        let mut ctx = SolveContext::new();
        let mut ws = ListWorkspace::new();
        for body in bodies {
            let t0 = Instant::now();
            let ins = parse_instance(body).map_err(|e| format!("SOLVE body: {e}"))?;
            self.textio_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let k0 = Instant::now();
            std::hint::black_box(instance_key(&ins));
            self.canon_us.push(k0.elapsed().as_secs_f64() * 1e6);
            let split =
                crate::batch::compose(&mut ctx, &mut ws, &ins, &mtsp_core::JzConfig::default())?.ms;
            for (acc, v) in self.core.iter_mut().zip(split) {
                *acc += v;
            }
            self.core_n += 1.0;
        }
        Ok(())
    }

    fn finish(
        &self,
        out: &mut Outcome,
        stats: &str,
        generate_ms: f64,
        lag_ms: f64,
        sent: usize,
        replies: usize,
    ) {
        let n = self.core_n.max(1.0);
        let [p1, rd, li] = self.core;
        let solve = p1 + rd + li;
        let share = |x: f64| if solve > 0.0 { x / solve } else { 0.0 };
        let epochs = self.replan_ms.len().max(1) as f64;
        let pivots = self.counters.get(Counter::SimplexIterations) as f64;
        let replan_total: f64 = self.replan_ms.iter().sum();
        let replan = sorted(&self.replan_ms);
        let dispatch = sorted(&self.dispatch_us);
        let wal = sorted(&self.wal_us);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let requests = stats_value(stats, "serve.requests");
        let l = &mut out.layer;
        l.put("core.phase1_ms", p1 / n);
        l.put("core.phase1_share", share(p1));
        l.put("core.rounding_ms", rd / n);
        l.put("core.list_ms", li / n);
        l.put("core.list_share", share(li));
        for (name, c) in crate::batch::LP_COUNTERS {
            l.put(name, self.counters.get(c) as f64 / epochs);
        }
        l.put("lp.rows", mean(&self.rows));
        l.put(
            "lp.us_per_pivot",
            if pivots > 0.0 {
                replan_total * 1e3 / pivots
            } else {
                0.0
            },
        );
        l.put("lp.solve_ms", self.lp_solve_ms / epochs);
        l.put("engine.pool_busy_ratio", 0.0);
        l.put(
            "engine.cache_hit_ratio",
            if self.cache_lookups > 0.0 {
                self.cache_hits / self.cache_lookups
            } else {
                0.0
            },
        );
        l.put("engine.cache_lookups", self.cache_lookups);
        l.put("engine.canon_us", mean(&self.canon_us));
        l.put("engine.replan_ms_p50", percentile(&replan, 0.5));
        l.put("engine.replan_ms_p90", percentile(&replan, 0.9));
        l.put(
            "engine.lp_reuses_per_epoch",
            self.counters.get(Counter::LpReuses) as f64 / epochs,
        );
        l.put("serve.dispatch_us_p50", percentile(&dispatch, 0.5));
        l.put("serve.dispatch_us_p99", percentile(&dispatch, 0.99));
        l.put("serve.wal_append_us_p50", percentile(&wal, 0.5));
        l.put("serve.wal_append_us_p99", percentile(&wal, 0.99));
        l.put("serve.queue_depth_max", self.queue_depth_max);
        l.put(
            "serve.rejection_ratio",
            if requests > 0.0 {
                stats_value(stats, "serve.rejections") / requests
            } else {
                0.0
            },
        );
        l.put("serve.wal_appends", stats_value(stats, "serve.wal_appends"));
        l.put("serve.scan_ms", self.scan_ms);
        l.put("serve.restore_ms", self.restore_ms);
        l.put("serve.recovered_events", self.recovered_events);
        l.put("model.wire_us_p50", percentile(&sorted(&self.wire_us), 0.5));
        l.put("model.textio_parse_ms", mean(&self.textio_ms));
        l.put("model.generate_ms", generate_ms);
        l.put("gen.lag_p99_ms", lag_ms);
        l.put("gen.sent", sent as f64);
        l.put("gen.replies", replies as f64);
        l.put("trace.overhead_ratio", self.overhead);
    }
}
