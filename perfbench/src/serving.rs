//! The `mapperd` workloads: a daemon child process on loopback TCP, driven by
//! an open loop (`serve-citeseer-mixed`) or a closed loop (`serve-rmat-spec`),
//! and an in-process replay of the same requests through the serving layers.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_core::dse::{explore, DseCache, DseOptions, ExploreOutcome};
use omega_core::mapper::Objective;
use omega_core::{AccelConfig, GnnWorkload};
use omega_graph::DatasetSpec;
use omega_serve::{Decision, MapRequest, MapResponse, MapperServer, ServeOptions, WorkloadSpec};

use crate::offline::{self, DSE_THREADS};
use crate::stats::{self, mean, median, mix, percentile, secs, Rng};
use crate::trace::{Table, Tracer};
use crate::{Ctx, Outcome};

/// First argument that turns the benchmark binary into the daemon child.
pub const DAEMON_ARG: &str = "__mapperd";
/// `mapperd` connection workers.
const WORKERS: usize = 2;
/// DSE threads of each `mapperd` search.
const SEARCH_THREADS: usize = 1;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Ranked winners per answer (the daemon default).
const TOP_K: usize = 10;
/// The latency limit of `slo_qps`, on p99.
const SLO_MS: f64 = 50.0;
/// Longest wait for one response before the request counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// Hidden widths of the hot request set.
const HOT_WIDTHS: [usize; 4] = [16, 32, 64, 128];
/// One request in this many is fresh (a cache miss): each block of that many
/// consecutive requests holds exactly one, at a seeded position.
const MISS_EVERY: usize = 5;
/// Allowed lateness past a deadline before it counts as missed.
const DEADLINE_SLACK_MS: f64 = 5.0;

/// `serve-citeseer-mixed`: reference rate of the latency metrics, and the
/// share of the window it runs.
const REF_QPS: f64 = 140.0;
const REF_SHARE: f64 = 0.4;
/// The offered-rate ladder `slo_qps` is measured on: up to `LADDER_RUNGS`
/// rates from `LADDER_START` up by `LADDER_STEP` each, every probe
/// `LADDER_PROBE_SHARE` of the window, until the first rate that misses the
/// SLO. The reference rate, far below capacity, is the rung below the first.
const LADDER_START: f64 = 2.0 * REF_QPS;
const LADDER_STEP: f64 = 1.15;
const LADDER_RUNGS: i32 = 10;
const LADDER_PROBE_SHARE: f64 = 0.075;
/// Daemon set-ups per run; `setup_s` is their median.
const DAEMON_SETUPS: usize = 7;
/// Distinct workloads whose exact answers are re-derived offline per run,
/// in send order; answers past the budget are counted as unchecked.
const MAX_CHECKED_WORKLOADS: usize = 256;

/// `serve-rmat-spec`: scale-family graph, tight and loose deadlines.
const SPEC_TIGHT_MS: u64 = 50;
const SPEC_LOOSE_MS: u64 = 10_000;
/// Daemons that serve the window in turn, a third each: one daemon's memory
/// high-water mark depends on how its workers' graph builds happened to
/// overlap, and the median over three is steadier.
const SPEC_SEGMENTS: usize = 3;
/// Widths of the fresh (cache-missing) spec requests: just above the hot set,
/// so that every miss costs about the same.
const FRESH_WIDTHS: std::ops::RangeInclusive<usize> = 129..=256;

/// Requests in the traced socket run and in the in-process replay.
const TRACE_REQUESTS_OPEN: usize = 1_000;
const TRACE_REQUESTS_CLOSED: usize = 60;
const REPLAY_OPEN: usize = 300;
const REPLAY_CLOSED: usize = 24;

/// The daemon child: binds a free loopback port, prints it, serves until a
/// `shutdown` command or until its parent closes its standard input.
pub fn daemon_main() -> ExitCode {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: WORKERS,
        search_threads: SEARCH_THREADS,
        top_k: TOP_K,
        quiet: true,
        ..Default::default()
    };
    let server = match MapperServer::bind(opts) {
        Ok(server) => Arc::new(server),
        Err(e) => {
            eprintln!("perfbench daemon: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("perfbench daemon: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {addr}");
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    // The parent holds our stdin open; end of input means it is gone. The
    // watcher ends with the process.
    let watched = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        watched.request_shutdown();
    });
    match server.run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it kills the child if it is still alive
/// and waits for it.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(DAEMON_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        // Own the child before anything can fail, so Drop reaps it.
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon greeting `{}`", line.trim()))?;
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        stats::peak_rss_mb(Some(self.child.id()))
    }

    /// Graceful stop: the in-band `shutdown` command, then wait for exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        conn.roundtrip(r#"{"cmd":"shutdown"}"#)?;
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking NDJSON.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads its reply line.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("sending: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }
}

/// The distinct request lines of a run and the order they are sent in.
struct Mix {
    lines: Vec<String>,
    deadlines: Vec<Option<u64>>,
    /// Lines sent to warm the cache during set-up.
    hot: Vec<usize>,
}

impl Mix {
    fn push(&mut self, request: &MapRequest) -> usize {
        self.lines
            .push(serde_json::to_string(request).expect("requests serialise"));
        self.deadlines.push(request.deadline_ms);
        self.lines.len() - 1
    }
}

/// One request as the client saw it (seconds since the loop started).
struct Answer {
    line: usize,
    due_s: f64,
    sent_s: f64,
    recv_s: f64,
    response: Option<MapResponse>,
}

impl Answer {
    fn ok(&self) -> bool {
        self.response.as_ref().is_some_and(|r| r.ok)
    }

    /// Client latency from the due time (ms).
    fn latency_ms(&self) -> f64 {
        (self.recv_s - self.due_s) * 1e3
    }

    fn disposition(&self) -> Option<&str> {
        self.response.as_ref().and_then(|r| r.cache.as_deref())
    }

    fn quality(&self) -> Option<&str> {
        self.response
            .as_ref()
            .and_then(|r| r.decision_quality.as_deref())
    }
}

fn parse_response(raw: &str) -> Option<MapResponse> {
    serde_json::from_str(raw).ok()
}

/// Sends `order` on [`CONNECTIONS`] connections at `rate` requests per second
/// regardless of replies (open loop): request `i` is due `i / rate` seconds
/// after the start and goes on connection `i % CONNECTIONS`.
fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    order: &[usize],
    rate: f64,
) -> Result<Vec<Answer>, String> {
    let conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let since = move |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut answers: Vec<Answer> = order
        .iter()
        .enumerate()
        .map(|(i, &line)| Answer {
            line,
            due_s: i as f64 / rate,
            sent_s: f64::NAN,
            recv_s: f64::NAN,
            response: None,
        })
        .collect();
    // Per connection: (request, send time) and (request, receive time, reply).
    type Sent = Vec<(usize, f64)>;
    type Received = Vec<(usize, f64, String)>;
    let results: Vec<(Sent, Received)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let Conn {
                    mut reader,
                    mut writer,
                } = conn;
                let mine: Vec<usize> = (c..order.len()).step_by(CONNECTIONS).collect();
                let sent_for = mine.clone();
                let sender = s.spawn(move || {
                    let mut sent = Vec::with_capacity(sent_for.len());
                    for i in sent_for {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let line = &mix.lines[order[i]];
                        let ok = writer
                            .write_all(line.as_bytes())
                            .and_then(|()| writer.write_all(b"\n"))
                            .is_ok();
                        if !ok {
                            break;
                        }
                        sent.push((i, since(Instant::now())));
                    }
                    sent
                });
                let receiver = s.spawn(move || {
                    let mut got = Vec::with_capacity(mine.len());
                    for i in mine {
                        let mut raw = String::new();
                        match reader.read_line(&mut raw) {
                            Ok(n) if n > 0 => got.push((i, since(Instant::now()), raw)),
                            _ => break,
                        }
                    }
                    got
                });
                (sender, receiver)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sender, receiver)| {
                (
                    sender.join().expect("sender thread panicked"),
                    receiver.join().expect("receiver thread panicked"),
                )
            })
            .collect()
    });
    for (sent, got) in results {
        for (i, t) in sent {
            answers[i].sent_s = t;
        }
        for (i, t, raw) in got {
            answers[i].recv_s = t;
            answers[i].response = parse_response(&raw);
        }
    }
    Ok(answers)
}

/// [`CONNECTIONS`] clients that each send their next request only after the
/// previous reply (closed loop), taking requests from `order` in turn until
/// `order` runs out or `seconds` have passed (`None`: until it runs out).
fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    order: &[usize],
    seconds: Option<f64>,
) -> Result<Vec<Answer>, String> {
    let conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                s.spawn(move || {
                    let mut answers = Vec::new();
                    while seconds.is_none_or(|w| secs(start.elapsed()) < w) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&line) = order.get(i) else { break };
                        let sent_s = secs(start.elapsed());
                        let reply = conn.roundtrip(&mix.lines[line]);
                        let recv_s = secs(start.elapsed());
                        let failed = reply.is_err();
                        let response = reply.ok().as_deref().and_then(parse_response);
                        answers.push(Answer {
                            line,
                            due_s: sent_s,
                            sent_s,
                            recv_s,
                            response,
                        });
                        if failed {
                            break;
                        }
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut answers: Vec<Answer> = per_conn.into_iter().flatten().collect();
    answers.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
    Ok(answers)
}

/// Starts a daemon and warms its cache with the hot lines; returns it with
/// the set-up time.
fn start_warm(mix: &Mix) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start()?;
    let mut conn = Conn::open(daemon.addr)?;
    for &line in &mix.hot {
        let raw = conn.roundtrip(&mix.lines[line])?;
        if !parse_response(&raw).is_some_and(|r| r.ok) {
            return Err(format!("warm-up request failed: {raw}"));
        }
    }
    Ok((daemon, secs(t.elapsed())))
}

/// `repeats` daemon set-ups; returns the last daemon and the times.
fn setup(mix: &Mix, repeats: usize) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<Daemon> = None;
    for _ in 0..repeats {
        if let Some(previous) = last.take() {
            previous.stop()?;
        }
        let (daemon, t) = start_warm(mix)?;
        times.push(t);
        last = Some(daemon);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Re-derives exact answers offline: the best cycles of a fresh `explore` of
/// the request's workload, memoised per workload, for up to
/// [`MAX_CHECKED_WORKLOADS`] distinct workloads.
struct Checker {
    cfg: AccelConfig,
    memo: HashMap<String, u64>,
    /// Exact answers compared, and those past the budget.
    checked: u64,
    unchecked: u64,
}

impl Checker {
    fn new() -> Self {
        Checker {
            cfg: AccelConfig::paper_default(),
            memo: HashMap::new(),
            checked: 0,
            unchecked: 0,
        }
    }

    /// Whether `cycles` is the best cycles of an offline search of the
    /// workload `line` asks for; `None` past the budget.
    fn check(&mut self, line: &str, cycles: u64) -> Result<Option<bool>, String> {
        let request: MapRequest = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let spec = request.workload.ok_or("request without workload")?;
        let key = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        let best = match self.memo.get(&key) {
            Some(&best) => best,
            None if self.memo.len() >= MAX_CHECKED_WORKLOADS => {
                self.unchecked += 1;
                return Ok(None);
            }
            None => {
                let wl = spec.to_workload()?;
                let opts = DseOptions {
                    threads: DSE_THREADS,
                    top_k: TOP_K,
                    ..DseOptions::new(Objective::Runtime)
                };
                let best = explore(&wl, &self.cfg, &opts)
                    .best()
                    .map_or(0, |b| b.report.total_cycles);
                self.memo.insert(key, best);
                best
            }
        };
        self.checked += 1;
        Ok(Some(best == cycles))
    }
}

/// Counts every answer: a missing reply, an error or a shed fails; an exact
/// answer whose best cycles differ from the offline answer fails its check.
fn account(
    out: &mut Outcome,
    checker: &mut Checker,
    mix: &Mix,
    answers: &[Answer],
) -> Result<(), String> {
    for a in answers {
        out.attempted += 1;
        let Some(r) = a.response.as_ref().filter(|r| r.ok) else {
            out.failed += 1;
            if a.quality() != Some("shed") {
                out.incorrect += 1;
            }
            continue;
        };
        if r.decision_quality.as_deref() == Some("exact") {
            let cycles = r.best.as_ref().map_or(0, |b| b.cycles);
            if checker.check(&mix.lines[a.line], cycles)? == Some(false) {
                out.failed += 1;
                out.incorrect += 1;
            }
        }
    }
    Ok(())
}

fn share_pct(answers: &[Answer], pred: impl Fn(&Answer) -> bool) -> f64 {
    if answers.is_empty() {
        return 0.0;
    }
    100.0 * answers.iter().filter(|a| pred(a)).count() as f64 / answers.len() as f64
}

/// Latency percentiles, search time, and answer-quality shares of `answers`.
fn latency_metrics(out: &mut Outcome, answers: &[Answer]) {
    let ms: Vec<f64> = answers
        .iter()
        .filter(|a| a.ok())
        .map(Answer::latency_ms)
        .collect();
    let searched: Vec<f64> = answers
        .iter()
        .filter(|a| a.disposition() == Some("search"))
        .filter_map(|a| a.response.as_ref().and_then(|r| r.latency_us))
        .map(|us| us as f64 * 1e-6)
        .collect();
    let m = &mut out.metrics;
    m.set("latency_p50_ms", percentile(&ms, 0.50));
    m.set("latency_p90_ms", percentile(&ms, 0.90));
    m.set("latency_p99_ms", percentile(&ms, 0.99));
    m.set("search_s", median(&searched));
    m.set(
        "exact_pct",
        share_pct(answers, |a| a.quality() == Some("exact")),
    );
    out.samples = ms;
}

/// Share of deadlined requests answered `ok` within deadline plus slack;
/// 100 when no request carries a deadline.
fn deadline_met_pct(mix: &Mix, answers: &[Answer]) -> f64 {
    let deadlined: Vec<&Answer> = answers
        .iter()
        .filter(|a| mix.deadlines[a.line].is_some())
        .collect();
    if deadlined.is_empty() {
        return 100.0;
    }
    let met = deadlined
        .iter()
        .filter(|a| {
            let limit = mix.deadlines[a.line].expect("deadlined") as f64 + DEADLINE_SLACK_MS;
            a.ok() && a.latency_ms() <= limit
        })
        .count();
    100.0 * met as f64 / deadlined.len() as f64
}

/// The open-loop rung verdict: every request answered, p99 within the SLO,
/// and no growing backlog (the last quarter's median latency stays within
/// twice the first quarter's plus 5 ms).
fn meets_slo(answers: &[Answer]) -> bool {
    if answers.is_empty() || !answers.iter().all(Answer::ok) {
        return false;
    }
    let ms: Vec<f64> = answers.iter().map(Answer::latency_ms).collect();
    let q = ms.len() / 4;
    let first = median(&ms[..q.max(1)]);
    let last = median(&ms[ms.len() - q.max(1)..]);
    percentile(&ms, 0.99) <= SLO_MS && last <= 2.0 * first + 5.0
}

/// Answers per second over an open-loop probe, from the first due time to
/// the last reply: the offered rate, as served.
fn achieved_qps(answers: &[Answer]) -> f64 {
    let end = answers.iter().map(|a| a.recv_s).fold(0.0, f64::max);
    answers.len() as f64 / end.max(f64::MIN_POSITIVE)
}

/// Per-request socket-run metrics: wire time, dispositions, generator lateness.
fn socket_metrics(out: &mut Outcome, answers: &[Answer], open: bool) {
    let wire_us: Vec<f64> = answers
        .iter()
        .filter_map(|a| {
            let server_us = a.response.as_ref()?.latency_us? as f64;
            Some((a.recv_s - a.sent_s) * 1e6 - server_us)
        })
        .collect();
    let count = |d: &str| {
        answers
            .iter()
            .filter(|a| a.disposition() == Some(d))
            .count() as f64
    };
    let shed = answers
        .iter()
        .filter(|a| a.quality() == Some("shed"))
        .count() as f64;
    let late_ms: Vec<f64> = answers
        .iter()
        .filter(|a| a.sent_s.is_finite())
        .map(|a| (a.sent_s - a.due_s) * 1e3)
        .collect();
    let m = &mut out.metrics;
    m.set("serve.wire_us", mean(&wire_us));
    m.set(
        "serve.hit_ratio",
        count("hit") / answers.len().max(1) as f64,
    );
    for d in ["hit", "search", "coalesced", "warm", "preset"] {
        m.set(&format!("serve.{d}"), count(d));
    }
    m.set("serve.shed", shed);
    m.set(
        "loadgen.late_ms",
        if open {
            percentile(&late_ms, 0.99)
        } else {
            0.0
        },
    );
    out.report.push(format!(
        "socket run: {} requests, mean client latency {:.3} ms = server {:.3} ms + wire {:.3} ms",
        answers.len(),
        mean(
            &answers
                .iter()
                .map(|a| (a.recv_s - a.sent_s) * 1e3)
                .collect::<Vec<_>>()
        ),
        mean(
            &answers
                .iter()
                .filter_map(|a| a.response.as_ref()?.latency_us)
                .map(|us| us as f64 / 1e3)
                .collect::<Vec<_>>()
        ),
        mean(&wire_us) / 1e3,
    ));
}

fn decision(r: &omega_core::dse::RankedDataflow) -> Decision {
    Decision {
        dataflow: r.dataflow.to_string(),
        cycles: r.report.total_cycles,
        energy_pj: r.report.energy.total_pj(),
        buffer_peak_bytes: r.report.buffer_peak_bytes,
        score: r.score,
    }
}

/// One pass of the exact serving path over `lines`, each step in its span:
/// parse, workload build, cache lookup (fingerprint included), search on a
/// miss, encode. Returns the pass's wall time.
fn replay_steps(tracer: &Tracer, lines: &[&str]) -> Result<f64, String> {
    let cfg = AccelConfig::paper_default();
    let cache = DseCache::new();
    let opts = DseOptions {
        threads: SEARCH_THREADS,
        top_k: TOP_K,
        ..DseOptions::new(Objective::Runtime)
    };
    let start = Instant::now();
    for (id, line) in lines.iter().enumerate() {
        tracer.set_request(Some(id as u64));
        let request: MapRequest = tracer
            .span("serve.parse", || serde_json::from_str(line))
            .map_err(|e| format!("replayed request does not parse: {e}"))?;
        let spec = request
            .workload
            .as_ref()
            .ok_or("replayed request without workload")?;
        let wl = tracer.span("serve.workload", || spec.to_workload())?;
        let hit = tracer.span("serve.lookup", || cache.lookup(&wl, &cfg, &opts));
        let (outcome, how): (Arc<ExploreOutcome>, &str) = match hit {
            Some(o) => (o, "hit"),
            None => (
                tracer.span("serve.search", || cache.explore_traced(&wl, &cfg, &opts).0),
                "search",
            ),
        };
        let encoded = tracer.span("serve.encode", || {
            serde_json::to_string(&MapResponse {
                id: request.id,
                ok: true,
                cache: Some(how.into()),
                decision_quality: Some("exact".into()),
                best: outcome.best().map(decision),
                ranked: Some(outcome.ranked.iter().map(decision).collect()),
                ..Default::default()
            })
        });
        std::hint::black_box(encoded.map_err(|e| e.to_string())?);
    }
    tracer.set_request(None);
    Ok(secs(start.elapsed()))
}

/// The in-process replay: the serving steps untraced and traced on fresh
/// caches, then `handle_line` on a fresh server, over the same lines.
fn replay(out: &mut Outcome, lines: &[&str]) -> Result<(), String> {
    let plain_s = replay_steps(&Tracer::new(false), lines)?;
    let tracer = Tracer::new(true);
    let traced_s = replay_steps(&tracer, lines)?;

    let server = MapperServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: WORKERS,
        search_threads: SEARCH_THREADS,
        top_k: TOP_K,
        quiet: true,
        ..Default::default()
    })
    .map_err(|e| format!("binding the replay server: {e}"))?;
    let start = Instant::now();
    for line in lines {
        std::hint::black_box(server.handle_line(line));
    }
    let handle_us = secs(start.elapsed()) * 1e6 / lines.len().max(1) as f64;

    let per_call_us = |name: &str| {
        let d = tracer.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() * 1e6 / d.len() as f64
        }
    };
    let m = &mut out.metrics;
    m.set("serve.parse_us", per_call_us("serve.parse"));
    m.set("serve.workload_us", per_call_us("serve.workload"));
    m.set("serve.lookup_us", per_call_us("serve.lookup"));
    m.set("serve.search_ms", per_call_us("serve.search") / 1e3);
    m.set("serve.encode_us", per_call_us("serve.encode"));
    m.set("serve.handle_us", handle_us);

    let table = Table::from_tracer(
        format!(
            "in-process replay of {} requests through the exact serving path",
            tracer.requests()
        ),
        traced_s,
        &tracer,
    );
    out.report.extend(table.render());
    out.report.push(format!(
        "trace: overhead {:.6} s (traced replay {traced_s:.6} s - untraced replay {plain_s:.6} s)",
        traced_s - plain_s
    ));
    out.metrics.set(
        "trace.unattributed_pct",
        100.0 * table.unattributed_s() / traced_s.max(1e-12),
    );
    out.metrics.set("trace.overhead_s", traced_s - plain_s);
    Ok(())
}

/// The offline layers (generate, build, engine, evaluate, dse) on the hot
/// workload `build` makes inside its spans.
fn subject_layers(
    out: &mut Outcome,
    build: impl FnOnce(&Tracer) -> Result<GnnWorkload, String>,
) -> Result<(), String> {
    let cfg = AccelConfig::paper_default();
    let tracer = Tracer::new(true);
    let wl = build(&tracer)?;
    let opts = DseOptions {
        threads: DSE_THREADS,
        top_k: TOP_K,
        ..DseOptions::new(Objective::Runtime)
    };
    let parallel: Vec<ExploreOutcome> = (0..2).map(|_| explore(&wl, &cfg, &opts)).collect();
    let refs: Vec<&ExploreOutcome> = parallel.iter().collect();
    offline::search_layers(out, &wl, &cfg, &refs);
    let explore_s: Vec<f64> = parallel.iter().map(|o| o.elapsed_ms / 1e3).collect();
    let m = &mut out.metrics;
    m.set(
        "graph.generate_s",
        median(&tracer.durations("graph.generate")),
    );
    m.set(
        "workload.build_s",
        median(&tracer.durations("workload.build")),
    );
    m.set("dse.explore_s", median(&explore_s));
    Ok(())
}

fn citeseer_name(ctx: &Ctx) -> &'static str {
    if ctx.tiny {
        "Mutag"
    } else {
        "Citeseer"
    }
}

/// Citeseer-class request lines: the hot set (the seed's graph at each hot
/// width) and, on demand, fresh seed variants that miss the cache.
struct CiteseerMix {
    spec: DatasetSpec,
    seed: u64,
    mix: Mix,
    variants: u64,
    rng: Rng,
}

impl CiteseerMix {
    fn new(ctx: &Ctx) -> Result<Self, String> {
        let spec = DatasetSpec::by_name(citeseer_name(ctx)).ok_or("unknown dataset")?;
        let ds = spec.generate(ctx.seed);
        let mut mix = Mix {
            lines: Vec::new(),
            deadlines: Vec::new(),
            hot: Vec::new(),
        };
        for g in HOT_WIDTHS {
            let line = mix.push(&MapRequest::for_workload(&GnnWorkload::gcn_layer(&ds, g)));
            mix.hot.push(line);
        }
        Ok(CiteseerMix {
            spec,
            seed: ctx.seed,
            mix,
            variants: 0,
            rng: Rng::new(ctx.seed),
        })
    }

    /// `n` requests: one in [`MISS_EVERY`] a fresh seed variant of the
    /// dataset, the rest drawn from the hot set.
    fn order(&mut self, n: usize) -> Vec<usize> {
        let mut miss_at = 0;
        (0..n)
            .map(|p| {
                if p % MISS_EVERY == 0 {
                    miss_at = p + (self.rng.next_u64() % MISS_EVERY as u64) as usize;
                }
                if p == miss_at {
                    self.variants += 1;
                    let seed = mix(self.seed ^ self.variants.wrapping_mul(0xA24B_AED4_963E_E407));
                    let g = HOT_WIDTHS[(self.variants % HOT_WIDTHS.len() as u64) as usize];
                    let wl = GnnWorkload::gcn_layer(&self.spec.generate(seed), g);
                    self.mix.push(&MapRequest::for_workload(&wl))
                } else {
                    self.mix.hot[(self.rng.next_u64() % self.mix.hot.len() as u64) as usize]
                }
            })
            .collect()
    }
}

/// The highest offered rate meeting the SLO. Probes climb the ladder above
/// the reference rate and stop at the first rate that misses; the answer interpolates log p99 linearly between the
/// last rate that met the SLO and that first miss, which keeps one noisy
/// tail from moving the answer by a whole rung. When every probe meets the
/// SLO the answer is the top probe's served rate; when even the reference
/// rate misses, it is half the reference rate (unresolved).
fn ladder(
    out: &mut Outcome,
    requests: &mut CiteseerMix,
    addr: SocketAddr,
    ctx: &Ctx,
    reference: &[Answer],
) -> Result<(f64, Vec<Answer>), String> {
    let p99 = |answers: &[Answer]| {
        let ms: Vec<f64> = answers.iter().map(Answer::latency_ms).collect();
        percentile(&ms, 0.99)
    };
    let mut probes = Vec::new();
    if !meets_slo(reference) {
        return Ok((REF_QPS / 2.0, probes));
    }
    // (rate, p99, served rate) of the highest rate that met the SLO.
    let mut last_pass = (REF_QPS, p99(reference), achieved_qps(reference));
    let probe_s = ctx.seconds * LADDER_PROBE_SHARE;
    for rung in 0..LADDER_RUNGS {
        let rate = LADDER_START * LADDER_STEP.powi(rung);
        let order = requests.order((rate * probe_s).ceil() as usize);
        let answers = open_loop(addr, &requests.mix, &order, rate)?;
        let (ok, tail, served) = (meets_slo(&answers), p99(&answers), achieved_qps(&answers));
        let verdict = if ok {
            "meets the SLO"
        } else {
            "misses the SLO"
        };
        out.report.push(format!(
            "ladder: {rate:>6.0} req/s for {probe_s:.2} s -> p99 {tail:.3} ms, {verdict}"
        ));
        probes.extend(answers);
        if ok {
            last_pass = (rate, tail, served);
            continue;
        }
        let (pass_rate, pass_tail, _) = last_pass;
        // A miss by backlog or error alone gives no tail to interpolate on.
        if tail <= SLO_MS {
            return Ok((pass_rate, probes));
        }
        let t = (SLO_MS / pass_tail).ln() / (tail / pass_tail).ln();
        return Ok((pass_rate + (rate - pass_rate) * t.clamp(0.0, 1.0), probes));
    }
    Ok((last_pass.2, probes))
}

/// `serve-citeseer-mixed`: open-loop traffic, 80% hot Citeseer-class
/// requests (cache hits) and 20% fresh seed variants (search, then cache
/// write).
pub fn citeseer_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx);
    out.threads = vec![
        ("mapperd_workers", WORKERS),
        ("mapperd_search", SEARCH_THREADS),
        ("client_connections", CONNECTIONS),
        ("offline_check_dse", DSE_THREADS),
    ];
    out.sample_label = "request latency at the reference rate, from its due time (ms)";
    let mut requests = CiteseerMix::new(ctx)?;
    let mut checker = Checker::new();

    if ctx.traced {
        let (daemon, _) = setup(&requests.mix, 1)?;
        let order = requests.order(TRACE_REQUESTS_OPEN);
        let answers = open_loop(daemon.addr, &requests.mix, &order, REF_QPS)?;
        daemon.stop()?;
        account(&mut out, &mut checker, &requests.mix, &answers)?;
        socket_metrics(&mut out, &answers, true);
        let lines: Vec<&str> = order
            .iter()
            .take(REPLAY_OPEN)
            .map(|&l| requests.mix.lines[l].as_str())
            .collect();
        replay(&mut out, &lines)?;
        subject_layers(&mut out, |t| {
            let spec = DatasetSpec::by_name(citeseer_name(ctx)).ok_or("unknown dataset")?;
            let ds = t.span("graph.generate", || spec.generate(ctx.seed));
            Ok(t.span("workload.build", || {
                GnnWorkload::gcn_layer(&ds, HOT_WIDTHS[0])
            }))
        })?;
        finish_checks(&mut out, &checker);
        return Ok(out);
    }

    let (daemon, setup_times) = setup(&requests.mix, DAEMON_SETUPS)?;
    // Reference rate: the latency metrics.
    let order = requests.order((REF_QPS * REF_SHARE * ctx.seconds).ceil() as usize);
    let reference = open_loop(daemon.addr, &requests.mix, &order, REF_QPS)?;
    // Memory of the workload as offered at the reference rate: the ladder's
    // overload probes queue a path-dependent backlog.
    let peak = daemon.peak_rss_mb()?;
    let (slo_qps, ladder_answers) = ladder(&mut out, &mut requests, daemon.addr, ctx, &reference)?;
    daemon.stop()?;

    account(&mut out, &mut checker, &requests.mix, &reference)?;
    account(&mut out, &mut checker, &requests.mix, &ladder_answers)?;
    latency_metrics(&mut out, &reference);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_times));
    m.set("peak_rss_mb", peak);
    m.set("slo_qps", slo_qps);
    m.set(
        "deadline_met_pct",
        deadline_met_pct(&requests.mix, &reference),
    );
    finish_checks(&mut out, &checker);
    Ok(out)
}

fn spec_graph(ctx: &Ctx) -> &'static str {
    if ctx.tiny {
        "rmat-10"
    } else {
        "rmat-15"
    }
}

fn spec_request(ctx: &Ctx, g: usize, deadline_ms: u64) -> MapRequest {
    MapRequest {
        workload: Some(WorkloadSpec {
            name: None,
            v: 1,
            f: 1,
            g,
            degrees: None,
            mean_degree: None,
            attention_heads: None,
            post_op: None,
            dataset: Some(spec_graph(ctx).into()),
        }),
        deadline_ms: Some(deadline_ms),
        ..Default::default()
    }
}

/// Scale-family request lines: the hot widths at both deadlines, and `n`
/// requests in order, one in [`MISS_EVERY`] at a fresh width; even
/// positions carry the tight deadline, odd ones the loose one.
fn spec_mix(ctx: &Ctx, n: usize) -> (Mix, Vec<usize>) {
    let mut mix = Mix {
        lines: Vec::new(),
        deadlines: Vec::new(),
        hot: Vec::new(),
    };
    let mut hot = Vec::new();
    for g in HOT_WIDTHS {
        let tight = mix.push(&spec_request(ctx, g, SPEC_TIGHT_MS));
        let loose = mix.push(&spec_request(ctx, g, SPEC_LOOSE_MS));
        mix.hot.push(loose);
        hot.push([tight, loose]);
    }
    let mut rng = Rng::new(ctx.seed);
    let mut fresh: Vec<usize> = FRESH_WIDTHS.collect();
    let mut order = Vec::with_capacity(n);
    let mut miss_at = 0;
    for p in 0..n {
        let which = p % 2;
        if p % MISS_EVERY == 0 {
            miss_at = p + (rng.next_u64() % MISS_EVERY as u64) as usize;
        }
        if p == miss_at && !fresh.is_empty() {
            let g = fresh.swap_remove((rng.next_u64() % fresh.len() as u64) as usize);
            let deadline = if which == 0 {
                SPEC_TIGHT_MS
            } else {
                SPEC_LOOSE_MS
            };
            order.push(mix.push(&spec_request(ctx, g, deadline)));
        } else {
            order.push(hot[(rng.next_u64() % hot.len() as u64) as usize][which]);
        }
    }
    (mix, order)
}

/// `serve-rmat-spec`: closed-loop scale-family spec requests, each of which
/// makes the daemon regenerate the graph, half with a deadline below the hit
/// latency.
pub fn rmat_spec(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx);
    out.threads = vec![
        ("mapperd_workers", WORKERS),
        ("mapperd_search", SEARCH_THREADS),
        ("client_connections", CONNECTIONS),
        ("offline_check_dse", DSE_THREADS),
    ];
    out.sample_label = "request latency, closed loop (ms)";
    let mut checker = Checker::new();

    if ctx.traced {
        let (mix, order) = spec_mix(ctx, TRACE_REQUESTS_CLOSED);
        let (daemon, _) = setup(&mix, 1)?;
        let answers = closed_loop(daemon.addr, &mix, &order, None)?;
        daemon.stop()?;
        account(&mut out, &mut checker, &mix, &answers)?;
        socket_metrics(&mut out, &answers, false);
        let lines: Vec<&str> = order
            .iter()
            .take(REPLAY_CLOSED)
            .map(|&l| mix.lines[l].as_str())
            .collect();
        replay(&mut out, &lines)?;
        subject_layers(&mut out, |t| {
            offline::build(
                t,
                spec_graph(ctx),
                omega_serve::SCALE_DATASET_SEED,
                HOT_WIDTHS[0],
            )
        })?;
        finish_checks(&mut out, &checker);
        return Ok(out);
    }

    // Enough requests for any window: the closed loop stops at the deadline.
    let (mix, order) = spec_mix(ctx, (ctx.seconds * 100.0).ceil() as usize + 100);
    let mut setup_times = Vec::new();
    let mut peaks = Vec::new();
    let mut answers = Vec::new();
    let mut window = 0.0;
    for _ in 0..SPEC_SEGMENTS {
        let (daemon, t) = start_warm(&mix)?;
        setup_times.push(t);
        let start = Instant::now();
        let seconds = ctx.seconds / SPEC_SEGMENTS as f64;
        let part = closed_loop(daemon.addr, &mix, &order[answers.len()..], Some(seconds))?;
        window += secs(start.elapsed());
        peaks.push(daemon.peak_rss_mb()?);
        daemon.stop()?;
        answers.extend(part);
    }
    account(&mut out, &mut checker, &mix, &answers)?;
    latency_metrics(&mut out, &answers);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_times));
    m.set("peak_rss_mb", median(&peaks));
    m.set("slo_qps", answers.len() as f64 / window);
    m.set("deadline_met_pct", deadline_met_pct(&mix, &answers));
    finish_checks(&mut out, &checker);
    Ok(out)
}

fn finish_checks(out: &mut Outcome, checker: &Checker) {
    out.report.push(format!(
        "check: {} exact answers compared with an offline explore of their {} distinct \
         workloads; {} answers past the budget of {MAX_CHECKED_WORKLOADS} workloads unchecked",
        checker.checked,
        checker.memo.len(),
        checker.unchecked
    ));
}
