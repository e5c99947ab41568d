//! The serve workload: an in-process `plurality_serve::Server` with a
//! fresh cache, driven open-loop over keep-alive connections.
//!
//! One third of the requests come from a small hot set warmed during
//! set-up (cache reads); the rest carry unique cold seeds derived from
//! the workload seed (an engine run of ~2.5 ms plus a cache insert
//! each). The split is not even because hits and misses form two
//! separate latency clusters: with half of each, the median falls in
//! the gap between them and jumps from one to the other between runs.
//! It sits among the misses rather than the hits because a hit takes
//! ~0.2 ms, mostly thread wake-ups, which on a shared host spread by
//! half their size from run to run; the cold templates all take about
//! as long, so the misses form one cluster. Every request is timed from
//! its due time. The base rate runs for two thirds of `--seconds`; the
//! ladder's higher rungs follow until one fails the limit or the time
//! is spent.
//!
//! Checks: every `200` body equals the facade's `wire_text` for its
//! canonical spec (hot bodies byte for byte; cold bodies by length and
//! FNV-1a digest, so memory stays flat), and every `X-Cache` value
//! matches the hot/cold plan.

use crate::ladder::{self, Rung};
use crate::spans::Recorder;
use crate::stats::{median_or_zero, Metrics, Summary};
use crate::{fnv1a, layers, peak_rss_mb, Outcome, SLO_MS};
use plurality_api::{Registry, RunSpec};
use plurality_dist::rng::{derive_seed, Xoshiro256PlusPlus};
use plurality_serve::http::{read_request, ReadOutcome, Response};
use plurality_serve::pool::{Job, JobQueue};
use plurality_serve::{run_target, ReportCache, ServeConfig, Server};
use rand::RngCore;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Engine workers in the server.
const WORKERS: usize = 2;
/// Specs in the hot set.
const HOT_SET: usize = 8;
/// Cold templates of about equal cost (~2.5 ms of engine time each).
const TEMPLATES: [&str; 3] = [
    "sync?n=10000&k=4",
    "leader?n=1000&k=2&alpha=3",
    "3-majority?n=20000&k=4",
];
/// Hot requests per plan block.
const HOT_PER_BLOCK: usize = 3;
/// Cold requests per template per plan block.
const COLD_PER_TEMPLATE: usize = 2;
/// Requests per plan block: one third hot.
const BLOCK: usize = HOT_PER_BLOCK + COLD_PER_TEMPLATE * TEMPLATES.len();
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Cold specs replayed through the layer microbenchmarks.
const REPLAY: usize = 200;

/// One planned request.
#[derive(Debug, Clone)]
struct Planned {
    /// Canonical spec string (the server's cache key).
    canonical: String,
    /// Request target.
    target: String,
    /// Whether it belongs to the hot set.
    hot: bool,
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    plan: usize,
    due: Instant,
    sent: Instant,
    first_byte: Instant,
    last_byte: Instant,
    /// ms the generator woke late for this request (`None` when the
    /// connection was still busy at the due time).
    late_ms: Option<f64>,
    status: u16,
    cache: Option<String>,
    body_len: usize,
    body_digest: u64,
    /// Hot bodies are compared byte for byte as they arrive.
    hot_body_ok: bool,
    error: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.last_byte - self.due)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The request plan and expected bodies.
struct Plan {
    master: u64,
    hot: Vec<Planned>,
    hot_bodies: Vec<String>,
    requests: Vec<Planned>,
}

impl Plan {
    fn new(seed: u64) -> Result<Self, String> {
        let master = derive_seed(seed, 0x5E7E);
        let hot: Vec<Planned> = (0..HOT_SET)
            .map(|j| {
                planned(
                    TEMPLATES[j % TEMPLATES.len()],
                    derive_seed(master, j as u64),
                    true,
                )
            })
            .collect();
        let hot_bodies = hot
            .iter()
            .map(|p| expected_body(&p.canonical))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            master,
            hot,
            hot_bodies,
            requests: Vec::new(),
        })
    }

    /// Appends `count` requests and returns their plan indices. Every
    /// block of [`BLOCK`] requests holds exactly [`HOT_PER_BLOCK`] hot
    /// ones and [`COLD_PER_TEMPLATE`] cold requests per template, in an
    /// order shuffled by the seed, so the mix (and with it where the
    /// median and the tail fall) does not drift from seed to seed.
    fn extend(&mut self, count: usize) -> std::ops::Range<usize> {
        let start = self.requests.len();
        for i in start..start + count {
            let block = (i / BLOCK) as u64;
            let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(self.master, (1 << 40) + block));
            let mut order: [usize; BLOCK] = std::array::from_fn(|k| k);
            for k in (1..BLOCK).rev() {
                order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
            }
            let draw = derive_seed(self.master, (1 << 48) + i as u64);
            let next = match order[i % BLOCK].checked_sub(HOT_PER_BLOCK) {
                None => self.hot[(draw % HOT_SET as u64) as usize].clone(),
                Some(cold) => planned(TEMPLATES[cold % TEMPLATES.len()], draw, false),
            };
            self.requests.push(next);
        }
        start..start + count
    }
}

fn planned(template: &str, seed: u64, hot: bool) -> Planned {
    let spec = RunSpec::parse(template).expect("templates parse");
    Planned {
        canonical: spec.with("seed", seed).to_string(),
        target: run_target(template, Some(seed)),
        hot,
    }
}

/// The facade's wire text for a canonical spec.
fn expected_body(canonical: &str) -> Result<String, String> {
    let spec = RunSpec::parse(canonical).map_err(|e| e.to_string())?;
    let resolved = Registry::standard()
        .resolve(&spec)
        .map_err(|e| e.to_string())?;
    Ok(resolved.run().wire_text())
}

/// A minimal keep-alive HTTP/1.1 client that timestamps the first and
/// last byte of each response.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Reply {
    status: u16,
    cache: Option<String>,
    body: Vec<u8>,
    first_byte: Instant,
    last_byte: Instant,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        self.stream.write_all(request.as_bytes())?;
        self.buf.clear();
        let mut first_byte = None;
        let mut chunk = [0u8; 8192];
        let (head_end, length) = loop {
            if let Some((end, length)) = parse_head(&self.buf)? {
                break (end, length);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let last_byte = Instant::now();
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        let cache = header(&head, "x-cache");
        Ok(Reply {
            status,
            cache,
            body: self.buf[head_end..head_end + length].to_vec(),
            first_byte: first_byte.unwrap_or(last_byte),
            last_byte,
        })
    }
}

/// The end of the head and the body length, once the head is complete.
fn parse_head(buf: &[u8]) -> std::io::Result<Option<(usize, usize)>> {
    let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..at]);
    let length = header(&head, "content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without Content-Length"))?;
    Ok(Some((at + 4, length)))
}

fn header(head: &str, name: &str) -> Option<String> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim()
            .eq_ignore_ascii_case(name)
            .then(|| value.trim().to_string())
    })
}

/// One open-loop phase: request `indices[j]` is due at
/// `start + j / rate` and goes out on connection `j % conns`.
fn drive(
    conns: &mut [Conn],
    plan: &Plan,
    indices: std::ops::Range<usize>,
    rate: f64,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let count = conns.len();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let indices = indices.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (j, plan_index) in indices.enumerate().skip(c).step_by(count) {
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        let late_ms = (Instant::now() < due).then(|| {
                            wait_until(due);
                            ms(Instant::now() - due)
                        });
                        out.push(exchange(conn, plan, plan_index, due, late_ms));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all: Vec<Sample> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|s| s.due);
    all
}

/// Sleeps to within a millisecond of `due`, then yields until it
/// arrives, so timer wake-up slack does not become measured latency.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(Duration::from_millis(1)) {
            Some(long) if !long.is_zero() => std::thread::sleep(long),
            _ => std::thread::yield_now(),
        }
    }
}

fn exchange(
    conn: &mut Conn,
    plan: &Plan,
    plan_index: usize,
    due: Instant,
    late_ms: Option<f64>,
) -> Sample {
    let planned = &plan.requests[plan_index];
    let sent = Instant::now();
    let reply = conn.get(&planned.target);
    let now = Instant::now();
    let mut sample = Sample {
        plan: plan_index,
        due,
        sent,
        first_byte: now,
        last_byte: now,
        late_ms,
        status: 0,
        cache: None,
        body_len: 0,
        body_digest: 0,
        hot_body_ok: false,
        error: None,
    };
    match reply {
        Ok(reply) => {
            sample.hot_body_ok = !planned.hot
                || plan
                    .hot
                    .iter()
                    .position(|h| h.canonical == planned.canonical)
                    .is_some_and(|j| plan.hot_bodies[j].as_bytes() == reply.body.as_slice());
            sample.first_byte = reply.first_byte;
            sample.last_byte = reply.last_byte;
            sample.status = reply.status;
            sample.cache = reply.cache;
            sample.body_len = reply.body.len();
            sample.body_digest = fnv1a(&reply.body);
        }
        Err(e) => sample.error = Some(e.to_string()),
    }
    sample
}

/// Starts a server and warms the hot set through it.
fn start_server(plan: &Plan) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (p, body) in plan.hot.iter().zip(&plan.hot_bodies) {
        let reply = conn
            .get(&p.target)
            .map_err(|e| format!("warming {}: {e}", p.canonical))?;
        if reply.status != 200 || reply.body != body.as_bytes() {
            return Err(format!(
                "warming {}: status {} or body differs from the facade",
                p.canonical, reply.status
            ));
        }
    }
    Ok(server)
}

fn stop_server(server: Server) {
    server.drain();
    server.join();
}

/// Successful replies per second over a phase, from the first due time
/// to the last byte.
fn achieved_rate(samples: &[Sample]) -> f64 {
    let ok = samples.iter().filter(|s| s.status == 200).count();
    match (samples.first(), samples.iter().map(|s| s.last_byte).max()) {
        (Some(first), Some(end)) if end > first.due => ok as f64 / (end - first.due).as_secs_f64(),
        _ => 0.0,
    }
}

/// Checks every sample against the plan; returns the failed count.
fn check(plan: &Plan, samples: &[Sample], problems: &mut Vec<String>) -> usize {
    let mut failed = 0;
    let mut expected: HashMap<&str, (usize, u64)> = HashMap::new();
    for s in samples {
        let p = &plan.requests[s.plan];
        if s.status != 200 {
            failed += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "{}: status {} {}",
                    p.canonical,
                    s.status,
                    s.error.as_deref().unwrap_or("")
                ));
            }
            continue;
        }
        let want_cache = if p.hot { "hit" } else { "miss" };
        if s.cache.as_deref() != Some(want_cache) {
            problems.push(format!(
                "{}: X-Cache {:?}, planned {want_cache}",
                p.canonical, s.cache
            ));
        }
        let body_ok = if p.hot {
            s.hot_body_ok
        } else {
            let want = match expected.get(p.canonical.as_str()) {
                Some(w) => *w,
                None => match expected_body(&p.canonical) {
                    Ok(body) => *expected
                        .entry(p.canonical.as_str())
                        .or_insert((body.len(), fnv1a(body.as_bytes()))),
                    Err(e) => {
                        problems.push(format!("{}: facade refused: {e}", p.canonical));
                        continue;
                    }
                },
            };
            want == (s.body_len, s.body_digest)
        };
        if !body_ok {
            problems.push(format!(
                "{}: body differs from the facade's wire text",
                p.canonical
            ));
        }
    }
    problems.truncate(20);
    failed
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, threads: usize, trace: bool) -> Result<Outcome, String> {
    let mut plan = Plan::new(seed)?;
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            stop_server(old);
        }
        let start = Instant::now();
        server = Some(start_server(&plan)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let mut conns = (0..threads)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;

    let result = if trace {
        traced(&mut plan, &mut conns, addr, seed, seconds)
    } else {
        timed(&mut plan, &mut conns, seconds, median_or_zero(&setup_times))
    };
    drop(conns);
    stop_server(server);
    result
}

fn timed(
    plan: &mut Plan,
    conns: &mut [Conn],
    seconds: f64,
    setup_s: f64,
) -> Result<Outcome, String> {
    let rates = ladder::rates();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut all: Vec<Sample> = Vec::new();
    let mut base: Vec<Sample> = Vec::new();
    for (j, &rate) in rates.iter().enumerate() {
        let phase_s = if j == 0 {
            seconds * 2.0 / 3.0
        } else {
            ladder::rung_seconds(rate)
        };
        if j > 0 && start.elapsed() + Duration::from_secs_f64(phase_s) > budget {
            eprintln!("serve: ladder stopped at {rate:.1}/s by the time budget");
            break;
        }
        let indices = plan.extend((rate * phase_s).round().max(1.0) as usize);
        let samples = drive(conns, plan, indices, rate);
        let rung = Rung {
            achieved: achieved_rate(&samples),
            latency_ms: samples.iter().map(Sample::latency_ms).collect(),
            lag_ms: samples.iter().map(|s| ms(s.sent - s.due)).collect(),
            failed: samples.iter().filter(|s| s.status != 200).count(),
        };
        let ok = ladder::passes(&rung, SLO_MS);
        eprintln!(
            "serve: rung {rate:>8.1}/s  {} requests  p50 {:.2} ms  max {:.2} ms  {}",
            samples.len(),
            median_or_zero(&rung.latency_ms),
            rung.latency_ms.iter().copied().fold(0.0, f64::max),
            if ok { "pass" } else { "FAIL" }
        );
        if j == 0 {
            base = samples.clone();
        }
        all.extend(samples);
        rungs.push(rung);
        if !ok {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let failed = check(plan, &all, &mut problems);
    let base_ms: Vec<f64> = base.iter().map(Sample::latency_ms).collect();
    let summary = Summary::of(&base_ms, 0.99).ok_or("too few base-rate requests for a median")?;
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("ops_per_s", (all.len() - failed) as f64 / wall, "1/s");
    m.set("op_ms_p50", summary.p50, "ms");
    m.set("op_ms_p99", summary.tail, "ms");
    m.set("rate_at_slo", ladder::rate_at_slo(&rungs, SLO_MS), "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "serve: {} requests over {wall:.3} s; op_ms_p99 is p{:.1} of {} base-rate samples at {}/s",
        all.len(),
        summary.tail_q * 100.0,
        summary.n,
        ladder::BASE_RATE
    );
    Ok(Outcome {
        attempted: all.len(),
        failed,
        problems,
        metrics: m,
        spans: None,
    })
}

/// Cumulative server-side counters and histograms from `/metrics`.
#[derive(Debug, Default)]
struct Scrape {
    counters: BTreeMap<String, f64>,
    /// Histogram name → (upper bound, cumulative count) buckets.
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = conn.get("/metrics").map_err(|e| format!("/metrics: {e}"))?;
    let text = String::from_utf8(reply.body).map_err(|e| e.to_string())?;
    let mut s = Scrape::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        if let Some((name, le)) = key.split_once("_bucket{le=\"") {
            let le = le.trim_end_matches("\"}");
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            s.buckets
                .entry(name.to_string())
                .or_default()
                .push((bound, value));
        } else {
            s.counters.insert(key.to_string(), value);
        }
    }
    Ok(s)
}

impl Scrape {
    fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.counters.get(name).unwrap_or(&0.0) - before.counters.get(name).unwrap_or(&0.0)
    }

    /// The `q`-quantile of what `name` recorded since `before`: the
    /// upper bound of the bucket holding the `⌈q·count⌉`-th sample.
    fn quantile(&self, before: &Scrape, name: &str, q: f64) -> f64 {
        let cum = |s: &Scrape, bound: f64| {
            s.buckets.get(name).map_or(0.0, |b| {
                b.iter()
                    .filter(|(le, _)| *le <= bound)
                    .map(|(_, c)| *c)
                    .fold(0.0, f64::max)
            })
        };
        let Some(bounds) = self.buckets.get(name) else {
            return 0.0;
        };
        let total = cum(self, f64::INFINITY) - cum(before, f64::INFINITY);
        if total <= 0.0 {
            return 0.0;
        }
        let target = (q * total).ceil();
        bounds
            .iter()
            .map(|(le, _)| *le)
            .filter(|le| le.is_finite())
            .find(|&le| cum(self, le) - cum(before, le) >= target)
            .unwrap_or(0.0)
    }
}

/// Requests in the traced run's closed-loop attribution phase.
const CLOSED_LOOP: usize = 200;

fn traced(
    plan: &mut Plan,
    conns: &mut [Conn],
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    // The base rate: hit/miss latency and the generator's lateness.
    // The server has no tracing of its own to switch, so there is no
    // trace-off twin of this phase; its spans are cut from timestamps
    // the client takes anyway.
    let rate = ladder::BASE_RATE;
    let indices = plan.extend((rate * seconds * 2.0 / 3.0).round().max(1.0) as usize);
    let epoch = Instant::now();
    let traced = drive(conns, plan, indices, rate);
    // Closed loop (every request due at once, so each connection sends
    // the next as soon as the last reply ends): the server's own figures
    // against what the client sees, at the load where stalls show.
    let before = scrape(addr)?;
    let indices = plan.extend(CLOSED_LOOP);
    let closed = drive(conns, plan, indices, f64::INFINITY);
    let after = scrape(addr)?;

    let mut rec = Recorder::new(epoch);
    for (op, s) in traced.iter().enumerate() {
        let root = rec.push(
            "request",
            op as u64,
            None,
            rec.at(s.due),
            rec.at(s.last_byte),
        );
        rec.push(
            "loadgen.wait",
            op as u64,
            Some(root),
            rec.at(s.due),
            rec.at(s.sent),
        );
        rec.push(
            "serve.exchange",
            op as u64,
            Some(root),
            rec.at(s.sent),
            rec.at(s.last_byte),
        );
    }
    for (i, s) in closed.iter().enumerate() {
        let op = (traced.len() + i) as u64;
        let root = rec.push(
            "closed.request",
            op,
            None,
            rec.at(s.sent),
            rec.at(s.last_byte),
        );
        rec.push(
            "serve.ttfb",
            op,
            Some(root),
            rec.at(s.sent),
            rec.at(s.first_byte),
        );
        rec.push(
            "serve.body",
            op,
            Some(root),
            rec.at(s.first_byte),
            rec.at(s.last_byte),
        );
    }

    let mut problems = Vec::new();
    let failed = check(plan, &traced, &mut problems) + check(plan, &closed, &mut problems);
    let attempted = traced.len() + closed.len();

    let mut m = Metrics::default();
    let split = |hot: bool| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| plan.requests[s.plan].hot == hot)
            .map(Sample::latency_ms)
            .collect()
    };
    m.set("serve.hit_ms_p50", median_or_zero(&split(true)), "ms");
    m.set("serve.miss_ms_p50", median_or_zero(&split(false)), "ms");
    let mut late: Vec<f64> = traced.iter().filter_map(|s| s.late_ms).collect();
    late.sort_by(f64::total_cmp);
    m.set(
        "loadgen.late_ms_p99",
        if late.is_empty() {
            0.0
        } else {
            crate::stats::nearest_rank(&late, 0.99)
        },
        "ms",
    );
    m.set("obs.spans", rec.spans().len() as f64, "count");

    let msv = |v: Vec<f64>| median_or_zero(&v) / 1e6;
    m.set("serve.ttfb_ms_p50", msv(rec.durations("serve.ttfb")), "ms");
    m.set(
        "serve.body_gap_ms_p50",
        msv(rec.durations("serve.body")),
        "ms",
    );
    let client_p50_ms = msv(rec.durations("closed.request"));
    let req = "plurality_request_latency_us";
    let server_p50_us = after.quantile(&before, req, 0.5);
    m.set("serve.server_req_us_p50", server_p50_us, "us");
    m.set(
        "serve.server_req_us_p99",
        after.quantile(&before, req, 0.99),
        "us",
    );
    m.set(
        "serve.unattributed_ms_p50",
        client_p50_ms - server_p50_us / 1e3,
        "ms",
    );
    m.set(
        "serve.queue_wait_us_p50",
        after.quantile(&before, "plurality_queue_wait_us", 0.5),
        "us",
    );
    m.set(
        "serve.service_us_p50",
        after.quantile(&before, "plurality_service_time_us", 0.5),
        "us",
    );
    let hits = after.delta(&before, "plurality_cache_hits_total");
    let misses = after.delta(&before, "plurality_cache_misses_total");
    m.set("serve.hits", hits, "count");
    m.set("serve.misses", misses, "count");
    m.set(
        "serve.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    m.set(
        "serve.rejected_busy",
        after.delta(&before, "plurality_rejected_busy_total"),
        "count",
    );
    m.set(
        "serve.deadline_exceeded",
        after.delta(&before, "plurality_deadline_exceeded_total"),
        "count",
    );
    m.set(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    replay_layers(&mut m, plan, &traced);
    layers::record(&mut m, seed);
    eprintln!(
        "serve: closed loop {} requests, client p50 {client_p50_ms:.3} ms, server p50 {server_p50_us} us",
        closed.len()
    );

    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
        spans: Some(rec),
    })
}

/// Median µs per call of `f` over `items`, each call timed alone.
fn us_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let v: Vec<f64> = items
        .iter()
        .map(|item| {
            let start = Instant::now();
            f(item);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median_or_zero(&v)
}

/// Replays the traced phase's request stream through the serve and
/// api layers one call at a time.
fn replay_layers(m: &mut Metrics, plan: &Plan, traced: &[Sample]) {
    let requests: Vec<&Planned> = traced.iter().map(|s| &plan.requests[s.plan]).collect();
    let cold: Vec<&Planned> = requests
        .iter()
        .copied()
        .filter(|p| !p.hot)
        .take(REPLAY)
        .collect();

    let heads: Vec<String> = requests
        .iter()
        .map(|p| {
            format!(
                "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
                p.target
            )
        })
        .collect();
    m.set(
        "serve.http_parse_us",
        us_each(&heads, |h| {
            let parsed = read_request(&mut std::io::Cursor::new(h.as_bytes()));
            assert!(
                matches!(parsed, Ok(ReadOutcome::Request(_))),
                "replayed head parses"
            );
        }),
        "us",
    );

    let specs: Vec<RunSpec> = cold
        .iter()
        .map(|p| RunSpec::parse(&p.canonical).expect("canonical parses"))
        .collect();
    m.set(
        "api.parse_us",
        us_each(&cold, |p| {
            std::hint::black_box(RunSpec::parse(&p.canonical).expect("canonical parses"));
        }),
        "us",
    );
    m.set(
        "api.resolve_us",
        us_each(&specs, |s| {
            std::hint::black_box(
                Registry::standard()
                    .resolve(s)
                    .expect("planned specs resolve"),
            );
        }),
        "us",
    );
    m.set(
        "serve.validate_us",
        us_each(&specs, |s| {
            Registry::standard()
                .validate_only(s)
                .expect("planned specs validate")
        }),
        "us",
    );
    let mut run_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let reports: Vec<_> = specs
        .iter()
        .map(|s| {
            let resolved = Registry::standard()
                .resolve(s)
                .expect("planned specs resolve");
            let start = Instant::now();
            let report = resolved.run();
            run_ms
                .entry(report.protocol)
                .or_default()
                .push(ms(start.elapsed()));
            report
        })
        .collect();
    for (protocol, v) in &run_ms {
        m.set(&format!("api.run_ms.{protocol}"), median_or_zero(v), "ms");
    }
    let bodies: Vec<String> = reports.iter().map(|r| r.wire_text()).collect();
    m.set(
        "api.wire_us",
        us_each(&reports, |r| {
            std::hint::black_box(r.wire_text());
        }),
        "us",
    );
    let bytes: usize = bodies.iter().map(String::len).sum();
    m.set(
        "api.wire_bytes",
        bytes as f64 / bodies.len().max(1) as f64,
        "B",
    );

    let cache = ReportCache::new(32 << 20);
    let entries: Vec<(String, std::sync::Arc<str>)> = cold
        .iter()
        .zip(&bodies)
        .map(|(p, b)| (p.canonical.clone(), std::sync::Arc::from(b.as_str())))
        .collect();
    m.set(
        "serve.cache_insert_us",
        us_each(&entries, |(k, v)| cache.insert(k.clone(), v.clone())),
        "us",
    );
    m.set(
        "serve.cache_get_us",
        us_each(&entries, |(k, _)| {
            assert!(cache.get(k).is_some(), "inserted entries are found");
        }),
        "us",
    );
    m.set(
        "serve.encode_us",
        us_each(&bodies, |b| {
            let mut out = Vec::with_capacity(b.len() + 256);
            Response::ok(b.as_str())
                .with_header("X-Cache", "miss")
                .write_to(&mut out, true)
                .expect("writing to a Vec cannot fail");
            std::hint::black_box(out);
        }),
        "us",
    );
    m.set("serve.handoff_us", handoff_us(REPLAY), "us");
}

/// Median µs from `JobQueue::try_submit` on one thread to
/// `pop_blocking` returning on another, one job in flight at a time.
fn handoff_us(jobs: usize) -> f64 {
    let queue = JobQueue::new(64);
    let (done_tx, done_rx) = sync_channel::<f64>(1);
    std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || {
            while let Some(job) = queue.pop_blocking() {
                let waited = job.submitted.elapsed().as_nanos() as f64 / 1e3;
                if done_tx.send(waited).is_err() {
                    break;
                }
            }
        });
        let mut waits = Vec::with_capacity(jobs);
        for i in 0..jobs {
            let (reply, _rx) = sync_channel(1);
            let job = Job {
                key: format!("handoff-{i}"),
                reply,
                deadline: Instant::now() + Duration::from_secs(10),
                submitted: Instant::now(),
            };
            queue
                .try_submit(job)
                .expect("one job in flight never fills the queue");
            waits.push(done_rx.recv().expect("consumer alive"));
        }
        queue.drain();
        median_or_zero(&waits)
    })
}
