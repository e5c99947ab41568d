//! The sweep workloads: seeded grids of facade runs fanned out over
//! `plurality_par::par_map_seeded_with`, the way the experiment
//! binaries run them.
//!
//! One operation is one grid cell at one seed, driven through the
//! public facade: `RunSpec::parse` → `Registry::resolve` → run →
//! `Report::wire_text`, with an FNV-1a digest of the wire text as the
//! operation's output. The timed run (`--trace 0`) repeats batches of
//! grid passes until `--seconds` is spent and times each operation in
//! CPU time of its worker thread and each batch in CPU time of the
//! process, which leave out the steal time of a shared host; wall-clock
//! figures go to stderr. The traced run
//! (`--trace 1`) instead runs a fixed job list three times — trace off,
//! trace on with spans, and a one-thread replay — so its counts are
//! pure functions of the seed.

use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median_or_zero, Metrics, Summary};
use crate::{cpu_ns, fnv1a, peak_rss_mb, CpuClock, Outcome, SLO_MS};
use plurality_api::{Registry, Report, RunSpec, Telemetry};
use plurality_dist::rng::derive_seed;
use plurality_obs::EngineProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A grid cell: a spec string run `weight` times per grid pass.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The spec, without a seed (each operation supplies one).
    pub spec: &'static str,
    /// Operations of this cell per grid pass.
    pub weight: usize,
}

const fn cell(spec: &'static str, weight: usize) -> Cell {
    Cell { spec, weight }
}

/// The paper's per-node asynchronous engines at n = 2000: leader and
/// cluster, k ∈ {2, 8}, on the complete graph, a ring and an
/// Erdős–Rényi graph, plus one crash scenario. Off the complete graph
/// and after a crash, full consensus often never arrives, so those
/// cells run to a fixed horizon instead of the engine's long default
/// cap. Slow cells come first, so a batch ends on short runs and its
/// threads finish together.
pub const ASYNC_GRID: &[Cell] = &[
    cell("leader?n=2000&k=2&alpha=3&scenario=crash:0.2@5&max=80", 1),
    cell("cluster?n=2000&k=8&alpha=3", 1),
    cell("cluster?n=2000&k=2&alpha=3", 1),
    cell("leader?n=2000&k=8&alpha=3&topology=er:0.01&max=200", 1),
    cell("cluster?n=2000&k=8&alpha=3&topology=er:0.01&max=200", 1),
    cell("cluster?n=2000&k=2&alpha=3&topology=er:0.01&max=200", 1),
    cell("leader?n=2000&k=2&alpha=3&topology=ring&max=200", 1),
    cell("leader?n=2000&k=8&alpha=3&topology=ring&max=200", 1),
    cell("cluster?n=2000&k=2&alpha=3&topology=ring&max=200", 1),
    cell("cluster?n=2000&k=8&alpha=3&topology=ring&max=200", 1),
    cell("leader?n=2000&k=2&alpha=3&topology=er:0.01&max=200", 1),
    cell("leader?n=2000&k=2&alpha=3", 1),
    cell("leader?n=2000&k=8&alpha=3", 1),
];

/// Every protocol that runs without an event queue: the mean-field
/// backends and the urn at n = 10⁸–10⁹, the per-node synchronous
/// engine at n = 10⁴, and the gossip and population baselines at
/// n ≈ 5000 (pull voting, whose rounds grow with n, at 1000). The
/// `leader-mf` cell takes the coarsest tau-leap step (`dt=1`, ~17 ms a
/// run against ~400 ms at the default). Weights keep any one protocol
/// below a third of the busy time and make `leader-mf`, the slowest
/// cell, more than 1% of the runs, so the p99 falls inside one cell's
/// distribution rather than on the edge between two.
pub const BATCH_GRID: &[Cell] = &[
    cell("sync?n=10000&k=4&alpha=2", 4),
    cell("urn?n=1e9&k=8&alpha=1.5", 16),
    cell("sync-mf?n=1e9&k=8&alpha=1.5", 16),
    cell("leader-mf?n=1e8&k=4&alpha=3&dt=1", 2),
    cell("majority3-mf?n=1e9&k=8&alpha=1.5", 16),
    cell("undecided-mf?n=1e9&k=8&alpha=1.5", 16),
    cell("population-mf?n=1e9&alpha=1.5", 16),
    cell("two-choices?n=5000&k=4&alpha=2", 8),
    cell("3-majority?n=5000&k=4&alpha=2", 8),
    cell("undecided?n=5000&k=4&alpha=2", 8),
    cell("pull?n=1000&k=2&alpha=3", 2),
    cell("approx-majority?n=5000&alpha=2", 8),
    cell("exact-majority?n=5000&alpha=2", 4),
];

/// Grid passes per `par_map` batch of the timed run.
const PASSES_PER_BATCH: usize = 4;
/// Batches in the traced run's fixed job list.
const TRACE_BATCHES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Master seed of the warm-up runs.
const WARM_UP_SEED: u64 = 0x5EE9;

/// What one operation produced.
#[derive(Debug, Clone)]
struct OpOut {
    cell: usize,
    seed: u64,
    digest: u64,
    protocol: &'static str,
    wall_ns: u64,
    /// CPU time of the worker thread over the whole operation.
    cpu_ns: u64,
    run_ns: u64,
    wire_bytes: usize,
    trace_events: usize,
    profile: Option<EngineProfile>,
    sub_steps: u64,
    agg_rounds: u64,
    interactions: u64,
    error: Option<String>,
    spans: Option<Recorder>,
}

/// The workload state after set-up.
pub struct Sweep {
    grid: &'static [Cell],
    /// Cell index of each job slot in one grid pass.
    schedule: Vec<usize>,
    /// Canonical protocol name per cell.
    protocols: Vec<&'static str>,
    master: u64,
    epoch: Instant,
}

impl Sweep {
    /// Resolves every cell and runs it once (filling the memoized
    /// time-unit estimates), [`SETUP_REPS`] times; returns the state and
    /// the median set-up CPU time in seconds. The warm-up runs use fixed
    /// seeds, so every run's set-up does the same work.
    pub fn setup(grid: &'static [Cell], seed: u64) -> Result<(Self, f64), String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut protocols = Vec::new();
        for _ in 0..SETUP_REPS {
            let start = cpu_ns(CpuClock::Thread);
            let registry = Registry::standard();
            protocols.clear();
            for (c, cell) in grid.iter().enumerate() {
                let spec = RunSpec::parse(cell.spec).map_err(|e| format!("{}: {e}", cell.spec))?;
                let resolved = registry
                    .resolve(&spec)
                    .map_err(|e| format!("{}: {e}", cell.spec))?;
                let report = resolved.run_seeded(derive_seed(WARM_UP_SEED, c as u64));
                protocols.push(report.protocol);
                std::hint::black_box(report.wire_text().len());
            }
            times.push((cpu_ns(CpuClock::Thread) - start) as f64 / 1e9);
        }
        let schedule = grid
            .iter()
            .enumerate()
            .flat_map(|(c, cell)| std::iter::repeat_n(c, cell.weight))
            .collect();
        let sweep = Self {
            grid,
            schedule,
            protocols,
            master: derive_seed(seed, 0x5EE9),
            epoch: Instant::now(),
        };
        Ok((sweep, median_or_zero(&times)))
    }

    fn batch_len(&self) -> usize {
        self.schedule.len() * PASSES_PER_BATCH
    }

    /// Runs batch `b` on `threads` threads.
    fn run_batch(&self, b: usize, threads: usize, trace: bool) -> Vec<OpOut> {
        let len = self.batch_len();
        plurality_par::par_map_seeded_with(
            threads,
            derive_seed(self.master, b as u64),
            len,
            |i, seed| {
                let cell = self.schedule[i % self.schedule.len()];
                self.op(cell, seed, trace, (b * len + i) as u64)
            },
        )
    }

    /// One operation: parse, resolve, run, encode, digest.
    fn op(&self, cell: usize, seed: u64, trace: bool, op_id: u64) -> OpOut {
        let spec_text = self.grid[cell].spec;
        let mut rec = trace.then(|| Recorder::new(self.epoch));
        let cpu_start = cpu_ns(CpuClock::Thread);
        let start = Instant::now();
        let mut run_ns = 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let root = rec.as_mut().map(|r| r.open("op", op_id, None));
            let spec = timed(&mut rec, "api.parse", op_id, root, || {
                RunSpec::parse(spec_text)
            })
            .map_err(|e| e.to_string())?;
            let resolved = timed(&mut rec, "api.resolve", op_id, root, || {
                Registry::standard().resolve(&spec)
            })
            .map_err(|e| e.to_string())?;
            let run_name = format!("api.run.{}", self.protocols[cell]);
            let run_start = Instant::now();
            let report = timed(&mut rec, &run_name, op_id, root, || {
                if trace {
                    let cfg = resolved.config.clone().with_seed(seed).with_trace(true);
                    resolved.protocol.run(&cfg)
                } else {
                    resolved.run_seeded(seed)
                }
            });
            run_ns = run_start.elapsed().as_nanos() as u64;
            let wire = timed(&mut rec, "api.wire", op_id, root, || report.wire_text());
            if let (Some(r), Some(root)) = (rec.as_mut(), root) {
                r.close(root);
            }
            Ok::<_, String>((report, wire))
        }));
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu = cpu_ns(CpuClock::Thread) - cpu_start;
        let mut out = OpOut {
            cell,
            seed,
            digest: 0,
            protocol: self.protocols[cell],
            wall_ns,
            cpu_ns: cpu,
            run_ns,
            wire_bytes: 0,
            trace_events: 0,
            profile: None,
            sub_steps: 0,
            agg_rounds: 0,
            interactions: 0,
            error: None,
            spans: rec,
        };
        match result {
            Ok(Ok((report, wire))) => {
                if report.protocol != out.protocol {
                    out.error = Some(format!(
                        "cell {spec_text} reported protocol {}",
                        report.protocol
                    ));
                }
                out.digest = fnv1a(wire.as_bytes());
                out.wire_bytes = wire.len();
                out.trace_events = report.trace.as_ref().map_or(0, Vec::len);
                count_work(&report, &mut out);
            }
            Ok(Err(e)) => out.error = Some(format!("{spec_text}: {e}")),
            Err(_) => out.error = Some(format!("{spec_text}: engine panicked (seed {seed})")),
        }
        out
    }
}

/// Runs `f` inside a span when recording.
fn timed<R>(
    rec: &mut Option<Recorder>,
    name: &str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, op, parent, f),
        None => f(),
    }
}

/// Fills the per-layer work counts of `report` into `out`.
fn count_work(report: &Report, out: &mut OpOut) {
    out.profile = report.profile().copied();
    match &report.telemetry {
        Telemetry::LeaderMf(t) => out.sub_steps = t.sub_steps,
        Telemetry::SyncMf(_) | Telemetry::GossipMf(_) => {
            out.agg_rounds = report.rounds().unwrap_or(0)
        }
        Telemetry::Population(t) => out.interactions = t.interactions,
        // A synchronous gossip round is one sampled update per node.
        Telemetry::Gossip(t) => out.interactions = t.rounds * report.outcome.n,
        _ => {}
    }
}

/// Digest mismatches and failures between two runs of the same jobs.
fn compare(what: &str, a: &[OpOut], b: &[OpOut], problems: &mut Vec<String>) {
    for (x, y) in a.iter().zip(b) {
        if (x.cell, x.seed) != (y.cell, y.seed) {
            problems.push(format!("{what}: job order differs"));
            return;
        }
        if x.digest != y.digest {
            problems.push(format!(
                "{what}: report digest differs for cell {} seed {}",
                x.cell, x.seed
            ));
        }
    }
    if a.len() != b.len() {
        problems.push(format!("{what}: {} jobs vs {}", a.len(), b.len()));
    }
}

fn errors(outs: &[OpOut], problems: &mut Vec<String>) -> usize {
    let failed: Vec<&String> = outs.iter().filter_map(|o| o.error.as_ref()).collect();
    problems.extend(failed.iter().take(5).map(|e| (*e).clone()));
    failed.len()
}

/// The timed run: end-to-end metrics.
pub fn timed_run(
    grid: &'static [Cell],
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Result<Outcome, String> {
    let (sweep, setup_s) = Sweep::setup(grid, seed)?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Only what the metrics need is kept per run, so memory does not
    // grow with the number of runs a faster build completes; the first
    // batch is kept whole for the replay check.
    let mut first = Vec::new();
    let mut cpu_ms: Vec<f64> = Vec::new();
    let mut wall_ms: Vec<f64> = Vec::new();
    let mut cells: Vec<usize> = Vec::new();
    let mut problems = Vec::new();
    let mut failed = 0;
    // Per batch: runs completed, and runs within the limit, per
    // CPU-second of the process; and runs per wall-second, for stderr.
    let mut ops_rates = Vec::new();
    let mut slo_rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut batches = 0;
    while start.elapsed() < budget {
        let batch_start = Instant::now();
        let cpu_start = cpu_ns(CpuClock::Process);
        let batch = sweep.run_batch(batches, threads, false);
        let cpu_s = (cpu_ns(CpuClock::Process) - cpu_start) as f64 / 1e9;
        let wall_s = batch_start.elapsed().as_secs_f64();
        let errs = errors(&batch, &mut problems);
        let within = batch
            .iter()
            .filter(|o| o.error.is_none() && o.cpu_ns as f64 / 1e6 <= SLO_MS)
            .count();
        ops_rates.push((batch.len() - errs) as f64 / cpu_s);
        slo_rates.push(within as f64 / cpu_s);
        wall_rates.push((batch.len() - errs) as f64 / wall_s);
        failed += errs;
        cpu_ms.extend(batch.iter().map(|o| o.cpu_ns as f64 / 1e6));
        wall_ms.extend(batch.iter().map(|o| o.wall_ns as f64 / 1e6));
        cells.extend(batch.iter().map(|o| o.cell));
        if batches == 0 {
            first = batch;
        }
        batches += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    problems.truncate(5);

    // Correctness: the first batch replayed on one thread reproduces
    // every digest.
    let replay = sweep.run_batch(0, 1, false);
    compare("one-thread replay", &first, &replay, &mut problems);
    errors(&replay, &mut problems);

    let summary = Summary::of(&cpu_ms, 0.99).ok_or("too few operations for a median")?;
    let wall_summary = Summary::of(&wall_ms, summary.tail_q).ok_or("too few operations")?;
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    // Medians over batches, so a burst of load from outside the
    // benchmark moves a few batches rather than the whole figure.
    m.set("ops_per_s", median_or_zero(&ops_rates), "1/s");
    m.set("op_ms_p50", summary.p50, "ms");
    m.set("op_ms_p99", summary.tail, "ms");
    m.set("rate_at_slo", median_or_zero(&slo_rates), "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "sweep: {} runs in {batches} batches over {wall:.3} s on {threads} threads; \
         op_ms_p99 is p{:.1} of {} samples",
        cpu_ms.len(),
        summary.tail_q * 100.0,
        summary.n
    );
    eprintln!(
        "sweep: wall clock: {:.1} runs/s (median batch), op p50 {:.3} ms, p{:.1} {:.3} ms",
        median_or_zero(&wall_rates),
        wall_summary.p50,
        wall_summary.tail_q * 100.0,
        wall_summary.tail
    );
    for (c, cell) in grid.iter().enumerate() {
        let v: Vec<f64> = cpu_ms
            .iter()
            .zip(&cells)
            .filter(|&(_, &k)| k == c)
            .map(|(t, _)| *t)
            .collect();
        eprintln!(
            "cell {:<52} runs {:>5}  cpu p50 {:>9.3} ms",
            cell.spec,
            v.len(),
            median_or_zero(&v)
        );
    }
    Ok(Outcome {
        attempted: cpu_ms.len(),
        failed,
        problems,
        metrics: m,
        spans: None,
    })
}

/// The traced run: per-layer metrics from a fixed job list.
pub fn traced_run(grid: &'static [Cell], seed: u64, threads: usize) -> Result<Outcome, String> {
    let (sweep, _) = Sweep::setup(grid, seed)?;
    let run = |threads: usize, trace: bool| {
        let start = Instant::now();
        let outs: Vec<OpOut> = (0..TRACE_BATCHES)
            .flat_map(|b| sweep.run_batch(b, threads, trace))
            .collect();
        (outs, start.elapsed().as_secs_f64())
    };
    let (plain, plain_wall) = run(threads, false);
    let (traced, _) = run(threads, true);
    let (serial, serial_wall) = run(1, false);

    let mut problems = Vec::new();
    let failed = errors(&plain, &mut problems)
        + errors(&traced, &mut problems)
        + errors(&serial, &mut problems);
    compare("trace-on run", &plain, &traced, &mut problems);
    compare("one-thread replay", &plain, &serial, &mut problems);
    let attempted = plain.len() + traced.len() + serial.len();

    let mut rec = Recorder::new(sweep.epoch);
    let mut traced = traced;
    for o in &mut traced {
        if let Some(r) = o.spans.take() {
            rec.absorb(r);
        }
    }

    let mut m = Metrics::default();
    let us = |v: Vec<f64>| median_or_zero(&v) / 1e3;
    m.set("api.parse_us", us(rec.durations("api.parse")), "us");
    m.set("api.resolve_us", us(rec.durations("api.resolve")), "us");
    m.set("api.wire_us", us(rec.durations("api.wire")), "us");
    m.set("api.op_self_us", us(rec.self_times("op")), "us");
    let wire_bytes: usize = plain.iter().map(|o| o.wire_bytes).sum();
    m.set(
        "api.wire_bytes",
        wire_bytes as f64 / plain.len() as f64,
        "B",
    );
    for name in Registry::standard().names() {
        let ms = median_or_zero(&rec.durations(&format!("api.run.{name}"))) / 1e6;
        m.set(&format!("api.run_ms.{name}"), ms, "ms");
    }

    let sum = |f: &dyn Fn(&OpOut) -> u64| plain.iter().map(f).sum::<u64>();
    let profile = |f: fn(&EngineProfile) -> u64| sum(&|o| o.profile.as_ref().map_or(0, f));
    let events = profile(|p| p.events_popped);
    let event_run_ns = sum(&|o| if o.profile.is_some() { o.run_ns } else { 0 });
    m.set("core.events_popped", events as f64, "count");
    m.set(
        "core.signals_thinned",
        profile(|p| p.signals_thinned) as f64,
        "count",
    );
    m.set(
        "core.window_crossings",
        profile(|p| p.window_crossings) as f64,
        "count",
    );
    m.set("core.ns_per_event", ratio(event_run_ns, events), "ns");
    m.set(
        "sim.queue_resizes",
        profile(|p| p.queue_resizes) as f64,
        "count",
    );

    layers::record(&mut m, seed);
    let push_pop = m.get("sim.push_pop_ns").unwrap_or(0.0);
    m.set(
        "sim.queue_share",
        if event_run_ns == 0 {
            0.0
        } else {
            events as f64 * push_pop / event_run_ns as f64
        },
        "computed_ratio",
    );

    let sub_steps = sum(&|o| o.sub_steps);
    m.set("agg.sub_steps", sub_steps as f64, "count");
    m.set("agg.rounds", sum(&|o| o.agg_rounds) as f64, "count");
    m.set(
        "agg.ns_per_substep",
        ratio(
            sum(&|o| if o.sub_steps > 0 { o.run_ns } else { 0 }),
            sub_steps,
        ),
        "ns",
    );
    let interactions = sum(&|o| o.interactions);
    m.set("baselines.interactions", interactions as f64, "count");
    m.set(
        "baselines.ns_per_interaction",
        ratio(
            sum(&|o| if o.interactions > 0 { o.run_ns } else { 0 }),
            interactions,
        ),
        "ns",
    );

    let busy_plain = sum(&|o| o.wall_ns) as f64;
    m.set("par.speedup", serial_wall / plain_wall, "ratio");
    m.set(
        "par.busy_frac",
        busy_plain / 1e9 / (threads as f64 * plain_wall),
        "ratio",
    );
    let busy_traced: u64 = traced.iter().map(|o| o.wall_ns).sum();
    m.set(
        "obs.trace_events",
        traced.iter().map(|o| o.trace_events).sum::<usize>() as f64,
        "count",
    );
    m.set("obs.spans", rec.spans().len() as f64, "count");
    m.set(
        "obs.trace_overhead",
        busy_traced as f64 / busy_plain,
        "ratio",
    );
    m.set("failed_frac", failed as f64 / attempted as f64, "ratio");

    for (c, cell) in grid.iter().enumerate() {
        let ms: Vec<f64> = plain
            .iter()
            .filter(|o| o.cell == c)
            .map(|o| o.run_ns as f64 / 1e6)
            .collect();
        let busy: f64 = ms.iter().sum();
        eprintln!(
            "cell {:<52} runs {:>4}  p50 {:>9.3} ms  busy {:>5.1}%",
            cell.spec,
            ms.len(),
            median_or_zero(&ms),
            100.0 * busy / (busy_plain / 1e6)
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
        spans: Some(rec),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
