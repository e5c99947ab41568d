//! The workspace benchmark: one command per workload and seed that
//! prints every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`), checks the program's outputs, and ends with
//! one JSON result line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-async --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `sweep-async`, `sweep-batch`, `serve-mixed` (see
//! `BENCHMARK.json` for why each exists). The benchmark times the
//! public functions of each crate from outside; the per-layer names
//! follow the crates (`api`, `core`, `sim`, `dist`, `topology`, `agg`,
//! `baselines`, `par`, `obs`, `serve`).

mod ladder;
mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;

use stats::{json_str, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;

/// The per-operation latency limit behind `rate_at_slo`, in ms.
pub const SLO_MS: f64 = 100.0;

/// End-to-end metrics, printed by every `--trace 0` run:
///
/// * `setup_s` — median of several set-ups (sweeps: resolve every cell
///   and run it once, in CPU time of the set-up thread; serve: start
///   the server and warm the hot set, in wall time);
/// * `ops_per_s` — sweeps: median over batches of runs per CPU-second
///   of the whole process ([`cpu_ns`]), so work an engine hands to
///   other threads still counts; serve: `200` replies per wall-second
///   over the whole measurement;
/// * `op_ms_p50`, `op_ms_p99` — sweeps: per-run CPU time of the worker
///   thread; serve: per-request wall latency from its due time at the
///   ladder's base rate. The tail is the highest percentile up to 99
///   with ten samples beyond it; the one used and the sample count go
///   to stderr, with the sweeps' wall-clock figures;
/// * `rate_at_slo` — sweeps: median over batches of runs per process
///   CPU-second that took at most [`SLO_MS`]; serve: the rate served
///   on the highest ladder rung that met the limit;
/// * `peak_rss_mb` — `VmHWM` at the end of the run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("rate_at_slo", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every `--trace 1` run prints, besides one
/// `api.run_ms.<protocol>` per registered protocol. A layer a workload
/// does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("api.parse_us", "us"),
    ("api.resolve_us", "us"),
    ("api.wire_us", "us"),
    ("api.wire_bytes", "B"),
    ("api.op_self_us", "us"),
    ("core.events_popped", "count"),
    ("core.signals_thinned", "count"),
    ("core.window_crossings", "count"),
    ("core.ns_per_event", "ns"),
    ("sim.queue_resizes", "count"),
    ("sim.push_pop_ns", "ns"),
    ("sim.queue_share", "computed_ratio"),
    ("dist.exp_ns", "ns"),
    ("dist.waiting_time_ns", "ns"),
    ("dist.binomial_ns", "ns"),
    ("dist.multinomial_k8_ns", "ns"),
    ("topology.build_ms", "ms"),
    ("topology.sample_ns", "ns"),
    ("topology.complete_sample_ns", "ns"),
    ("agg.sub_steps", "count"),
    ("agg.rounds", "count"),
    ("agg.ns_per_substep", "ns"),
    ("baselines.interactions", "count"),
    ("baselines.ns_per_interaction", "ns"),
    ("par.speedup", "ratio"),
    ("par.busy_frac", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.spans", "count"),
    ("obs.trace_overhead", "ratio"),
    ("serve.server_req_us_p50", "us"),
    ("serve.server_req_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.rejected_busy", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.ttfb_ms_p50", "ms"),
    ("serve.body_gap_ms_p50", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.unattributed_ms_p50", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.validate_us", "us"),
    ("serve.handoff_us", "us"),
    ("serve.encode_us", "us"),
    ("loadgen.late_ms_p99", "ms"),
    ("failed_frac", "ratio"),
];

/// The full per-layer list, `api.run_ms.<protocol>` included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    let at = all
        .iter()
        .position(|(n, _)| n == "core.events_popped")
        .expect("listed");
    let runs = plurality_api::Registry::standard()
        .names()
        .into_iter()
        .map(|p| (format!("api.run_ms.{p}"), "ms"));
    all.splice(at..at, runs);
    all
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed or were refused.
    pub failed: usize,
    /// Correctness problems found (empty when correct).
    pub problems: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Spans of a traced run, written out at the end.
    pub spans: Option<spans::Recorder>,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Which CPU clock [`cpu_ns`] reads.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// The calling thread (`CLOCK_THREAD_CPUTIME_ID`).
    Thread,
    /// Every thread of the process (`CLOCK_PROCESS_CPUTIME_ID`).
    Process,
}

/// CPU time in ns on `clock`.
///
/// The sweeps time their work with it: on a shared virtual host the
/// kernel leaves steal time (the vCPU waiting for the hypervisor) out
/// of it, while wall time carries it, and steal is what moves wall-clock
/// figures most from one run to the next.
#[cfg(target_os = "linux")]
pub fn cpu_ns(clock: CpuClock) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Where no CPU clock is wired up, monotonic wall time stands in.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns(_clock: CpuClock) -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Host and build record printed with every result.
fn host_record(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"threads\": {threads}, \"connections\": {threads}, \
         \"rustc\": {}, \"profile\": {}, \"opt_level\": {}, \"debug_assertions\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_OPT_LEVEL")),
        cfg!(debug_assertions),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// Where the spans of a traced run are written: under the build
/// directory, so nothing lands in the source tree.
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload sweep-async|sweep-batch|serve-mixed --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "error: refusing to time a build with debug assertions on; \
             build with --release and no debug-assertions override"
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = nproc.min(2);
    println!("{}", host_record(&args, threads));

    let outcome = match (args.workload.as_str(), args.trace) {
        ("sweep-async", false) => {
            sweep::timed_run(sweep::ASYNC_GRID, args.seed, args.seconds, threads)
        }
        ("sweep-async", true) => sweep::traced_run(sweep::ASYNC_GRID, args.seed, threads),
        ("sweep-batch", false) => {
            sweep::timed_run(sweep::BATCH_GRID, args.seed, args.seconds, threads)
        }
        ("sweep-batch", true) => sweep::traced_run(sweep::BATCH_GRID, args.seed, threads),
        ("serve-mixed", trace) => serve::run(args.seed, args.seconds, threads, trace),
        (other, _) => Err(format!(
            "unknown workload {other} (sweep-async, sweep-batch, serve-mixed)"
        )),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let wanted: Vec<(String, &'static str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    // A layer the workload never reaches reads 0 in the traced run.
    if args.trace {
        for (name, unit) in &wanted {
            if outcome.metrics.get(name).is_none() && not_reached(&args.workload, name) {
                outcome.metrics.set(name, 0.0, unit);
            }
        }
    }
    let missing = outcome.metrics.select(&wanted);
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {}", missing.join(", "));
        return ExitCode::from(1);
    }
    if let Some(rec) = &outcome.spans {
        let path = spans_path(&args);
        match rec.write_jsonl(&path) {
            Ok(()) => eprintln!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Whether `metric` belongs to a layer `workload` does not exercise
/// (and so legitimately reads 0 in its traced run).
fn not_reached(workload: &str, metric: &str) -> bool {
    let serve_side = metric.starts_with("serve.") || metric.starts_with("loadgen.");
    if workload == "serve-mixed" {
        !serve_side
            && !metric.starts_with("dist.")
            && !metric.starts_with("topology.")
            && metric != "sim.push_pop_ns"
            && metric != "failed_frac"
    } else {
        serve_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
        for (name, unit) in &layers {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
