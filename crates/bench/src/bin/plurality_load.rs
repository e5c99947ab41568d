//! **plurality_load** — load generator and latency gate for the
//! `plurality-serve` daemon.
//!
//! Drives N concurrent keep-alive connections at a configurable
//! hot/cold mix against a running server, measures end-to-end latency
//! percentiles and throughput, and writes
//! `benchmarks/BENCH_serve.json` in the established snapshot format
//! (directory overridable via `PLURALITY_BENCH_JSON`). The CI `serve`
//! job uses the `--assert-*` flags as its load gate.
//!
//! ## Workload model
//!
//! Each connection issues `--requests` requests: a deterministic
//! Bresenham-style interleave classifies request *i* as **hot** iff
//! `ceil((i+1)·f) > ceil(i·f)` for hot fraction `f` — so exactly
//! `ceil(requests·f)` requests cycle through the `--hot-pairs` shared
//! `(spec, seed)` pairs and the rest get a globally unique cold seed.
//! Cold seeds count up from a per-process base drawn from the clock and
//! the process id (printed at start), so a second run against the same
//! daemon — whose cache outlives this process — misses the cache too.
//! The ceiling (not an RNG draw) matters: the realized hot fraction is
//! *never below* `f`, which is what makes the `--assert-hit-rate` gate
//! sound. Before measurement, a warmup pass requests every hot pair
//! once (uncounted) so each measured hot request finds the cache
//! populated; hits are counted client-side from the server's `X-Cache`
//! header.
//!
//! Closed loop by default (next request starts when the previous
//! response lands); `--rate R` switches to an open loop where request
//! *i* of each connection is scheduled at `i · connections / R`
//! seconds from the start, regardless of response latency.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p plurality-bench --bin plurality_load -- \
//!     --addr 127.0.0.1:8080 --connections 8 --requests 200 \
//!     --hot-fraction 0.5 --assert-no-5xx --assert-hit-rate 0.5 \
//!     --assert-p99-ms 5000
//! ```

use plurality_dist::rng::derive_seed;
use plurality_obs::{validate_exposition, Histogram};
use plurality_serve::{run_target, HttpClient};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const USAGE: &str = "\
plurality_load: load generator and latency gate for plurality-serve

USAGE:
    plurality_load --addr <HOST:PORT> [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>        server to drive (required)
    --connections <N>         concurrent keep-alive connections [default: 8]
    --requests <N>            requests per connection           [default: 200]
    --hot-fraction <F>        fraction of requests drawn from the shared
                              hot set, 0..=1                    [default: 0.5]
    --hot-pairs <N>           size of the shared hot (spec, seed) set
                                                                [default: 8]
    --spec <SPEC>             base RunSpec (seed appended per request)
                              [default: sync?n=400&k=2&alpha=3.0]
    --rate <R>                open-loop target, total specs/sec across all
                              connections (closed loop if absent)
    --assert-no-5xx           exit non-zero on any 5xx response
    --assert-hit-rate <F>     exit non-zero if the measured cache hit rate
                              is below F
    --assert-p99-ms <MS>      exit non-zero if p99 latency is >= MS
    --scrape-metrics          GET /metrics mid-load and exit non-zero unless
                              it parses as Prometheus text exposition with
                              the request-latency histogram present
    --help                    print this help

Writes benchmarks/BENCH_serve.json (dir overridable via PLURALITY_BENCH_JSON).
";

#[derive(Clone)]
struct Config {
    addr: SocketAddr,
    connections: usize,
    requests: usize,
    hot_fraction: f64,
    hot_pairs: u64,
    spec: String,
    rate: Option<f64>,
    assert_no_5xx: bool,
    assert_hit_rate: Option<f64>,
    assert_p99_ms: Option<f64>,
    scrape_metrics: bool,
    /// First cold seed of this process (see [`cold_seed_base`]).
    cold_base: u64,
}

/// Per-connection tallies, merged after the join. Latencies go straight
/// into the shared log-bucket [`Histogram`] — O(1) per sample, no
/// per-request allocation, quantiles within one bucket width
/// (≤ 1/16 relative error) of the exact nearest-rank value.
#[derive(Default)]
struct Tally {
    hits: u64,
    status_200: u64,
    status_429: u64,
    status_5xx: u64,
    status_other: u64,
}

fn parse_args() -> Config {
    let mut addr = None;
    let mut config = Config {
        addr: "127.0.0.1:0".parse().expect("placeholder addr"),
        connections: 8,
        requests: 200,
        hot_fraction: 0.5,
        hot_pairs: 8,
        spec: "sync?n=400&k=2&alpha=3.0".to_string(),
        rate: None,
        assert_no_5xx: false,
        assert_hit_rate: None,
        assert_p99_ms: None,
        scrape_metrics: false,
        cold_base: cold_seed_base(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = Some(parse(&value("--addr"), "--addr")),
            "--connections" => config.connections = parse(&value("--connections"), "--connections"),
            "--requests" => config.requests = parse(&value("--requests"), "--requests"),
            "--hot-fraction" => {
                config.hot_fraction = parse(&value("--hot-fraction"), "--hot-fraction");
            }
            "--hot-pairs" => config.hot_pairs = parse(&value("--hot-pairs"), "--hot-pairs"),
            "--spec" => config.spec = value("--spec"),
            "--rate" => config.rate = Some(parse(&value("--rate"), "--rate")),
            "--assert-no-5xx" => config.assert_no_5xx = true,
            "--assert-hit-rate" => {
                config.assert_hit_rate =
                    Some(parse(&value("--assert-hit-rate"), "--assert-hit-rate"));
            }
            "--assert-p99-ms" => {
                config.assert_p99_ms = Some(parse(&value("--assert-p99-ms"), "--assert-p99-ms"));
            }
            "--scrape-metrics" => config.scrape_metrics = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    config.addr = addr.unwrap_or_else(|| {
        eprintln!("error: --addr is required\n\n{USAGE}");
        std::process::exit(2);
    });
    assert!(
        (0.0..=1.0).contains(&config.hot_fraction),
        "--hot-fraction must be within 0..=1"
    );
    assert!(config.connections > 0 && config.requests > 0 && config.hot_pairs > 0);
    config
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} got {value:?}\n\n{USAGE}");
        std::process::exit(2);
    })
}

/// A fresh base for this process's cold seeds, in `[2^62, 2^63)`: far
/// above the hot seeds `1..=hot_pairs`, with room for every request, and
/// different per process, so cold requests never re-hit the cache
/// entries of an earlier run against the same daemon.
fn cold_seed_base() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let entropy = nanos ^ u64::from(std::process::id());
    (1 << 62) + (derive_seed(entropy, 0x00C0_1D5E) >> 2)
}

/// Request `i` is hot iff the ceiling interleave steps at `i` — exactly
/// `ceil(requests · f)` hot requests, evenly spread.
fn is_hot(i: usize, f: f64) -> bool {
    let step = |x: usize| (x as f64 * f).ceil() as u64;
    step(i + 1) > step(i)
}

fn drive_connection(
    config: &Config,
    conn: usize,
    start_gun: &Barrier,
    latencies: &Histogram,
) -> Tally {
    let mut client = HttpClient::connect(config.addr).expect("connect to server");
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("socket option");

    // Warmup: touch every hot pair once so measured hot requests find
    // the cache populated. Uncounted, and racing warmups across
    // connections are fine — the first one in wins, the rest are hits.
    for seed in 1..=config.hot_pairs {
        let response = client
            .get(&run_target(&config.spec, Some(seed)))
            .expect("warmup request");
        assert!(
            response.status == 200 || response.status == 429,
            "warmup got {}: {}",
            response.status,
            response.body
        );
    }

    start_gun.wait();
    let started = Instant::now();
    let interval = config
        .rate
        .map(|rate| Duration::from_secs_f64(config.connections as f64 / rate));
    let mut tally = Tally::default();
    let mut hot_cursor = conn as u64; // de-phase connections across the hot set
    for i in 0..config.requests {
        if let Some(interval) = interval {
            // Open loop: request i fires on its schedule slot no matter
            // how long earlier responses took (no coordinated omission).
            let due = started + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let seed = if is_hot(i, config.hot_fraction) {
            hot_cursor += 1;
            1 + (hot_cursor % config.hot_pairs)
        } else {
            // Unique cold seed: never shared, and never re-used by a
            // later process (see `cold_seed_base`).
            config.cold_base + (conn * config.requests + i) as u64
        };
        let sent = Instant::now();
        let response = client
            .get(&run_target(&config.spec, Some(seed)))
            .expect("request");
        latencies.record(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        match response.status {
            200 => {
                tally.status_200 += 1;
                if response.cache_disposition() == Some("hit") {
                    tally.hits += 1;
                }
            }
            429 => tally.status_429 += 1,
            500..=599 => tally.status_5xx += 1,
            _ => tally.status_other += 1,
        }
    }
    tally
}

/// Scrapes `/metrics` from its own connection while the load is in
/// flight and checks it parses as Prometheus text exposition with the
/// request-latency histogram present. Returns an error description on
/// failure instead of panicking so it can feed the gate summary.
fn scrape_metrics_midload(addr: SocketAddr) -> Result<(), String> {
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("metrics scrape connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("metrics scrape socket option: {e}"))?;
    let response = client
        .get("/metrics")
        .map_err(|e| format!("metrics scrape request: {e}"))?;
    if response.status != 200 {
        return Err(format!("/metrics answered {}", response.status));
    }
    validate_exposition(&response.body)
        .map_err(|e| format!("/metrics is not valid exposition format: {e}"))?;
    for needle in [
        "# TYPE plurality_request_latency_us histogram",
        "plurality_request_latency_us_bucket{le=\"+Inf\"}",
        "# TYPE plurality_requests_total counter",
    ] {
        if !response.body.contains(needle) {
            return Err(format!("/metrics is missing {needle:?}"));
        }
    }
    Ok(())
}

fn snapshot_dir() -> PathBuf {
    std::env::var(plurality_bench::BENCH_JSON_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("benchmarks"))
}

fn main() {
    let config = parse_args();
    println!(
        "driving http://{} — {} connections × {} requests, hot fraction {} over {} pairs, {}, cold seeds from {}",
        config.addr,
        config.connections,
        config.requests,
        config.hot_fraction,
        config.hot_pairs,
        match config.rate {
            Some(rate) => format!("open loop at {rate} specs/sec"),
            None => "closed loop".to_string(),
        },
        config.cold_base,
    );

    let start_gun = Arc::new(Barrier::new(config.connections + 1));
    let latencies = Arc::new(Histogram::new());
    let workers: Vec<_> = (0..config.connections)
        .map(|conn| {
            let config = config.clone();
            let start_gun = Arc::clone(&start_gun);
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || drive_connection(&config, conn, &start_gun, &latencies))
        })
        .collect();
    start_gun.wait();
    let measured_from = Instant::now();
    // Scrape /metrics while the workers are mid-flight, from a
    // dedicated connection — this is the CI exposition-format check.
    let scrape_result = config
        .scrape_metrics
        .then(|| scrape_metrics_midload(config.addr));
    let tallies: Vec<Tally> = workers
        .into_iter()
        .map(|w| w.join().expect("connection thread"))
        .collect();
    let elapsed = measured_from.elapsed();

    let total = latencies.count() as f64;
    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let (hits, ok) = (sum(|t| t.hits), sum(|t| t.status_200));
    let hit_rate = if ok == 0 {
        0.0
    } else {
        hits as f64 / ok as f64
    };
    let specs_per_sec = total / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        latencies.quantile(0.50) as f64 / 1_000.0,
        latencies.quantile(0.95) as f64 / 1_000.0,
        latencies.quantile(0.99) as f64 / 1_000.0,
    );

    let metrics: Vec<(String, f64)> = vec![
        ("serve/specs_per_sec".into(), specs_per_sec),
        ("serve/p50_ms".into(), p50),
        ("serve/p95_ms".into(), p95),
        ("serve/p99_ms".into(), p99),
        ("serve/hit_rate".into(), hit_rate),
        ("serve/requests".into(), total),
        ("serve/connections".into(), config.connections as f64),
        ("serve/hot_fraction".into(), config.hot_fraction),
        ("serve/status_200".into(), ok as f64),
        ("serve/status_429".into(), sum(|t| t.status_429) as f64),
        ("serve/status_5xx".into(), sum(|t| t.status_5xx) as f64),
        ("serve/status_other".into(), sum(|t| t.status_other) as f64),
    ];
    let path = snapshot_dir().join("BENCH_serve.json");
    plurality_bench::write_suite_json(
        &path,
        "serve_load",
        "latency ms (…_ms), throughput specs/sec, counts and ratios otherwise",
        &metrics,
    )
    .expect("write snapshot");
    println!(
        "{:.1} specs/sec | p50 {p50:.1} ms, p95 {p95:.1} ms, p99 {p99:.1} ms | \
         hit rate {hit_rate:.3} | wrote {}",
        specs_per_sec,
        path.display()
    );

    let mut failures = Vec::new();
    if config.assert_no_5xx && sum(|t| t.status_5xx) > 0 {
        failures.push(format!("{} responses were 5xx", sum(|t| t.status_5xx)));
    }
    if let Some(floor) = config.assert_hit_rate {
        if hit_rate < floor {
            failures.push(format!("hit rate {hit_rate:.3} is below the {floor} floor"));
        }
    }
    if let Some(bound) = config.assert_p99_ms {
        if p99 >= bound {
            failures.push(format!("p99 {p99:.1} ms is not under the {bound} ms bound"));
        }
    }
    if let Some(Err(reason)) = scrape_result {
        failures.push(format!("mid-load metrics scrape failed: {reason}"));
    } else if config.scrape_metrics {
        println!("mid-load /metrics scrape: valid exposition format");
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("load gate FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("load gate passed");
}
