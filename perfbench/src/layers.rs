//! Per-layer microbenchmarks: the public hot calls of `dist`, `sim` and
//! `topology`, timed from outside at the sizes the sweeps run them.
//!
//! Each figure is the median over [`BATCHES`] timed batches of ns (or
//! ms) per call, with inputs drawn from a generator seeded by the
//! workload seed and results passed through `black_box`.

use crate::stats::{median_or_zero, Metrics};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{
    sample_binomial, sample_multinomial, ChannelPattern, Exponential, Latency, WaitingTime,
};
use plurality_sim::CalendarQueue;
use plurality_topology::Topology;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per microbenchmark.
const BATCHES: usize = 9;

/// Population size of the event-driven sweep cells, so the queue and
/// graph figures are taken at the depth the engines see.
const ASYNC_N: usize = 2_000;

/// Median ns per call over [`BATCHES`] batches of `calls` calls.
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    median_or_zero(&samples)
}

/// Records the `dist.*`, `sim.push_pop_ns` and `topology.*` metrics.
pub fn record(m: &mut Metrics, seed: u64) {
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);

    let exp = Exponential::new(1.0).expect("unit rate is valid");
    m.set(
        "dist.exp_ns",
        ns_per_call(200_000, || {
            black_box(exp.sample(&mut rng));
        }),
        "ns",
    );
    let wt = WaitingTime::new(
        Latency::exponential(1.0).expect("unit rate is valid"),
        ChannelPattern::SingleLeader,
    );
    m.set(
        "dist.waiting_time_ns",
        ns_per_call(100_000, || {
            black_box(wt.sample_t3(&mut rng));
        }),
        "ns",
    );
    m.set(
        "dist.binomial_ns",
        ns_per_call(50_000, || {
            black_box(sample_binomial(100_000_000, 0.3, &mut rng));
        }),
        "ns",
    );
    let probs = [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05];
    m.set(
        "dist.multinomial_k8_ns",
        ns_per_call(10_000, || {
            black_box(sample_multinomial(100_000_000, &probs, &mut rng));
        }),
        "ns",
    );

    m.set("sim.push_pop_ns", queue_hold_ns(ASYNC_N, &mut rng), "ns");

    let er = Topology::parse_spec("er:0.01").expect("valid topology spec");
    let mut build_seed = seed;
    let builds: Vec<f64> = (0..BATCHES)
        .map(|_| {
            build_seed = build_seed.wrapping_add(1);
            let start = Instant::now();
            black_box(
                er.build(ASYNC_N, build_seed)
                    .expect("er:0.01 builds at n=2000"),
            );
            start.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    m.set("topology.build_ms", median_or_zero(&builds), "ms");
    let sparse = er.build(ASYNC_N, seed).expect("er:0.01 builds at n=2000");
    let complete = Topology::Complete
        .build(ASYNC_N, seed)
        .expect("complete graph builds");
    let mut v = 0u32;
    m.set(
        "topology.sample_ns",
        ns_per_call(200_000, || {
            v = (v + 1) % ASYNC_N as u32;
            black_box(sparse.sample(v, &mut rng));
        }),
        "ns",
    );
    m.set(
        "topology.complete_sample_ns",
        ns_per_call(200_000, || {
            v = (v + 1) % ASYNC_N as u32;
            black_box(complete.sample(v, &mut rng));
        }),
        "ns",
    );
}

/// ns per pop + push pair on a [`CalendarQueue`] held at `depth`
/// events (the classic hold model: pop the earliest, reschedule it an
/// exponential delay later).
fn queue_hold_ns(depth: usize, rng: &mut Xoshiro256PlusPlus) -> f64 {
    let exp = Exponential::new(1.0).expect("unit rate is valid");
    let mut q = CalendarQueue::with_capacity(depth);
    for i in 0..depth {
        q.schedule(exp.sample(rng), i as u32);
    }
    // Pre-drawn delays keep the sampler out of the timed loop.
    let delays: Vec<f64> = (0..4096).map(|_| exp.sample(rng)).collect();
    let mut j = 0usize;
    ns_per_call(200_000, || {
        let (t, e) = q.pop().expect("hold model never empties the queue");
        j = (j + 1) & 4095;
        q.schedule(t + delays[j], e);
    })
}
