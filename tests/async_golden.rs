//! Golden stream pins for the two asynchronous engines.
//!
//! Every other determinism test compares a run with itself, so a
//! reordered RNG draw would pass them all. These tests pin fixed-seed
//! leader and cluster runs to committed values instead: an FNV-1a digest
//! of the `plurality-report/1` wire text at `record=full`, plus the four
//! [`EngineProfile`] counters. The cases cover every branch of the
//! shared async core: the thinned complete graph, two straggler pools
//! (with and without the sparse-graph permutation), persistent signal
//! loss, the per-signal path of a non-exponential latency, sparse
//! topologies, all three scenario effect kinds, a monochromatic start,
//! and tracing.
//!
//! A refactor must reproduce every constant here unchanged. A change
//! that alters a trajectory on purpose must re-derive the constants and
//! say why in CHANGES.md; on a mismatch the failure message prints the
//! complete table of actual values.

use plurality::api::Report;
use plurality::core::cluster::ClusterConfig;
use plurality::core::leader::LeaderConfig;
use plurality::core::{InitialAssignment, RecordLevel};
use plurality::dist::Latency;
use plurality::obs::{export, EngineProfile, TraceEvent, TraceFormat};
use plurality::scenario::Scenario;
use plurality::topology::Topology;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: its name, the wire digest, and the profile counters
/// `[events_popped, signals_thinned, queue_resizes, window_crossings]`.
type Pin = (&'static str, u64, [u64; 4]);

fn pin(name: &'static str, profile: EngineProfile, report: Report) -> Pin {
    (
        name,
        fnv1a(report.wire_text().as_bytes()),
        [
            profile.events_popped,
            profile.signals_thinned,
            profile.queue_resizes,
            profile.window_crossings,
        ],
    )
}

fn biased(n: u64, k: u32, alpha: f64) -> InitialAssignment {
    InitialAssignment::with_bias(n, k, alpha).expect("valid assignment")
}

fn scenario(spec: &str) -> Scenario {
    Scenario::parse(spec).expect("valid scenario")
}

fn leader(n: u64, k: u32, seed: u64) -> LeaderConfig {
    LeaderConfig::new(biased(n, k, 3.0))
        .with_seed(seed)
        .with_steps_per_unit(9.3)
        .with_record(RecordLevel::Full)
}

fn cluster(n: u64, k: u32, seed: u64) -> ClusterConfig {
    ClusterConfig::new(biased(n, k, 3.0))
        .with_seed(seed)
        .with_steps_per_unit(12.0)
        .with_record(RecordLevel::Full)
}

fn run_leader(name: &'static str, cfg: LeaderConfig) -> Pin {
    let r = cfg.run();
    pin(name, r.profile, r.into())
}

fn run_cluster(name: &'static str, cfg: ClusterConfig) -> Pin {
    let r = cfg.run();
    pin(name, r.profile, r.into())
}

const SCENARIO_CRASH: &str = "crash:0.3@5;recover:1@30";
const SCENARIO_CHURN: &str = "rewire:er:0.02@10;crash:0.2@15;join:0.2@40";
const SCENARIO_LOSS: &str = "burst-loss:0.4@5..20;latency:3@10..40;corrupt:0.1:adaptive@25";

fn erlang() -> Latency {
    Latency::parse_spec("erlang:3:3.0").expect("valid latency")
}

fn leader_cases() -> Vec<Pin> {
    let pa = Topology::PreferentialAttachment { m: 4 };
    let er = Topology::ErdosRenyi { p: 0.01 };
    let mono = LeaderConfig::new(InitialAssignment::Exact(vec![300, 0]))
        .with_seed(112)
        .with_steps_per_unit(9.3)
        .with_record(RecordLevel::Full);
    vec![
        run_leader("complete-k2", leader(1_000, 2, 101)),
        run_leader("complete-k8", leader(1_200, 8, 102)),
        run_leader(
            "stragglers",
            leader(1_000, 2, 103).with_stragglers(0.2, 0.2),
        ),
        run_leader(
            "stragglers-pa",
            leader(1_000, 2, 104)
                .with_topology(pa)
                .with_stragglers(0.2, 0.2),
        ),
        run_leader("signal-loss", leader(1_000, 2, 105).with_signal_loss(0.3)),
        run_leader("erlang", leader(800, 2, 106).with_latency(erlang())),
        run_leader(
            "ring",
            leader(800, 2, 107)
                .with_topology(Topology::Ring)
                .with_max_time(400.0),
        ),
        run_leader("er", leader(1_000, 2, 108).with_topology(er)),
        run_leader(
            "crash-recover",
            leader(1_000, 2, 109).with_scenario(scenario(SCENARIO_CRASH)),
        ),
        run_leader(
            "rewire-crash-join",
            leader(1_000, 2, 110)
                .with_topology(Topology::Regular { d: 8 })
                .with_scenario(scenario(SCENARIO_CHURN)),
        ),
        run_leader(
            "loss-latency-corrupt",
            leader(800, 2, 111).with_scenario(scenario(SCENARIO_LOSS)),
        ),
        run_leader("monochromatic", mono),
    ]
}

fn cluster_cases() -> Vec<Pin> {
    let er = Topology::ErdosRenyi { p: 0.01 };
    let mono = ClusterConfig::new(InitialAssignment::Exact(vec![300, 0]))
        .with_seed(212)
        .with_steps_per_unit(12.0)
        .with_record(RecordLevel::Full);
    vec![
        run_cluster("complete-k2", cluster(1_000, 2, 201)),
        run_cluster("complete-k8", cluster(1_200, 8, 202)),
        run_cluster("erlang", cluster(800, 2, 206).with_latency(erlang())),
        run_cluster(
            "ring",
            cluster(800, 2, 207)
                .with_topology(Topology::Ring)
                .with_max_time(500.0),
        ),
        run_cluster("er", cluster(1_000, 2, 208).with_topology(er)),
        run_cluster(
            "crash-recover",
            cluster(1_000, 2, 209).with_scenario(scenario(SCENARIO_CRASH)),
        ),
        run_cluster(
            "rewire-crash-join",
            cluster(1_000, 2, 210)
                .with_topology(Topology::Regular { d: 8 })
                .with_scenario(scenario(SCENARIO_CHURN)),
        ),
        run_cluster(
            "loss-latency-corrupt",
            cluster(800, 2, 211).with_scenario(scenario(SCENARIO_LOSS)),
        ),
        run_cluster("monochromatic", mono),
    ]
}

/// Compares actual pins against the golden table; on any mismatch,
/// panics with the whole actual table so a deliberate re-derivation is
/// one paste.
fn check(engine: &str, actual: &[Pin], golden: &[Pin]) {
    let table: String = actual
        .iter()
        .map(|(name, wire, [a, b, c, d])| {
            format!("    (\"{name}\", 0x{wire:016x}, [{a}, {b}, {c}, {d}]),\n")
        })
        .collect();
    assert!(
        actual == golden,
        "{engine} golden pins differ; actual table:\n{table}"
    );
}

#[rustfmt::skip]
const LEADER_GOLDEN: &[Pin] = &[
    ("complete-k2", 0x930ff0bcb86b9ada, [20915, 83621, 5, 1]),
    ("complete-k8", 0xc4e7baf6890a30f0, [27621, 112453, 5, 3]),
    ("stragglers", 0x96d7ae253c73ee35, [22160, 0, 5, 1]),
    ("stragglers-pa", 0x8d5d03641acdca0c, [196410, 0, 5, 2]),
    ("signal-loss", 0x113c783faad8892a, [22773, 100495, 5, 3]),
    ("erlang", 0x3c23d5587278b469, [68900, 0, 5, 0]),
    ("ring", 0xd19e3a13c9fcc449, [57519, 265058, 5, 2]),
    ("er", 0xb51a9596c5ca5b53, [213778, 997842, 5, 3]),
    ("crash-recover", 0x86e9b3d2d4e29c1c, [123999, 0, 5, 0]),
    ("rewire-crash-join", 0xa4ddb194728b5ebc, [139122, 0, 7, 0]),
    ("loss-latency-corrupt", 0xf8aadf6f8971199a, [127780, 0, 10, 0]),
    ("monochromatic", 0x4e5b9d5e93ed9f3a, [0, 0, 0, 0]),
];

#[rustfmt::skip]
const CLUSTER_GOLDEN: &[Pin] = &[
    ("complete-k2", 0x6fa85dbd8a32aa80, [48613, 234723, 5, 15]),
    ("complete-k8", 0xe160e0d17df4d78d, [59059, 285358, 5, 17]),
    ("erlang", 0x84af5f1516d823db, [144772, 0, 6, 0]),
    ("ring", 0xb525945bc0648170, [65337, 335612, 5, 68]),
    ("er", 0x851b34c226662b73, [49472, 238765, 5, 21]),
    ("crash-recover", 0x6d889957463f11e0, [281341, 0, 8, 0]),
    ("rewire-crash-join", 0xdaf598c480a18e41, [302311, 0, 8, 0]),
    ("loss-latency-corrupt", 0xa33f648215ce08b6, [235263, 0, 11, 0]),
    ("monochromatic", 0x7d26aec57084aa0e, [0, 0, 0, 0]),
];

#[test]
fn leader_streams_match_golden_pins() {
    check("leader", &leader_cases(), LEADER_GOLDEN);
}

#[test]
fn cluster_streams_match_golden_pins() {
    check("cluster", &cluster_cases(), CLUSTER_GOLDEN);
}

/// Event count and JSONL digest of a trace.
fn trace_pin(events: &[TraceEvent]) -> (usize, u64) {
    let mut jsonl = Vec::new();
    export(events, TraceFormat::Jsonl, &mut jsonl).expect("in-memory export");
    (events.len(), fnv1a(&jsonl))
}

#[test]
fn traced_runs_match_golden_pins() {
    let l = leader(1_000, 2, 301).with_trace(true).run();
    let c = cluster(1_000, 2, 302).with_trace(true).run();
    let actual = (
        trace_pin(l.trace.as_deref().expect("leader trace")),
        trace_pin(c.trace.as_deref().expect("cluster trace")),
    );
    assert_eq!(actual, TRACE_GOLDEN, "trace pins differ: {actual:?}");
}

/// `((leader events, leader digest), (cluster events, cluster digest))`.
const TRACE_GOLDEN: ((usize, u64), (usize, u64)) =
    ((17, 0x3efc688d86bc7e91), (159, 0x95bb3164ebf18387));
