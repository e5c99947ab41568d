//! Event-driven execution of the single-leader asynchronous protocol
//! (Algorithms 2 + 3) in the Poisson clock model with edge latencies.
//!
//! Every node ticks at rate 1. At each tick it fires a 0-signal towards the
//! leader (subject to one latency for travel) and — if it is not locked by a
//! previous attempt — opens channels to two uniform peers in parallel and
//! then to the leader (`T′2 = max(T2, T2) + T2`). When the channels complete
//! it reads the *current* states of the peers and the leader, applies the
//! decision rule of [`crate::leader::decide`], possibly promotes itself, and
//! notifies the leader with a gen-signal (again subject to travel latency).
//!
//! The engine is an `AsyncProtocol` over the shared async core
//! (`crate::async_core`), which owns the clocks, tick thinning, the
//! displaced-Poisson 0-signal flow, the event race, scenario effects and
//! the run bookkeeping; DESIGN.md ("Async core") describes those
//! hot-path reductions. This module holds only the leader's state
//! machine wiring: Algorithm 2's node step and Algorithm 3's leader.

use crate::async_core::{drive, AsyncCore, AsyncProtocol, Change, Setup};
use crate::leader::node::{apply, decide, NodeDecision, NodeState, SampleView};
use crate::leader::state::{LeaderParams, LeaderState, LeaderTransition, Signal};
use crate::opinion::InitialAssignment;
use crate::outcome::{RecordLevel, RunOutcome};
use plurality_dist::{ChannelPattern, Latency};
use plurality_obs::{EngineProfile, TraceEvent, TraceKind};
use plurality_scenario::Scenario;
use plurality_sim::Series;
use plurality_topology::Topology;

/// Configuration for a single-leader asynchronous run. Construct with
/// [`LeaderConfig::new`] and chain the `with_*` setters — or run
/// through the unified facade (`plurality-api`'s `LeaderEngine`, spec
/// name `"leader"`), which consumes the byte-identical RNG stream.
///
/// # Examples
///
/// ```
/// use plurality_core::leader::LeaderConfig;
/// use plurality_core::InitialAssignment;
/// use plurality_dist::Latency;
///
/// let assignment = InitialAssignment::with_bias(1_500, 2, 3.0).unwrap();
/// let result = LeaderConfig::new(assignment)
///     .with_latency(Latency::exponential(1.0).unwrap())
///     .with_seed(3)
///     .run();
/// assert!(result.outcome.epsilon_time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderConfig {
    assignment: InitialAssignment,
    latency: Latency,
    epsilon: f64,
    seed: u64,
    record: RecordLevel,
    max_time: Option<f64>,
    steps_per_unit: Option<f64>,
    two_choices_units: f64,
    generation_cap: Option<u32>,
    alpha_hint: Option<f64>,
    gen_size_fraction: f64,
    signal_loss: f64,
    straggler_fraction: f64,
    straggler_rate: f64,
    topology: Topology,
    scenario: Scenario,
    trace: bool,
}

impl LeaderConfig {
    /// Creates a configuration with defaults: exponential latency with rate
    /// 1, `ε = 0.05`, two-choices window of 2 time units, generation-size
    /// threshold `n/2`, seed 0.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            assignment,
            latency: Latency::exponential(1.0).expect("rate 1 valid"),
            epsilon: 0.05,
            seed: 0,
            record: RecordLevel::Generations,
            max_time: None,
            steps_per_unit: None,
            two_choices_units: 2.0,
            generation_cap: None,
            alpha_hint: None,
            gen_size_fraction: 0.5,
            signal_loss: 0.0,
            straggler_fraction: 0.0,
            straggler_rate: 1.0,
            topology: Topology::Complete,
            scenario: Scenario::new(),
            trace: false,
        }
    }

    /// Enables structured run tracing (default off). The tracer consumes
    /// no process RNG and reads no clock: a traced run produces the
    /// byte-identical [`LeaderResult::outcome`] of an untraced one, plus
    /// the event log in [`LeaderResult::trace`].
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a time-scripted environment (default: the empty
    /// scenario, the paper's failure-free static model). Event times are
    /// in time *steps* (the event clock). Crashed nodes tick inertly —
    /// no 0-signal, no interaction — and interactions whose initiator or
    /// sampled peers are crashed at channel completion abort.
    /// `burst-loss` drops each 0-/gen-signal and each peer channel
    /// independently (composing with
    /// [`LeaderConfig::with_signal_loss`]); `latency:` shifts multiply
    /// every drawn travel and channel latency; `rewire:` swaps the peer
    /// sampler mid-run. Scenario randomness lives on a private stream,
    /// so the empty scenario consumes the byte-identical process RNG
    /// stream as before the subsystem existed.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the communication topology for the *peer-sampling* step
    /// (default [`Topology::Complete`], the paper's model): the two
    /// parallel channels a ticking node opens go to uniform neighbors on
    /// the given graph (isolated nodes sample themselves). The 0-/gen-
    /// signals towards the leader model a dedicated control channel and
    /// stay direct, exactly as in Algorithms 2 + 3. Random graph
    /// families are rebuilt per run from `derive_seed(seed,
    /// TOPOLOGY_STREAM)`.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Failure injection: drops each 0-/gen-signal towards the leader
    /// independently with probability `loss` (default 0). The protocol
    /// tolerates moderate loss — the `n/2` gen-size threshold still fires
    /// as long as more than half the promotion signals get through — and
    /// stalls gracefully beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `loss ∉ [0, 1]`.
    pub fn with_signal_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "signal_loss must lie in [0, 1]"
        );
        self.signal_loss = loss;
        self
    }

    /// Failure injection: makes a `fraction` of the nodes tick at `rate`
    /// instead of rate 1 (default: none). Models stragglers with slow
    /// clocks; the model's whp. statements assume unit rate, so this knob
    /// probes how much heterogeneity the protocol absorbs.
    ///
    /// Composes with [`LeaderConfig::with_topology`]: the straggler set
    /// is a uniformly random subset of the nodes in either case (on a
    /// sparse graph the identities are drawn from a private seeded
    /// permutation, so graph structure — hubs, lattice patches — does
    /// not leak into which nodes are slow).
    ///
    /// # Panics
    ///
    /// Panics if `fraction ∉ [0, 1]` or `rate` is not positive and finite.
    pub fn with_stragglers(mut self, fraction: f64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "straggler_fraction must lie in [0, 1]"
        );
        assert!(
            rate > 0.0 && rate.is_finite(),
            "straggler_rate must be positive and finite"
        );
        self.straggler_fraction = fraction;
        self.straggler_rate = rate;
        self
    }

    /// Sets the channel-establishment latency law (default `Exp(1)`).
    pub fn with_latency(mut self, latency: Latency) -> Self {
        self.latency = latency;
        self
    }

    /// Sets ε for ε-convergence reporting (default 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ [0, 1]`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
        self.epsilon = epsilon;
        self
    }

    /// Sets the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the telemetry level (default [`RecordLevel::Generations`]).
    pub fn with_record(mut self, record: RecordLevel) -> Self {
        self.record = record;
        self
    }

    /// Caps the simulated time in time *steps* (default: derived bound).
    ///
    /// # Panics
    ///
    /// Panics if `max_time` is not positive.
    pub fn with_max_time(mut self, max_time: f64) -> Self {
        assert!(max_time > 0.0, "max_time must be positive");
        self.max_time = Some(max_time);
        self
    }

    /// Overrides the time-unit length `C1` in steps (default: Monte-Carlo
    /// estimate of `F⁻¹(0.9)` for the configured latency).
    ///
    /// # Panics
    ///
    /// Panics if `c1` is not positive.
    pub fn with_steps_per_unit(mut self, c1: f64) -> Self {
        assert!(c1 > 0.0, "steps_per_unit must be positive");
        self.steps_per_unit = Some(c1);
        self
    }

    /// Sets the length of the two-choices window in time units (the paper's
    /// constant 2 in `C3 = C1(2 + log n/√n)`, Proposition 16).
    ///
    /// # Panics
    ///
    /// Panics if `units` is not positive.
    pub fn with_two_choices_units(mut self, units: f64) -> Self {
        assert!(units > 0.0, "two_choices_units must be positive");
        self.two_choices_units = units;
        self
    }

    /// Overrides the generation cap `⌈log log_α n⌉`.
    pub fn with_generation_cap(mut self, cap: u32) -> Self {
        self.generation_cap = Some(cap);
        self
    }

    /// Overrides the bias `α₀` used for the generation cap.
    pub fn with_alpha_hint(mut self, alpha: f64) -> Self {
        self.alpha_hint = Some(alpha);
        self
    }

    /// Sets the gen-size threshold as a fraction of `n` (default 1/2).
    ///
    /// # Panics
    ///
    /// Panics if `fraction ∉ (0, 1]`.
    pub fn with_gen_size_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "gen_size_fraction must lie in (0, 1]"
        );
        self.gen_size_fraction = fraction;
        self
    }

    /// Runs the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the assignment materializes fewer than 2 nodes, or if
    /// the configured topology cannot be built for that population size
    /// (see [`Topology::build`]).
    pub fn run(&self) -> LeaderResult {
        run_leader(self)
    }
}

/// Per-generation phase telemetry of the leader (Figure 2's `t̂` marks in
/// the single-leader setting; used by experiments E5–E7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationPhase {
    /// The generation.
    pub generation: u32,
    /// When the leader allowed this generation (`gen ← generation`).
    pub allowed_at: f64,
    /// When a node first promoted itself into it.
    pub first_promotion_at: Option<f64>,
    /// When the leader opened propagation for it.
    pub propagation_at: Option<f64>,
}

/// Result of a single-leader asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderResult {
    /// Common outcome report. Generation `bias` fields are measured when the
    /// propagation window opens (the paper's `α_{i, t_i + t′}`, Lemma 22).
    pub outcome: RunOutcome,
    /// The time-unit length `C1` (steps) used to derive leader thresholds.
    pub steps_per_unit: f64,
    /// Per-generation leader phase telemetry.
    pub phases: Vec<GenerationPhase>,
    /// Total clock ticks processed.
    pub ticks: u64,
    /// Ticks that initiated an interaction (node not locked).
    pub good_ticks: u64,
    /// Number of promotions via the two-choices rule.
    pub two_choices_promotions: u64,
    /// Number of adoptions via propagation.
    pub propagation_promotions: u64,
    /// Winner-fraction time series (only at [`RecordLevel::Full`]).
    pub winner_fraction: Option<Series>,
    /// Per-node `(generation, color)` at run end (only at
    /// [`RecordLevel::Full`]); lets the plurality-check model checker
    /// cross-validate that a recorded engine run ends inside the
    /// exhaustively explored reachable set.
    pub final_node_states: Option<Vec<(u32, u32)>>,
    /// Structured trace events, sorted by time (only when
    /// [`LeaderConfig::with_trace`] was enabled).
    pub trace: Option<Vec<TraceEvent>>,
    /// Deterministic profiling counters (always collected; pure
    /// arithmetic, no RNG).
    pub profile: EngineProfile,
}

/// The single-leader engine: the shared async core plus the leader's
/// counters and the nodes' stored copies of its state.
struct Engine {
    core: AsyncCore<Signal, 2>,
    leader: LeaderState,
    /// Stored leader state; starts stale (the leader starts at gen 1).
    seen_gen: Vec<u32>,
    seen_prop: Vec<bool>,
    phases: Vec<GenerationPhase>,
    two_choices_promotions: u64,
    propagation_promotions: u64,
}

impl Engine {
    /// The leader opened `generation`'s propagation window.
    fn propagation_enabled(&mut self, now: f64, generation: u32) {
        self.core.tracer.emit(
            now,
            TraceKind::Phase {
                name: "propagation-enabled",
                generation,
                scope: 0,
            },
        );
        // Generations are allowed in order, so phase g sits at index g − 1.
        if let Some(p) = self.phases.get_mut(generation as usize - 1) {
            debug_assert_eq!(p.generation, generation);
            p.propagation_at.get_or_insert(now);
        }
        self.core.measure_bias(generation);
    }
}

impl AsyncProtocol<2> for Engine {
    type Msg = Signal;
    const OBSERVE_PER_NODE: bool = false;
    const IDLE_TIMEOUT_KEEPS_LAST_EVENT: bool = true;

    #[inline]
    fn core(&mut self) -> &mut AsyncCore<Signal, 2> {
        &mut self.core
    }

    /// Line 1: every tick sends a 0-signal — unless the leader is
    /// terminal and the arrival would be unobservable.
    #[inline]
    fn zero_signal(&self, _v: u32) -> Option<Signal> {
        (!self.leader.is_terminal()).then_some(Signal::Zero)
    }

    /// The armed 0-signal window crossed its threshold: batch in the
    /// whole window's count. The next window arms at the next
    /// generation allowance.
    #[inline]
    fn on_window(&mut self, now: f64, flow: u32) {
        self.core.disarm_flow(now, flow);
        let gap = self.leader.params().zero_signal_threshold - self.leader.zero_count();
        if let Some(LeaderTransition::PropagationEnabled { generation }) =
            self.leader.on_zero_batch(gap)
        {
            self.propagation_enabled(now, generation);
        }
    }

    #[inline]
    fn on_op(&mut self, now: f64, v: u32, peers: [u32; 2]) -> bool {
        let vi = v as usize;
        if self.core.op_aborted(v, &peers) {
            self.core.unlock(now, vi);
            return false;
        }
        // The decision/apply pair is the shared transition function
        // (`leader::node`) the plurality-check model checker drives, so
        // the checked state machine cannot drift from this engine.
        let (gens, cols) = (&self.core.gens, &self.core.cols);
        let mut slot = NodeState {
            gen: gens[vi],
            col: cols[vi],
            seen_gen: self.seen_gen[vi],
            seen_prop: self.seen_prop[vi],
        };
        let sample = |s: u32| SampleView {
            gen: gens[s as usize],
            col: cols[s as usize],
        };
        let (generation, propagation) = (self.leader.generation(), self.leader.propagation());
        let [a, b] = peers.map(sample);
        let decision = decide(slot.view(), a, b, generation, propagation);
        let signal = apply(&mut slot, decision, generation, propagation);
        match decision {
            NodeDecision::Refresh => {
                self.seen_gen[vi] = slot.seen_gen;
                self.seen_prop[vi] = slot.seen_prop;
            }
            NodeDecision::Adopt {
                via_two_choices, ..
            } => {
                if self.core.adopt(now, vi, slot.gen, slot.col) == Change::Birth {
                    if let Some(p) = self.phases.get_mut(slot.gen as usize - 1) {
                        debug_assert_eq!(p.generation, slot.gen);
                        p.first_promotion_at.get_or_insert(now);
                    }
                }
                if via_two_choices {
                    self.two_choices_promotions += 1;
                } else {
                    self.propagation_promotions += 1;
                }
                // A raised generation notifies the leader, unless it is
                // provably past reacting.
                if let Some(sig) = signal.filter(|_| !self.leader.is_terminal()) {
                    self.core.send(now, sig);
                }
                if self.core.observe(now) {
                    return true;
                }
            }
            NodeDecision::Nothing => {}
        }
        self.core.unlock(now, vi);
        false
    }

    #[inline]
    fn on_msg(&mut self, now: f64, signal: Signal) -> bool {
        match self.leader.on_signal(signal) {
            Some(LeaderTransition::PropagationEnabled { generation }) => {
                self.propagation_enabled(now, generation);
            }
            Some(LeaderTransition::GenerationAllowed { generation }) => {
                self.core.tracer.emit(
                    now,
                    TraceKind::Phase {
                        name: "generation-allowed",
                        generation,
                        scope: 0,
                    },
                );
                self.phases.push(GenerationPhase {
                    generation,
                    allowed_at: now,
                    first_promotion_at: None,
                    propagation_at: None,
                });
                // The birth reset the 0-signal counter: arm the new
                // generation's counting window.
                if self.core.flowing() {
                    let threshold = self.leader.params().zero_signal_threshold;
                    self.core.arm_flow(now, 0, threshold);
                }
                // Generation g−1 may have matured without its propagation
                // window ever opening (small k); measure its bias now.
                if generation >= 2 {
                    self.core.measure_bias(generation - 1);
                }
            }
            None => {}
        }
        false
    }

    fn reset_slot(&mut self, v: usize) {
        self.seen_gen[v] = 0;
        self.seen_prop[v] = false;
    }
}

fn run_leader(cfg: &LeaderConfig) -> LeaderResult {
    let mut core = AsyncCore::new(Setup {
        assignment: &cfg.assignment,
        seed: cfg.seed,
        min_nodes: (2, "single-leader"),
        topology: &cfg.topology,
        scenario: &cfg.scenario,
        latency: cfg.latency,
        pattern: ChannelPattern::SingleLeader,
        steps_per_unit: cfg.steps_per_unit,
        alpha_hint: cfg.alpha_hint,
        generation_cap: cfg.generation_cap,
        epsilon: cfg.epsilon,
        record: cfg.record,
        trace: cfg.trace,
        signal_loss: cfg.signal_loss,
        stragglers: (cfg.straggler_fraction, cfg.straggler_rate),
        winner_series: true,
    });
    let (n, nf, c1, cap) = (core.n, core.n as f64, core.c1, core.cap);
    let zero_signal_threshold =
        (nf * c1 * (cfg.two_choices_units + nf.ln() / nf.sqrt())).ceil() as u64;
    let leader = LeaderState::new(LeaderParams {
        zero_signal_threshold,
        gen_size_threshold: (nf * cfg.gen_size_fraction).ceil() as u64,
        generation_cap: cap,
    });
    let max_time = cfg.max_time.unwrap_or_else(|| {
        let units = (cap as f64 + 2.0) * (2.0 * (core.k as f64 + 2.0).log2() + 12.0);
        let derived = c1 * units + 10.0 * nf.ln() + 100.0;
        // Scripted events must actually fire: stretch the default cap
        // past the scenario horizon plus a recovery tail.
        derived.max(cfg.scenario.horizon() + 10.0 * nf.ln() + 100.0)
    });
    core.tracer.emit(
        0.0,
        TraceKind::Phase {
            name: "generation-allowed",
            generation: 1,
            scope: 0,
        },
    );
    core.start(max_time, 1);
    // One flow carries the whole 0-signal stream; persistent signal loss
    // is independent thinning, folded into the send rate.
    if core.flowing() && core.ticking() {
        let send_rate = core.pool_rate(cfg.straggler_rate) * (1.0 - cfg.signal_loss);
        core.set_flow_rate(0.0, 0, send_rate);
        if send_rate > 0.0 {
            core.arm_flow(0.0, 0, zero_signal_threshold);
        }
    }
    let mut phases = Vec::with_capacity(cap as usize + 1);
    phases.push(GenerationPhase {
        generation: 1,
        allowed_at: 0.0,
        first_promotion_at: None,
        propagation_at: None,
    });
    let mut engine = Engine {
        core,
        leader,
        seen_gen: vec![0; n],
        seen_prop: vec![false; n],
        phases,
        two_choices_promotions: 0,
        propagation_promotions: 0,
    };
    drive(&mut engine);

    let Engine {
        core,
        phases,
        two_choices_promotions,
        propagation_promotions,
        ..
    } = engine;
    let run = core.finish();
    let final_node_states = matches!(cfg.record, RecordLevel::Full).then(|| {
        run.gens
            .iter()
            .copied()
            .zip(run.cols.iter().copied())
            .collect()
    });
    LeaderResult {
        outcome: run.outcome,
        steps_per_unit: c1,
        phases,
        ticks: run.ticks,
        good_ticks: run.good_ticks,
        two_choices_promotions,
        propagation_promotions,
        winner_fraction: run.winner_fraction,
        final_node_states,
        trace: run.trace,
        profile: run.profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;

    fn quick_config(n: u64, k: u32, alpha: f64, seed: u64) -> LeaderConfig {
        let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
        LeaderConfig::new(assignment)
            .with_seed(seed)
            .with_steps_per_unit(9.3) // skip the MC estimate in tests
    }

    #[test]
    fn converges_to_plurality_with_large_bias() {
        let result = quick_config(1_500, 2, 3.0, 1).run();
        assert!(result.outcome.epsilon_time.is_some(), "no ε-convergence");
        assert!(
            result.outcome.consensus_time.is_some(),
            "no full consensus (duration {})",
            result.outcome.duration
        );
        assert!(result.outcome.plurality_preserved());
        assert_eq!(result.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn epsilon_no_later_than_consensus() {
        let result = quick_config(1_000, 3, 2.5, 2).run();
        let (eps, full) = (
            result.outcome.epsilon_time.unwrap(),
            result.outcome.consensus_time.unwrap(),
        );
        assert!(eps <= full, "eps {eps} > full {full}");
    }

    #[test]
    fn deterministic_per_seed() {
        let r1 = quick_config(600, 2, 2.0, 42).run();
        let r2 = quick_config(600, 2, 2.0, 42).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn two_choices_precede_propagation_per_generation() {
        let result = quick_config(2_000, 2, 2.0, 3).run();
        for p in &result.phases {
            if let (Some(first), Some(prop)) = (p.first_promotion_at, p.propagation_at) {
                assert!(
                    p.allowed_at <= first,
                    "gen {} promoted before allowed",
                    p.generation
                );
                assert!(
                    first < prop,
                    "gen {}: first promotion after propagation opened",
                    p.generation
                );
            }
        }
    }

    #[test]
    fn generations_allowed_in_order() {
        let result = quick_config(2_000, 2, 2.0, 4).run();
        for (i, p) in result.phases.iter().enumerate() {
            assert_eq!(p.generation, i as u32 + 1);
        }
        for w in result.phases.windows(2) {
            assert!(w[0].allowed_at <= w[1].allowed_at);
        }
    }

    #[test]
    fn both_promotion_mechanisms_fire() {
        let result = quick_config(2_000, 2, 2.0, 5).run();
        assert!(
            result.two_choices_promotions > 0,
            "no two-choices promotions"
        );
        assert!(
            result.propagation_promotions > 0,
            "no propagation promotions"
        );
        assert!(result.good_ticks <= result.ticks);
    }

    #[test]
    fn monochromatic_start_ends_immediately() {
        let assignment = InitialAssignment::Exact(vec![300, 0]);
        let result = LeaderConfig::new(assignment)
            .with_seed(6)
            .with_steps_per_unit(9.3)
            .run();
        assert_eq!(result.outcome.consensus_time, Some(0.0));
        assert_eq!(result.ticks, 0);
    }

    #[test]
    fn full_record_produces_series() {
        let result = quick_config(800, 2, 3.0, 7);
        let result = result.with_record(RecordLevel::Full).run();
        let series = result.winner_fraction.expect("series recorded");
        assert!(series.len() > 1);
        assert!(series.last_value().unwrap() > 0.9);
    }

    #[test]
    fn respects_max_time() {
        let assignment = InitialAssignment::with_bias(500, 2, 1.01).unwrap();
        let result = LeaderConfig::new(assignment)
            .with_seed(8)
            .with_steps_per_unit(9.3)
            .with_max_time(5.0)
            .run();
        assert!(result.outcome.duration <= 5.0 + 1e-9);
    }

    #[test]
    fn tolerates_moderate_signal_loss() {
        // 30% loss: the gen-size threshold n/2 still fires (≈ 0.7·n
        // promotion signals arrive per generation).
        let result = quick_config(1_500, 2, 3.0, 31).with_signal_loss(0.3).run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn extreme_signal_loss_stalls_generation_progress() {
        // 90% loss: only ≈ 0.1·n gen-signals arrive, below the n/2
        // threshold — the leader can never allow generation 2.
        let result = quick_config(800, 2, 3.0, 32)
            .with_signal_loss(0.9)
            .with_max_time(120.0)
            .run();
        assert!(result.phases.len() <= 1, "generation advanced despite loss");
    }

    #[test]
    fn tolerates_straggler_clocks() {
        // 20% of nodes tick at a tenth of the rate: slower but safe.
        let fast = quick_config(1_500, 2, 3.0, 33).run();
        let slow = quick_config(1_500, 2, 3.0, 33)
            .with_stragglers(0.2, 0.1)
            .run();
        assert!(slow.outcome.plurality_preserved());
        let (f, s) = (
            fast.outcome.consensus_time.expect("fast converges"),
            slow.outcome.consensus_time.expect("slow converges"),
        );
        assert!(s > f, "stragglers should slow full consensus: {s} ≤ {f}");
    }

    #[test]
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 41).run();
        let explicit = quick_config(900, 2, 3.0, 41)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_reaches_epsilon_consensus() {
        // On sparse graphs the protocol ε-converges fast, but a minority
        // pocket promoted to the top generation can never be converted
        // afterwards (no strictly higher generation exists to propagate
        // from), so *full* consensus may never come — see the E17
        // discussion in EXPERIMENTS.md. The paper's whp full-consensus
        // claim is specific to the complete graph.
        let result = quick_config(1_200, 2, 3.0, 42)
            .with_topology(Topology::Regular { d: 8 })
            .run();
        assert!(
            result.outcome.epsilon_time.is_some(),
            "no ε-convergence on the expander"
        );
        let winner_support = result.outcome.final_counts.support(crate::Opinion::new(0));
        assert!(
            winner_support as f64 >= 0.9 * 1_200.0,
            "plurality did not dominate: {winner_support}/1200"
        );
    }

    #[test]
    fn stragglers_compose_with_sparse_topology() {
        // Straggler identities on a sparse graph come from a private
        // seeded permutation: the run must stay deterministic and the
        // hubs-are-slow bias must not prevent ε-convergence.
        let mk = || {
            quick_config(1_000, 2, 3.0, 44)
                .with_topology(Topology::PreferentialAttachment { m: 4 })
                .with_stragglers(0.2, 0.2)
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 61).run();
        let explicit = quick_config(900, 2, 3.0, 61)
            .with_scenario(plurality_scenario::Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 71).run();
        let explicit = quick_config(900, 2, 3.0, 71).with_trace(false).run();
        assert_eq!(default, explicit);
        assert!(default.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let plain = quick_config(900, 2, 3.0, 72).run();
        let traced = quick_config(900, 2, 3.0, 72).with_trace(true).run();
        let events = traced.trace.clone().expect("trace recorded");
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(matches!(
            events[0].kind,
            TraceKind::Phase {
                name: "generation-allowed",
                generation: 1,
                ..
            }
        ));
        // One generation-allowed phase event per recorded phase.
        let allowed = events
            .iter()
            .filter(|e| e.kind.label() == "generation-allowed")
            .count();
        assert_eq!(allowed, traced.phases.len());
        let mut untraced = traced.clone();
        untraced.trace = None;
        assert_eq!(untraced, plain, "tracing perturbed the run");
    }

    #[test]
    fn profile_counts_hot_path_traffic() {
        let r = quick_config(900, 2, 3.0, 73).run();
        assert!(r.profile.events_popped > 0, "no events popped");
        assert!(r.profile.window_crossings > 0, "jump chain never crossed");
        // Thinned ticks were settled in bulk and included in `ticks`.
        assert!(r.profile.signals_thinned <= r.ticks);
    }

    #[test]
    fn crash_then_recover_still_converges() {
        let scenario = plurality_scenario::Scenario::parse("crash:0.3@5;recover:1@30").unwrap();
        let result = quick_config(1_200, 2, 3.0, 62)
            .with_scenario(scenario)
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn burst_loss_and_latency_shift_runs_are_deterministic() {
        let mk = || {
            let scenario = plurality_scenario::Scenario::parse(
                "burst-loss:0.4@5..20;latency:3@10..40;corrupt:0.1:adaptive@25",
            )
            .unwrap();
            quick_config(800, 2, 3.0, 63).with_scenario(scenario).run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    fn scenario_composes_with_sparse_topology_and_rewire() {
        let mk = || {
            let scenario =
                plurality_scenario::Scenario::parse("rewire:er:0.02@10;crash:0.2@15;join:0.2@40")
                    .unwrap();
            quick_config(1_000, 2, 3.0, 64)
                .with_topology(Topology::Regular { d: 8 })
                .with_scenario(scenario)
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    #[ignore = "tier-2: n = 30 000 sampling run; run with `cargo test -- --ignored`"]
    fn bias_grows_across_generations() {
        let result = quick_config(30_000, 2, 1.5, 9).run();
        let finite: Vec<f64> = result
            .outcome
            .generations
            .iter()
            .map(|b| b.bias)
            .take_while(|b| b.is_finite())
            .collect();
        assert!(finite.len() >= 2, "need ≥ 2 measured generations");
        for w in finite.windows(2) {
            assert!(w[1] > w[0], "bias not growing: {finite:?}");
        }
    }
}
