//! The asynchronous simulation core shared by the single-leader engine
//! ([`crate::leader`]) and the multi-leader engine ([`crate::cluster`]).
//!
//! Both engines simulate the same model — unit-rate Poisson clocks,
//! channel latencies, and 0-signals counted against leader thresholds —
//! and differ only in what a completed interaction or an arriving
//! message does. [`AsyncCore`] owns everything else: run setup, the
//! superposed tick pools and tick thinning, the displaced-Poisson
//! 0-signal flows, the tick/flow/queue race with its `max_time` cut-off,
//! op epochs, scenario effects, birth and bias bookkeeping, and the run
//! finish. An engine is a struct holding one core plus its protocol
//! state; it implements [`AsyncProtocol`] with one handler per event,
//! and [`drive`] runs it. Dispatch is static throughout. DESIGN.md
//! ("Async core") explains the hot-path reductions.

use crate::genstate::GenerationTable;
use crate::opinion::InitialAssignment;
use crate::outcome::{ConvergenceTracker, GenerationBirth, RecordLevel, RunOutcome};
use crate::signalflow::SignalFlow;
use crate::sync::{generations_needed, GENERATION_CAP};
use plurality_dist::rng::{derive_seed, Xoshiro256PlusPlus};
use plurality_dist::{sample_poisson, unit_exp, ChannelPattern, Latency, WaitingTime};
use plurality_obs::{EngineProfile, TraceEvent, TraceKind, Tracer};
use plurality_scenario::{Effect, Environment, Scenario};
use plurality_sim::{EventQueue, PoissonClock, Series};
use plurality_topology::{PeerSampler, Topology, TOPOLOGY_STREAM};
use rand::Rng;

/// Seed-stream tag for the straggler-identity permutation used on
/// sparse topologies (private, like [`TOPOLOGY_STREAM`], so it never
/// perturbs the process stream).
const STRAGGLER_STREAM: u64 = 0x5752_A661;

/// A queued event: the channel completion of an interaction node `v`
/// opened towards `peers`, or a protocol message arriving at a leader.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<M, const P: usize> {
    Op {
        v: u32,
        peers: [u32; P],
        /// The initiator's slot epoch at scheduling time; join churn
        /// bumps the slot's epoch, voiding in-flight interactions of the
        /// node the joiner replaced.
        epoch: u32,
    },
    Msg(M),
}

/// The run parameters both engines share.
pub(crate) struct Setup<'a> {
    pub assignment: &'a InitialAssignment,
    pub seed: u64,
    /// Smallest population the engine runs, and its name for the panic.
    pub min_nodes: (usize, &'static str),
    pub topology: &'a Topology,
    pub scenario: &'a Scenario,
    pub latency: Latency,
    pub pattern: ChannelPattern,
    pub steps_per_unit: Option<f64>,
    pub alpha_hint: Option<f64>,
    pub generation_cap: Option<u32>,
    pub epsilon: f64,
    pub record: RecordLevel,
    pub trace: bool,
    /// Persistent loss probability of every protocol message.
    pub signal_loss: f64,
    /// `(fraction, rate)`: a slow clock pool split off the population.
    pub stragglers: (f64, f64),
    /// Record the winner-fraction series at [`RecordLevel::Full`].
    pub winner_series: bool,
}

/// How [`AsyncCore::adopt`] changed a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    None,
    Moved,
    Birth,
}

/// What a finished run hands back to its engine.
pub(crate) struct Finished {
    pub outcome: RunOutcome,
    pub profile: EngineProfile,
    pub trace: Option<Vec<TraceEvent>>,
    pub ticks: u64,
    pub good_ticks: u64,
    pub winner_fraction: Option<Series>,
    pub gens: Vec<u32>,
    pub cols: Vec<u32>,
}

/// The shared state of one asynchronous run (module docs).
pub(crate) struct AsyncCore<M, const P: usize> {
    pub rng: Xoshiro256PlusPlus,
    pub n: usize,
    pub k: u32,
    /// The time-unit length `C1` in steps.
    pub c1: f64,
    pub cap: u32,
    pub cols: Vec<u32>,
    pub gens: Vec<u32>,
    pub locked: Vec<bool>,
    pub table: GenerationTable,
    pub tracer: Tracer,
    record: RecordLevel,
    /// Slot epochs (stay all-zero without a scenario).
    op_epoch: Vec<u32>,
    sampler: PeerSampler,
    /// `None` for the empty scenario: the zero-cost fast path.
    env: Option<Environment>,
    tracker: ConvergenceTracker,
    initial_winner: crate::Opinion,
    initial_bias: f64,
    births: Vec<GenerationBirth>,
    queue: EventQueue<Event<M, P>>,
    waiting: WaitingTime,
    latency: Latency,
    signal_loss: f64,
    max_time: f64,
    end_time: f64,
    /// Pool slots `0..straggler_count` tick at `straggler_rate` each,
    /// the rest at unit rate; each pool keeps one pending tick as a
    /// scalar raced against the queue head.
    fast_count: usize,
    straggler_count: usize,
    fast_clock: PoissonClock,
    straggler_clock: PoissonClock,
    fast_tick: f64,
    straggler_tick: f64,
    /// Slot → node map on sparse topologies (a seeded permutation).
    straggler_ids: Option<Vec<u32>>,
    /// Displaced-Poisson 0-signal flows, one per leader; empty on the
    /// per-signal path (scenario or non-exponential latency).
    flows: Vec<SignalFlow>,
    /// The flows' earliest solved crossing and its owner, rescanned
    /// lazily before the next race after any flow changed.
    flows_dirty: bool,
    zero_cross: f64,
    zero_owner: u32,
    /// Tick thinning: only the unlocked nodes' ticks are simulated.
    thinned: bool,
    unlocked: Vec<u32>,
    /// Index of each node in `unlocked` (`u32::MAX` while locked).
    unlocked_pos: Vec<u32>,
    /// Accrued intensity `∫ locked(t) dt` of the suppressed ticks, and
    /// the time up to which it is accrued.
    tick_exposure: f64,
    exposure_from: f64,
    pub ticks: u64,
    pub good_ticks: u64,
    window_crossings: u64,
    winner_series: Option<Series>,
    next_sample: f64,
}

/// A protocol the core drives: one handler per event kind, plus the two
/// places where the engines' historical orders differ.
pub(crate) trait AsyncProtocol<const P: usize> {
    type Msg: Copy;
    /// Scenario effects observe convergence after each changed node
    /// (`true`) or once per effect batch (`false`).
    const OBSERVE_PER_NODE: bool;
    /// A timeout with neither a tick nor a crossing pending keeps the
    /// last event time as the duration instead of `max_time`.
    const IDLE_TIMEOUT_KEEPS_LAST_EVENT: bool;

    fn core(&mut self) -> &mut AsyncCore<Self::Msg, P>;
    /// The 0-signal node `v` sends on a tick of the per-signal path.
    fn zero_signal(&self, v: u32) -> Option<Self::Msg>;
    /// Flow `flow` crossed its armed window threshold.
    fn on_window(&mut self, now: f64, flow: u32);
    /// An interaction of `v` completed; returns true when the run ends.
    fn on_op(&mut self, now: f64, v: u32, peers: [u32; P]) -> bool;
    /// A message arrived; returns true when the run ends.
    fn on_msg(&mut self, now: f64, msg: Self::Msg) -> bool;
    /// A joiner took slot `v`: reset the protocol-private fields.
    fn reset_slot(&mut self, v: usize);
}

impl<M: Copy, const P: usize> AsyncCore<M, P> {
    /// Materializes the population and derives the shared run constants.
    /// The engine then does its private setup on [`AsyncCore::rng`] and
    /// calls [`AsyncCore::start`].
    pub fn new(s: Setup<'_>) -> Self {
        let mut rng = Xoshiro256PlusPlus::from_u64(s.seed);
        let opinions = s.assignment.materialize(&mut rng);
        let n = opinions.len();
        let (min_nodes, role) = s.min_nodes;
        assert!(
            n >= min_nodes,
            "{role} run needs at least {min_nodes} nodes"
        );
        let k = s.assignment.k();

        // Built from a private RNG stream; complete-graph runs consume no
        // topology randomness and keep the historical process stream intact.
        let sampler = s
            .topology
            .build(n, derive_seed(s.seed, TOPOLOGY_STREAM))
            .expect("topology must be buildable for this population size");
        let env = s.scenario.for_run(n, k, s.seed);

        let cols: Vec<u32> = opinions.iter().map(|o| o.index()).collect();
        let gens = vec![0; n];
        let table = GenerationTable::from_states(&gens, &cols, k as usize);
        let initial_counts = table.global_counts();
        let initial_winner = initial_counts.winner().expect("non-empty population");
        let initial_bias = initial_counts.bias().unwrap_or(f64::INFINITY);

        let waiting = WaitingTime::new(s.latency, s.pattern);
        // Memoized per (latency, pattern): repetitions share one
        // Monte-Carlo estimate instead of re-running 20k draws each.
        let c1 = s
            .steps_per_unit
            .unwrap_or_else(|| waiting.time_unit_cached(20_000));
        let alpha = s.alpha_hint.unwrap_or(if initial_bias.is_finite() {
            initial_bias.max(1.0)
        } else {
            2.0
        });
        let cap = s
            .generation_cap
            .unwrap_or_else(|| generations_needed(n as u64, alpha, GENERATION_CAP));

        let mut tracker = ConvergenceTracker::new(n as u64, initial_winner, s.epsilon);
        tracker.observe(
            0.0,
            table.color_support(initial_winner),
            table.max_color_support(),
        );
        // Superposed clocks: pool slots `0..straggler_count` form the
        // straggler pool, the rest tick at unit rate. On the complete
        // graph node ids are exchangeable (`materialize` shuffles
        // opinions), so slot = node id. On a sparse topology ids carry
        // graph structure (hubs, lattice patches), so the slots map
        // through a seeded permutation drawn from a private stream.
        let (fraction, rate) = s.stragglers;
        let straggler_count = (fraction * n as f64).round() as usize;
        let fast_count = n - straggler_count;
        let straggler_ids = (straggler_count > 0 && !sampler.is_complete()).then(|| {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            let mut srng = Xoshiro256PlusPlus::from_u64(derive_seed(s.seed, STRAGGLER_STREAM));
            for i in (1..n).rev() {
                let j = srng.gen_range(0..=i);
                ids.swap(i, j);
            }
            ids
        });
        let winner_series = (s.winner_series && matches!(s.record, RecordLevel::Full)).then(|| {
            let mut series = Series::new("winner_fraction");
            series.push(0.0, initial_counts.fraction(initial_winner));
            series
        });
        Self {
            rng,
            n,
            k,
            c1,
            cap,
            cols,
            gens,
            locked: vec![false; n],
            table,
            tracer: Tracer::new(s.trace),
            record: s.record,
            op_epoch: vec![0; n],
            sampler,
            env,
            tracker,
            initial_winner,
            initial_bias,
            births: Vec::with_capacity(cap as usize + 1),
            // Open interactions plus in-flight signals (≈ n·E[T1])
            // fit without rehashing.
            queue: EventQueue::with_capacity(3 * n),
            waiting,
            latency: s.latency,
            signal_loss: s.signal_loss,
            max_time: f64::INFINITY,
            end_time: 0.0,
            fast_count,
            straggler_count,
            fast_clock: PoissonClock::new((fast_count as f64).max(1.0)).expect("positive rate"),
            straggler_clock: PoissonClock::new((straggler_count as f64 * rate).max(rate))
                .expect("validated rate"),
            fast_tick: f64::INFINITY,
            straggler_tick: f64::INFINITY,
            straggler_ids,
            flows: Vec::new(),
            flows_dirty: false,
            zero_cross: f64::INFINITY,
            zero_owner: u32::MAX,
            thinned: false,
            unlocked: Vec::new(),
            unlocked_pos: Vec::new(),
            tick_exposure: 0.0,
            exposure_from: 0.0,
            ticks: 0,
            good_ticks: 0,
            window_crossings: 0,
            winner_series,
            next_sample: 1.0,
        }
    }

    /// Starts the clocks and sets up `flows` 0-signal flows (one per
    /// leader) with no senders and no armed window; the engine then sets
    /// their rates and arms them.
    pub fn start(&mut self, max_time: f64, flows: usize) {
        self.max_time = max_time;
        self.queue.set_trace(self.tracer.enabled());
        // A monochromatic start schedules nothing and never races.
        if !self.table.is_monochromatic() {
            if self.fast_count > 0 {
                self.fast_tick = self.fast_clock.next_tick(0.0, &mut self.rng);
            }
            if self.straggler_count > 0 {
                self.straggler_tick = self.straggler_clock.next_tick(0.0, &mut self.rng);
            }
        }
        // Displaced-Poisson flows need every signal to travel an
        // independent exponential latency with no per-event modulation.
        if let (None, Latency::Exponential { rate }) = (&self.env, self.latency) {
            self.flows = vec![SignalFlow::new(rate); flows];
        }
        // Thinning needs locked-node ticks to be inert: 0-signals
        // flow-counted (so no scenario) and one homogeneous pool.
        self.thinned = self.flowing() && self.straggler_count == 0;
        if self.thinned {
            self.unlocked = (0..self.n as u32).collect();
            self.unlocked_pos = (0..self.n as u32).collect();
        }
    }

    /// Whether 0-signals ride the displaced-Poisson flows.
    #[inline]
    pub fn flowing(&self) -> bool {
        !self.flows.is_empty()
    }

    /// Whether any clock pool has a pending tick (none after a
    /// monochromatic start).
    #[inline]
    pub fn ticking(&self) -> bool {
        self.fast_tick.is_finite() || self.straggler_tick.is_finite()
    }

    /// Total send rate of the clock pools.
    pub fn pool_rate(&self, straggler_rate: f64) -> f64 {
        self.fast_count as f64 + self.straggler_count as f64 * straggler_rate
    }

    /// Sets flow `i`'s send rate, keeping any armed window's progress.
    pub fn set_flow_rate(&mut self, now: f64, i: u32, rate: f64) {
        self.flows[i as usize].set_rate(now, rate);
        self.flows_dirty = true;
    }

    /// Arms flow `i` to cross after `kappa` more arrivals.
    pub fn arm_flow(&mut self, now: f64, i: u32, kappa: u64) {
        self.flows[i as usize].arm(now, kappa, &mut self.rng);
        self.flows_dirty = true;
    }

    /// Disarms flow `i`: arrivals keep flowing uncounted.
    pub fn disarm_flow(&mut self, now: f64, i: u32) {
        self.flows[i as usize].disarm(now);
        self.flows_dirty = true;
    }

    /// Recomputes the earliest solved crossing (ties break towards the
    /// lowest flow id, deterministically).
    fn rescan_flows(&mut self) {
        self.flows_dirty = false;
        self.zero_cross = f64::INFINITY;
        self.zero_owner = u32::MAX;
        for (i, f) in self.flows.iter().enumerate() {
            if f.pred() < self.zero_cross {
                self.zero_cross = f.pred();
                self.zero_owner = i as u32;
            }
        }
    }

    /// Current latency multiplier of the scenario (1 without one).
    #[inline]
    fn latency_scale(&self) -> f64 {
        self.env.as_ref().map_or(1.0, Environment::latency_scale)
    }

    /// Sends `msg` to its leader: lost with the persistent loss
    /// probability or inside a loss burst, else it arrives after one
    /// travel latency.
    #[inline]
    pub fn send(&mut self, now: f64, msg: M) {
        if (self.signal_loss == 0.0 || self.rng.gen::<f64>() >= self.signal_loss)
            && !self.env.as_mut().is_some_and(Environment::message_lost)
        {
            let travel = self.latency.sample(&mut self.rng) * self.latency_scale();
            self.queue.schedule(now + travel, Event::Msg(msg));
        }
    }

    /// Opens an interaction of `v`: samples its peers and schedules the
    /// channel completion.
    #[inline(always)]
    fn open_op(&mut self, now: f64, v: u32, scale: f64) {
        let peers = std::array::from_fn(|_| self.sampler.sample(v, &mut self.rng));
        let phase = self.waiting.sample_channel_phase(&mut self.rng) * scale;
        let epoch = self.op_epoch[v as usize];
        self.queue
            .schedule(now + phase, Event::Op { v, peers, epoch });
    }

    /// Whether a completed interaction aborts: anyone on the line is
    /// crashed, or a peer channel falls inside a loss burst.
    #[inline]
    pub fn op_aborted(&mut self, v: u32, peers: &[u32; P]) -> bool {
        let Some(env) = self.env.as_mut() else {
            return false;
        };
        env.is_crashed(v)
            || peers.iter().any(|&p| env.is_crashed(p))
            || (0..P).any(|_| env.message_lost())
    }

    /// Accrues the suppressed locked-node tick intensity up to `now`.
    #[inline]
    fn accrue(&mut self, now: f64) {
        let locked = self.n - self.unlocked.len();
        self.tick_exposure += locked as f64 * (now - self.exposure_from);
        self.exposure_from = now;
    }

    /// Redraws the next unlocked-set tick; exact after any change of
    /// its rate by memorylessness.
    #[inline]
    fn redraw_tick(&mut self, now: f64) {
        let u = self.unlocked.len();
        self.fast_tick = if u == 0 {
            f64::INFINITY
        } else {
            now + unit_exp(&mut self.rng) / u as f64
        };
    }

    /// A thinned tick: a uniform unlocked node opens an interaction.
    #[inline]
    fn thinned_tick(&mut self, now: f64) {
        self.ticks += 1;
        self.good_ticks += 1;
        self.accrue(now);
        let j = self.rng.gen_range(0..self.unlocked.len());
        let v = self.unlocked[j];
        self.locked[v as usize] = true;
        let moved = *self.unlocked.last().expect("a node ticked");
        self.unlocked[j] = moved;
        self.unlocked_pos[moved as usize] = j as u32;
        self.unlocked.pop();
        self.unlocked_pos[v as usize] = u32::MAX;
        self.redraw_tick(now);
        self.open_op(now, v, 1.0);
    }

    /// Releases `v`'s lock; on the thinned path `v` rejoins the ticking
    /// set, so the tick stream is redrawn at its new rate.
    #[inline]
    pub fn unlock(&mut self, now: f64, v: usize) {
        if self.thinned {
            self.accrue(now);
            self.locked[v] = false;
            self.unlocked_pos[v] = self.unlocked.len() as u32;
            self.unlocked.push(v as u32);
            self.redraw_tick(now);
        } else {
            self.locked[v] = false;
        }
    }

    /// Moves node `v` to `(gen, col)`, recording a generation birth.
    #[inline]
    pub fn adopt(&mut self, now: f64, v: usize, gen: u32, col: u32) -> Change {
        let (old_gen, old_col) = (self.gens[v], self.cols[v]);
        if (gen, col) == (old_gen, old_col) {
            return Change::None;
        }
        let is_birth = gen > self.table.max_generation();
        let parent = is_birth.then(|| {
            (
                self.table.bias_in(gen - 1).unwrap_or(f64::INFINITY),
                self.table.collision_in(gen - 1),
            )
        });
        self.table.transfer(old_gen, old_col, gen, col);
        self.gens[v] = gen;
        self.cols[v] = col;
        let Some((parent_bias, parent_collision)) = parent else {
            return Change::Moved;
        };
        self.tracer.emit(now, TraceKind::Birth { generation: gen });
        if !matches!(self.record, RecordLevel::Outcome) {
            self.births.push(GenerationBirth {
                generation: gen,
                time: now,
                // Measured when propagation opens (Lemma 22: α at t_i + t′).
                bias: f64::INFINITY,
                parent_bias,
                initial_fraction: self.table.fraction_in(gen),
                parent_collision,
            });
        }
        Change::Birth
    }

    /// Feeds the convergence tracker; returns true once the population
    /// is monochromatic.
    #[inline]
    pub fn observe(&mut self, now: f64) -> bool {
        self.tracker.observe(
            now,
            self.table.color_support(self.initial_winner),
            self.table.max_color_support(),
        );
        self.table.is_monochromatic()
    }

    /// [`Self::adopt`], observing convergence if anything changed;
    /// returns true once the population is monochromatic.
    #[inline]
    pub fn recolor(&mut self, now: f64, v: usize, gen: u32, col: u32) -> bool {
        self.adopt(now, v, gen, col) != Change::None && self.observe(now)
    }

    /// Measures generation `g`'s bias, unless already measured (Lemma
    /// 22: at the start of its propagation phase, or when the next
    /// generation is allowed if propagation never opened).
    pub fn measure_bias(&mut self, g: u32) {
        // Births are recorded in increasing generation order.
        if let Ok(i) = self.births.binary_search_by_key(&g, |b| b.generation) {
            if !self.births[i].bias.is_finite() {
                self.births[i].bias = self.table.bias_in(g).unwrap_or(f64::INFINITY);
            }
        }
    }

    /// Settles the suppressed tick stream and assembles the outcome.
    pub fn finish(mut self) -> Finished {
        let mut thinned_ticks = 0;
        if self.thinned {
            // The suppressed locked-node ticks over the run number
            // Poisson(accrued intensity).
            self.accrue(self.end_time);
            if self.tick_exposure > 0.0 {
                thinned_ticks = sample_poisson(self.tick_exposure, &mut self.rng);
                self.ticks += thinned_ticks;
            }
        }
        // Queue resizes recorded while tracing become trace events; the
        // final sort in `Tracer::finish` interleaves them on the time axis.
        self.tracer.extend(
            self.queue
                .take_resize_log()
                .into_iter()
                .map(|r| TraceEvent {
                    time: r.at,
                    kind: TraceKind::QueueResize {
                        buckets: r.buckets,
                        width: r.width,
                    },
                }),
        );
        let qprof = self.queue.profile();
        Finished {
            outcome: RunOutcome {
                n: self.n as u64,
                k: self.k,
                initial_winner: self.initial_winner,
                initial_bias: self.initial_bias,
                final_counts: self.table.global_counts(),
                epsilon_time: self.tracker.epsilon_time(),
                consensus_time: self.tracker.consensus_time(),
                duration: self.end_time,
                generations: self.births,
            },
            profile: EngineProfile {
                events_popped: qprof.pops,
                signals_thinned: thinned_ticks,
                queue_resizes: qprof.resizes,
                window_crossings: self.window_crossings,
            },
            trace: self.tracer.finish(),
            ticks: self.ticks,
            good_ticks: self.good_ticks,
            winner_fraction: self.winner_series,
            gens: self.gens,
            cols: self.cols,
        }
    }
}

/// Runs `e` to completion: races the tick pools, the flows' next
/// crossing and the queue head, applies due scenario effects, and hands
/// each event to its handler.
pub(crate) fn drive<const P: usize, E: AsyncProtocol<P>>(e: &mut E) {
    if e.core().table.is_monochromatic() {
        return;
    }
    loop {
        let core = e.core();
        if core.flows_dirty {
            core.rescan_flows();
        }
        // The fast pool wins exact ties (probability zero: independent
        // continuous clocks), the crossing wins ties against ticks, and
        // queued events win ties against both.
        let (tick, straggler) = if core.fast_tick <= core.straggler_tick {
            (core.fast_tick, false)
        } else {
            (core.straggler_tick, true)
        };
        let cross = core.zero_cross;
        let forced = tick.min(cross);
        let popped = core.queue.pop_before(forced.min(core.max_time));
        let now = match popped {
            Some((t, _)) => t,
            None if forced > core.max_time => {
                if forced.is_finite() || !E::IDLE_TIMEOUT_KEEPS_LAST_EVENT {
                    core.end_time = core.max_time;
                }
                return;
            }
            None => {
                core.queue.advance_to(forced);
                forced
            }
        };
        core.end_time = now;
        if let Some(env) = core.env.as_mut() {
            let effects = env.poll(now);
            if !effects.is_empty() && apply_effects(e, now, effects) {
                return;
            }
        }
        let core = e.core();
        if let Some(series) = core.winner_series.as_mut() {
            if now >= core.next_sample {
                let support = core.table.color_support(core.initial_winner);
                series.push(now, support as f64 / core.n as f64);
                core.next_sample = now.floor() + 1.0;
            }
        }
        let done = match popped {
            None if cross <= tick => {
                core.window_crossings += 1;
                let owner = core.zero_owner;
                core.tracer
                    .emit(now, TraceKind::WindowCrossing { scope: owner });
                e.on_window(now, owner);
                false
            }
            None if core.thinned => {
                core.thinned_tick(now);
                false
            }
            None => {
                chain_tick(e, now, straggler);
                false
            }
            Some((_, Event::Op { v, peers, epoch })) => {
                // A stale epoch: the initiator was replaced by join churn
                // mid-flight, and the joiner must not inherit the
                // interaction (its lock was released at join time).
                epoch == core.op_epoch[v as usize] && e.on_op(now, v, peers)
            }
            Some((_, Event::Msg(msg))) => e.on_msg(now, msg),
        };
        if done {
            return;
        }
    }
}

/// A tick of a clock pool on the unthinned path. The pool's next tick
/// is redrawn *first*, preserving the draw order of the queued-tick
/// implementation this replaced.
#[inline]
fn chain_tick<const P: usize, E: AsyncProtocol<P>>(e: &mut E, now: f64, straggler: bool) {
    let core = e.core();
    core.ticks += 1;
    let (lo, size) = if straggler {
        core.straggler_tick = core.straggler_clock.next_tick(now, &mut core.rng);
        (0, core.straggler_count)
    } else {
        core.fast_tick = core.fast_clock.next_tick(now, &mut core.rng);
        (core.straggler_count, core.fast_count)
    };
    let slot = lo + core.rng.gen_range(0..size);
    let v = core
        .straggler_ids
        .as_ref()
        .map_or(slot as u32, |ids| ids[slot]);
    // A crashed node's tick is inert (Poisson thinning).
    let crashed = core.env.as_ref().is_some_and(|env| env.is_crashed(v));
    let scale = core.latency_scale();
    // The 0-signal travels one latency, without locking; on the flow
    // path the whole stream is counted by the flows instead.
    if !core.flowing() && !crashed {
        if let Some(msg) = e.zero_signal(v) {
            e.core().send(now, msg);
        }
    }
    let core = e.core();
    if !crashed && !core.locked[v as usize] {
        core.good_ticks += 1;
        core.locked[v as usize] = true;
        core.open_op(now, v, scale);
    }
}

/// Applies the scenario effects due at `now`; returns true if the run
/// ended (the population became monochromatic).
fn apply_effects<const P: usize, E: AsyncProtocol<P>>(
    e: &mut E,
    now: f64,
    effects: Vec<Effect>,
) -> bool {
    let mut mono = false;
    let mut set = |e: &mut E, v: usize, gen: u32, col: u32| {
        let core = e.core();
        if E::OBSERVE_PER_NODE {
            mono |= core.recolor(now, v, gen, col);
        } else {
            core.adopt(now, v, gen, col);
        }
    };
    for effect in effects {
        match effect {
            Effect::Joined(joins) => {
                let count = joins.len() as u64;
                e.core().tracer.emit(
                    now,
                    TraceKind::ScenarioEffect {
                        name: "joined",
                        count,
                    },
                );
                for (v, c) in joins {
                    // A fresh node in a reused slot: void the replaced
                    // node's in-flight interaction and free the slot.
                    let vi = v as usize;
                    let core = e.core();
                    core.op_epoch[vi] = core.op_epoch[vi].wrapping_add(1);
                    core.locked[vi] = false;
                    e.reset_slot(vi);
                    set(e, vi, 0, c);
                }
            }
            Effect::Corrupt { budget, mode } => {
                let core = e.core();
                let env = core.env.as_mut().expect("scenario run");
                let targets = env.corruption_targets(budget, mode, &core.cols, core.k);
                let count = targets.len() as u64;
                core.tracer.emit(
                    now,
                    TraceKind::ScenarioEffect {
                        name: "corrupt",
                        count,
                    },
                );
                for (v, c) in targets {
                    let gen = e.core().gens[v as usize];
                    set(e, v as usize, gen, c);
                }
            }
            Effect::Rewired(sampler) => {
                let core = e.core();
                core.tracer.emit(
                    now,
                    TraceKind::ScenarioEffect {
                        name: "rewired",
                        count: 1,
                    },
                );
                core.sampler = sampler;
            }
            _ => {}
        }
    }
    if !E::OBSERVE_PER_NODE {
        mono = e.core().observe(now);
    }
    mono
}
