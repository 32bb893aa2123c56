//! The event engine: actors woken in virtual-time order.
//!
//! An [`Actor`] is a named process that owns its own retry/wake schedule:
//! on every wake-up it acts on the shared state and returns a [`Wake`]
//! telling the scheduler when to run it next. [`ActorSim`] keeps one
//! time-ordered queue of pending wake-ups; two wake-ups due at one instant
//! run in the order they were queued, which makes an episode a pure
//! function of its inputs.
//!
//! Alongside the run loop, [`EngineStats`] accumulates plain-data
//! accounting (events executed, queue high-water, per-actor event counts,
//! run outcomes) that higher layers export as metrics.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// What an actor wants the scheduler to do after a wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Wake again at this absolute time (clamped to the current instant
    /// if it is already in the past — a late timer fires immediately).
    At(SimTime),
    /// Wake again after this delay.
    In(SimDuration),
    /// Nothing left to do; the actor receives no further wake-ups.
    Idle,
}

/// A named process driven by the engine.
///
/// Implementations hold whatever queue or cursor they need; the engine only
/// sees opaque wake-ups. The name is a dotted category ("mta.send",
/// "botnet.chain") under which per-actor event counts are accounted.
pub trait Actor<S> {
    /// The actor's dotted category name.
    fn name(&self) -> &str;

    /// Performs one wake-up at `now` against the shared state and returns
    /// when to run next.
    fn wake(&mut self, now: SimTime, state: &mut S) -> Wake;
}

/// A fixed-interval virtual-time tick schedule, bounded by a horizon.
///
/// This is the timing core of telemetry samplers: given the instant a tick
/// just ran, it answers when (and whether) the next one is due. Keeping it
/// here — beside [`Wake`], with no knowledge of what gets sampled — lets
/// any actor layer (the MTA world sampler, future front ends) share one
/// deterministic cadence rule: ticks land at `first + k·interval` and stop
/// strictly after the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleClock {
    interval: SimDuration,
    horizon: SimTime,
}

impl SampleClock {
    /// A clock ticking every `interval` (must be non-zero) up to and
    /// including `horizon`.
    pub fn new(interval: SimDuration, horizon: SimTime) -> Self {
        assert!(interval > SimDuration::ZERO, "sample interval must be non-zero");
        SampleClock { interval, horizon }
    }

    /// The instant of the tick after one at `now`, or `None` once the next
    /// tick would pass the horizon.
    pub fn next_after(&self, now: SimTime) -> Option<SimTime> {
        let next = now + self.interval;
        (next <= self.horizon).then_some(next)
    }
}

/// Why [`ActorSim::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every actor went idle: the wake-up queue drained completely.
    Drained,
    /// The configured horizon was reached with wake-ups still pending.
    HorizonReached,
    /// The configured event budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// Tally of [`RunOutcome`]s across engine episodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Episodes whose queue drained completely.
    pub drained: u64,
    /// Episodes cut at their horizon with events still pending.
    pub horizon_reached: u64,
    /// Episodes stopped by the event budget.
    pub budget_exhausted: u64,
}

impl OutcomeTally {
    /// Records one run outcome.
    pub fn record(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Drained => self.drained += 1,
            RunOutcome::HorizonReached => self.horizon_reached += 1,
            RunOutcome::BudgetExhausted => self.budget_exhausted += 1,
        }
    }

    /// Total episodes recorded.
    pub fn total(&self) -> u64 {
        self.drained + self.horizon_reached + self.budget_exhausted
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &OutcomeTally) {
        self.drained += other.drained;
        self.horizon_reached += other.horizon_reached;
        self.budget_exhausted += other.budget_exhausted;
    }
}

/// Plain-data accounting for one or more engine episodes.
///
/// The sim crate stays free of observability dependencies: this struct is
/// raw material that `metrics.rs` modules in higher crates turn into
/// counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events executed across all episodes.
    pub events: u64,
    /// Deepest event queue observed in any episode.
    pub queue_high_water: u64,
    /// Per-actor-name event-count samples: one entry per actor instance
    /// per episode (histogram raw material, keyed by [`Actor::name`]).
    pub actor_events: BTreeMap<String, Vec<u64>>,
    /// How the episodes ended.
    pub outcomes: OutcomeTally,
}

impl EngineStats {
    /// True when no episode has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0 && self.outcomes.total() == 0
    }
}

/// The heap storage behind an [`ActorSim`]'s wake-up queue and per-actor
/// event counters, kept between episodes: a caller that runs many
/// episodes lends it to each ([`ActorSim::with_buffers`]) and takes it
/// back ([`ActorSim::into_buffers`]), so a later episode allocates only
/// when it outgrows them.
#[derive(Debug, Default)]
pub struct EngineBuffers {
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    counts: Vec<u64>,
}

/// Runs a set of [`Actor`]s over shared state `S`: the event engine.
///
/// `add_actor` queues the first wake-up; every wake-up's returned [`Wake`]
/// queues the next. The queue holds `(due, seq, actor id)` triples, `seq`
/// numbering the pushes, so same-instant wake-ups run FIFO. One generic
/// actor type per episode keeps dispatch static; heterogeneous casts can
/// wrap an enum. `S` may be a borrow (`&mut World`), so an episode can run
/// over state its caller keeps.
///
/// # Example
///
/// ```
/// use spamward_sim::{Actor, ActorSim, SimDuration, SimTime, Wake};
///
/// struct Ticker(u32);
/// impl Actor<Vec<u64>> for Ticker {
///     fn name(&self) -> &str {
///         "ticker"
///     }
///     fn wake(&mut self, now: SimTime, log: &mut Vec<u64>) -> Wake {
///         log.push(now.as_secs());
///         self.0 -= 1;
///         if self.0 == 0 { Wake::Idle } else { Wake::In(SimDuration::from_secs(10)) }
///     }
/// }
///
/// let mut sim = ActorSim::new(Vec::new());
/// sim.add_actor(Ticker(3), SimTime::ZERO);
/// sim.run();
/// assert_eq!(sim.state(), &vec![0, 10, 20]);
/// ```
pub struct ActorSim<S, A> {
    state: S,
    actors: Vec<A>,
    counts: Vec<u64>,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    high_water: usize,
    horizon: Option<SimTime>,
    budget: Option<u64>,
    outcome: Option<RunOutcome>,
}

impl<S, A: Actor<S>> ActorSim<S, A> {
    /// Creates an actor simulation at `t=0` over `state`.
    pub fn new(state: S) -> Self {
        ActorSim {
            state,
            actors: Vec::new(),
            counts: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            high_water: 0,
            horizon: None,
            budget: None,
            outcome: None,
        }
    }

    /// [`ActorSim::new`], queueing and counting in `buffers`' storage. The
    /// buffers are emptied first, so wake-ups an earlier episode left
    /// queued at its horizon or budget never reach this one.
    pub fn with_buffers(state: S, buffers: EngineBuffers) -> Self {
        let EngineBuffers { mut queue, mut counts } = buffers;
        queue.clear();
        counts.clear();
        ActorSim { queue, counts, ..ActorSim::new(state) }
    }

    /// Ends the simulation and hands its queue and counter storage back
    /// for the next [`ActorSim::with_buffers`].
    pub fn into_buffers(self) -> EngineBuffers {
        EngineBuffers { queue: self.queue, counts: self.counts }
    }

    /// Stops the run once the clock would pass `horizon` (wake-ups exactly
    /// at the horizon still fire; later ones stay queued).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Caps the total number of processed events (runaway protection).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Registers `actor` and schedules its first wake-up at `first_wake`
    /// (clamped to the current clock). Returns the actor's id.
    pub fn add_actor(&mut self, actor: A, first_wake: SimTime) -> usize {
        self.actors.push(actor);
        self.counts.push(0);
        let id = self.actors.len() - 1;
        self.push(first_wake.max(self.now), id);
        id
    }

    fn push(&mut self, due: SimTime, id: usize) {
        self.queue.push(Reverse((due, self.seq, id)));
        self.seq += 1;
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Runs wake-ups until every actor is idle, the horizon passes, or
    /// the event budget runs out.
    pub fn run(&mut self) -> RunOutcome {
        let outcome = loop {
            if self.budget.is_some_and(|budget| self.processed >= budget) {
                break RunOutcome::BudgetExhausted;
            }
            let Some(&Reverse((due, _, id))) = self.queue.peek() else {
                break RunOutcome::Drained;
            };
            if let Some(horizon) = self.horizon.filter(|&horizon| due > horizon) {
                self.now = horizon;
                break RunOutcome::HorizonReached;
            }
            self.queue.pop();
            self.now = due;
            self.processed += 1;
            self.counts[id] += 1;
            match self.actors[id].wake(due, &mut self.state) {
                Wake::At(at) => self.push(at.max(due), id),
                Wake::In(delay) => self.push(due + delay, id),
                Wake::Idle => {}
            }
        };
        self.outcome = Some(outcome);
        outcome
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the wrapped state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the wrapped state, between runs.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Accounting for this episode: events, queue high-water, per-actor
    /// event counts, and — after [`ActorSim::run`] — the outcome.
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        self.fold_stats_into(&mut stats);
        stats
    }

    /// Folds this episode's accounting into `stats`, which may hold earlier
    /// episodes': events add up, the queue high-water is the deeper one,
    /// each actor's count joins its name's samples (a name is copied only
    /// the first time `stats` sees it), and the outcome is tallied.
    pub fn fold_stats_into(&self, stats: &mut EngineStats) {
        stats.events += self.processed;
        stats.queue_high_water = stats.queue_high_water.max(self.high_water as u64);
        for (actor, &count) in self.actors.iter().zip(&self.counts) {
            match stats.actor_events.get_mut(actor.name()) {
                Some(samples) => samples.push(count),
                None => {
                    stats.actor_events.insert(actor.name().to_owned(), vec![count]);
                }
            }
        }
        if let Some(outcome) = self.outcome {
            stats.outcomes.record(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// Logs `(time, id)` on every wake and reschedules after a jittered
    /// delay drawn from its own RNG stream.
    struct Jitter {
        id: u64,
        rng: DetRng,
        remaining: u32,
    }

    impl Actor<Vec<(u64, u64)>> for Jitter {
        fn name(&self) -> &str {
            "jitter"
        }
        fn wake(&mut self, now: SimTime, log: &mut Vec<(u64, u64)>) -> Wake {
            log.push((now.as_secs(), self.id));
            self.remaining -= 1;
            if self.remaining == 0 {
                return Wake::Idle;
            }
            Wake::In(SimDuration::from_secs(self.rng.below(50)))
        }
    }

    /// Eight jittered actors of 20 wake-ups each, run to completion.
    fn jitter_sim(seed: u64) -> ActorSim<Vec<(u64, u64)>, Jitter> {
        let mut sim = ActorSim::new(Vec::new());
        for id in 0..8u64 {
            let actor = Jitter { id, rng: DetRng::seed(seed).fork_idx("actor", id), remaining: 20 };
            sim.add_actor(actor, SimTime::from_secs(id % 3));
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim
    }

    fn jitter_trace(seed: u64) -> (Vec<(u64, u64)>, EngineStats) {
        let sim = jitter_sim(seed);
        (sim.state().clone(), sim.stats())
    }

    #[test]
    fn self_rescheduling_timers_are_deterministic_across_seeds() {
        // Property: for every seed, two runs produce byte-identical traces,
        // the trace is time-ordered, and every actor fires exactly its
        // scheduled number of wake-ups.
        for seed in [0u64, 1, 7, 42, 0xDEAD, 991, 123_456] {
            let (a, stats_a) = jitter_trace(seed);
            let (b, stats_b) = jitter_trace(seed);
            assert_eq!(a, b, "seed {seed}: trace must be reproducible");
            assert_eq!(stats_a, stats_b);
            assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "seed {seed}: time-ordered");
            assert_eq!(a.len(), 8 * 20);
            assert_eq!(stats_a.events, 8 * 20);
            assert_eq!(stats_a.actor_events["jitter"], vec![20u64; 8]);
            assert_eq!(stats_a.outcomes.drained, 1);
        }
    }

    #[test]
    fn same_instant_wakeups_run_in_schedule_order() {
        // Property: actors woken at one instant fire FIFO by the order
        // their wake-ups entered the queue, for any registration count.
        for seed in [3u64, 11, 29] {
            let mut rng = DetRng::seed(seed).fork("fifo");
            let n = 4 + rng.below(12);
            let mut sim = ActorSim::new(Vec::new());
            for id in 0..n {
                // All actors due at the same instant.
                sim.add_actor(
                    Jitter { id, rng: DetRng::seed(seed).fork_idx("a", id), remaining: 1 },
                    SimTime::from_secs(5),
                );
            }
            sim.run();
            // Every wake-up was queued at once, and draining keeps the mark.
            assert_eq!(sim.stats().queue_high_water, n, "seed {seed}: high-water");
            let expect: Vec<(u64, u64)> = (0..n).map(|id| (5, id)).collect();
            assert_eq!(sim.state(), &expect, "seed {seed}: same-instant FIFO violated");
        }
    }

    #[test]
    fn wake_at_in_the_past_is_clamped_to_now() {
        /// Logs `(time, id)`, returns its one queued `Wake`, then goes idle.
        struct Again(u64, Option<Wake>);
        impl Actor<Vec<(u64, u64)>> for Again {
            fn name(&self) -> &str {
                "again"
            }
            fn wake(&mut self, now: SimTime, log: &mut Vec<(u64, u64)>) -> Wake {
                log.push((now.as_secs(), self.0));
                self.1.take().unwrap_or(Wake::Idle)
            }
        }
        // Asking for t=1 while the clock reads t=10, or for no delay at
        // all, wakes the actor again at t=10, after the wake-up already
        // queued for that instant.
        for again in [Wake::At(SimTime::from_secs(1)), Wake::In(SimDuration::ZERO)] {
            let mut sim = ActorSim::new(Vec::new());
            sim.add_actor(Again(0, Some(again)), SimTime::from_secs(10));
            sim.add_actor(Again(1, None), SimTime::from_secs(10));
            assert_eq!(sim.run(), RunOutcome::Drained);
            assert_eq!(
                sim.state(),
                &vec![(10, 0), (10, 1), (10, 0)],
                "{again:?}: a late timer fires now, not in the past, behind the queue"
            );
        }
    }

    #[test]
    fn horizon_cuts_pending_wakeups() {
        let mut sim = ActorSim::new(Vec::new()).with_horizon(SimTime::from_secs(25));
        sim.add_actor(
            Jitter { id: 0, rng: DetRng::seed(1).fork("h"), remaining: 100 },
            SimTime::ZERO,
        );
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert!(sim.now() == SimTime::from_secs(25));
        assert!(sim.state().iter().all(|&(t, _)| t <= 25));
        assert_eq!(sim.stats().outcomes.horizon_reached, 1);

        // A wake-up due exactly at the horizon runs; a later one does not.
        let mut sim = ActorSim::new(Vec::new()).with_horizon(SimTime::from_secs(10));
        for id in 0..2 {
            let actor = Jitter { id, rng: DetRng::seed(1).fork_idx("edge", id), remaining: 1 };
            sim.add_actor(actor, SimTime::from_secs(10 + id));
        }
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(sim.state(), &vec![(10, 0)]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn budget_cuts_runaway_actor() {
        struct Forever;
        impl Actor<u64> for Forever {
            fn name(&self) -> &str {
                "forever"
            }
            fn wake(&mut self, _now: SimTime, count: &mut u64) -> Wake {
                *count += 1;
                Wake::In(SimDuration::from_secs(1))
            }
        }
        let mut sim = ActorSim::new(0u64).with_event_budget(17);
        sim.add_actor(Forever, SimTime::ZERO);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(*sim.state(), 17);
        assert_eq!(sim.stats().outcomes.budget_exhausted, 1);
    }

    #[test]
    fn stats_fold_accumulates_across_episodes() {
        let (first, second) = (jitter_sim(5), jitter_sim(6));
        let (a, b) = (first.stats(), second.stats());
        let mut total = EngineStats::default();
        assert!(total.is_empty());
        first.fold_stats_into(&mut total);
        assert_eq!(total, a);
        second.fold_stats_into(&mut total);
        assert_eq!(total.events, a.events + b.events);
        let samples = [a.actor_events["jitter"].clone(), b.actor_events["jitter"].clone()].concat();
        assert_eq!(total.actor_events["jitter"], samples);
        assert_eq!(samples.len(), 16);
        assert_eq!(total.outcomes.drained, 2);
        assert_eq!(total.queue_high_water, a.queue_high_water.max(b.queue_high_water));
        assert!(!total.is_empty());
    }

    #[test]
    fn sample_clock_ticks_to_the_horizon_and_stops() {
        let clock = SampleClock::new(
            SimDuration::from_secs(60),
            SimTime::ZERO + SimDuration::from_secs(150),
        );
        let t0 = SimTime::ZERO;
        let t1 = clock.next_after(t0).expect("first tick");
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_secs(60));
        let t2 = clock.next_after(t1).expect("second tick");
        assert_eq!(t2, SimTime::ZERO + SimDuration::from_secs(120));
        // 180s would pass the 150s horizon.
        assert_eq!(clock.next_after(t2), None);
        // A tick landing exactly on the horizon is still due.
        let exact = SampleClock::new(
            SimDuration::from_secs(60),
            SimTime::ZERO + SimDuration::from_secs(120),
        );
        assert_eq!(exact.next_after(t1), Some(SimTime::ZERO + SimDuration::from_secs(120)));
    }

    #[test]
    #[should_panic(expected = "sample interval must be non-zero")]
    fn sample_clock_rejects_a_zero_interval() {
        let _ = SampleClock::new(SimDuration::ZERO, SimTime::ZERO);
    }
}
