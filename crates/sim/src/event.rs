//! The event scheduler: a classic discrete-event simulation loop.
//!
//! [`Simulation<S>`] owns the experiment state `S` and a time-ordered queue
//! of events. An event is a one-shot closure receiving a [`Ctx<S>`], through
//! which it can read the clock, mutate the state, and schedule further
//! events. Two events at the same instant run in the order they were
//! scheduled (FIFO by sequence number), which makes runs fully deterministic.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

type EventFn<S> = Box<dyn FnOnce(&mut Ctx<'_, S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
    /// The configured event budget was exhausted (runaway protection).
    BudgetExhausted,
    /// An event called [`Ctx::stop`].
    Stopped,
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunOutcome::Drained => "event queue drained",
            RunOutcome::HorizonReached => "horizon reached",
            RunOutcome::BudgetExhausted => "event budget exhausted",
            RunOutcome::Stopped => "stopped by event",
        };
        f.write_str(s)
    }
}

/// The view of the simulation an event executes against.
///
/// Borrowed mutably for the duration of one event; schedules issued here are
/// committed to the queue when the event returns.
pub struct Ctx<'a, S> {
    now: SimTime,
    /// The experiment state. Events mutate the world through this.
    pub state: &'a mut S,
    pending: Vec<(SimTime, EventFn<S>)>,
    stop: bool,
}

impl<'a, S> Ctx<'a, S> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current event's time);
    /// scheduling *at* the current instant is allowed and runs after all
    /// events already queued for it.
    pub fn schedule_at(&mut self, at: SimTime, event: impl FnOnce(&mut Ctx<'_, S>) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        self.pending.push((at, Box::new(event)));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Ctx<'_, S>) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }

    /// Requests the run loop to stop after this event completes.
    ///
    /// Pending events remain queued; a subsequent [`Simulation::run`] resumes
    /// them.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// A deterministic discrete-event simulation over state `S`.
///
/// See the [crate docs](crate) for a worked example.
pub struct Simulation<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<S>>,
    state: S,
    processed: u64,
    high_water: usize,
    horizon: Option<SimTime>,
    budget: Option<u64>,
}

impl<S: fmt::Debug> fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .field("state", &self.state)
            .finish()
    }
}

impl<S> Simulation<S> {
    /// Creates a simulation at `t=0` over `state`.
    pub fn new(state: S) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            state,
            processed: 0,
            high_water: 0,
            horizon: None,
            budget: None,
        }
    }

    /// Stops the run loop once the clock would pass `horizon`.
    ///
    /// Events scheduled exactly at the horizon still run; later ones stay
    /// queued.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Caps the total number of processed events (runaway protection for
    /// property tests).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the experiment state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the experiment state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the simulation, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The deepest the queue has ever been (instrumentation for capacity
    /// planning; a drained queue leaves this untouched).
    pub fn queue_high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: impl FnOnce(&mut Ctx<'_, S>) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, run: Box::new(event) });
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Schedules `event` to run `delay` after the current clock.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Ctx<'_, S>) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs events until the queue drains, the horizon or event budget is
    /// hit, or an event calls [`Ctx::stop`].
    pub fn run(&mut self) -> RunOutcome {
        loop {
            if let Some(budget) = self.budget {
                if self.processed >= budget {
                    return RunOutcome::BudgetExhausted;
                }
            }
            let Some(next) = self.queue.peek() else {
                return RunOutcome::Drained;
            };
            if let Some(h) = self.horizon {
                if next.at > h {
                    self.now = h;
                    return RunOutcome::HorizonReached;
                }
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            self.now = ev.at;
            self.processed += 1;

            let mut ctx =
                Ctx { now: self.now, state: &mut self.state, pending: Vec::new(), stop: false };
            (ev.run)(&mut ctx);
            let Ctx { pending, stop, .. } = ctx;
            for (at, run) in pending {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Scheduled { at, seq, run });
            }
            self.high_water = self.high_water.max(self.queue.len());
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_time_order() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_at(SimTime::from_secs(30), |c| c.state.push(c.now().as_secs()));
        sim.schedule_at(SimTime::from_secs(10), |c| c.state.push(c.now().as_secs()));
        sim.schedule_at(SimTime::from_secs(20), |c| c.state.push(c.now().as_secs()));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.state(), &vec![10, 20, 30]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            sim.schedule_at(t, move |c| c.state.push(i));
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_cascade() {
        let mut sim = Simulation::new(0u64);
        sim.schedule_in(SimDuration::from_secs(1), |c| {
            *c.state += 1;
            c.schedule_in(SimDuration::from_secs(1), |c| {
                *c.state += 1;
                c.schedule_in(SimDuration::from_secs(1), |c| *c.state += 1);
            });
        });
        sim.run();
        assert_eq!(*sim.state(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn horizon_stops_but_preserves_queue() {
        let mut sim = Simulation::new(0u32).with_horizon(SimTime::from_secs(10));
        sim.schedule_at(SimTime::from_secs(10), |c| *c.state += 1);
        sim.schedule_at(SimTime::from_secs(11), |c| *c.state += 100);
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(*sim.state(), 1, "event exactly at horizon must run");
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn budget_stops_runaway() {
        let mut sim = Simulation::new(0u64).with_event_budget(100);
        fn reschedule(c: &mut Ctx<'_, u64>) {
            *c.state += 1;
            c.schedule_in(SimDuration::from_secs(1), reschedule);
        }
        sim.schedule_in(SimDuration::from_secs(1), reschedule);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(*sim.state(), 100);
    }

    #[test]
    fn stop_from_event() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1), |c| {
            *c.state += 1;
            c.stop();
        });
        sim.schedule_in(SimDuration::from_secs(2), |c| *c.state += 100);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(*sim.state(), 1);
        // Resume processes the remainder.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*sim.state(), 101);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_secs(10), |c| {
            c.schedule_at(SimTime::from_secs(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn queue_high_water_tracks_peak_depth() {
        let mut sim = Simulation::new(0u32);
        assert_eq!(sim.queue_high_water(), 0);
        for i in 1..=5u64 {
            sim.schedule_at(SimTime::from_secs(i), |c| *c.state += 1);
        }
        assert_eq!(sim.queue_high_water(), 5);
        sim.run();
        // Draining the queue never lowers the mark; cascades raise it.
        assert_eq!(sim.queue_high_water(), 5);
        sim.schedule_in(SimDuration::from_secs(1), |c| {
            for _ in 0..9 {
                c.schedule_in(SimDuration::from_secs(1), |c| *c.state += 1);
            }
        });
        sim.run();
        assert_eq!(sim.queue_high_water(), 9, "cascade from inside an event counts");
    }

    #[test]
    fn same_instant_schedule_from_event_runs() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        sim.schedule_at(SimTime::from_secs(1), |c| {
            c.state.push("first");
            c.schedule_at(c.now(), |c| c.state.push("second"));
        });
        sim.run();
        assert_eq!(sim.state(), &vec!["first", "second"]);
    }
}
