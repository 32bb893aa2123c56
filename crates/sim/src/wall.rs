//! The sanctioned host-clock boundary.
//!
//! Everything in the suite computes with virtual [`SimTime`]; the only
//! legitimate consumer of the host clock is the real-network transport
//! (`spamward_smtp::tcp`), where elapsed wall time *is* the experiment's
//! time axis. Lint rule D1 (`cargo run -p spamward-lint`) bans
//! `Instant::now()` and friends everywhere except this module, so every
//! wall-clock dependency in the workspace is an explicit [`Clock`]
//! injection that traces back here.

use crate::time::SimTime;
use std::cell::Cell;
use std::time::Instant;

/// A source of the current virtual time.
///
/// Protocol code takes `&dyn Clock` instead of calling a time API, which
/// keeps it deterministic under simulation (inject [`ManualClock`]) and
/// honest on real sockets (inject [`WallClock`]).
pub trait Clock {
    /// The current virtual time.
    fn now(&self) -> SimTime;
}

/// Maps host-clock instants to [`SimTime`], counting from its creation.
///
/// This is the one place in the workspace allowed to read
/// `std::time::Instant`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock {
    /// A clock whose `t=0` is "now".
    pub fn new() -> Self {
        WallClock { epoch: Instant::now() }
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

/// A hand-advanced clock for tests and simulations: reads return whatever
/// was last [`set`](ManualClock::set), so runs are reproducible.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Cell<SimTime>,
}

impl ManualClock {
    /// A clock stopped at `t=0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock to `now` (monotonicity is the caller's business).
    pub fn set(&self, now: SimTime) {
        self.now.set(now);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        self.now.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_reads_what_was_set() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.set(SimTime::from_secs(42));
        assert_eq!(clock.now(), SimTime::from_secs(42));
    }
}
