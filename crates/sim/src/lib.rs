//! Deterministic discrete-event simulation engine for the `spamward` suite.
//!
//! The paper's experiments span wall-clock horizons from 30 minutes (the
//! per-sample malware runs) to 25 hours (the Kelihos long-run of Fig. 4) to
//! four months (the university deployment behind Fig. 5). Re-running those in
//! real time is obviously out of the question, so every `spamward` experiment
//! executes on a virtual clock driven by this engine.
//!
//! The engine is intentionally small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`Actor`] / [`ActorSim`] — the scheduler: named actors over shared
//!   state `S` that each return their own next wake-up ([`Wake`]). Ties
//!   are broken FIFO by push order, so a run is a pure function of its
//!   inputs, and [`EngineStats`] accounts for the episodes they run.
//! * [`DetRng`] — a seedable, fork-able xoshiro256++ random stream whose
//!   output is stable across platforms and `rand` versions; experiments fork
//!   one named substream per concern so adding a new consumer never perturbs
//!   existing draws.
//! * [`shard`] — a fixed, stable-hash partition of one seeded world into
//!   independent shards ([`ShardPlan`]) plus the order-preserving executor
//!   over scoped std threads ([`shard::run_partitioned`] /
//!   [`shard::run_sharded`]), the workspace's one fan-out, which makes
//!   `--shards N` and `--jobs N` byte-identical to a serial run.
//!
//! # Example
//!
//! ```
//! use spamward_sim::{Actor, ActorSim, RunOutcome, SimDuration, SimTime, Wake};
//!
//! /// Adds one, then ten a little later, then goes idle.
//! struct Bump(u32);
//! impl Actor<u32> for Bump {
//!     fn name(&self) -> &str {
//!         "bump"
//!     }
//!     fn wake(&mut self, _now: SimTime, total: &mut u32) -> Wake {
//!         *total += self.0;
//!         self.0 *= 10;
//!         if self.0 > 10 { Wake::Idle } else { Wake::In(SimDuration::from_secs(10)) }
//!     }
//! }
//!
//! let mut sim = ActorSim::new(0u32);
//! sim.add_actor(Bump(1), SimTime::from_secs(5));
//! assert_eq!(sim.run(), RunOutcome::Drained);
//! assert_eq!(sim.now(), SimTime::from_secs(15));
//! assert_eq!(*sim.state(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod rng;
pub mod shard;
mod time;
pub mod wall;

pub use actor::{Actor, ActorSim, EngineStats, OutcomeTally, RunOutcome, SampleClock, Wake};
pub use rng::DetRng;
pub use shard::ShardPlan;
pub use time::{SimDuration, SimTime};
pub use wall::{Clock, ManualClock, WallClock};
