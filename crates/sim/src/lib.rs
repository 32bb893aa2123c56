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
//! * [`Simulation`] — a priority-queue scheduler generic over the experiment
//!   state `S`; events are `FnOnce(&mut Ctx<S>)` closures and ties are broken
//!   FIFO by sequence number, so a run is a pure function of its inputs.
//! * [`Actor`] / [`ActorSim`] — a process/timer layer on top: named actors
//!   that schedule their own next wake-up ([`Wake`]), with [`EngineStats`]
//!   accounting for the episodes they run.
//! * [`DetRng`] — a seedable, fork-able xoshiro256++ random stream whose
//!   output is stable across platforms and `rand` versions; experiments fork
//!   one named substream per concern so adding a new consumer never perturbs
//!   existing draws.
//! * [`shard`] — a fixed, stable-hash partition of one seeded world into
//!   independent shards ([`ShardPlan`]) plus the ordered worker-pool
//!   executor ([`shard::run_partitioned`] / [`shard::run_sharded`]) that
//!   makes `--shards N` byte-identical to a serial run.
//!
//! # Example
//!
//! ```
//! use spamward_sim::{Simulation, SimTime, SimDuration};
//!
//! let mut sim = Simulation::new(0u32);
//! sim.schedule_in(SimDuration::from_secs(5), |ctx| {
//!     *ctx.state += 1;
//!     ctx.schedule_in(SimDuration::from_secs(10), |ctx| *ctx.state += 10);
//! });
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_secs(15));
//! assert_eq!(*sim.state(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod event;
mod rng;
pub mod shard;
mod time;
pub mod wall;

pub use actor::{Actor, ActorSim, EngineStats, OutcomeTally, SampleClock, Wake};
pub use event::{Ctx, RunOutcome, Simulation};
pub use rng::DetRng;
pub use shard::ShardPlan;
pub use time::{SimDuration, SimTime};
pub use wall::{Clock, ManualClock, WallClock};
