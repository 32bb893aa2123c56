//! Mail transfer agents for the `spamward` suite.
//!
//! Two sides of the measurement meet here:
//!
//! * **Receiving** — [`ReceivingMta`] is the victim server of the paper's
//!   lab: a Postfix-like filter chain (recipient validation first, then
//!   whitelists, then Postgrey-style greylisting) wired into the
//!   [`spamward_smtp::ServerPolicy`] hooks, with a mailbox and an
//!   anonymized log in the format the university dataset provides: one
//!   [`spamward_analysis::log::LogRecord`] per greylist verdict and per
//!   accepted recipient, keyed by a salted triplet digest.
//! * **Sending** — [`SendingMta`] is a queue-and-retry engine
//!   parameterized by an [`MtaProfile`]: the Table IV retransmission
//!   schedules of sendmail, exim, postfix, qmail, courier and exchange,
//!   with their maximum queue lifetimes, plus outbound IP-pool selection
//!   (the Table III "same IP" column is a consequence of this knob).
//! * **Glue** — [`MailWorld`] owns the simulated network, DNS and the
//!   receiving servers, and executes one complete delivery attempt
//!   ([`MailWorld::attempt_delivery`]): resolve MXs, pick candidates per
//!   [`MxStrategy`], connect, and run the SMTP exchange.
//! * **Execution** — [`WorldSim`] runs drivers (sending MTAs, botnet
//!   chains, webmail tiers) as self-rescheduling actors on the
//!   `spamward_sim` event engine, one episode at a time, accumulating
//!   [`MailWorld::engine_stats`]. The world's own timers — the installed
//!   fault plan's window edges and, in horizon-bounded episodes, the
//!   telemetry sampler, the greylist-store sweep and the durability
//!   checkpoint — join each episode, registered after the drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
pub mod log;
pub mod metrics;
mod receive;
mod schedule;
mod send;
mod world;
pub mod worldsim;

pub use events::{AtExchanger, EventLog, WorldEvent};
pub use receive::{
    CrashStats, CrashTransition, DegradationMode, ReceiveStats, ReceivingMta, RecipientPolicy,
    StoredMessage,
};
pub use schedule::{MtaProfile, RetrySchedule};
pub use send::{
    AttemptRecord, BounceReason, BounceReport, IpSelection, OutboundStatus, QueuedMessage,
    RetryPolicy, SendingMta,
};
pub use world::{AttemptReport, ConnectFailure, MailWorld, MxAttempt, MxStrategy};
pub use worldsim::WorldSim;
