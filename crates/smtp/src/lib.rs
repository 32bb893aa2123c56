//! SMTP protocol implementation (RFC 5321 subset) for the `spamward` suite.
//!
//! Nolisting and greylisting both exploit the gap between what RFC 5321
//! requires of a sending client and what fire-and-forget spam software
//! actually implements. Measuring that gap requires a real protocol engine
//! on both sides of the connection:
//!
//! * [`Command`]/[`Reply`] — the wire grammar, with parsing and formatting
//!   (the *dialect* work of Stringhini et al. fingerprints exactly these
//!   details).
//! * [`EmailAddress`], [`ReversePath`], [`Envelope`], [`Message`] — the
//!   objects a transaction moves.
//! * [`ServerSession`] — the receiving state machine, parameterized by a
//!   [`ServerPolicy`] (the hook greylisting plugs into).
//! * [`ClientSession`] — the sending state machine, parameterized by a
//!   [`Dialect`] so both compliant MTAs and sloppy bot senders can be
//!   expressed.
//! * [`exchange`] — a lock-step driver running a client against a server,
//!   producing a [`DeliveryOutcome`] and a [`Transcript`];
//!   [`exchange_counted`] runs the same lock-step loop and only counts
//!   the steps.
//!
//! The engine is transport-agnostic: the simulation couples sessions
//! directly. A [`Transcript`] keeps the commands and replies a session
//! exchanged as typed values and renders their wire text only when read,
//! so a caller that only counts exchanges formats nothing, and one that
//! needs only the count keeps nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod client;
mod command;
mod dialect;
mod envelope;
mod extensions;
mod message;
pub mod metrics;
pub mod reply;
mod server;
pub mod tcp;
mod wire;

pub use address::{EmailAddress, ParseAddressError, ReversePath};
pub use client::{ClientAction, ClientSession, DeliveryOutcome, FailStage};
pub use command::Command;
pub use dialect::{Dialect, DialectFingerprint, HeloStyle};
pub use envelope::{Envelope, EnvelopeError};
pub use extensions::Capabilities;
pub use message::Message;
pub use reply::{Reply, ReplyCategory};
pub use server::{
    AcceptAll, PolicyDecision, ServerPolicy, ServerSession, SessionState, Transaction,
};
pub use wire::{dot_stuff, dot_unstuff, exchange, exchange_counted, Transcript, TranscriptEntry};
