//! A Postgrey-compatible greylisting engine.
//!
//! Greylisting (paper §II) temporarily rejects mail from *unknown* senders,
//! identified by the triplet *(client address, envelope sender, envelope
//! recipient)*. RFC-compliant clients retry after a delay and pass; most
//! fire-and-forget spam software never retries — or retries from a different
//! address — and is dropped without ever looking at the message.
//!
//! The engine mirrors the knobs of Postgrey (the implementation the paper's
//! university deployment and lab Mail Server VM ran):
//!
//! * [`GreylistConfig::delay`] — the threshold studied throughout §V (5 s,
//!   300 s and 21 600 s in the paper's sweeps).
//! * [`GreylistConfig::netmask`] — triplets key on the client's /24 by
//!   default, which is what lets webmail providers with *small* outbound
//!   pools still pass (Table III's "same IP" column).
//! * client/recipient [`Whitelist`]s — the paper stresses whitelisting
//!   webmail providers is "fundamental".
//! * auto-whitelisting of clients after
//!   [`GreylistConfig::auto_whitelist_after`] successful retries.
//!
//! The core API is one call: [`Greylist::check`] returns
//! [`Decision::Pass`] or [`Decision::Greylisted`] and updates the triplet
//! store. [`Greylist::snapshot`] renders the store as a text checkpoint
//! that [`Greylist::restore`] reads back, so experiments can snapshot and
//! diff it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod keying;
pub mod metrics;
mod persist;
mod policy;
mod stats;
mod store;
mod triplet;
mod whitelist;

pub use backend::{RemoteStore, StoreBackend, StoreUnavailable, Touch};
pub use keying::KeyPolicy;
pub use persist::{DurabilityMode, GreylistWal, SnapshotError, WalReplay};
pub use policy::{Decision, Greylist, GreylistConfig, PassReason};
pub use stats::GreylistStats;
pub use store::{EntryState, TripletEntry, TripletStore};
pub use triplet::{KeyAtom, TripletKey};
pub use whitelist::Whitelist;
