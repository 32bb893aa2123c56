//! What a store lookup can answer, and the network hop a remote store adds.
//!
//! The paper's deployment ran one store — an in-process Postgrey BTree —
//! but real fleets differ: Postfix instances share a qdgrey/redis-style
//! network store. A [`Greylist`](crate::Greylist) always keeps its
//! entries in one [`TripletStore`](crate::TripletStore); a
//! [`RemoteStore`] only puts that store behind a network hop, so both
//! decide through the one [`Touch`] state machine by construction.
//!
//! Outage windows belong to the engine, not the hop
//! ([`Greylist::set_outages`](crate::Greylist::set_outages)): inside one,
//! every store refuses lookups with [`StoreUnavailable`], which flows into
//! the MTA's FailOpen/FailClosed degradation path.

use spamward_sim::SimDuration;
use std::fmt;

/// The store could not answer (a lookup inside an outage window).
///
/// The decision engine propagates this to the MTA, whose
/// FailOpen/FailClosed degradation mode decides what the client sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreUnavailable;

impl fmt::Display for StoreUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "greylist store unavailable")
    }
}

impl std::error::Error for StoreUnavailable {}

/// The store-level outcome of touching a key: what happened to the entry,
/// before any policy bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// No live entry existed; a fresh pending entry now tracks the key.
    New {
        /// A stale (expired) entry was present and its clock restarted.
        restarted: bool,
    },
    /// A pending entry exists but the delay has not elapsed yet.
    Early {
        /// Time still to wait before a retry would mature the entry.
        remaining: SimDuration,
    },
    /// A pending entry just out-waited the delay and flipped to passed.
    Matured,
    /// The entry had already passed before.
    Known,
}

/// The network hop of a remote greylist store (qdgrey, redis): its
/// virtual-time round trip and the traffic it carried.
///
/// Lookups carry the MTA's clock and the store evaluates state against
/// it, so latency delays replies, never observations — decisions stay
/// identical to an in-process store. Each answered lookup adds one round
/// trip to the `greylist.backend.latency_us` counter; a lookup refused
/// inside an outage window counts as unavailable and costs nothing.
#[derive(Debug, Clone)]
pub struct RemoteStore {
    rtt: SimDuration,
    ops: u64,
    unavailable: u64,
    latency_us: u64,
}

impl RemoteStore {
    /// A remote store answering after `rtt` of round-trip lookup latency.
    pub fn new(rtt: SimDuration) -> Self {
        RemoteStore { rtt, ops: 0, unavailable: 0, latency_us: 0 }
    }

    /// Lookups answered so far (excluding refused ones).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Lookups that fell into an outage window.
    pub fn unavailable(&self) -> u64 {
        self.unavailable
    }

    /// Total virtual-time lookup latency paid, in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.latency_us
    }

    /// Counts one lookup over the hop: a refused one as unavailable, an
    /// answered one as one round trip.
    pub(crate) fn carry(&mut self, refused: bool) {
        if refused {
            self.unavailable += 1;
        } else {
            self.ops += 1;
            self.latency_us += self.rtt.as_micros();
        }
    }
}
