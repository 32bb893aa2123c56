//! The greylist store: one state machine, two backends.
//!
//! The paper's deployment ran one store — an in-process Postgrey BTree —
//! but real fleets differ: Postfix instances share a qdgrey/redis-style
//! network store. [`StoreBackend`] makes the storage substrate an
//! experiment axis while the decision engine in `policy.rs` stays
//! byte-identical under the default [`StoreBackend::InMemory`]
//! configuration:
//!
//! * [`StoreBackend::InMemory`] — a plain [`TripletStore`].
//! * [`StoreBackend::Remote`] — the same store behind a network hop: each
//!   answered lookup charges one virtual-time round trip, and outage
//!   windows make lookups fail with [`StoreUnavailable`], which flows into
//!   the MTA's FailOpen/FailClosed degradation path —
//!   `FaultSpec::GreylistStoreDown` applies per backend for free.
//!
//! `StoreBackend`'s own methods are the whole store API. Both variants run
//! the one [`TripletStore::touch`] state machine, so they return the same
//! [`Touch`] sequence by construction.

use crate::store::{EntryState, TripletEntry, TripletStore};
use crate::triplet::TripletKey;
use serde::{Deserialize, Serialize};
use spamward_sim::{SimDuration, SimTime};
use std::fmt;

/// The store could not answer (remote backend inside an outage window).
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
///
/// This is the unit of the store contract — both backends produce the
/// same `Touch` sequence for the same `(key, now, delay)` sequence, which
/// is what keeps decisions backend-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// A network greylist store (qdgrey, redis) with virtual-time lookup
/// latency and outage windows.
///
/// Lookups carry the MTA's clock and the store evaluates state against
/// it, so latency delays replies, never observations — decisions stay
/// identical to the in-process backend. Each answered lookup adds one
/// round trip to the `greylist.backend.latency_us` counter; inside an
/// outage window a lookup fails with [`StoreUnavailable`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoteStore {
    inner: TripletStore,
    rtt: SimDuration,
    #[serde(default)]
    outages: Vec<(SimTime, SimTime)>,
    ops: u64,
    unavailable: u64,
    latency_us: u64,
}

impl RemoteStore {
    /// A remote store answering after `rtt` of round-trip lookup latency.
    pub fn new(rtt: SimDuration) -> Self {
        RemoteStore {
            inner: TripletStore::new(),
            rtt,
            outages: Vec::new(),
            ops: 0,
            unavailable: 0,
            latency_us: 0,
        }
    }

    /// Installs outage windows: half-open `[from, until)` spans in which
    /// every lookup fails.
    pub fn set_outages(&mut self, outages: Vec<(SimTime, SimTime)>) {
        self.outages = outages;
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

    /// One lookup at `now`: inside an outage window it is refused and
    /// counted; otherwise it is answered, charged one round trip, and
    /// reaches the backing store.
    fn lookup(&mut self, now: SimTime) -> Result<&mut TripletStore, StoreUnavailable> {
        if self.outages.iter().any(|&(from, until)| now >= from && now < until) {
            self.unavailable += 1;
            return Err(StoreUnavailable);
        }
        self.ops += 1;
        self.latency_us += self.rtt.as_micros();
        Ok(&mut self.inner)
    }
}

/// The store behind a `Greylist` engine; its inherent methods are the
/// whole store API.
///
/// An enum (rather than a generic parameter) so `Greylist` stays a plain
/// serde-snapshottable value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StoreBackend {
    /// In-process BTree store (the paper's configuration; the default).
    InMemory(TripletStore),
    /// Network store with lookup latency and outage windows.
    Remote(RemoteStore),
}

impl Default for StoreBackend {
    fn default() -> Self {
        StoreBackend::InMemory(TripletStore::default())
    }
}

impl StoreBackend {
    /// Applies one check to `key` at `now`, advancing the entry's state
    /// machine under the configured `delay`.
    ///
    /// # Errors
    ///
    /// [`StoreUnavailable`] when a remote store is inside an outage
    /// window; the store is left untouched.
    pub fn touch(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<Touch, StoreUnavailable> {
        Ok(self.lookup(now)?.touch(key, now, delay))
    }

    /// Removes every expired entry; returns how many were dropped.
    ///
    /// # Errors
    ///
    /// [`StoreUnavailable`] when a remote store is inside an outage
    /// window; nothing is dropped.
    pub fn purge_expired(&mut self, now: SimTime) -> Result<usize, StoreUnavailable> {
        Ok(self.lookup(now)?.purge_expired(now))
    }

    /// Number of stored entries (including not-yet-swept stale ones).
    pub fn len(&self) -> usize {
        self.triplets().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.triplets().is_empty()
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.triplets().evictions()
    }

    /// Counts entries currently in `state`.
    pub fn count_state(&self, state: EntryState) -> usize {
        self.triplets().count_state(state)
    }

    /// Approximate resident bytes of key+entry data (the
    /// `greylist.store.bytes` gauge), comparable across backends.
    pub fn approx_bytes(&self) -> usize {
        self.triplets().approx_bytes()
    }

    /// All (possibly stale) entries, sorted by key — a byte-stable view
    /// whatever the backend.
    pub fn iter(&self) -> impl Iterator<Item = (&TripletKey, &TripletEntry)> {
        self.triplets().iter()
    }

    /// The remote store, if that is the active backend.
    pub fn as_remote(&self) -> Option<&RemoteStore> {
        match self {
            StoreBackend::Remote(r) => Some(r),
            _ => None,
        }
    }

    /// The backing store itself, with no lookup in between: snapshot
    /// restore, crash reset and WAL replay rebuild local durable state,
    /// which is not subject to network weather — outage windows do not
    /// apply and nothing is counted.
    pub(crate) fn triplets_mut(&mut self) -> &mut TripletStore {
        match self {
            StoreBackend::InMemory(s) => s,
            StoreBackend::Remote(r) => &mut r.inner,
        }
    }

    fn triplets(&self) -> &TripletStore {
        match self {
            StoreBackend::InMemory(s) => s,
            StoreBackend::Remote(r) => &r.inner,
        }
    }

    /// The store one live lookup at `now` reaches, after the remote
    /// store's bookkeeping.
    fn lookup(&mut self, now: SimTime) -> Result<&mut TripletStore, StoreUnavailable> {
        match self {
            StoreBackend::InMemory(s) => Ok(s),
            StoreBackend::Remote(r) => r.lookup(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

    const RTT: SimDuration = SimDuration::from_millis(2);

    fn key(d: u8) -> TripletKey {
        TripletKey::new(
            Ipv4Addr::new(10, 0, d, 1),
            &ReversePath::Null,
            &format!("u{d}@foo.net").parse().unwrap(),
            24,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn backends() -> [(&'static str, StoreBackend); 2] {
        [
            ("in_memory", StoreBackend::InMemory(TripletStore::new())),
            ("remote", StoreBackend::Remote(RemoteStore::new(RTT))),
        ]
    }

    /// A remote backend that is down over `[from, until)` seconds.
    fn remote_down(from: u64, until: u64) -> StoreBackend {
        let mut r = RemoteStore::new(RTT);
        r.set_outages(vec![(t(from), t(until))]);
        StoreBackend::Remote(r)
    }

    fn entries(backend: &StoreBackend) -> Vec<(TripletKey, TripletEntry)> {
        backend.iter().map(|(k, e)| (*k, e.clone())).collect()
    }

    /// The store contract: the same decision sequence produces the same
    /// decisions on both backends, and aggregate views agree.
    #[test]
    fn contract_same_sequence_same_decisions() {
        let delay = SimDuration::from_secs(300);
        // A sequence exercising every Touch variant: new, early retry,
        // matured, known, plus an expiry restart.
        let script: Vec<(u8, u64)> = vec![
            (1, 0),                // New
            (1, 100),              // Early
            (2, 150),              // New
            (1, 301),              // Matured
            (1, 400),              // Known
            (2, 500),              // Matured
            (3, 600),              // New
            (3, 600 + 3 * 86_400), // stale pending → New{restarted}
        ];
        let mut outcomes: Vec<Vec<Touch>> = Vec::new();
        let mut summaries: Vec<(usize, usize, usize)> = Vec::new();
        for (_, mut backend) in backends() {
            let got: Vec<Touch> = script
                .iter()
                .map(|&(k, at)| backend.touch(key(k), t(at), delay).expect("no outages installed"))
                .collect();
            outcomes.push(got);
            summaries.push((
                backend.len(),
                backend.count_state(EntryState::Pending),
                backend.count_state(EntryState::Passed),
            ));
        }
        assert_eq!(outcomes[0], outcomes[1], "remote diverged from in-memory");
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(
            outcomes[0],
            vec![
                Touch::New { restarted: false },
                Touch::Early { remaining: SimDuration::from_secs(200) },
                Touch::New { restarted: false },
                Touch::Matured,
                Touch::Known,
                Touch::Matured,
                Touch::New { restarted: false },
                Touch::New { restarted: true },
            ]
        );
    }

    #[test]
    fn contract_purge_and_entries_agree() {
        let delay = SimDuration::from_secs(300);
        let mut views: Vec<Vec<(TripletKey, TripletEntry)>> = Vec::new();
        for (name, mut backend) in backends() {
            for k in 1..=8u8 {
                let _ = backend.touch(key(k), t(u64::from(k) * 10), delay);
            }
            let swept = backend.purge_expired(t(10) + SimDuration::from_days(30));
            assert_eq!(swept, Ok(8), "{name}: all pending entries were stale");
            for k in 1..=4u8 {
                let _ = backend.touch(key(k), t(1_000_000 + u64::from(k)), delay);
            }
            views.push(entries(&backend));
        }
        assert_eq!(views[0], views[1], "remote view diverged");
        assert!(views[0].windows(2).all(|w| w[0].0 < w[1].0), "entries must be key-sorted");
    }

    proptest! {
        /// Contract under arbitrary (time-ordered) decision sequences.
        #[test]
        fn prop_backends_agree(ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..40)) {
            let delay = SimDuration::from_secs(300);
            let mut times: Vec<u64> = ops.iter().map(|&(_, at)| at).collect();
            times.sort_unstable();
            let script: Vec<(u8, u64)> =
                ops.iter().zip(times).map(|(&(k, _), at)| (k, at)).collect();
            let mut all: Vec<Vec<Touch>> = Vec::new();
            for (_, mut backend) in backends() {
                all.push(
                    script
                        .iter()
                        .map(|&(k, at)| backend.touch(key(k), t(at), delay).unwrap())
                        .collect(),
                );
            }
            prop_assert_eq!(&all[0], &all[1]);
        }
    }

    /// Touches and sweeps are lookups alike: refused inside an outage
    /// window (a refused sweep drops nothing), answered and counted outside
    /// one. Every answered lookup charges one round trip; refused ones
    /// charge nothing.
    #[test]
    fn remote_outage_window_fails_lookups() {
        let delay = SimDuration::from_secs(300);
        let late = 30 * 86_400;
        let mut r = RemoteStore::new(RTT);
        r.set_outages(vec![(t(100), t(200)), (t(late), t(late + 100))]);
        let mut b = StoreBackend::Remote(r);
        assert!(b.touch(key(1), t(50), delay).is_ok());
        assert_eq!(b.touch(key(1), t(150), delay), Err(StoreUnavailable));
        // Half-open window: the upper bound is back in service.
        assert!(b.touch(key(1), t(200), delay).is_ok());
        assert_eq!(b.purge_expired(t(late)), Err(StoreUnavailable));
        assert_eq!(b.len(), 1, "a refused sweep drops nothing");
        assert_eq!(b.purge_expired(t(late + 100)), Ok(1));
        assert!(b.is_empty());
        let r = b.as_remote().unwrap();
        assert_eq!((r.ops(), r.unavailable()), (3, 2));
        assert_eq!(r.latency_us(), 3 * RTT.as_micros(), "latency = answered lookups x rtt");
    }

    #[test]
    fn clear_drops_entries_but_keeps_shape() {
        let delay = SimDuration::from_secs(300);
        for (name, mut backend) in backends() {
            for k in 1..=6u8 {
                let _ = backend.touch(key(k), t(0), delay);
            }
            assert_eq!(backend.len(), 6, "{name}");
            backend.triplets_mut().clear();
            assert!(backend.is_empty(), "{name}: clear must drop everything");
            // The cleared store works again from scratch.
            assert_eq!(backend.touch(key(1), t(500), delay), Ok(Touch::New { restarted: false }));
        }
        // A remote store's outage windows and counters survive the clear.
        let mut b = remote_down(100, 200);
        let _ = b.touch(key(1), t(150), delay);
        b.triplets_mut().clear();
        assert_eq!(b.as_remote().unwrap().unavailable(), 1, "counters are cumulative");
        assert_eq!(b.touch(key(1), t(150), delay), Err(StoreUnavailable), "windows survive");
    }

    #[test]
    fn triplets_mut_matches_live_path_and_ignores_outages() {
        let delay = SimDuration::from_secs(300);
        for (name, backend) in backends() {
            let mut live = backend.clone();
            let mut direct = backend;
            let script = [(1u8, 0u64), (1, 100), (2, 150), (1, 301), (1, 400)];
            for &(k, at) in &script {
                let a = live.touch(key(k), t(at), delay).unwrap();
                let b = direct.triplets_mut().touch(key(k), t(at), delay);
                assert_eq!(a, b, "{name}: direct path diverged");
            }
            assert_eq!(entries(&live), entries(&direct));
        }
        // Inside an outage window live lookups fail, but the direct
        // (replay) path still applies — and pays no lookup accounting.
        let mut b = remote_down(0, 1_000_000);
        assert_eq!(b.touch(key(1), t(10), delay), Err(StoreUnavailable));
        let touched = b.triplets_mut().touch(key(1), t(10), delay);
        assert_eq!(touched, Touch::New { restarted: false });
        assert_eq!(b.purge_expired(t(500_000)), Err(StoreUnavailable));
        assert_eq!(b.triplets_mut().purge_expired(t(500_000)), 1);
        let r = b.as_remote().unwrap();
        assert_eq!((r.ops(), r.unavailable()), (0, 2), "replay is not lookup traffic");
        assert_eq!(r.latency_us(), 0);
    }

    #[test]
    fn bytes_gauge_tracks_occupancy() {
        assert!(StoreBackend::default().as_remote().is_none(), "in-memory is the default");
        for (name, mut backend) in backends() {
            assert!(backend.is_empty(), "{name}");
            assert_eq!(backend.approx_bytes(), 0, "{name}");
            let _ = backend.touch(key(1), t(0), SimDuration::from_secs(300));
            assert!(backend.approx_bytes() > 0, "{name}: occupied store must report bytes");
        }
    }
}
