//! Pluggable greylist store backends.
//!
//! The paper's deployment ran one store — an in-process Postgrey BTree —
//! but real fleets differ: Postfix instances share a qdgrey/redis-style
//! network store. The [`GreylistStore`] trait makes the storage substrate
//! an experiment axis while keeping the decision engine in `policy.rs`
//! byte-identical under the default [`StoreBackend::InMemory`]
//! configuration:
//!
//! * [`StoreBackend::InMemory`] — today's [`TripletStore`], unchanged.
//! * [`StoreBackend::Remote`] — a network store spoken to over a
//!   request–reply protocol with virtual-time lookup latency. Fault
//!   windows make lookups fail, which surfaces as
//!   [`StoreUnavailable`] and flows into the MTA's FailOpen/FailClosed
//!   degradation path — `FaultSpec::GreylistStoreDown` applies per-backend
//!   for free.

use crate::store::{EntryState, TripletEntry, TripletStore};
use crate::triplet::TripletKey;
use serde::{Deserialize, Serialize};
use spamward_sim::{SimDuration, SimTime};
use std::fmt;

/// The store could not answer (remote backend inside a fault window).
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
/// This is the unit of the store contract — every backend must produce the
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

/// Touches `key` in a plain [`TripletStore`].
///
/// This is the *only* implementation of the pending/passed state machine —
/// every backend routes here — and it performs exactly the operation
/// sequence the pre-refactor decision engine did (contains, `get_live_mut`,
/// `insert_pending`, attempt/last-seen bumps, state flip), so the default
/// backend stays byte-identical.
fn touch_store(
    store: &mut TripletStore,
    key: TripletKey,
    now: SimTime,
    delay: SimDuration,
) -> Touch {
    let existed = store.contains(&key);
    match store.get_live_mut(&key, now) {
        None => {
            // Either genuinely unseen, or a stale entry that
            // `get_live_mut` just removed — both restart the clock.
            let entry = store.insert_pending(key, now);
            entry.attempts += 1;
            entry.last_seen = now;
            debug_assert_eq!(entry.first_seen, now);
            Touch::New { restarted: existed }
        }
        Some(entry) => {
            entry.attempts += 1;
            entry.last_seen = now;
            match entry.state {
                EntryState::Passed => Touch::Known,
                EntryState::Pending => {
                    // Sessions carry per-connection latency offsets, so
                    // two logically-concurrent checks can arrive with
                    // slightly out-of-order clocks; saturate to zero.
                    let waited =
                        now.checked_elapsed_since(entry.first_seen).unwrap_or(SimDuration::ZERO);
                    if waited >= delay {
                        entry.state = EntryState::Passed;
                        Touch::Matured
                    } else {
                        Touch::Early { remaining: delay - waited }
                    }
                }
            }
        }
    }
}

/// Storage substrate for the greylist decision engine.
///
/// The contract: for the same sequence of `touch` calls, every backend
/// returns the same sequence of [`Touch`] outcomes (fault windows aside).
/// A shared contract test in this module pins that property across both
/// backends.
pub trait GreylistStore {
    /// Applies one check to `key` at `now`, advancing the entry's state
    /// machine under the configured `delay`.
    ///
    /// # Errors
    ///
    /// [`StoreUnavailable`] when the backend cannot answer (remote store
    /// inside a fault window).
    fn touch(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<Touch, StoreUnavailable>;

    /// Removes every expired entry; returns how many were dropped.
    fn purge_expired(&mut self, now: SimTime) -> usize;

    /// Number of stored entries (including not-yet-swept stale ones).
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counts entries currently in `state`.
    fn count_state(&self, state: EntryState) -> usize;

    /// Total LRU evictions so far.
    fn evictions(&self) -> u64;

    /// Approximate resident bytes of key+entry data (the
    /// `greylist.store.bytes` gauge), comparable across backends.
    fn approx_bytes(&self) -> usize;

    /// Inserts an entry verbatim (snapshot restore), bypassing capacity
    /// checks — restores happen at startup before any load.
    fn insert_raw(&mut self, key: TripletKey, entry: TripletEntry);

    /// Drops every entry, as a crash losing the database would. Shape
    /// (capacity bounds, lifetimes, remote latency/fault windows) and
    /// cumulative counters survive — they model the deployment, not its
    /// RAM.
    fn clear(&mut self);

    /// All (possibly stale) entries, sorted by key — a byte-stable view
    /// regardless of backend.
    fn entries(&self) -> Vec<(TripletKey, TripletEntry)>;

    /// Stable backend slug for tables and metric labels.
    fn backend_name(&self) -> &'static str;
}

impl GreylistStore for TripletStore {
    fn touch(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<Touch, StoreUnavailable> {
        Ok(touch_store(self, key, now, delay))
    }

    fn purge_expired(&mut self, now: SimTime) -> usize {
        TripletStore::purge_expired(self, now)
    }

    fn len(&self) -> usize {
        TripletStore::len(self)
    }

    fn count_state(&self, state: EntryState) -> usize {
        TripletStore::count_state(self, state)
    }

    fn evictions(&self) -> u64 {
        TripletStore::evictions(self)
    }

    fn approx_bytes(&self) -> usize {
        TripletStore::approx_bytes(self)
    }

    fn insert_raw(&mut self, key: TripletKey, entry: TripletEntry) {
        TripletStore::insert_raw(self, key, entry);
    }

    fn clear(&mut self) {
        TripletStore::clear(self);
    }

    fn entries(&self) -> Vec<(TripletKey, TripletEntry)> {
        self.iter().map(|(k, e)| (*k, e.clone())).collect()
    }

    fn backend_name(&self) -> &'static str {
        "in_memory"
    }
}

/// One request to a remote greylist store (qdgrey/redis-style verbs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreRequest {
    /// Advance the state machine for a key (the hot-path verb).
    Touch {
        /// Key under test.
        key: TripletKey,
        /// Greylist delay the entry must out-wait.
        delay: SimDuration,
    },
    /// Sweep expired entries.
    Purge,
    /// Report entry count.
    Size,
}

/// The store's reply to one [`StoreRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreReply {
    /// Outcome of a `Touch`.
    Verdict(Touch),
    /// Entries dropped by a `Purge`.
    Purged(usize),
    /// Current entry count.
    Size(usize),
    /// The store is inside a fault window; no answer.
    Unavailable,
}

/// One completed request–reply exchange, with virtual-time bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreExchange {
    /// When the MTA sent the request.
    pub sent: SimTime,
    /// When the reply arrived back (send time + lookup latency).
    pub replied: SimTime,
    /// The store's answer.
    pub reply: StoreReply,
}

/// A network greylist store (qdgrey, redis) spoken to over
/// [`StoreRequest`]/[`StoreReply`] with virtual-time lookup latency.
///
/// Requests carry the MTA's send-time clock and the store evaluates state
/// against it, so lookup latency delays *replies*, never observations —
/// decisions stay identical to the in-process backends (the store
/// contract). Latency is accounted in the `greylist.backend.latency_us`
/// gauge; fault windows make exchanges return
/// [`StoreReply::Unavailable`], which the engine surfaces as
/// [`StoreUnavailable`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoteStore {
    inner: TripletStore,
    rtt: SimDuration,
    #[serde(default)]
    outages: Vec<(SimTime, SimTime)>,
    #[serde(default)]
    slowdowns: Vec<(SimDuration, SimTime, SimTime)>,
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
            slowdowns: Vec::new(),
            ops: 0,
            unavailable: 0,
            latency_us: 0,
        }
    }

    /// Replaces the backing [`TripletStore`] (e.g. a capacity-bounded one).
    pub fn with_store(mut self, store: TripletStore) -> Self {
        self.inner = store;
        self
    }

    /// Configured round-trip lookup latency.
    pub fn rtt(&self) -> SimDuration {
        self.rtt
    }

    /// Installs fault windows: `outages` are half-open `[from, until)`
    /// spans where every exchange fails; `slowdowns` add
    /// `(extra_latency, from, until)` spans where lookups answer late.
    pub fn set_fault_windows(
        &mut self,
        outages: Vec<(SimTime, SimTime)>,
        slowdowns: Vec<(SimDuration, SimTime, SimTime)>,
    ) {
        self.outages = outages;
        self.slowdowns = slowdowns;
    }

    /// Requests answered so far (excluding failed ones).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Requests that fell into an outage window.
    pub fn unavailable(&self) -> u64 {
        self.unavailable
    }

    /// Total virtual-time lookup latency paid, in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.latency_us
    }

    fn down_at(&self, now: SimTime) -> bool {
        self.outages.iter().any(|&(from, until)| now >= from && now < until)
    }

    fn latency_at(&self, now: SimTime) -> SimDuration {
        let mut lat = self.rtt;
        for &(extra, from, until) in &self.slowdowns {
            if now >= from && now < until {
                lat += extra;
            }
        }
        lat
    }

    /// Performs one request–reply exchange, `sent` being the MTA's clock
    /// when the request left. The reply lands at `sent + lookup latency`.
    pub fn exchange(&mut self, request: StoreRequest, sent: SimTime) -> StoreExchange {
        let latency = self.latency_at(sent);
        let replied = sent + latency;
        if self.down_at(sent) {
            self.unavailable += 1;
            return StoreExchange { sent, replied, reply: StoreReply::Unavailable };
        }
        self.ops += 1;
        self.latency_us += latency.as_micros();
        let reply = match request {
            StoreRequest::Touch { key, delay } => {
                StoreReply::Verdict(touch_store(&mut self.inner, key, sent, delay))
            }
            StoreRequest::Purge => {
                StoreReply::Purged(TripletStore::purge_expired(&mut self.inner, sent))
            }
            StoreRequest::Size => StoreReply::Size(self.inner.len()),
        };
        StoreExchange { sent, replied, reply }
    }
}

impl GreylistStore for RemoteStore {
    fn touch(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<Touch, StoreUnavailable> {
        match self.exchange(StoreRequest::Touch { key, delay }, now).reply {
            StoreReply::Verdict(touch) => Ok(touch),
            _ => Err(StoreUnavailable),
        }
    }

    fn purge_expired(&mut self, now: SimTime) -> usize {
        match self.exchange(StoreRequest::Purge, now).reply {
            StoreReply::Purged(n) => n,
            _ => 0,
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn count_state(&self, state: EntryState) -> usize {
        TripletStore::count_state(&self.inner, state)
    }

    fn evictions(&self) -> u64 {
        TripletStore::evictions(&self.inner)
    }

    fn approx_bytes(&self) -> usize {
        TripletStore::approx_bytes(&self.inner)
    }

    fn insert_raw(&mut self, key: TripletKey, entry: TripletEntry) {
        TripletStore::insert_raw(&mut self.inner, key, entry);
    }

    fn clear(&mut self) {
        TripletStore::clear(&mut self.inner);
    }

    fn entries(&self) -> Vec<(TripletKey, TripletEntry)> {
        self.inner.iter().map(|(k, e)| (*k, e.clone())).collect()
    }

    fn backend_name(&self) -> &'static str {
        "remote"
    }
}

/// The concrete backend behind a `Greylist` engine.
///
/// An enum (rather than a generic parameter) so `Greylist` stays a plain
/// serde-snapshottable value and existing call sites compile unchanged;
/// the [`GreylistStore`] impl dispatches to the active variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StoreBackend {
    /// In-process BTree store (the paper's configuration; the default).
    InMemory(TripletStore),
    /// Network store with lookup latency and fault windows.
    Remote(RemoteStore),
}

impl Default for StoreBackend {
    fn default() -> Self {
        StoreBackend::InMemory(TripletStore::default())
    }
}

macro_rules! each_backend {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            StoreBackend::InMemory($s) => $body,
            StoreBackend::Remote($s) => $body,
        }
    };
}

impl StoreBackend {
    /// Number of stored entries (including not-yet-swept stale ones).
    pub fn len(&self) -> usize {
        each_backend!(self, s => GreylistStore::len(s))
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        each_backend!(self, s => GreylistStore::evictions(s))
    }

    /// Counts entries currently in `state`.
    pub fn count_state(&self, state: EntryState) -> usize {
        each_backend!(self, s => GreylistStore::count_state(s, state))
    }

    /// Approximate resident bytes of key+entry data.
    pub fn approx_bytes(&self) -> usize {
        each_backend!(self, s => GreylistStore::approx_bytes(s))
    }

    /// All (possibly stale) entries, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (TripletKey, TripletEntry)> {
        self.entries().into_iter()
    }

    /// Stable backend slug for tables and metric labels.
    pub fn name(&self) -> &'static str {
        each_backend!(self, s => GreylistStore::backend_name(s))
    }

    /// The remote store, if that is the active backend.
    pub fn as_remote(&self) -> Option<&RemoteStore> {
        match self {
            StoreBackend::Remote(r) => Some(r),
            _ => None,
        }
    }

    /// Touches `key` bypassing the remote exchange protocol (no fault
    /// windows, no latency/ops accounting). WAL replay reconstructs local
    /// durable state at restart and must not be subject to network
    /// weather; the state mutation is identical to the live path because
    /// [`touch_store`] is the only state machine.
    pub(crate) fn touch_direct(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Touch {
        match self {
            StoreBackend::InMemory(s) => touch_store(s, key, now, delay),
            StoreBackend::Remote(r) => touch_store(&mut r.inner, key, now, delay),
        }
    }

    /// Sweeps expired entries bypassing the remote exchange protocol (WAL
    /// replay of a maintenance record).
    pub(crate) fn purge_direct(&mut self, now: SimTime) -> usize {
        match self {
            StoreBackend::InMemory(s) => TripletStore::purge_expired(s, now),
            StoreBackend::Remote(r) => TripletStore::purge_expired(&mut r.inner, now),
        }
    }
}

impl GreylistStore for StoreBackend {
    fn touch(
        &mut self,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Result<Touch, StoreUnavailable> {
        each_backend!(self, s => s.touch(key, now, delay))
    }

    fn purge_expired(&mut self, now: SimTime) -> usize {
        each_backend!(self, s => GreylistStore::purge_expired(s, now))
    }

    fn len(&self) -> usize {
        StoreBackend::len(self)
    }

    fn count_state(&self, state: EntryState) -> usize {
        StoreBackend::count_state(self, state)
    }

    fn evictions(&self) -> u64 {
        StoreBackend::evictions(self)
    }

    fn approx_bytes(&self) -> usize {
        StoreBackend::approx_bytes(self)
    }

    fn insert_raw(&mut self, key: TripletKey, entry: TripletEntry) {
        each_backend!(self, s => GreylistStore::insert_raw(s, key, entry));
    }

    fn clear(&mut self) {
        each_backend!(self, s => GreylistStore::clear(s));
    }

    fn entries(&self) -> Vec<(TripletKey, TripletEntry)> {
        each_backend!(self, s => GreylistStore::entries(s))
    }

    fn backend_name(&self) -> &'static str {
        self.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

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

    fn backends() -> Vec<StoreBackend> {
        vec![
            StoreBackend::InMemory(TripletStore::new()),
            StoreBackend::Remote(RemoteStore::new(SimDuration::from_millis(2))),
        ]
    }

    /// The store contract: the same decision sequence produces the same
    /// decisions on every backend, and aggregate views agree.
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
        for mut backend in backends() {
            let got: Vec<Touch> = script
                .iter()
                .map(|&(k, at)| backend.touch(key(k), t(at), delay).expect("no faults installed"))
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
        for mut backend in backends() {
            for k in 1..=8u8 {
                let _ = backend.touch(key(k), t(u64::from(k) * 10), delay);
            }
            let swept =
                GreylistStore::purge_expired(&mut backend, t(10) + SimDuration::from_days(30));
            assert_eq!(swept, 8, "{}: all pending entries were stale", backend.name());
            for k in 1..=4u8 {
                let _ = backend.touch(key(k), t(1_000_000 + u64::from(k)), delay);
            }
            views.push(backend.entries());
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
            for mut backend in backends() {
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

    #[test]
    fn remote_outage_window_fails_lookups() {
        let mut r = RemoteStore::new(SimDuration::from_millis(2));
        r.set_fault_windows(vec![(t(100), t(200))], Vec::new());
        let delay = SimDuration::from_secs(300);
        assert!(r.touch(key(1), t(50), delay).is_ok());
        assert_eq!(r.touch(key(1), t(150), delay), Err(StoreUnavailable));
        // Half-open window: the upper bound is back in service.
        assert!(r.touch(key(1), t(200), delay).is_ok());
        assert_eq!(r.unavailable(), 1);
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn remote_latency_is_accounted_not_observed() {
        let rtt = SimDuration::from_millis(4);
        let mut r = RemoteStore::new(rtt);
        let x = r.exchange(
            StoreRequest::Touch { key: key(1), delay: SimDuration::from_secs(300) },
            t(10),
        );
        assert_eq!(x.replied, t(10) + rtt, "reply lands one rtt after send");
        assert_eq!(r.latency_us(), rtt.as_micros());
        // Slowdown windows stretch the reply, not the decision clock.
        r.set_fault_windows(Vec::new(), vec![(SimDuration::from_millis(20), t(0), t(1_000))]);
        let x = r.exchange(StoreRequest::Size, t(20));
        assert_eq!(x.replied, t(20) + rtt + SimDuration::from_millis(20));
        assert_eq!(x.reply, StoreReply::Size(1));
    }

    #[test]
    fn remote_purge_and_size_verbs() {
        let mut r = RemoteStore::new(SimDuration::from_millis(2));
        let delay = SimDuration::from_secs(300);
        let _ = r.touch(key(1), t(0), delay);
        let _ = r.touch(key(2), t(0), delay);
        assert_eq!(r.exchange(StoreRequest::Size, t(1)).reply, StoreReply::Size(2));
        let late = t(0) + SimDuration::from_days(30);
        assert_eq!(r.exchange(StoreRequest::Purge, late).reply, StoreReply::Purged(2));
        assert_eq!(r.exchange(StoreRequest::Size, late).reply, StoreReply::Size(0));
    }

    #[test]
    fn clear_drops_entries_but_keeps_shape() {
        let delay = SimDuration::from_secs(300);
        for mut backend in backends() {
            for k in 1..=6u8 {
                let _ = backend.touch(key(k), t(0), delay);
            }
            assert_eq!(GreylistStore::len(&backend), 6, "{}", backend.name());
            GreylistStore::clear(&mut backend);
            assert!(backend.is_empty(), "{}: clear must drop everything", backend.name());
            // The cleared store works again from scratch.
            assert_eq!(backend.touch(key(1), t(500), delay), Ok(Touch::New { restarted: false }));
        }
        // A remote store's fault windows and counters survive the clear.
        let mut r = RemoteStore::new(SimDuration::from_millis(2));
        r.set_fault_windows(vec![(t(100), t(200))], Vec::new());
        let _ = r.touch(key(1), t(150), delay);
        assert_eq!(r.unavailable(), 1);
        GreylistStore::clear(&mut r);
        assert_eq!(r.unavailable(), 1, "counters are cumulative across restarts");
        assert_eq!(r.touch(key(1), t(150), delay), Err(StoreUnavailable), "windows survive");
    }

    #[test]
    fn touch_direct_matches_live_path_and_ignores_outages() {
        let delay = SimDuration::from_secs(300);
        for backend in backends() {
            let mut live = backend.clone();
            let mut direct = backend;
            let script = [(1u8, 0u64), (1, 100), (2, 150), (1, 301), (1, 400)];
            for &(k, at) in &script {
                let a = live.touch(key(k), t(at), delay).unwrap();
                let b = direct.touch_direct(key(k), t(at), delay);
                assert_eq!(a, b, "{}: direct path diverged", direct.name());
            }
            assert_eq!(live.entries(), direct.entries());
        }
        // Inside an outage window the exchange path fails but the direct
        // (replay) path still applies — and pays no protocol accounting.
        let mut r = RemoteStore::new(SimDuration::from_millis(2));
        r.set_fault_windows(vec![(t(0), t(1_000))], Vec::new());
        let mut b = StoreBackend::Remote(r);
        assert_eq!(GreylistStore::touch(&mut b, key(1), t(10), delay), Err(StoreUnavailable));
        assert_eq!(b.touch_direct(key(1), t(10), delay), Touch::New { restarted: false });
        let r = b.as_remote().unwrap();
        assert_eq!(r.ops(), 0, "replay must not count as protocol traffic");
        assert_eq!(r.latency_us(), 0);
    }

    #[test]
    fn backend_names_and_bytes_gauge() {
        for backend in backends() {
            assert!(backend.is_empty());
            assert_eq!(backend.approx_bytes(), 0);
        }
        let mut b = StoreBackend::default();
        assert_eq!(b.name(), "in_memory");
        let _ = b.touch(key(1), t(0), SimDuration::from_secs(300));
        assert!(b.approx_bytes() > 0, "occupied store must report bytes");
    }
}
