//! The triplet store: state, expiry and (optional) capacity bounds.

use crate::backend::Touch;
use crate::triplet::TripletKey;
use spamward_sim::{SimDuration, SimTime};
use std::collections::btree_map::{BTreeMap, Entry};

/// Lifecycle state of a triplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// First seen; retries before the delay elapse keep it here.
    Pending,
    /// The delay elapsed and a retry arrived; mail flows freely.
    Passed,
}

/// One tracked triplet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripletEntry {
    /// When the triplet was first seen (the greylist clock starts here).
    pub first_seen: SimTime,
    /// Most recent activity (used for expiry and LRU eviction).
    pub last_seen: SimTime,
    /// Total connection attempts charged to this triplet.
    pub attempts: u32,
    /// Current lifecycle state.
    pub state: EntryState,
}

impl TripletEntry {
    /// Whether the entry is still live at `now`: idle no longer than the
    /// lifetime of its state. A clock behind `last_seen` counts as no idle
    /// time.
    fn is_live(&self, now: SimTime, pending: SimDuration, passed: SimDuration) -> bool {
        let lifetime = match self.state {
            EntryState::Pending => pending,
            EntryState::Passed => passed,
        };
        now.checked_elapsed_since(self.last_seen).is_none_or(|idle| idle <= lifetime)
    }

    /// Charges a retry at `now` to a live entry: a pending entry that has
    /// out-waited `delay` since it was first seen passes, an earlier one
    /// waits on.
    fn retry(&mut self, now: SimTime, delay: SimDuration) -> Touch {
        self.attempts += 1;
        self.last_seen = now;
        match self.state {
            EntryState::Passed => Touch::Known,
            EntryState::Pending => {
                // Sessions carry per-connection latency offsets, so two
                // logically-concurrent checks can arrive with slightly
                // out-of-order clocks; saturate to zero.
                let waited =
                    now.checked_elapsed_since(self.first_seen).unwrap_or(SimDuration::ZERO);
                if waited >= delay {
                    self.state = EntryState::Passed;
                    Touch::Matured
                } else {
                    Touch::Early { remaining: delay - waited }
                }
            }
        }
    }
}

/// The in-memory triplet database.
///
/// Expiry is lazy — [`TripletStore::touch`] restarts a stale entry as if
/// it were absent — plus an explicit [`TripletStore::purge_expired`] sweep
/// that a deployment would run periodically. An optional capacity bound
/// evicts the least-recently-seen entries, the ablation knob for the "disk
/// space and computation resources" cost the paper's §VI mentions.
#[derive(Debug, Clone)]
pub struct TripletStore {
    entries: BTreeMap<TripletKey, TripletEntry>,
    /// Maximum live entries; `None` = unbounded.
    pub capacity: Option<usize>,
    /// Pending entries older than this are treated as new again.
    pub pending_lifetime: SimDuration,
    /// Passed entries idle longer than this are forgotten.
    pub passed_lifetime: SimDuration,
    evictions: u64,
}

impl Default for TripletStore {
    /// Same as [`TripletStore::new`]. (A derived default would zero the
    /// lifetimes, silently expiring every entry on arrival.)
    fn default() -> Self {
        TripletStore::new()
    }
}

impl TripletStore {
    /// Postgrey-like defaults: pending entries live 2 days, passed entries
    /// 35 days, unbounded capacity.
    pub fn new() -> Self {
        TripletStore {
            entries: BTreeMap::new(),
            capacity: None,
            pending_lifetime: SimDuration::from_days(2),
            passed_lifetime: SimDuration::from_days(35),
            evictions: 0,
        }
    }

    /// Caps the store at `capacity` live entries (LRU eviction).
    pub fn with_capacity_bound(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Number of stored entries (including not-yet-swept stale ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate resident bytes of key+entry data. Keys are compact
    /// digests ([`crate::KeyAtom`]), so this is a flat per-entry cost —
    /// the `greylist.store.bytes` gauge backends report.
    pub fn approx_bytes(&self) -> usize {
        self.entries.len()
            * (std::mem::size_of::<TripletKey>() + std::mem::size_of::<TripletEntry>())
    }

    /// Applies one check of `key` at `now`: the pending/passed state
    /// machine under the greylisting `delay`, in one map lookup.
    ///
    /// A missing or stale entry starts over as a fresh pending entry. A
    /// capacity-bounded store that has no room for it first evicts its
    /// least recently seen entries (ties in key order); only that path
    /// looks the key up a second time.
    pub fn touch(&mut self, key: TripletKey, now: SimTime, delay: SimDuration) -> Touch {
        let fresh = TripletEntry {
            first_seen: now,
            last_seen: now,
            attempts: 1,
            state: EntryState::Pending,
        };
        let len = self.entries.len();
        let (pending, passed) = (self.pending_lifetime, self.passed_lifetime);
        let restarted = match self.entries.entry(key) {
            Entry::Vacant(slot) => {
                if self.capacity.is_none_or(|cap| len < cap) {
                    slot.insert(fresh);
                    return Touch::New { restarted: false };
                }
                false
            }
            Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                if entry.is_live(now, pending, passed) {
                    return entry.retry(now, delay);
                }
                // Dropping the stale entry frees its slot, so it restarts in
                // place unless the store is above its bound even without it
                // (a restore bypasses the bound).
                if self.capacity.is_none_or(|cap| len <= cap) {
                    *entry = fresh;
                    return Touch::New { restarted: true };
                }
                slot.remove();
                true
            }
        };
        if let Some(cap) = self.capacity {
            self.evict_oldest(self.entries.len() + 1 - cap);
        }
        self.entries.insert(key, fresh);
        Touch::New { restarted }
    }

    /// Moves restored entries in, each replacing a held entry with the same
    /// key, bypassing the capacity check — restores happen at startup
    /// before any load. Into an empty store this is a swap.
    pub(crate) fn restore(&mut self, mut restored: BTreeMap<TripletKey, TripletEntry>) {
        self.entries.append(&mut restored);
    }

    /// Drops every entry, as a crash losing the in-memory database would.
    /// Configuration (capacity, lifetimes) and the cumulative eviction
    /// counter survive — they belong to the deployment, not the data.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    fn evict_oldest(&mut self, n: usize) {
        let mut by_age: Vec<(TripletKey, SimTime)> =
            self.entries.iter().map(|(k, e)| (*k, e.last_seen)).collect();
        by_age.sort_by_key(|&(_, t)| t);
        for (key, _) in by_age.into_iter().take(n) {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    /// Removes every expired entry, returning how many were dropped.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        let (pending, passed) = (self.pending_lifetime, self.passed_lifetime);
        self.entries.retain(|_, e| e.is_live(now, pending, passed));
        before - self.entries.len()
    }

    /// Iterates over all (possibly stale) entries.
    pub fn iter(&self) -> impl Iterator<Item = (&TripletKey, &TripletEntry)> {
        self.entries.iter()
    }

    /// Counts entries currently in `state`.
    pub fn count_state(&self, state: EntryState) -> usize {
        self.entries.values().filter(|e| e.state == state).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

    fn key(d: u8) -> TripletKey {
        TripletKey::new(
            Ipv4Addr::new(10, 0, 0, d),
            &ReversePath::Null,
            &format!("u{d}@foo.net").parse().unwrap(),
            32,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    const DELAY: SimDuration = SimDuration::from_secs(300);

    /// The entry `key` holds, stale or not.
    fn entry(s: &TripletStore, key: TripletKey) -> Option<&TripletEntry> {
        s.entries.get(&key)
    }

    #[test]
    fn first_touch_creates_a_pending_entry() {
        let mut s = TripletStore::new();
        assert_eq!(s.touch(key(1), t(100), DELAY), Touch::New { restarted: false });
        let e = entry(&s, key(1)).unwrap();
        assert_eq!(e.state, EntryState::Pending);
        assert_eq!((e.first_seen, e.last_seen, e.attempts), (t(100), t(100), 1));
        assert!(entry(&s, key(2)).is_none());
    }

    #[test]
    fn pending_expiry_is_lazy_and_swept() {
        let mut s = TripletStore::new();
        s.touch(key(1), t(0), DELAY);
        s.touch(key(2), t(0), DELAY);
        let idle_past = t(0) + s.pending_lifetime + SimDuration::from_secs(1);
        assert_eq!(s.len(), 2, "lazy expiry leaves stale entries in place");
        let restarted = s.touch(key(1), idle_past, DELAY);
        assert_eq!(restarted, Touch::New { restarted: true }, "a stale entry reads as absent");
        let e = entry(&s, key(1)).unwrap();
        assert_eq!((e.first_seen, e.attempts), (idle_past, 1), "the clock restarts");
        assert_eq!(s.purge_expired(idle_past), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn passed_entries_live_longer() {
        let mut s = TripletStore::new();
        s.touch(key(1), t(0), DELAY);
        assert_eq!(s.touch(key(1), t(300), DELAY), Touch::Matured);
        let after_pending_lifetime = t(300) + SimDuration::from_days(3);
        assert_eq!(s.touch(key(1), after_pending_lifetime, DELAY), Touch::Known);
        let after_passed_lifetime = after_pending_lifetime + SimDuration::from_days(36);
        let late = s.touch(key(1), after_passed_lifetime, DELAY);
        assert_eq!(late, Touch::New { restarted: true });
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let mut s = TripletStore::new().with_capacity_bound(3);
        s.touch(key(1), t(10), DELAY);
        s.touch(key(2), t(20), DELAY);
        s.touch(key(3), t(30), DELAY);
        s.touch(key(1), t(35), DELAY); // key(2) is now the least recently seen
        s.touch(key(4), t(40), DELAY); // evicts key(2)
        assert_eq!(s.len(), 3);
        assert_eq!(s.evictions(), 1);
        assert!(entry(&s, key(2)).is_none());
        assert!(entry(&s, key(1)).is_some() && entry(&s, key(4)).is_some());
    }

    #[test]
    fn touching_a_held_key_does_not_evict() {
        let mut s = TripletStore::new().with_capacity_bound(2);
        s.touch(key(1), t(10), DELAY);
        s.touch(key(2), t(20), DELAY);
        assert_eq!(
            s.touch(key(1), t(30), DELAY),
            Touch::Early { remaining: SimDuration::from_secs(280) }
        );
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn a_passed_entry_is_never_reset() {
        let mut s = TripletStore::new();
        s.touch(key(1), t(0), DELAY);
        s.touch(key(1), t(400), DELAY);
        assert_eq!(s.touch(key(1), t(500), DELAY), Touch::Known);
        let e = entry(&s, key(1)).unwrap();
        assert_eq!(e.state, EntryState::Passed, "an existing entry must not be reset");
        assert_eq!((e.first_seen, e.last_seen, e.attempts), (t(0), t(500), 3));
    }

    #[test]
    fn count_state_and_iter() {
        let mut s = TripletStore::new();
        s.touch(key(1), t(0), DELAY);
        s.touch(key(2), t(0), DELAY);
        s.touch(key(2), t(300), DELAY);
        assert_eq!(s.count_state(EntryState::Pending), 1);
        assert_eq!(s.count_state(EntryState::Passed), 1);
        let keys: Vec<TripletKey> = s.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 2);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "iter() must be key-sorted");
    }

    /// The four-lookup state machine `touch` replaced, kept as its oracle:
    /// `contains`, then `get` (and `remove` when stale), then `get_mut`,
    /// then `entry` behind an LRU eviction of the oldest `last_seen`s.
    fn oracle_touch(
        s: &mut TripletStore,
        key: TripletKey,
        now: SimTime,
        delay: SimDuration,
    ) -> Touch {
        let existed = s.entries.contains_key(&key);
        if let Some(e) = s.entries.get(&key) {
            let lifetime = match e.state {
                EntryState::Pending => s.pending_lifetime,
                EntryState::Passed => s.passed_lifetime,
            };
            if now.checked_elapsed_since(e.last_seen).is_some_and(|idle| idle > lifetime) {
                s.entries.remove(&key);
            }
        }
        if let Some(entry) = s.entries.get_mut(&key) {
            entry.attempts += 1;
            entry.last_seen = now;
            return match entry.state {
                EntryState::Passed => Touch::Known,
                EntryState::Pending => {
                    let waited =
                        now.checked_elapsed_since(entry.first_seen).unwrap_or(SimDuration::ZERO);
                    if waited >= delay {
                        entry.state = EntryState::Passed;
                        Touch::Matured
                    } else {
                        Touch::Early { remaining: delay - waited }
                    }
                }
            };
        }
        if let Some(cap) = s.capacity {
            if s.entries.len() >= cap {
                let mut by_age: Vec<(TripletKey, SimTime)> =
                    s.entries.iter().map(|(k, e)| (*k, e.last_seen)).collect();
                by_age.sort_by_key(|&(_, t)| t);
                for (victim, _) in by_age.into_iter().take(s.entries.len() + 1 - cap) {
                    s.entries.remove(&victim);
                    s.evictions += 1;
                }
            }
        }
        let fresh = TripletEntry {
            first_seen: now,
            last_seen: now,
            attempts: 1,
            state: EntryState::Pending,
        };
        s.entries.insert(key, fresh);
        Touch::New { restarted: existed }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// `touch` gives the oracle's `Touch` sequence, entries and
        /// evictions over arbitrary `(key, now)` streams — in or out of
        /// clock order, with or without a capacity bound, and from a store
        /// restored above its bound (restore bypasses the capacity check).
        #[test]
        fn prop_touch_matches_the_four_lookup_oracle(
            stream in proptest::collection::vec((0u8..12, 0u64..20_000), 1..60),
            sorted in proptest::bool::ANY,
            cap in 0usize..6,
            restored in proptest::collection::vec((0u8..12, 0u64..20_000, 0u64..600, proptest::bool::ANY), 0..10),
        ) {
            let delay = SimDuration::from_secs(300);
            let mut store = TripletStore::new();
            store.pending_lifetime = SimDuration::from_secs(1_000);
            store.passed_lifetime = SimDuration::from_secs(5_000);
            if cap > 0 {
                store = store.with_capacity_bound(cap);
            }
            store.restore(
                restored
                    .iter()
                    .map(|&(k, first, idle, passed)| {
                        let state = if passed { EntryState::Passed } else { EntryState::Pending };
                        let entry = TripletEntry {
                            first_seen: t(first),
                            last_seen: t(first + idle),
                            attempts: 1,
                            state,
                        };
                        (key(k), entry)
                    })
                    .collect(),
            );
            let mut stream = stream;
            if sorted {
                stream.sort_by_key(|&(_, at)| at);
            }
            let (mut live, mut oracle) = (store.clone(), store);
            for &(k, at) in &stream {
                let got = live.touch(key(k), t(at), delay);
                let want = oracle_touch(&mut oracle, key(k), t(at), delay);
                proptest::prop_assert_eq!(got, want);
            }
            let entries = |s: &TripletStore| -> Vec<(TripletKey, TripletEntry)> {
                s.iter().map(|(k, e)| (*k, e.clone())).collect()
            };
            proptest::prop_assert_eq!(entries(&live), entries(&oracle));
            proptest::prop_assert_eq!(live.evictions(), oracle.evictions());
        }
    }
}
