//! Greylist state persistence.
//!
//! Postgrey keeps its triplet database on disk so that a mail-server
//! restart does not re-greylist the world (which would re-delay every
//! correspondent — the §VI cost argument squared). This module provides a
//! versioned, line-oriented text snapshot of the full engine state:
//! triplets, their clocks and the auto-whitelist counters.
//!
//! Format (one record per line, whitespace-separated):
//!
//! ```text
//! spamward-greylist-v2
//! T <client_net_hex> <sender_atom_hex|<>> <recipient_atom_hex> <first_us> <last_us> <attempts> <P|A>
//! W <client_net_hex> <passes>
//! ```
//!
//! Sender and recipient are the compact [`crate::KeyAtom`] digests, so no
//! address is stored. Restore reads this one version; any other header is
//! rejected.
//!
//! Alongside the snapshot lives a write-ahead log ([`GreylistWal`]): the
//! store mutations since the last checkpoint, held as typed records so a
//! check formats nothing, and rendered as text only when read.
//! Snapshot-restore plus WAL-replay ([`Greylist::replay_wal`])
//! reconstructs the pre-crash engine exactly — the `SnapshotPlusWal`
//! durability mode of [`DurabilityMode`].

use crate::policy::Greylist;
use crate::store::{EntryState, TripletEntry};
use crate::triplet::{KeyAtom, TripletKey};
use spamward_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// Error restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or unknown header line.
    BadHeader,
    /// A record line did not parse (1-based line number included).
    BadRecord(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadHeader => write!(f, "missing or unsupported snapshot header"),
            SnapshotError::BadRecord(n) => write!(f, "malformed snapshot record on line {n}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const HEADER: &str = "spamward-greylist-v2";
const HEADER_WAL: &str = "spamward-greylist-wal-v1";

/// The empty-sender placeholder (the null reverse path `<>`).
const NULL_SENDER: &str = "<>";

/// Bytes reserved per rendered line; the longest line, a `T` line with
/// 20-digit clocks and a 10-digit attempt count, is 100 bytes.
const LINE_CAPACITY: usize = 100;

/// How greylist state survives a crash–restart of the hosting MTA.
///
/// The paper's §VI cost argument says greylisting taxes every *new*
/// correspondent; what a restart forgets, it re-taxes. This knob is the
/// `recovery` experiment's principal axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Nothing persists: a restart re-greylists the world.
    Volatile,
    /// Restore the last periodic checkpoint, losing the tail since it.
    Snapshot,
    /// Replay the write-ahead log over the checkpoint, losing nothing.
    SnapshotPlusWal,
}

impl Default for DurabilityMode {
    /// In-memory stores persist nothing unless told to.
    fn default() -> Self {
        DurabilityMode::Volatile
    }
}

impl DurabilityMode {
    /// Stable slug for report rows and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            DurabilityMode::Volatile => "volatile",
            DurabilityMode::Snapshot => "snapshot",
            DurabilityMode::SnapshotPlusWal => "snapshot_wal",
        }
    }

    /// All modes, weakest durability first (sweep order).
    pub fn all() -> [DurabilityMode; 3] {
        [DurabilityMode::Volatile, DurabilityMode::Snapshot, DurabilityMode::SnapshotPlusWal]
    }

    /// Whether restarts restore the last checkpoint.
    pub fn restores_checkpoint(self) -> bool {
        !matches!(self, DurabilityMode::Volatile)
    }

    /// Whether a write-ahead log is kept and replayed.
    pub fn keeps_wal(self) -> bool {
        matches!(self, DurabilityMode::SnapshotPlusWal)
    }
}

/// An append-only write-ahead log of store mutations since the last
/// checkpoint.
///
/// The log holds typed records, so appending one formats nothing.
/// [`GreylistWal::text`] renders the edge format on its first read after
/// an append and keeps the text until the next one (one record per line,
/// whitespace-separated):
///
/// ```text
/// spamward-greylist-wal-v1
/// C <now_us> <client_net_hex> <sender_atom_hex|<>> <recipient_atom_hex> <awl_net_hex>
/// M <now_us>
/// ```
///
/// `C` is one store touch (plus the auto-whitelist network a maturing
/// pass credits — recorded explicitly because the key policy may mask the
/// key's client part differently), `M` one maintenance sweep. Replaying
/// the text over a restored checkpoint ([`Greylist::replay_wal`]) re-runs
/// the same state machine the live engine ran, so `SnapshotPlusWal`
/// recovery is exact. A truncated *final* record — the torn write a crash
/// mid-append leaves — is skipped deterministically and counted;
/// corruption anywhere else is a [`SnapshotError::BadRecord`].
#[derive(Debug, Clone, Default)]
pub struct GreylistWal {
    records: Vec<WalRecord>,
    /// The text form, rendered on the first read after an append.
    text: OnceLock<String>,
}

impl GreylistWal {
    /// An empty log (header only).
    pub fn new() -> Self {
        GreylistWal::default()
    }

    /// The log text, replayable via [`Greylist::replay_wal`]; rendered on
    /// the first read after an append.
    pub fn text(&self) -> &str {
        self.text.get_or_init(|| {
            let mut out = String::with_capacity((1 + self.records.len()) * LINE_CAPACITY);
            out.push_str(HEADER_WAL);
            out.push('\n');
            for record in &self.records {
                // Writing to a `String` never fails.
                let _ = match *record {
                    WalRecord::Touch { now, key, awl_net } => writeln!(
                        out,
                        "C {} {:08x} {} {} {awl_net:08x}",
                        now.as_micros(),
                        key.client_net,
                        sender_field(&key.sender),
                        key.recipient,
                    ),
                    WalRecord::Maintain { now } => writeln!(out, "M {}", now.as_micros()),
                };
            }
            out
        })
    }

    /// Records appended since the last [`GreylistWal::clear`].
    pub fn records(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops every record (after a checkpoint).
    pub fn clear(&mut self) {
        self.records.clear();
        self.text.take();
    }

    /// Appends one record.
    pub(crate) fn append(&mut self, record: WalRecord) {
        self.records.push(record);
        self.text.take();
    }
}

/// What a [`Greylist::replay_wal`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Records re-applied to the store.
    pub applied: u64,
    /// Torn final records skipped (0 or 1).
    pub torn_skipped: u64,
}

/// One WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A store touch.
    Touch {
        /// Virtual time of the original check.
        now: SimTime,
        /// The touched key.
        key: TripletKey,
        /// Auto-whitelist network a maturing pass credits.
        awl_net: u32,
    },
    /// A maintenance sweep.
    Maintain {
        /// Virtual time of the sweep.
        now: SimTime,
    },
}

fn parse_wal_record(line: &str) -> Option<WalRecord> {
    let mut parts = line.split_whitespace();
    let tag = parts.next()?;
    let now = SimTime::from_micros(parts.next()?.parse().ok()?);
    let record = match tag {
        "C" => {
            let client_net = u32::from_str_radix(parts.next()?, 16).ok()?;
            let sender = parse_atom(parts.next()?)?;
            let recipient = parse_atom(parts.next()?)?;
            let awl_net = u32::from_str_radix(parts.next()?, 16).ok()?;
            WalRecord::Touch { now, key: TripletKey { client_net, sender, recipient }, awl_net }
        }
        "M" => WalRecord::Maintain { now },
        _ => return None,
    };
    // Trailing fields mean the line is not a record of this version.
    if parts.next().is_some() {
        return None;
    }
    Some(record)
}

/// One parsed snapshot record.
enum SnapshotRecord {
    /// A `T` line: one store entry.
    Triplet(TripletKey, TripletEntry),
    /// A `W` line: one auto-whitelist counter.
    Awl(u32, u32),
}

fn parse_snapshot_record(line: &str) -> Option<SnapshotRecord> {
    let mut parts = line.split_whitespace();
    match parts.next()? {
        "T" => {
            let client_net = u32::from_str_radix(parts.next()?, 16).ok()?;
            let sender = parse_atom(parts.next()?)?;
            let recipient = parse_atom(parts.next()?)?;
            let first: u64 = parts.next()?.parse().ok()?;
            let last: u64 = parts.next()?.parse().ok()?;
            let attempts: u32 = parts.next()?.parse().ok()?;
            let state = match parts.next()? {
                "P" => EntryState::Pending,
                "A" => EntryState::Passed,
                _ => return None,
            };
            if last < first {
                return None;
            }
            let entry = TripletEntry {
                first_seen: SimTime::from_micros(first),
                last_seen: SimTime::from_micros(last),
                attempts,
                state,
            };
            Some(SnapshotRecord::Triplet(TripletKey { client_net, sender, recipient }, entry))
        }
        "W" => {
            let net = u32::from_str_radix(parts.next()?, 16).ok()?;
            Some(SnapshotRecord::Awl(net, parts.next()?.parse().ok()?))
        }
        _ => None,
    }
}

/// Whether a trimmed line is blank or a comment (neither is a record).
fn skipped(line: &str) -> bool {
    line.is_empty() || line.starts_with('#')
}

/// A sender or recipient field: a [`KeyAtom`] digest in hex, or `<>`.
fn parse_atom(raw: &str) -> Option<KeyAtom> {
    if raw == NULL_SENDER {
        return Some(KeyAtom::EMPTY);
    }
    u64::from_str_radix(raw, 16).ok().map(KeyAtom::from_raw)
}

/// A sender field: `<>` for the null sender, else the digest.
fn sender_field(atom: &KeyAtom) -> &dyn fmt::Display {
    if atom.is_empty() {
        &NULL_SENDER
    } else {
        atom
    }
}

impl Greylist {
    /// Serializes the engine state (triplets + auto-whitelist counters) to
    /// the versioned text format. Configuration is *not* included — it
    /// lives in the server's config file, not its state database.
    pub fn snapshot(&self) -> String {
        let store = self.store();
        let awl = self.awl_counts();
        let mut out = String::with_capacity((1 + store.len() + awl.len()) * LINE_CAPACITY);
        out.push_str(HEADER);
        out.push('\n');
        // `iter()` is already a key-sorted, backend-independent view, so
        // snapshots diff cleanly whatever the backend. Writing to a
        // `String` never fails.
        for (key, entry) in store.iter() {
            let state = match entry.state {
                EntryState::Pending => 'P',
                EntryState::Passed => 'A',
            };
            let _ = writeln!(
                out,
                "T {:08x} {} {} {} {} {} {state}",
                key.client_net,
                sender_field(&key.sender),
                key.recipient,
                entry.first_seen.as_micros(),
                entry.last_seen.as_micros(),
                entry.attempts,
            );
        }
        for (net, passes) in awl {
            let _ = writeln!(out, "W {net:08x} {passes}");
        }
        out
    }

    /// Restores engine state from [`Greylist::snapshot`] text into an
    /// engine configured by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a bad header or malformed record, and
    /// then leaves the engine as it was.
    pub fn restore(&mut self, text: &str) -> Result<(), SnapshotError> {
        let mut lines = text.lines().enumerate();
        if !matches!(lines.next(), Some((_, line)) if line.trim() == HEADER) {
            return Err(SnapshotError::BadHeader);
        }
        // Records are staged and installed only once every line parsed, so
        // a failed restore changes nothing. Each entry lives only in the
        // staging map until it moves into the store.
        let (mut triplets, mut awl_counts) = (BTreeMap::new(), BTreeMap::new());
        for (idx, line) in lines {
            let line = line.trim();
            if skipped(line) {
                continue;
            }
            match parse_snapshot_record(line) {
                Some(SnapshotRecord::Triplet(key, entry)) => {
                    triplets.insert(key, entry);
                }
                Some(SnapshotRecord::Awl(net, passes)) => {
                    awl_counts.insert(net, passes);
                }
                None => return Err(SnapshotError::BadRecord(idx + 1)),
            }
        }
        self.install(triplets, awl_counts);
        Ok(())
    }

    /// Replays [`GreylistWal::text`] over the current state (normally a
    /// just-restored checkpoint), re-running every logged mutation.
    ///
    /// A truncated final record is skipped deterministically and counted
    /// in [`WalReplay::torn_skipped`] — the torn write a crash mid-append
    /// leaves behind.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadHeader`] on a missing or unknown header;
    /// [`SnapshotError::BadRecord`] on a malformed record anywhere but the
    /// final line. The records before it stay applied.
    pub fn replay_wal(&mut self, text: &str) -> Result<WalReplay, SnapshotError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line.trim() == HEADER_WAL => {}
            _ => return Err(SnapshotError::BadHeader),
        }
        let mut outcome = WalReplay::default();
        while let Some((idx, line)) = lines.next() {
            let line = line.trim();
            if skipped(line) {
                continue;
            }
            match parse_wal_record(line) {
                Some(record) => {
                    self.apply_wal(&record);
                    outcome.applied += 1;
                }
                None if lines.clone().all(|(_, rest)| skipped(rest.trim())) => {
                    outcome.torn_skipped += 1;
                }
                None => return Err(SnapshotError::BadRecord(idx + 1)),
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Decision, GreylistConfig, PassReason};
    use spamward_sim::SimDuration;
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

    fn sender(s: &str) -> ReversePath {
        ReversePath::Address(s.parse().unwrap())
    }

    fn populated() -> Greylist {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
        cfg.auto_whitelist_after = Some(2);
        let mut g = Greylist::new(cfg);
        let rcpt = "u@foo.net".parse().unwrap();
        // A passed triplet (two checks), a pending one, and a null-sender
        // one.
        g.check(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(400), Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(500), Ipv4Addr::new(10, 0, 1, 1), &sender("c@d.ee"), &rcpt);
        g.check(SimTime::from_secs(600), Ipv4Addr::new(10, 0, 2, 1), &ReversePath::Null, &rcpt);
        g
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let original = populated();
        let text = original.snapshot();
        assert!(text.starts_with("spamward-greylist-v2\n"));

        let mut restored = Greylist::new(original.config().clone());
        restored.restore(&text).unwrap();
        assert_eq!(restored.store().len(), original.store().len());

        // The passed triplet still passes immediately after restore.
        let rcpt = "u@foo.net".parse().unwrap();
        let d = restored.check(
            SimTime::from_secs(700),
            Ipv4Addr::new(10, 0, 0, 1),
            &sender("a@b.cc"),
            &rcpt,
        );
        assert_eq!(d, Decision::Pass(PassReason::TripletKnown));

        // The pending triplet keeps its original clock: a retry past the
        // delay (relative to the pre-snapshot first_seen) passes.
        let d = restored.check(
            SimTime::from_secs(801),
            Ipv4Addr::new(10, 0, 1, 1),
            &sender("c@d.ee"),
            &rcpt,
        );
        assert!(d.is_pass(), "restored pending triplet lost its clock: {d:?}");
    }

    #[test]
    fn snapshot_is_stable_and_deterministic() {
        let a = populated().snapshot();
        let b = populated().snapshot();
        assert_eq!(a, b);
        // Round-trip through restore+snapshot is a fixed point.
        let mut g = Greylist::new(populated().config().clone());
        g.restore(&a).unwrap();
        assert_eq!(g.snapshot(), a);
    }

    #[test]
    fn null_sender_encoded_as_angle_brackets() {
        let text = populated().snapshot();
        assert!(text.lines().any(|l| l.contains(" <> ")), "{text}");
    }

    #[test]
    fn snapshot_carries_digests_not_addresses() {
        let text = populated().snapshot();
        assert!(!text.contains("a@b.cc"), "addresses must not leak: {text}");
        assert!(!text.contains("u@foo.net"), "addresses must not leak: {text}");
    }

    #[test]
    fn snapshot_restores_across_backends() {
        use crate::backend::{RemoteStore, StoreBackend};
        let original = populated();
        let text = original.snapshot();
        let mut remote = Greylist::new(original.config().clone())
            .with_backend(StoreBackend::Remote(RemoteStore::new(SimDuration::from_millis(2))));
        remote.restore(&text).unwrap();
        assert_eq!(remote.store().len(), original.store().len());
        // The remote engine re-emits the identical bytes: the store's
        // iter() view is backend-independent.
        assert_eq!(remote.snapshot(), text);
    }

    #[test]
    fn awl_counters_survive() {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(10));
        cfg.auto_whitelist_after = Some(1);
        let mut g = Greylist::new(cfg.clone());
        let rcpt = "u@foo.net".parse().unwrap();
        g.check(SimTime::ZERO, Ipv4Addr::new(10, 9, 9, 9), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(10), Ipv4Addr::new(10, 9, 9, 9), &sender("a@b.cc"), &rcpt);

        let mut restored = Greylist::new(cfg);
        restored.restore(&g.snapshot()).unwrap();
        // The client network earned the auto-whitelist before the restart;
        // a brand-new triplet from it must pass straight away.
        let d = restored.check(
            SimTime::from_secs(20),
            Ipv4Addr::new(10, 9, 9, 99),
            &sender("other@b.cc"),
            &rcpt,
        );
        assert_eq!(d, Decision::Pass(PassReason::AutoWhitelisted));
    }

    proptest::proptest! {
        /// Behavioural equivalence: after any interaction history, a
        /// snapshot-restored engine makes the same decision on the next
        /// check as the original would.
        #[test]
        fn prop_snapshot_preserves_next_decision(
            ops in proptest::collection::vec((0u8..8, 0u64..100_000), 1..30),
            probe_ip in 0u8..8,
            probe_at in 100_000u64..200_000,
        ) {
            let cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
            let mut original = Greylist::new(cfg.clone());
            let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
            let mut times: Vec<u64> = ops.iter().map(|&(_, t)| t).collect();
            times.sort_unstable();
            for (&(ip_octet, _), &t) in ops.iter().zip(times.iter()) {
                let ip = Ipv4Addr::new(10, 0, ip_octet, 1);
                let _ = original.check(SimTime::from_secs(t), ip, &sender("a@b.cc"), &rcpt);
            }
            let mut restored = Greylist::new(cfg);
            restored.restore(&original.snapshot()).unwrap();

            let ip = Ipv4Addr::new(10, 0, probe_ip, 1);
            let a = original.check(SimTime::from_secs(probe_at), ip, &sender("a@b.cc"), &rcpt);
            let b = restored.check(SimTime::from_secs(probe_at), ip, &sender("a@b.cc"), &rcpt);
            proptest::prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut g = Greylist::new(GreylistConfig::default());
        assert_eq!(g.restore(""), Err(SnapshotError::BadHeader));
        assert_eq!(g.restore("wrong-header\n"), Err(SnapshotError::BadHeader));
        assert_eq!(
            g.restore("spamward-greylist-v2\nT nothexa 0b 0c 0 0 1 P\n"),
            Err(SnapshotError::BadRecord(2))
        );
        assert_eq!(
            g.restore("spamward-greylist-v2\nT 0a000000 0b notanatom 0 0 1 P\n"),
            Err(SnapshotError::BadRecord(2)),
            "an address where a digest belongs must be rejected"
        );
        assert_eq!(
            g.restore("spamward-greylist-v2\nT 0a000000 0b 0c 5 1 1 P\n"),
            Err(SnapshotError::BadRecord(2)),
            "last_seen before first_seen must be rejected"
        );
        assert_eq!(
            g.restore("spamward-greylist-v2\nX unknown record\n"),
            Err(SnapshotError::BadRecord(2))
        );
        // Comments and blank lines are fine.
        assert_eq!(g.restore("spamward-greylist-v2\n# comment\n\n"), Ok(()));
    }

    #[test]
    fn unknown_future_headers_are_rejected_not_misparsed() {
        let mut g = Greylist::new(GreylistConfig::default());
        // A future snapshot version must fail loudly, even when its
        // records would happen to parse under today's grammar.
        let v3 = "spamward-greylist-v3\nT 0a000000 <> 0c 0 0 1 P\n";
        assert_eq!(g.restore(v3), Err(SnapshotError::BadHeader));
        assert_eq!(g.store().len(), 0, "a rejected snapshot must restore nothing");
        // So is the retired v1 format, which stored address text.
        let v1 = "spamward-greylist-v1\nT 0a000000 a@b.cc u@foo.net 0 0 1 P\n";
        assert_eq!(g.restore(v1), Err(SnapshotError::BadHeader));
        assert_eq!(g.store().len(), 0);
        // Snapshot and WAL headers are not interchangeable.
        assert_eq!(g.restore("spamward-greylist-wal-v1\n"), Err(SnapshotError::BadHeader));
        assert_eq!(g.replay_wal("spamward-greylist-v2\n"), Err(SnapshotError::BadHeader));
        // And a future WAL version is rejected too.
        assert_eq!(g.replay_wal("spamward-greylist-wal-v2\n"), Err(SnapshotError::BadHeader));
        assert_eq!(g.replay_wal(""), Err(SnapshotError::BadHeader));
    }

    proptest::proptest! {
        /// Restoring the same snapshot twice is a no-op the second time:
        /// identical state, identical re-serialized bytes.
        #[test]
        fn prop_restore_is_idempotent(
            ops in proptest::collection::vec((0u8..8, 0u64..100_000), 1..30),
        ) {
            let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
            cfg.auto_whitelist_after = Some(2);
            let mut original = Greylist::new(cfg.clone());
            let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
            let mut times: Vec<u64> = ops.iter().map(|&(_, t)| t).collect();
            times.sort_unstable();
            for (&(ip_octet, _), &t) in ops.iter().zip(times.iter()) {
                let ip = Ipv4Addr::new(10, 0, ip_octet, 1);
                let _ = original.check(SimTime::from_secs(t), ip, &sender("a@b.cc"), &rcpt);
            }
            let text = original.snapshot();
            let mut g = Greylist::new(cfg);
            g.restore(&text).unwrap();
            let once = g.snapshot();
            g.restore(&text).unwrap();
            proptest::prop_assert_eq!(&g.snapshot(), &once);
            proptest::prop_assert_eq!(&once, &text);
        }
    }

    /// Like [`populated`] but logging to a WAL from the start.
    fn populated_wal() -> Greylist {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
        cfg.auto_whitelist_after = Some(2);
        let mut g = Greylist::new(cfg).with_wal();
        let rcpt = "u@foo.net".parse().unwrap();
        g.check(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(400), Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(500), Ipv4Addr::new(10, 0, 1, 1), &sender("c@d.ee"), &rcpt);
        g.check(SimTime::from_secs(600), Ipv4Addr::new(10, 0, 2, 1), &ReversePath::Null, &rcpt);
        g
    }

    #[test]
    fn wal_replay_over_empty_state_reconstructs_everything() {
        let live = populated_wal();
        let wal = live.wal().expect("wal enabled");
        assert_eq!(wal.records(), 4, "one C record per store touch:\n{}", wal.text());
        assert!(wal.text().starts_with("spamward-greylist-wal-v1\n"));
        assert!(!wal.text().contains("a@b.cc"), "addresses must not leak: {}", wal.text());

        let mut recovered = Greylist::new(live.config().clone());
        let outcome = recovered.replay_wal(wal.text()).unwrap();
        assert_eq!(outcome, WalReplay { applied: 4, torn_skipped: 0 });
        assert_eq!(recovered.snapshot(), live.snapshot(), "replay must rebuild exact state");
    }

    #[test]
    fn checkpoint_plus_wal_recovery_is_exact() {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
        cfg.auto_whitelist_after = Some(2);
        let mut live = Greylist::new(cfg.clone()).with_wal();
        let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
        // Phase 1: history covered by the checkpoint.
        live.check(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        live.check(SimTime::from_secs(400), Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        let checkpoint = live.snapshot();
        live.clear_wal();
        // Phase 2: the tail only the WAL remembers, including a sweep.
        live.check(SimTime::from_secs(500), Ipv4Addr::new(10, 0, 1, 1), &sender("c@d.ee"), &rcpt);
        live.check(SimTime::from_secs(600), Ipv4Addr::new(10, 0, 2, 1), &ReversePath::Null, &rcpt);
        live.maintain(SimTime::from_secs(700));
        let wal_text = live.wal().unwrap().text().to_owned();

        // Crash: RAM gone; recover from checkpoint + WAL.
        let mut recovered = Greylist::new(cfg).with_wal();
        recovered.restore(&checkpoint).unwrap();
        let outcome = recovered.replay_wal(&wal_text).unwrap();
        assert_eq!(outcome, WalReplay { applied: 3, torn_skipped: 0 });
        assert_eq!(recovered.snapshot(), live.snapshot());

        // And the next decision agrees with the engine that never crashed.
        let probe = |g: &mut Greylist| {
            g.check(SimTime::from_secs(801), Ipv4Addr::new(10, 0, 1, 1), &sender("c@d.ee"), &rcpt)
        };
        assert_eq!(probe(&mut recovered), probe(&mut live.clone()));
    }

    /// A sweep the remote store refused dropped nothing, so the WAL must
    /// not hold it: replay reaches the store directly, past the outage,
    /// and would drop what the live store still holds.
    #[test]
    fn refused_remote_sweep_is_not_logged() {
        use crate::backend::{RemoteStore, StoreBackend};
        let day = SimDuration::from_days(1);
        let down_from = SimTime::ZERO + day * 3;
        let mut remote = RemoteStore::new(SimDuration::from_millis(2));
        remote.set_outages(vec![(down_from, down_from + day)]);
        let cfg = GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        let mut live = Greylist::new(cfg).with_backend(StoreBackend::Remote(remote)).with_wal();
        let checkpoint = live.snapshot();
        let rcpt = "u@foo.net".parse().unwrap();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        live.check(SimTime::ZERO, ip, &sender("a@b.cc"), &rcpt);
        assert_eq!(live.maintain(down_from + SimDuration::from_secs(3_600)), 0, "sweep refused");
        assert_eq!(live.store().len(), 1, "the stale entry is still held");
        let wal_text = live.wal().unwrap().text().to_owned();
        assert_eq!(live.wal().unwrap().records(), 1, "only the check is logged:\n{wal_text}");

        let mut recovered = live.clone();
        recovered.reset();
        recovered.restore(&checkpoint).unwrap();
        recovered.replay_wal(&wal_text).unwrap();
        assert_eq!(recovered.snapshot(), live.snapshot());

        // The next check of the key restarts the stale entry on both.
        let probe =
            |g: &mut Greylist| g.check(SimTime::ZERO + day * 5, ip, &sender("a@b.cc"), &rcpt);
        assert_eq!(probe(&mut recovered), probe(&mut live));
        assert_eq!(recovered.stats(), live.stats());
        assert_eq!(live.stats().greylisted_restarted, 1);
    }

    #[test]
    fn torn_final_wal_record_is_skipped_and_counted() {
        let live = populated_wal();
        let full = live.wal().unwrap().text().to_owned();
        // A crash mid-append truncates the last record. Cut it down to
        // "C <digits-prefix>" so no field past the tag survives intact.
        let mut lines: Vec<&str> = full.lines().collect();
        let last = lines.pop().unwrap();
        let torn = format!("{}\n{}", lines.join("\n"), &last[..4]);

        let mut recovered = Greylist::new(live.config().clone());
        let outcome = recovered.replay_wal(&torn).unwrap();
        assert_eq!(outcome.torn_skipped, 1, "torn tail must be counted");
        assert_eq!(outcome.applied, live.wal().unwrap().records() - 1);

        // The recovered state equals a log that never held the last record.
        let mut expected = Greylist::new(live.config().clone());
        let clean = format!("{}\n", lines.join("\n"));
        expected.replay_wal(&clean).unwrap();
        assert_eq!(recovered.snapshot(), expected.snapshot());
    }

    #[test]
    fn torn_record_anywhere_else_is_an_error() {
        let live = populated_wal();
        let full = live.wal().unwrap().text().to_owned();
        let mut lines: Vec<String> = full.lines().map(str::to_owned).collect();
        assert!(lines.len() > 3, "need records after the corrupted one");
        lines[1] = lines[1][..4].to_owned();
        let text = format!("{}\n", lines.join("\n"));
        let mut g = Greylist::new(live.config().clone());
        assert_eq!(g.replay_wal(&text), Err(SnapshotError::BadRecord(2)));
        // So is trailing junk on a record line.
        let mut g = Greylist::new(live.config().clone());
        let junk = format!("{full}M 100 extra\nM 200\n");
        assert_eq!(g.replay_wal(&junk), Err(SnapshotError::BadRecord(6)));
    }

    /// A check appends one fixed-size record; the log's memory is 40
    /// bytes per record, whatever the text would take.
    #[test]
    fn a_wal_record_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<WalRecord>(), 40);
    }

    #[test]
    fn wal_clear_truncates_to_header() {
        let mut live = populated_wal();
        assert!(!live.wal().unwrap().is_empty());
        live.clear_wal();
        let wal = live.wal().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.text(), "spamward-greylist-wal-v1\n");
        // An empty log replays as a no-op.
        let mut g = Greylist::new(live.config().clone());
        assert_eq!(g.replay_wal(wal.text()), Ok(WalReplay::default()));
        assert_eq!(g.store().len(), 0);
    }

    #[test]
    fn reset_loses_everything_a_crash_would() {
        let mut g = populated_wal();
        let stats_before = g.stats();
        g.reset();
        assert_eq!(g.store().len(), 0);
        assert!(g.wal().unwrap().is_empty());
        assert_eq!(g.stats(), stats_before, "observer counters survive the crash");
        // AWL counters are RAM too: the maturing pass's credit is gone.
        let rcpt = "u@foo.net".parse().unwrap();
        let d =
            g.check(SimTime::from_secs(700), Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        assert!(!d.is_pass(), "a volatile restart must re-greylist: {d:?}");
    }

    proptest::proptest! {
        // A telling interleaving (remote store, outage, a sweep inside it
        // dropping a stale entry, crash after it) is rare: run 512 cases.
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        /// The durability anchor: for arbitrary interaction histories,
        /// checkpoint instants and crash points, a `SnapshotPlusWal`
        /// recovery is decision-equivalent to an engine that never crashed
        /// — across both store backends, with an optional remote outage
        /// window. Op times run past the 2-day pending lifetime, so sweeps
        /// drop entries.
        #[test]
        fn prop_snapshot_plus_wal_recovery_is_decision_equivalent(
            ops in proptest::collection::vec((0u8..8, 0u64..400_000, proptest::bool::ANY), 1..30),
            cp_sel in 0usize..30,
            crash_sel in 0usize..30,
            remote in proptest::bool::ANY,
            outage in (proptest::bool::ANY, 0u64..400_000, 1u64..200_000),
            probe_ip in 0u8..8,
            probe_at in 400_000u64..600_000,
        ) {
            use crate::backend::{RemoteStore, StoreBackend};
            use crate::store::TripletStore;
            let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
            cfg.auto_whitelist_after = Some(2);
            let backend = if remote {
                let mut r = RemoteStore::new(SimDuration::from_millis(2));
                if let (true, from, len) = outage {
                    r.set_outages(vec![(SimTime::from_secs(from), SimTime::from_secs(from + len))]);
                }
                StoreBackend::Remote(r)
            } else {
                StoreBackend::InMemory(TripletStore::new())
            };
            let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
            let mut times: Vec<u64> = ops.iter().map(|&(_, t, _)| t).collect();
            times.sort_unstable();
            let script: Vec<(u8, u64, bool)> = ops
                .iter()
                .zip(times)
                .map(|(&(ip, _, maintain), t)| (ip, t, maintain))
                .collect();
            let crash_at = crash_sel % (script.len() + 1);
            let cp_at = cp_sel % (crash_at + 1);

            let mut uncrashed = Greylist::new(cfg.clone()).with_backend(backend).with_wal();
            let mut crashed = uncrashed.clone();
            let apply = |g: &mut Greylist, &(ip_octet, t, maintain): &(u8, u64, bool)| {
                let at = SimTime::from_secs(t);
                if maintain {
                    g.maintain(at);
                } else {
                    let ip = Ipv4Addr::new(10, 0, ip_octet, 1);
                    let _ = g.check(at, ip, &sender("a@b.cc"), &rcpt);
                }
            };
            for op in &script {
                apply(&mut uncrashed, op);
            }
            let mut checkpoint = crashed.snapshot();
            for (i, op) in script.iter().enumerate().take(crash_at) {
                apply(&mut crashed, op);
                if i + 1 == cp_at {
                    checkpoint = crashed.snapshot();
                    crashed.clear_wal();
                }
            }
            // Crash: RAM gone; recover from checkpoint + WAL; resume.
            let wal = crashed.wal().unwrap().clone();
            crashed.reset();
            crashed.restore(&checkpoint).unwrap();
            let outcome = crashed.replay_wal(wal.text()).unwrap();
            proptest::prop_assert_eq!(outcome, WalReplay { applied: wal.records(), torn_skipped: 0 });
            for op in &script[crash_at..] {
                apply(&mut crashed, op);
            }

            let ip = Ipv4Addr::new(10, 0, probe_ip, 1);
            let at = SimTime::from_secs(probe_at);
            let a = uncrashed.check(at, ip, &sender("a@b.cc"), &rcpt);
            let b = crashed.check(at, ip, &sender("a@b.cc"), &rcpt);
            proptest::prop_assert_eq!(a, b);
            proptest::prop_assert_eq!(uncrashed.snapshot(), crashed.snapshot());
            proptest::prop_assert_eq!(uncrashed.stats(), crashed.stats());
        }
    }

    /// A scripted history: a matured triplet (retried from a neighbour in
    /// the /24), a pending one, a null-sender one that matures after a
    /// sweep, and the two auto-whitelist credits the maturing passes earn.
    fn scripted() -> Greylist {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
        cfg.auto_whitelist_after = Some(2);
        let mut g = Greylist::new(cfg).with_wal();
        let rcpt = "u@foo.net".parse().unwrap();
        g.check(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(400), Ipv4Addr::new(10, 0, 0, 9), &sender("a@b.cc"), &rcpt);
        g.check(SimTime::from_secs(500), Ipv4Addr::new(10, 0, 1, 1), &sender("c@d.ee"), &rcpt);
        g.check(SimTime::from_secs(600), Ipv4Addr::new(10, 0, 2, 1), &ReversePath::Null, &rcpt);
        g.maintain(SimTime::from_secs(700));
        g.check(SimTime::from_secs(900), Ipv4Addr::new(10, 0, 2, 1), &ReversePath::Null, &rcpt);
        g
    }

    #[test]
    fn scripted_history_renders_exact_bytes() {
        let g = scripted();
        assert_eq!(
            g.snapshot(),
            "spamward-greylist-v2\n\
             T 0a000000 4060f2df549dd662 b506c58bb7252a55 0 400000000 2 A\n\
             T 0a000100 e5829daa7c2a25f6 b506c58bb7252a55 500000000 500000000 1 P\n\
             T 0a000200 <> b506c58bb7252a55 600000000 900000000 2 A\n\
             W 0a000000 1\n\
             W 0a000200 1\n"
        );
        assert_eq!(
            g.wal().unwrap().text(),
            "spamward-greylist-wal-v1\n\
             C 0 0a000000 4060f2df549dd662 b506c58bb7252a55 0a000000\n\
             C 400000000 0a000000 4060f2df549dd662 b506c58bb7252a55 0a000000\n\
             C 500000000 0a000100 e5829daa7c2a25f6 b506c58bb7252a55 0a000100\n\
             C 600000000 0a000200 <> b506c58bb7252a55 0a000200\n\
             M 700000000\n\
             C 900000000 0a000200 <> b506c58bb7252a55 0a000200\n"
        );
    }

    /// The `format!` snapshot renderer the direct writer replaced, kept as
    /// its oracle.
    fn oracle_snapshot(g: &Greylist) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, entry) in g.store().iter() {
            let sender =
                if key.sender.is_empty() { NULL_SENDER.to_owned() } else { key.sender.to_string() };
            let state = match entry.state {
                EntryState::Pending => 'P',
                EntryState::Passed => 'A',
            };
            out.push_str(&format!(
                "T {:08x} {} {} {} {} {} {}\n",
                key.client_net,
                sender,
                key.recipient,
                entry.first_seen.as_micros(),
                entry.last_seen.as_micros(),
                entry.attempts,
                state,
            ));
        }
        let mut awl: Vec<(u32, u32)> = g.awl_counts().collect();
        awl.sort_unstable();
        for (net, passes) in awl {
            out.push_str(&format!("W {net:08x} {passes}\n"));
        }
        out
    }

    /// One record the oracle WAL holds: a touch `(now, key, awl_net)` or a
    /// sweep (`None`).
    type OracleRecord = (SimTime, Option<(TripletKey, u32)>);

    /// The `format!` WAL renderer the typed log replaced, kept as its
    /// oracle.
    fn oracle_wal(records: &[OracleRecord]) -> String {
        let mut out = format!("{HEADER_WAL}\n");
        for &(now, touch) in records {
            match touch {
                Some((key, awl_net)) => {
                    let sender = if key.sender.is_empty() {
                        NULL_SENDER.to_owned()
                    } else {
                        key.sender.to_string()
                    };
                    out.push_str(&format!(
                        "C {} {:08x} {} {} {:08x}\n",
                        now.as_micros(),
                        key.client_net,
                        sender,
                        key.recipient,
                        awl_net,
                    ));
                }
                None => out.push_str(&format!("M {}\n", now.as_micros())),
            }
        }
        out
    }

    proptest::proptest! {
        /// The snapshot writer and the WAL renderer give the oracles'
        /// bytes after any history: every key policy, null and
        /// VERP-tagged senders, auto-whitelist passes (never logged),
        /// sweeps, checkpoints truncating the log, and reads of the log
        /// text between appends.
        #[test]
        fn prop_renderers_match_the_format_oracles(
            ops in proptest::collection::vec((0u8..12, 0u64..400_000, 0u8..8, 0u8..3), 1..40),
            policy in 0u8..3,
        ) {
            use crate::keying::KeyPolicy;
            let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(300));
            cfg.auto_whitelist_after = Some(2);
            cfg.key_policy = match policy {
                0 => None,
                1 => Some(KeyPolicy::SenderRecipient),
                _ => Some(KeyPolicy::ClientNet { netmask: 16 }),
            };
            let mut g = Greylist::new(cfg).with_wal();
            let mut logged: Vec<OracleRecord> = Vec::new();
            let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
            let mut times: Vec<u64> = ops.iter().map(|&(_, t, _, _)| t).collect();
            times.sort_unstable();
            for (&(host, _, action, who), t) in ops.iter().zip(times) {
                let now = SimTime::from_secs(t);
                match action {
                    0 => {
                        g.maintain(now);
                        logged.push((now, None));
                    }
                    1 => {
                        proptest::prop_assert_eq!(g.snapshot(), oracle_snapshot(&g));
                        g.clear_wal();
                        logged.clear();
                    }
                    2 => {
                        proptest::prop_assert_eq!(g.wal().unwrap().text(), oracle_wal(&logged));
                    }
                    _ => {
                        let ip = Ipv4Addr::new(10, host % 3, host, 1);
                        let from = match who {
                            0 => ReversePath::Null,
                            1 => sender("a@b.cc"),
                            _ => sender("Bob+tag@Example.com"),
                        };
                        let d = g.check(now, ip, &from, &rcpt);
                        if d != Decision::Pass(PassReason::AutoWhitelisted) {
                            let awl_net = u32::from(ip) & 0xffff_ff00;
                            logged.push((now, Some((g.key_for(ip, &from, &rcpt), awl_net))));
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(g.snapshot(), oracle_snapshot(&g));
            proptest::prop_assert_eq!(g.wal().unwrap().text(), oracle_wal(&logged));
            proptest::prop_assert_eq!(g.wal().unwrap().records(), logged.len() as u64);
        }
    }

    /// A restore that fails part-way changes nothing: the records before
    /// the bad line are not applied.
    #[test]
    fn failed_restore_leaves_the_engine_untouched() {
        let mut g = populated();
        let before = g.snapshot();
        let bad = "spamward-greylist-v2\n\
                   T 0b000000 <> 0c 0 0 1 P\n\
                   W 0b000000 7\n\
                   W 0a000000 9\n\
                   T 0b000000 <> 0c 5 1 1 P\n";
        assert_eq!(g.restore(bad), Err(SnapshotError::BadRecord(5)));
        assert_eq!(g.snapshot(), before, "a failed restore must leave the engine as it was");
        assert_eq!(g.store().len(), 3);
    }
}
