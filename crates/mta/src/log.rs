//! The anonymized receiving-MTA log.
//!
//! The university dataset behind Fig. 5 is "anonymized log entries ...
//! containing, for each greylisted message, the time of each attempted
//! delivery". This module produces exactly that: per-event entries keyed by
//! an opaque triplet hash (no addresses survive anonymization), rendered to
//! a stable text format that `spamward-analysis` parses back.

use serde::{Deserialize, Serialize};
use spamward_sim::SimTime;
use std::fmt::{self, Write as _};

/// What happened to one RCPT (or one completed message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogEvent {
    /// The RCPT was deferred by greylisting.
    Greylisted,
    /// The RCPT passed greylisting after the delay.
    PassedGreylist,
    /// The RCPT was exempt (whitelist/auto-whitelist).
    Whitelisted,
    /// The RCPT named an unknown user and was rejected.
    UnknownRecipient,
    /// A complete message was accepted and stored.
    Accepted,
}

impl LogEvent {
    fn as_str(self) -> &'static str {
        match self {
            LogEvent::Greylisted => "greylisted",
            LogEvent::PassedGreylist => "passed",
            LogEvent::Whitelisted => "whitelisted",
            LogEvent::UnknownRecipient => "unknown-rcpt",
            LogEvent::Accepted => "accepted",
        }
    }

    /// Parses the textual form this type's `Display` renders.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "greylisted" => LogEvent::Greylisted,
            "passed" => LogEvent::PassedGreylist,
            "whitelisted" => LogEvent::Whitelisted,
            "unknown-rcpt" => LogEvent::UnknownRecipient,
            "accepted" => LogEvent::Accepted,
            _ => return None,
        })
    }
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One anonymized log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MtaLogEntry {
    /// When the event happened.
    pub at: SimTime,
    /// The event kind.
    pub event: LogEvent,
    /// Opaque hash of the greylist triplet — the only identity that
    /// survives anonymization.
    pub triplet_hash: u64,
}

impl MtaLogEntry {
    /// Renders the stable single-line text format:
    /// `"<unix-ish seconds>.<micros> <event> key=<hex>"`.
    pub fn to_line(&self) -> String {
        let us = self.at.as_micros();
        format!(
            "{}.{:06} {} key={:016x}",
            us / 1_000_000,
            us % 1_000_000,
            self.event,
            self.triplet_hash
        )
    }

    /// Parses a line produced by [`MtaLogEntry::to_line`].
    pub fn parse_line(line: &str) -> Option<Self> {
        let mut parts = line.split_whitespace();
        let ts = parts.next()?;
        let event = LogEvent::parse(parts.next()?)?;
        let key = parts.next()?.strip_prefix("key=")?;
        let (secs, micros) = ts.split_once('.')?;
        let at = SimTime::from_micros(
            secs.parse::<u64>().ok()? * 1_000_000 + micros.parse::<u64>().ok()?,
        );
        let triplet_hash = u64::from_str_radix(key, 16).ok()?;
        Some(MtaLogEntry { at, event, triplet_hash })
    }
}

impl fmt::Display for MtaLogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Stable anonymizing hash of a triplet key (FNV-1a over its display form,
/// salted so two deployments don't produce joinable logs). The display
/// form streams straight into the hasher; no string is built.
pub(crate) fn anonymize(salt: u64, key: &spamward_greylist::TripletKey) -> u64 {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325 ^ salt);
    // `Fnv1a` never fails a write and `TripletKey`'s `Display` only
    // forwards the writer's result, so there is no error to handle.
    let _ = write!(hasher, "{key}");
    hasher.0
}

/// An FNV-1a hasher fed through `fmt::Write`.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spamward_greylist::TripletKey;
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

    #[test]
    fn line_roundtrip() {
        let e = MtaLogEntry {
            at: SimTime::from_micros(1_234_567_890),
            event: LogEvent::Greylisted,
            triplet_hash: 0xdead_beef_cafe_f00d,
        };
        let line = e.to_line();
        assert_eq!(line, "1234.567890 greylisted key=deadbeefcafef00d");
        assert_eq!(MtaLogEntry::parse_line(&line).unwrap(), e);
    }

    #[test]
    fn all_events_roundtrip() {
        for ev in [
            LogEvent::Greylisted,
            LogEvent::PassedGreylist,
            LogEvent::Whitelisted,
            LogEvent::UnknownRecipient,
            LogEvent::Accepted,
        ] {
            let e = MtaLogEntry { at: SimTime::from_secs(42), event: ev, triplet_hash: 7 };
            assert_eq!(MtaLogEntry::parse_line(&e.to_line()).unwrap(), e);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(MtaLogEntry::parse_line(""), None);
        assert_eq!(MtaLogEntry::parse_line("notatime greylisted key=0"), None);
        assert_eq!(MtaLogEntry::parse_line("1.0 nonsense key=0"), None);
        assert_eq!(MtaLogEntry::parse_line("1.0 greylisted nokey"), None);
    }

    #[test]
    fn anonymize_is_salted_and_stable() {
        let key = TripletKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            &ReversePath::Null,
            &"u@foo.net".parse().unwrap(),
            24,
        );
        assert_eq!(anonymize(1, &key), anonymize(1, &key));
        assert_ne!(anonymize(1, &key), anonymize(2, &key));
    }

    proptest! {
        /// The streamed hash equals salted FNV-1a over the key's built
        /// display text, so anonymized logs keep their bytes.
        #[test]
        fn prop_streamed_anonymize_equals_hash_of_display_text(
            salt in any::<u64>(),
            ip in any::<u32>(),
            local in "[a-zA-Z0-9]{1,10}",
            null in any::<bool>(),
        ) {
            let sender = if null {
                ReversePath::Null
            } else {
                ReversePath::Address(format!("{local}@relay.example").parse().unwrap())
            };
            let rcpt = format!("{local}@foo.net").parse().unwrap();
            let key = TripletKey::new(Ipv4Addr::from(ip), &sender, &rcpt, 24);
            let mut oracle: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
            for b in format!("{key}").bytes() {
                oracle ^= u64::from(b);
                oracle = oracle.wrapping_mul(0x1000_0000_01b3);
            }
            prop_assert_eq!(anonymize(salt, &key), oracle);
        }
    }
}
