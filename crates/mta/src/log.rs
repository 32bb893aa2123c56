//! The salted digest that anonymizes the receiving MTA's log.
//!
//! The university dataset behind Fig. 5 is "anonymized log entries ...
//! containing, for each greylisted message, the time of each attempted
//! delivery". The receiving MTA writes exactly that as
//! [`spamward_analysis::log::LogRecord`]s keyed by an opaque triplet hash
//! (no addresses survive anonymization); this module computes the hash.

use std::fmt::{self, Write as _};

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
