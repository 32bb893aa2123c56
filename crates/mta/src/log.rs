//! The salted digest that anonymizes the receiving MTA's log.
//!
//! The university dataset behind Fig. 5 is "anonymized log entries ...
//! containing, for each greylisted message, the time of each attempted
//! delivery". The receiving MTA writes exactly that as
//! [`spamward_analysis::log::LogRecord`]s keyed by an opaque triplet hash
//! (no addresses survive anonymization); this module computes the hash.

use spamward_greylist::TripletKey;

/// Stable anonymizing hash of a triplet key: FNV-1a over its display text
/// ([`TripletKey::write_text`]), salted so two deployments don't produce
/// joinable logs. The text is written to a stack buffer and folded byte by
/// byte; no string is built and no formatter runs.
pub fn anonymize(salt: u64, key: &TripletKey) -> u64 {
    let mut buf = [0; TripletKey::TEXT_MAX];
    key.write_text(&mut buf).iter().fold(0xcbf2_9ce4_8422_2325 ^ salt, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spamward_greylist::KeyAtom;
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
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hash equals salted FNV-1a over the text std's formatters
        /// render for the key: `Ipv4Addr`'s dotted quad and `{:016x}` of
        /// each raw digest. Octets are drawn at every width edge, and the
        /// sender is often the null reverse path's atom.
        #[test]
        fn prop_anonymize_hashes_the_std_rendered_text(
            salt in any::<u64>(),
            picks in proptest::collection::vec((0usize..7, any::<u8>()), 4),
            sender in any::<u64>(),
            recipient in any::<u64>(),
            null in any::<bool>(),
        ) {
            const EDGES: [u8; 6] = [0, 9, 10, 99, 100, 255];
            let mut octets = [0u8; 4];
            for (octet, &(pick, any)) in octets.iter_mut().zip(&picks) {
                *octet = EDGES.get(pick).copied().unwrap_or(any);
            }
            // The null sender's atom is the FNV-1a offset basis.
            let sender = if null { 0xcbf2_9ce4_8422_2325 } else { sender };
            let key = TripletKey {
                client_net: u32::from_be_bytes(octets),
                sender: KeyAtom::from_raw(sender),
                recipient: KeyAtom::from_raw(recipient),
            };
            prop_assert!(!null || key.sender.is_empty());
            let text = format!("({}, s:{sender:016x}, r:{recipient:016x})", Ipv4Addr::from(octets));
            let mut oracle: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
            for b in text.bytes() {
                oracle ^= u64::from(b);
                oracle = oracle.wrapping_mul(0x1000_0000_01b3);
            }
            prop_assert_eq!(anonymize(salt, &key), oracle);
        }
    }
}
