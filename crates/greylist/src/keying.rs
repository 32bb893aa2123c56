//! Key policies: how an envelope is collapsed into a greylist key.
//!
//! The paper evaluates exactly one keying choice — Postgrey's full
//! `(client/24, sender, recipient)` triplet — and its Table III shows the
//! multi-IP webmail retry pain is a direct artifact of that choice: a
//! provider that retries from a different pool member outside the /24
//! restarts the greylist clock. Real deployments differ here. qdgrey keys
//! on `(sender, recipient)` only, so any pool member's retry matches; a
//! pure client-network key is the IP-reputation ablation. [`KeyPolicy`]
//! makes the choice an experiment axis.

use crate::triplet::{mask_client, KeyAtom, TripletKey};
use serde::{Deserialize, Serialize};
use spamward_smtp::{EmailAddress, ReversePath};
use std::net::Ipv4Addr;

/// How envelope data is collapsed into a [`TripletKey`].
///
/// Every policy produces a `TripletKey`; fields a policy ignores are
/// canonicalized (network `0`, [`KeyAtom::EMPTY`]) so stores need no
/// per-policy key type and snapshots stay uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyPolicy {
    /// Postgrey: `(client & netmask, sender, recipient)`. The paper's
    /// deployed configuration (netmask 24).
    FullTriplet {
        /// Leading bits of the client address that participate in the key.
        netmask: u8,
    },
    /// qdgrey: `(sender, recipient)` with the client ignored, so retries
    /// from any MTA-pool member match the original attempt.
    SenderRecipient,
    /// Pure client-network reputation: `(client & netmask)` with the
    /// envelope ignored. One pass whitelists the whole network.
    ClientNet {
        /// Leading bits of the client address that participate in the key.
        netmask: u8,
    },
}

impl Default for KeyPolicy {
    fn default() -> Self {
        KeyPolicy::FullTriplet { netmask: 24 }
    }
}

impl KeyPolicy {
    /// Collapses an envelope into the key this policy tracks.
    #[must_use]
    pub fn key_for(
        &self,
        client: Ipv4Addr,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> TripletKey {
        match *self {
            KeyPolicy::FullTriplet { netmask } => {
                TripletKey::new(client, sender, recipient, netmask)
            }
            KeyPolicy::SenderRecipient => TripletKey {
                client_net: 0,
                sender: KeyAtom::sender(sender),
                recipient: KeyAtom::recipient(recipient),
            },
            KeyPolicy::ClientNet { netmask } => TripletKey {
                client_net: mask_client(client, netmask),
                sender: KeyAtom::EMPTY,
                recipient: KeyAtom::EMPTY,
            },
        }
    }

    /// Stable slug used in experiment tables and metric labels.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            KeyPolicy::FullTriplet { .. } => "full_triplet",
            KeyPolicy::SenderRecipient => "sender_recipient",
            KeyPolicy::ClientNet { .. } => "client_net",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::normalize_sender;
    use proptest::prelude::*;

    fn rcpt(s: &str) -> EmailAddress {
        s.parse().unwrap()
    }

    fn sender(s: &str) -> ReversePath {
        ReversePath::Address(s.parse().unwrap())
    }

    const POLICIES: [KeyPolicy; 3] = [
        KeyPolicy::FullTriplet { netmask: 24 },
        KeyPolicy::SenderRecipient,
        KeyPolicy::ClientNet { netmask: 24 },
    ];

    #[test]
    fn default_matches_full_triplet_constructor() {
        let ip = Ipv4Addr::new(198, 51, 100, 9);
        let s = sender("a@b.cc");
        let r = rcpt("user@foo.net");
        assert_eq!(KeyPolicy::default().key_for(ip, &s, &r), TripletKey::new(ip, &s, &r, 24));
    }

    #[test]
    fn sender_recipient_ignores_client() {
        let s = sender("a@b.cc");
        let r = rcpt("user@foo.net");
        let a = KeyPolicy::SenderRecipient.key_for(Ipv4Addr::new(10, 0, 0, 1), &s, &r);
        let b = KeyPolicy::SenderRecipient.key_for(Ipv4Addr::new(203, 0, 113, 9), &s, &r);
        assert_eq!(a, b);
        assert_eq!(a.client_net, 0);
    }

    #[test]
    fn client_net_ignores_envelope() {
        let ip = Ipv4Addr::new(10, 1, 2, 3);
        let a =
            KeyPolicy::ClientNet { netmask: 24 }.key_for(ip, &sender("a@b.cc"), &rcpt("u@foo.net"));
        let b = KeyPolicy::ClientNet { netmask: 24 }.key_for(
            Ipv4Addr::new(10, 1, 2, 200),
            &sender("z@y.xx"),
            &rcpt("other@foo.net"),
        );
        assert_eq!(a, b);
        assert!(a.sender.is_empty());
    }

    /// The key `policy` derives with its atoms digested from built text
    /// (`normalize_sender`, [`EmailAddress::normalized`]): the oracle the
    /// allocation-free digests must equal bit for bit, so snapshots, WAL
    /// records and anonymized logs keep their bytes.
    fn text_key(
        policy: KeyPolicy,
        client: Ipv4Addr,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> TripletKey {
        let (s, r) = (KeyAtom::of(&normalize_sender(sender)), KeyAtom::of(&recipient.normalized()));
        match policy {
            KeyPolicy::FullTriplet { netmask } => {
                TripletKey { client_net: mask_client(client, netmask), sender: s, recipient: r }
            }
            KeyPolicy::SenderRecipient => TripletKey { client_net: 0, sender: s, recipient: r },
            KeyPolicy::ClientNet { netmask } => TripletKey {
                client_net: mask_client(client, netmask),
                sender: KeyAtom::EMPTY,
                recipient: KeyAtom::EMPTY,
            },
        }
    }

    #[test]
    fn null_sender_digests_to_empty_under_each_policy() {
        let ip = Ipv4Addr::new(198, 51, 100, 9);
        let r = rcpt("User@foo.net");
        for policy in POLICIES {
            let key = policy.key_for(ip, &ReversePath::Null, &r);
            assert_eq!(key.sender, KeyAtom::EMPTY, "policy {}", policy.slug());
            assert_eq!(key, text_key(policy, ip, &ReversePath::Null, &r));
        }
    }

    proptest! {
        /// The digests streamed from address parts equal [`KeyAtom::of`]
        /// over the old normalized text under every policy, for mixed-case
        /// local parts, `+tag` senders and the null sender.
        #[test]
        fn prop_streamed_digests_equal_text_digests(
            local in "[a-zA-Z0-9][a-zA-Z0-9_-]{0,8}(\\+[a-zA-Z0-9+]{0,5})?",
            domain in "[a-zA-Z][a-zA-Z0-9]{0,6}\\.[a-zA-Z]{2,4}",
            rcpt_local in "[a-zA-Z0-9][a-zA-Z0-9+_-]{0,8}",
            null in any::<bool>(),
            ip in any::<u32>(),
        ) {
            let client = Ipv4Addr::from(ip);
            let s = if null { ReversePath::Null } else { sender(&format!("{local}@{domain}")) };
            let r = rcpt(&format!("{rcpt_local}@{domain}"));
            for policy in POLICIES {
                let (fast, oracle) = (policy.key_for(client, &s, &r), text_key(policy, client, &s, &r));
                prop_assert!(fast == oracle, "policy {}: {fast:?} != {oracle:?}", policy.slug());
            }
        }

        /// VERP `+extension` stripping: under every envelope-sensitive
        /// policy, `local+ext@domain` keys identically to `local@domain`.
        #[test]
        fn prop_verp_extension_stripped_under_each_policy(
            local in "[a-z]{1,8}",
            ext in "[a-z0-9]{1,8}",
            ip in any::<u32>(),
        ) {
            let client = Ipv4Addr::from(ip);
            let r = rcpt("user@foo.net");
            let plain = sender(&format!("{local}@lists.example"));
            let verp = sender(&format!("{local}+{ext}@lists.example"));
            for policy in POLICIES {
                let (a, b) = (policy.key_for(client, &verp, &r), policy.key_for(client, &plain, &r));
                prop_assert!(a == b, "policy {}: {a:?} != {b:?}", policy.slug());
            }
        }

        /// Sender-case normalization: the local part is case-folded under
        /// every policy.
        #[test]
        fn prop_sender_case_normalized_under_each_policy(
            local in "[a-z]{1,10}",
            ip in any::<u32>(),
        ) {
            let client = Ipv4Addr::from(ip);
            let r = rcpt("user@foo.net");
            let lower = sender(&format!("{local}@b.cc"));
            let upper = sender(&format!("{}@b.cc", local.to_ascii_uppercase()));
            for policy in POLICIES {
                let (a, b) = (policy.key_for(client, &upper, &r), policy.key_for(client, &lower, &r));
                prop_assert!(a == b, "policy {}: {a:?} != {b:?}", policy.slug());
            }
        }

        /// /24 masking: client-sensitive policies group same-/24 neighbours;
        /// `SenderRecipient` groups every client.
        #[test]
        fn prop_netmask_grouping_under_each_policy(ip in any::<u32>(), host in any::<u8>()) {
            let a = Ipv4Addr::from(ip);
            let b = Ipv4Addr::from((ip & 0xFFFF_FF00) | u32::from(host));
            let s = sender("a@b.cc");
            let r = rcpt("user@foo.net");
            for policy in POLICIES {
                let (ka, kb) = (policy.key_for(a, &s, &r), policy.key_for(b, &s, &r));
                prop_assert!(ka == kb, "same /24 must key identically under {}", policy.slug());
            }
            // And a different /24 must split the client-sensitive policies.
            let c = Ipv4Addr::from(ip ^ 0x0000_0100);
            prop_assert_ne!(
                (KeyPolicy::FullTriplet { netmask: 24 }).key_for(a, &s, &r),
                (KeyPolicy::FullTriplet { netmask: 24 }).key_for(c, &s, &r)
            );
            prop_assert_ne!(
                (KeyPolicy::ClientNet { netmask: 24 }).key_for(a, &s, &r),
                (KeyPolicy::ClientNet { netmask: 24 }).key_for(c, &s, &r)
            );
            prop_assert_eq!(
                KeyPolicy::SenderRecipient.key_for(a, &s, &r),
                KeyPolicy::SenderRecipient.key_for(c, &s, &r)
            );
        }
    }
}
