//! The greylisting triplet key.

use spamward_smtp::{EmailAddress, ReversePath};
use std::fmt;
use std::net::Ipv4Addr;

/// A compact, normalized key atom: the 64-bit FNV-1a digest of a
/// normalized address string.
///
/// Triplet stores used to carry the sender/recipient text per entry; at
/// deployment scale (the paper's campus server tracked hundreds of
/// thousands of triplets) the strings dominate store memory while the
/// engine only ever compares keys for equality. The digest keeps entries
/// at a fixed 20 bytes of key material and makes `greylist.store.bytes`
/// a meaningful, backend-comparable gauge.
///
/// The digest is one-way: snapshots and logs carry the hex digest, never
/// the address (the same property the anonymized MTA log relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct KeyAtom(u64);

impl KeyAtom {
    /// The digest of the empty string — the null reverse path `<>`.
    pub const EMPTY: KeyAtom = KeyAtom(FNV_OFFSET);

    /// Digests a normalized address string.
    #[must_use]
    pub fn of(text: &str) -> Self {
        KeyAtom(text.bytes().fold(FNV_OFFSET, fnv1a))
    }

    /// The digest of a sender's normalized text — its local part
    /// lowercased and cut at the first `+` (VERP extensions), `@`, its
    /// domain — computed from the address parts without building the
    /// text. The null reverse path digests to [`KeyAtom::EMPTY`].
    pub(crate) fn sender(sender: &ReversePath) -> Self {
        match sender.address() {
            None => KeyAtom::EMPTY,
            Some(addr) => {
                let local = addr.local_part();
                let local = local.split_once('+').map_or(local, |(head, _)| head);
                KeyAtom::address(local, addr.domain())
            }
        }
    }

    /// The digest of [`EmailAddress::normalized`], computed without
    /// building the text.
    pub(crate) fn recipient(recipient: &EmailAddress) -> Self {
        KeyAtom::address(recipient.local_part(), recipient.domain())
    }

    /// FNV-1a over `local` lowercased byte by byte, then `@`, then
    /// `domain` — byte for byte the digest of `format!("{local}@{domain}")`
    /// with the local part lowercased. Domains are lowercase from parsing.
    fn address(local: &str, domain: &str) -> Self {
        let local = local.bytes().map(|b| b.to_ascii_lowercase());
        let bytes = local.chain(std::iter::once(b'@')).chain(domain.bytes());
        KeyAtom(bytes.fold(FNV_OFFSET, fnv1a))
    }

    /// Whether this atom is the empty-string digest (the null sender).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::EMPTY
    }

    /// Rebuilds an atom from its raw digest (snapshot decoding).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        KeyAtom(raw)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// One FNV-1a step: folds `byte` into the running digest `h`.
fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

impl fmt::Display for KeyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The `(client, sender, recipient)` key a greylist tracks.
///
/// Following Postgrey, the client part is the address masked to a
/// configurable prefix (default /24) so that retries from a neighbouring
/// machine in the same provider pool still match, and the sender local part
/// is lowercased with any `+extension` stripped (VERP-style bounce addresses
/// would otherwise never match their retry). Sender and recipient are
/// stored as normalized-text digests ([`KeyAtom`]), not strings.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_greylist::TripletKey;
/// use spamward_smtp::ReversePath;
///
/// let rcpt = "user@foo.net".parse()?;
/// let s1 = ReversePath::Address("Bob+tag@Example.com".parse()?);
/// let s2 = ReversePath::Address("bob@example.com".parse()?);
/// let a = TripletKey::new(Ipv4Addr::new(198, 51, 100, 7), &s1, &rcpt, 24);
/// let b = TripletKey::new(Ipv4Addr::new(198, 51, 100, 99), &s2, &rcpt, 24);
/// assert_eq!(a, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TripletKey {
    /// The masked client network (host bits zeroed).
    pub client_net: u32,
    /// Digest of the normalized sender ([`KeyAtom::EMPTY`] for the null
    /// reverse path).
    pub sender: KeyAtom,
    /// Digest of the normalized recipient.
    pub recipient: KeyAtom,
}

impl TripletKey {
    /// Builds a key from raw envelope data (Postgrey full-triplet keying).
    ///
    /// # Panics
    ///
    /// Panics if `netmask > 32`.
    pub fn new(
        client: Ipv4Addr,
        sender: &ReversePath,
        recipient: &EmailAddress,
        netmask: u8,
    ) -> Self {
        TripletKey {
            client_net: mask_client(client, netmask),
            sender: KeyAtom::sender(sender),
            recipient: KeyAtom::recipient(recipient),
        }
    }

    /// The masked network as a dotted quad (for logs).
    pub fn client_net_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.client_net)
    }
}

/// Masks `client` to `netmask` leading bits.
///
/// # Panics
///
/// Panics if `netmask > 32`.
pub(crate) fn mask_client(client: Ipv4Addr, netmask: u8) -> u32 {
    assert!(netmask <= 32, "IPv4 netmask {netmask} out of range");
    let mask: u32 = if netmask == 0 { 0 } else { u32::MAX << (32 - u32::from(netmask)) };
    u32::from(client) & mask
}

/// The normalized sender text: the local part lowercased with any
/// `+extension` stripped. Test oracle for [`KeyAtom::sender`], which
/// digests the same bytes without building them.
#[cfg(test)]
pub(crate) fn normalize_sender(sender: &ReversePath) -> String {
    match sender.address() {
        None => String::new(),
        Some(addr) => {
            let local = addr.local_part().to_ascii_lowercase();
            let local = local.split('+').next().unwrap_or(&local).to_owned();
            format!("{local}@{}", addr.domain())
        }
    }
}

impl fmt::Display for TripletKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, s:{}, r:{})", self.client_net_addr(), self.sender, self.recipient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rcpt() -> EmailAddress {
        "user@foo.net".parse().unwrap()
    }

    fn sender(s: &str) -> ReversePath {
        ReversePath::Address(s.parse().unwrap())
    }

    #[test]
    fn netmask_24_groups_neighbours() {
        let a = TripletKey::new(Ipv4Addr::new(10, 1, 2, 3), &sender("a@b.cc"), &rcpt(), 24);
        let b = TripletKey::new(Ipv4Addr::new(10, 1, 2, 250), &sender("a@b.cc"), &rcpt(), 24);
        let c = TripletKey::new(Ipv4Addr::new(10, 1, 3, 3), &sender("a@b.cc"), &rcpt(), 24);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn netmask_32_is_exact() {
        let a = TripletKey::new(Ipv4Addr::new(10, 1, 2, 3), &sender("a@b.cc"), &rcpt(), 32);
        let b = TripletKey::new(Ipv4Addr::new(10, 1, 2, 4), &sender("a@b.cc"), &rcpt(), 32);
        assert_ne!(a, b);
    }

    #[test]
    fn netmask_zero_matches_everyone() {
        let a = TripletKey::new(Ipv4Addr::new(10, 1, 2, 3), &sender("a@b.cc"), &rcpt(), 0);
        let b = TripletKey::new(Ipv4Addr::new(203, 9, 9, 9), &sender("a@b.cc"), &rcpt(), 0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_netmask_panics() {
        let _ = TripletKey::new(Ipv4Addr::LOCALHOST, &sender("a@b.cc"), &rcpt(), 33);
    }

    #[test]
    fn sender_extension_stripped_and_lowercased() {
        let a =
            TripletKey::new(Ipv4Addr::LOCALHOST, &sender("Bounce+123@Lists.Example"), &rcpt(), 24);
        let b = TripletKey::new(Ipv4Addr::LOCALHOST, &sender("bounce@lists.example"), &rcpt(), 24);
        assert_eq!(a, b);
    }

    #[test]
    fn null_sender_has_empty_key_part() {
        let k = TripletKey::new(Ipv4Addr::LOCALHOST, &ReversePath::Null, &rcpt(), 24);
        assert_eq!(k.sender, KeyAtom::EMPTY);
        assert!(k.sender.is_empty());
    }

    #[test]
    fn different_recipients_differ() {
        let r2: EmailAddress = "other@foo.net".parse().unwrap();
        let a = TripletKey::new(Ipv4Addr::LOCALHOST, &sender("a@b.cc"), &rcpt(), 24);
        let b = TripletKey::new(Ipv4Addr::LOCALHOST, &sender("a@b.cc"), &r2, 24);
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_readable_and_anonymized() {
        let k = TripletKey::new(Ipv4Addr::new(10, 1, 2, 3), &sender("a@b.cc"), &rcpt(), 24);
        let text = k.to_string();
        assert!(text.starts_with("(10.1.2.0, s:"), "{text}");
        assert!(!text.contains("a@b.cc"), "addresses must not leak: {text}");
        assert!(!text.contains("user@foo.net"), "addresses must not leak: {text}");
    }

    #[test]
    fn atom_digest_is_stable_and_roundtrips() {
        let a = KeyAtom::of("bob@example.com");
        assert_eq!(a, KeyAtom::of("bob@example.com"));
        assert_ne!(a, KeyAtom::of("rob@example.com"));
        assert_eq!(KeyAtom::of(""), KeyAtom::EMPTY);
    }

    proptest! {
        #[test]
        fn prop_mask_idempotent(ip in any::<u32>(), mask in 0u8..=32) {
            let addr = Ipv4Addr::from(ip);
            let k1 = TripletKey::new(addr, &ReversePath::Null, &rcpt(), mask);
            let k2 = TripletKey::new(k1.client_net_addr(), &ReversePath::Null, &rcpt(), mask);
            prop_assert_eq!(k1, k2);
        }
    }
}
