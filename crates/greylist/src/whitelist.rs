//! Client and recipient whitelists.

use std::net::Ipv4Addr;

/// Patterns exempting clients or recipients from greylisting.
///
/// Postgrey ships `postgrey_whitelist_clients` (big providers that retry
/// from many addresses) and `postgrey_whitelist_recipients` (`postmaster@`,
/// `abuse@` — the addresses the paper deliberately left unprotected for its
/// one-spam-task control experiment).
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_greylist::Whitelist;
///
/// let mut wl = Whitelist::new();
/// wl.add_cidr(Ipv4Addr::new(64, 233, 160, 0), 19); // a provider block
/// wl.add_domain_suffix("google.com");
/// wl.add_local_part("postmaster");
///
/// assert!(wl.matches_client(Ipv4Addr::new(64, 233, 177, 9), Some("mail-ej1.google.com")));
/// assert!(wl.matches_recipient("postmaster@foo.net"));
/// assert!(!wl.matches_recipient("alice@foo.net"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Whitelist {
    cidrs: Vec<(u32, u8)>,
    domain_suffixes: Vec<String>,
    local_parts: Vec<String>,
}

impl Whitelist {
    /// Creates an empty whitelist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is whitelisted.
    pub fn is_empty(&self) -> bool {
        self.cidrs.is_empty() && self.domain_suffixes.is_empty() && self.local_parts.is_empty()
    }

    /// Exempts an address block.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn add_cidr(&mut self, network: Ipv4Addr, prefix_len: u8) -> &mut Self {
        assert!(prefix_len <= 32, "IPv4 prefix length {prefix_len} out of range");
        let mask = if prefix_len == 0 { 0 } else { u32::MAX << (32 - u32::from(prefix_len)) };
        self.cidrs.push((u32::from(network) & mask, prefix_len));
        self
    }

    /// Exempts clients whose reverse-DNS name ends in `suffix` (how
    /// Postgrey whitelists `google.com` & co.).
    pub fn add_domain_suffix(&mut self, suffix: &str) -> &mut Self {
        self.domain_suffixes.push(suffix.to_ascii_lowercase());
        self
    }

    /// Exempts recipients with this local part at any domain
    /// (e.g. `postmaster`).
    pub fn add_local_part(&mut self, local: &str) -> &mut Self {
        self.local_parts.push(local.to_ascii_lowercase());
        self
    }

    /// Whether a connecting client (address + optional rDNS name) is
    /// exempt.
    pub fn matches_client(&self, ip: Ipv4Addr, rdns: Option<&str>) -> bool {
        let ip_bits = u32::from(ip);
        for &(net, len) in &self.cidrs {
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - u32::from(len)) };
            if ip_bits & mask == net {
                return true;
            }
        }
        if let Some(name) = rdns {
            let name = name.to_ascii_lowercase();
            for suffix in &self.domain_suffixes {
                if name == *suffix || name.ends_with(&format!(".{suffix}")) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether a (normalized `local@domain`) recipient is exempt.
    pub fn matches_recipient(&self, normalized: &str) -> bool {
        let normalized = normalized.to_ascii_lowercase();
        match normalized.split_once('@') {
            Some((local, _)) => self.local_parts.iter().any(|l| *l == local),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_matching() {
        let mut wl = Whitelist::new();
        wl.add_cidr(Ipv4Addr::new(192, 0, 2, 0), 24);
        assert!(wl.matches_client(Ipv4Addr::new(192, 0, 2, 200), None));
        assert!(!wl.matches_client(Ipv4Addr::new(192, 0, 3, 1), None));
    }

    #[test]
    fn cidr_zero_matches_all() {
        let mut wl = Whitelist::new();
        wl.add_cidr(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(wl.matches_client(Ipv4Addr::new(8, 8, 8, 8), None));
    }

    #[test]
    fn domain_suffix_respects_label_boundary() {
        let mut wl = Whitelist::new();
        wl.add_domain_suffix("google.com");
        assert!(wl.matches_client(Ipv4Addr::LOCALHOST, Some("mail-a.google.com")));
        assert!(wl.matches_client(Ipv4Addr::LOCALHOST, Some("google.com")));
        assert!(!wl.matches_client(Ipv4Addr::LOCALHOST, Some("notgoogle.com")));
        assert!(!wl.matches_client(Ipv4Addr::LOCALHOST, None));
    }

    #[test]
    fn recipient_local_part() {
        let mut wl = Whitelist::new();
        wl.add_local_part("postmaster");
        assert!(wl.matches_recipient("postmaster@anywhere.example"));
        assert!(wl.matches_recipient("POSTMASTER@FOO.NET"));
        assert!(!wl.matches_recipient("alice@foo.net"));
        assert!(!wl.matches_recipient("not-an-address"));
    }

    #[test]
    fn empty_whitelist_matches_nothing() {
        let wl = Whitelist::new();
        assert!(wl.is_empty());
        assert!(!wl.matches_client(Ipv4Addr::LOCALHOST, Some("x")));
        assert!(!wl.matches_recipient("a@b.cc"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_prefix_panics() {
        let mut wl = Whitelist::new();
        wl.add_cidr(Ipv4Addr::LOCALHOST, 40);
    }
}
