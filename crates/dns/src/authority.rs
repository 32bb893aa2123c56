//! The simulated global DNS authority.

use crate::name::DomainName;
use crate::record::{RecordType, ResourceRecord};
use crate::zone::Zone;
use std::collections::HashMap;
use std::fmt;

/// DNS response codes the suite distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// Query answered (answer set may still be empty: NODATA).
    NoError,
    /// The queried name does not exist.
    NxDomain,
    /// The authority failed (lame delegation, server bug).
    ServFail,
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::ServFail => "SERVFAIL",
        };
        f.write_str(s)
    }
}

/// The outcome of one query against the authority.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Response code.
    pub rcode: Rcode,
    /// Matching records (empty on errors or NODATA).
    pub answers: Vec<ResourceRecord>,
}

impl QueryOutcome {
    fn nxdomain() -> Self {
        QueryOutcome { rcode: Rcode::NxDomain, answers: Vec::new() }
    }

    fn servfail() -> Self {
        QueryOutcome { rcode: Rcode::ServFail, answers: Vec::new() }
    }
}

/// The set of all zones in the simulated internet, indexed by origin.
///
/// Queries walk up the name's ancestor chain to find the enclosing zone, so
/// a query for `smtp.foo.net` is answered by the `foo.net` zone.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_dns::{Authority, Zone, RecordType, Rcode};
///
/// let mut dns = Authority::new();
/// dns.publish(Zone::single_mx("foo.net".parse()?, Ipv4Addr::new(192, 0, 2, 1)));
///
/// let out = dns.query(&"foo.net".parse()?, RecordType::Mx);
/// assert_eq!(out.rcode, Rcode::NoError);
/// assert_eq!(out.answers.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Authority {
    zones: HashMap<DomainName, Zone>,
    reverse: HashMap<std::net::Ipv4Addr, DomainName>,
    queries_served: u64,
}

impl Authority {
    /// Creates an empty authority.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or replaces) a zone.
    pub fn publish(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), zone);
    }

    /// Registers a reverse (PTR) mapping for an address. Real deployments
    /// keep these in `in-addr.arpa` zones; the suite stores them directly.
    pub fn publish_ptr(&mut self, ip: std::net::Ipv4Addr, name: DomainName) {
        self.reverse.insert(ip, name);
    }

    /// Reverse-resolves `ip`, counting the query.
    pub fn resolve_ptr(&mut self, ip: std::net::Ipv4Addr) -> Option<DomainName> {
        self.queries_served += 1;
        self.reverse.get(&ip).cloned()
    }

    /// Number of published zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether no zones are published.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Total queries served (for the §VI "cost to the Internet community"
    /// accounting).
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Finds the most-specific zone enclosing `name`, looking each
    /// ancestor up by its text so the walk allocates nothing.
    fn enclosing_zone(&self, name: &DomainName) -> Option<&Zone> {
        let mut suffix = name.as_str();
        loop {
            if let Some(z) = self.zones.get(suffix) {
                return Some(z);
            }
            suffix = suffix.split_once('.')?.1;
        }
    }

    /// Answers a typed query.
    ///
    /// Returns SERVFAIL for lame zones, NXDOMAIN when no enclosing zone
    /// exists or the name is absent from its zone, and NOERROR (possibly
    /// with no answers — NODATA) otherwise.
    pub fn query(&mut self, name: &DomainName, rtype: RecordType) -> QueryOutcome {
        self.queries_served += 1;
        self.query_ro(name, rtype)
    }

    /// Like [`Authority::query`] but without the served-queries counter,
    /// so it answers through a shared reference (the scan's glue pass
    /// resolves exchangers with it).
    pub fn query_ro(&self, name: &DomainName, rtype: RecordType) -> QueryOutcome {
        let Some(zone) = self.enclosing_zone(name) else {
            return QueryOutcome::nxdomain();
        };
        if zone.lame {
            return QueryOutcome::servfail();
        }
        if !zone.has_name(name) {
            return QueryOutcome::nxdomain();
        }
        let answers = zone.lookup(name, rtype).cloned().collect();
        QueryOutcome { rcode: Rcode::NoError, answers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn authority_with_foo() -> Authority {
        let mut a = Authority::new();
        a.publish(Zone::nolisting(
            name("foo.net"),
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(1, 2, 3, 5),
        ));
        a
    }

    #[test]
    fn answers_mx_at_origin() {
        let mut a = authority_with_foo();
        let out = a.query(&name("foo.net"), RecordType::Mx);
        assert_eq!(out.rcode, Rcode::NoError);
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn answers_a_for_exchanger_via_enclosing_zone() {
        let mut a = authority_with_foo();
        let out = a.query(&name("smtp.foo.net"), RecordType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn nxdomain_for_unknown_domain_and_name() {
        let mut a = authority_with_foo();
        assert_eq!(a.query(&name("bar.net"), RecordType::Mx).rcode, Rcode::NxDomain);
        assert_eq!(a.query(&name("nope.foo.net"), RecordType::A).rcode, Rcode::NxDomain);
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let mut a = authority_with_foo();
        let out = a.query(&name("smtp.foo.net"), RecordType::Mx);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(out.answers.is_empty());
    }

    #[test]
    fn lame_zone_servfails() {
        let mut a = Authority::new();
        a.publish(Zone::builder(name("lame.org")).a(Ipv4Addr::new(9, 9, 9, 9)).lame().build());
        assert_eq!(a.query(&name("lame.org"), RecordType::A).rcode, Rcode::ServFail);
    }

    #[test]
    fn publish_replaces_a_zone() {
        let mut a = authority_with_foo();
        assert_eq!(a.len(), 1);
        a.publish(Zone::single_mx(name("foo.net"), Ipv4Addr::new(8, 8, 8, 8)));
        let out = a.query(&name("foo.net"), RecordType::Mx);
        assert_eq!(out.answers.len(), 1, "republish must replace the zone");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn ptr_records_resolve() {
        let mut a = Authority::new();
        let ip = Ipv4Addr::new(64, 233, 160, 5);
        a.publish_ptr(ip, name("mail-a.google.com"));
        assert_eq!(a.resolve_ptr(ip), Some(name("mail-a.google.com")));
        assert_eq!(a.resolve_ptr(Ipv4Addr::new(1, 1, 1, 1)), None);
    }

    #[test]
    fn counts_queries() {
        let mut a = authority_with_foo();
        let before = a.queries_served();
        a.query(&name("foo.net"), RecordType::Mx);
        a.query(&name("foo.net"), RecordType::A);
        assert_eq!(a.queries_served(), before + 2);
    }
}
