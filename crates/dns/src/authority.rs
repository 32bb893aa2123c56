//! The simulated global DNS authority.

use crate::name::DomainName;
use crate::record::{RecordType, ResourceRecord};
use crate::zone::Zone;
use spamward_sim::WordHash;
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
    zones: HashMap<DomainName, Zone, WordHash>,
    reverse: HashMap<std::net::Ipv4Addr, DomainName, WordHash>,
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

    /// Withdraws every zone and PTR mapping, keeping the maps' capacity,
    /// so an authority refilled per domain allocates no new tables. The
    /// served-query counter keeps counting.
    pub fn clear(&mut self) {
        self.zones.clear();
        self.reverse.clear();
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

    /// The zone published at `origin`, if any.
    pub fn zone(&self, origin: &str) -> Option<&Zone> {
        self.zones.get(origin)
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

    /// Counts one served query, for callers that answer through
    /// [`Authority::lookup`] ([`Authority::query`] counts its own).
    pub fn count_query(&mut self) {
        self.queries_served += 1;
    }

    /// The one lookup behind every query: the records answering
    /// `(name, rtype)`, borrowed from their zone in zone order, or the
    /// error code. Counts nothing and copies nothing.
    ///
    /// # Errors
    ///
    /// [`Rcode::ServFail`] for lame zones, and [`Rcode::NxDomain`] when no
    /// enclosing zone exists or the name is absent from its zone. An
    /// `Ok` with no records is NODATA.
    pub fn lookup<'a>(
        &'a self,
        name: &'a DomainName,
        rtype: RecordType,
    ) -> Result<impl Iterator<Item = &'a ResourceRecord>, Rcode> {
        let zone = self.enclosing_zone(name).ok_or(Rcode::NxDomain)?;
        if zone.lame {
            return Err(Rcode::ServFail);
        }
        if !zone.has_name(name) {
            return Err(Rcode::NxDomain);
        }
        Ok(zone.lookup(name, rtype))
    }

    /// Answers a typed query, counting it: [`Authority::lookup`] with the
    /// answers copied out.
    pub fn query(&mut self, name: &DomainName, rtype: RecordType) -> QueryOutcome {
        self.count_query();
        self.query_ro(name, rtype)
    }

    /// Like [`Authority::query`] but without the served-queries counter,
    /// so it answers through a shared reference.
    pub fn query_ro(&self, name: &DomainName, rtype: RecordType) -> QueryOutcome {
        match self.lookup(name, rtype) {
            Ok(records) => {
                QueryOutcome { rcode: Rcode::NoError, answers: records.cloned().collect() }
            }
            Err(rcode) => QueryOutcome { rcode, answers: Vec::new() },
        }
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
    fn lookup_borrows_what_query_copies() {
        let mut a = authority_with_foo();
        a.publish(Zone::builder(name("lame.org")).a(Ipv4Addr::new(9, 9, 9, 9)).lame().build());
        let cases = [
            ("foo.net", RecordType::Mx),
            ("smtp.foo.net", RecordType::A),
            ("smtp.foo.net", RecordType::Mx),
            ("bar.net", RecordType::Mx),
            ("nope.foo.net", RecordType::A),
            ("lame.org", RecordType::A),
        ];
        for (owner, rtype) in cases {
            let owner = name(owner);
            let copied = a.query_ro(&owner, rtype);
            match a.lookup(&owner, rtype) {
                Ok(records) => {
                    assert_eq!(copied.rcode, Rcode::NoError);
                    assert_eq!(records.cloned().collect::<Vec<_>>(), copied.answers);
                }
                Err(rcode) => {
                    assert_eq!(rcode, copied.rcode, "{owner} {rtype}");
                    assert!(copied.answers.is_empty());
                }
            };
        }
        assert_eq!(a.queries_served(), 0, "lookup and query_ro count nothing");
    }

    #[test]
    fn clear_withdraws_every_zone_and_ptr_but_keeps_counting() {
        let mut a = authority_with_foo();
        let foo =
            Zone::nolisting(name("foo.net"), Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(1, 2, 3, 5));
        assert_eq!(a.zone("foo.net"), Some(&foo));
        assert_eq!(a.zone("smtp.foo.net"), None, "only origins name zones");
        let ip = Ipv4Addr::new(1, 2, 3, 4);
        a.publish_ptr(ip, name("smtp.foo.net"));
        a.query(&name("foo.net"), RecordType::Mx);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.zone("foo.net"), None);
        assert_eq!(a.query(&name("foo.net"), RecordType::Mx).rcode, Rcode::NxDomain);
        assert_eq!(a.resolve_ptr(ip), None);
        assert_eq!(a.queries_served(), 3);
        // A refilled authority answers like a fresh one.
        a.publish(Zone::single_mx(name("foo.net"), Ipv4Addr::new(8, 8, 8, 8)));
        assert_eq!(a.query(&name("foo.net"), RecordType::Mx).answers.len(), 1);
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
