//! Zones: a domain's record set, with builders for the mail topologies the
//! study encounters.

use crate::name::DomainName;
use crate::record::{RecordData, RecordType, ResourceRecord};
use std::net::Ipv4Addr;

/// The record set a domain publishes.
///
/// # Example — a conventional two-MX domain
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_dns::{Zone, RecordType};
///
/// let zone = Zone::builder("foo.net".parse()?)
///     .mx(0, "smtp", Ipv4Addr::new(192, 0, 2, 10))
///     .mx(15, "smtp1", Ipv4Addr::new(192, 0, 2, 11))
///     .build();
/// assert_eq!(zone.lookup(zone.origin(), RecordType::Mx).count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    origin: DomainName,
    records: Vec<ResourceRecord>,
    /// When set, the authority answers SERVFAIL for every query in the zone.
    pub lame: bool,
}

impl Zone {
    /// Starts building a zone rooted at `origin`.
    pub fn builder(origin: DomainName) -> ZoneBuilder {
        ZoneBuilder { zone: Zone { origin, records: Vec::new(), lame: false } }
    }

    /// The zone origin (the domain itself).
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Records answering `(name, rtype)` exactly, in zone order.
    pub fn lookup<'a>(
        &'a self,
        name: &'a DomainName,
        rtype: RecordType,
    ) -> impl Iterator<Item = &'a ResourceRecord> {
        self.records.iter().filter(move |r| r.record_type() == rtype && r.name == *name)
    }

    /// Whether any record exists at `name` (for NXDOMAIN vs NODATA).
    pub fn has_name(&self, name: &DomainName) -> bool {
        self.records.iter().any(|r| &r.name == name)
    }

    /// A standard "one MX" zone: single exchanger with glue.
    pub fn single_mx(origin: DomainName, mx_ip: Ipv4Addr) -> Zone {
        Zone::builder(origin).mx(10, "mail", mx_ip).build()
    }

    /// A **nolisting** zone (paper §II): the primary MX resolves to
    /// `dead_ip` — a real machine that does *not* listen on port 25 — and
    /// the secondary points at the actual mail server `live_ip`.
    ///
    /// The caller is responsible for registering hosts in the simulated
    /// network such that `dead_ip` has port 25 closed and `live_ip` open;
    /// [`crate::zone::NOLISTING_PRIMARY_PREF`] and
    /// [`crate::zone::NOLISTING_SECONDARY_PREF`] are the preferences used.
    pub fn nolisting(origin: DomainName, dead_ip: Ipv4Addr, live_ip: Ipv4Addr) -> Zone {
        Zone::builder(origin)
            .mx(NOLISTING_PRIMARY_PREF, "smtp", dead_ip)
            .mx(NOLISTING_SECONDARY_PREF, "smtp1", live_ip)
            .build()
    }

    /// A misconfigured zone with **no MX records at all** (5.78% of the
    /// Fig. 2 population): only an apex A record, which RFC 5321 clients
    /// treat as an implicit MX.
    pub fn no_mx(origin: DomainName, apex_ip: Ipv4Addr) -> Zone {
        let apex = origin.clone();
        Zone::builder(origin).a_at(apex, apex_ip).build()
    }

    /// A misconfigured zone whose MX target has **no A record** (the
    /// "missing entries" the paper re-resolved with a parallel scanner;
    /// unresolvable ones count toward DNS misconfiguration).
    pub fn dangling_mx(origin: DomainName) -> Zone {
        let exchange = origin.prefixed("mail").expect("valid label");
        let mut b = Zone::builder(origin);
        b.zone.records.push(ResourceRecord::new(
            b.zone.origin.clone(),
            RecordData::Mx { preference: 10, exchange },
        ));
        b.build()
    }
}

/// MX preference of the intentionally dead primary in a nolisting zone.
pub const NOLISTING_PRIMARY_PREF: u16 = 0;
/// MX preference of the working secondary in a nolisting zone.
pub const NOLISTING_SECONDARY_PREF: u16 = 15;

/// Incremental [`Zone`] construction.
#[derive(Debug)]
pub struct ZoneBuilder {
    zone: Zone,
}

impl ZoneBuilder {
    /// Adds an MX record for the origin plus the glue A record for its
    /// target `label.origin` → `ip`.
    pub fn mx(mut self, preference: u16, label: &str, ip: Ipv4Addr) -> Self {
        let exchange = self.zone.origin.prefixed(label).expect("valid MX label");
        self.zone.records.push(ResourceRecord::new(
            self.zone.origin.clone(),
            RecordData::Mx { preference, exchange: exchange.clone() },
        ));
        self.zone.records.push(ResourceRecord::new(exchange, RecordData::A(ip)));
        self
    }

    /// Adds an MX record pointing at an already-named exchanger, without
    /// glue (use [`ZoneBuilder::a_at`] to add the address separately, or
    /// leave it dangling).
    pub fn mx_to(mut self, preference: u16, exchange: DomainName) -> Self {
        self.zone.records.push(ResourceRecord::new(
            self.zone.origin.clone(),
            RecordData::Mx { preference, exchange },
        ));
        self
    }

    /// Adds an A record at the zone origin.
    pub fn a(mut self, ip: Ipv4Addr) -> Self {
        self.zone.records.push(ResourceRecord::new(self.zone.origin.clone(), RecordData::A(ip)));
        self
    }

    /// Adds an A record at an arbitrary owner name.
    pub fn a_at(mut self, name: DomainName, ip: Ipv4Addr) -> Self {
        self.zone.records.push(ResourceRecord::new(name, RecordData::A(ip)));
        self
    }

    /// Adds a CNAME record: `name` → `target`.
    pub fn cname(mut self, name: DomainName, target: DomainName) -> Self {
        self.zone.records.push(ResourceRecord::new(name, RecordData::Cname(target)));
        self
    }

    /// Adds a TXT record at the origin.
    pub fn txt(mut self, text: &str) -> Self {
        self.zone
            .records
            .push(ResourceRecord::new(self.zone.origin.clone(), RecordData::Txt(text.to_owned())));
        self
    }

    /// Marks the zone lame: every query is answered SERVFAIL.
    pub fn lame(mut self) -> Self {
        self.zone.lame = true;
        self
    }

    /// Finishes the zone.
    pub fn build(self) -> Zone {
        self.zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, d)
    }

    #[test]
    fn builder_adds_glue() {
        let z = Zone::builder(name("foo.net")).mx(0, "smtp", ip(1)).build();
        assert_eq!(z.lookup(&name("foo.net"), RecordType::Mx).count(), 1);
        let smtp = name("smtp.foo.net");
        let a: Vec<_> = z.lookup(&smtp, RecordType::A).collect();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].data, RecordData::A(ip(1)));
    }

    #[test]
    fn nolisting_zone_shape() {
        let z = Zone::nolisting(name("foo.net"), ip(1), ip(2));
        let mut mxs: Vec<(u16, String)> = z
            .lookup(z.origin(), RecordType::Mx)
            .filter_map(|r| match &r.data {
                RecordData::Mx { preference, exchange } => {
                    Some((*preference, exchange.to_string()))
                }
                _ => None,
            })
            .collect();
        mxs.sort();
        assert_eq!(
            mxs,
            vec![
                (NOLISTING_PRIMARY_PREF, "smtp.foo.net".to_owned()),
                (NOLISTING_SECONDARY_PREF, "smtp1.foo.net".to_owned()),
            ]
        );
        // Both exchangers have proper A records — the primary *resolves*,
        // it just doesn't accept SMTP (that's the network's job to model).
        assert_eq!(z.lookup(&name("smtp.foo.net"), RecordType::A).count(), 1);
        assert_eq!(z.lookup(&name("smtp1.foo.net"), RecordType::A).count(), 1);
    }

    #[test]
    fn no_mx_zone_has_apex_a_only() {
        let z = Zone::no_mx(name("bar.org"), ip(3));
        assert_eq!(z.lookup(z.origin(), RecordType::Mx).count(), 0);
        assert_eq!(z.lookup(&name("bar.org"), RecordType::A).count(), 1);
    }

    #[test]
    fn dangling_mx_has_no_glue() {
        let z = Zone::dangling_mx(name("baz.io"));
        assert_eq!(z.lookup(z.origin(), RecordType::Mx).count(), 1);
        assert!(!z.has_name(&name("mail.baz.io")), "the exchanger has no glue");
    }

    #[test]
    fn has_name_distinguishes_nodata_from_nxdomain() {
        let z = Zone::builder(name("foo.net")).mx(0, "smtp", ip(1)).build();
        assert!(z.has_name(&name("smtp.foo.net")));
        assert_eq!(z.lookup(&name("smtp.foo.net"), RecordType::Mx).count(), 0);
        assert!(!z.has_name(&name("other.foo.net")));
    }

    #[test]
    fn lame_flag() {
        let z = Zone::builder(name("foo.net")).lame().build();
        assert!(z.lame);
    }
}
