//! Resource records.

use crate::name::DomainName;
use spamward_sim::SimDuration;
use std::fmt;
use std::net::Ipv4Addr;

/// The record types the suite queries for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Canonical-name alias record.
    Cname,
    /// Mail exchanger record.
    Mx,
    /// Authoritative name server record.
    Ns,
    /// Reverse-lookup pointer record.
    Ptr,
    /// Free-form text record.
    Txt,
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Cname => "CNAME",
            RecordType::Mx => "MX",
            RecordType::Ns => "NS",
            RecordType::Ptr => "PTR",
            RecordType::Txt => "TXT",
        };
        f.write_str(s)
    }
}

/// The payload of a resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An alias to another name. RFC 2181 §10.3 forbids MX targets from
    /// being CNAMEs, but the real DNS is full of them — a misconfiguration
    /// flavour the resolver must survive.
    Cname(DomainName),
    /// A mail exchanger: lower preference values are tried first.
    Mx {
        /// Priority; RFC 5321 mandates trying exchangers in ascending order.
        preference: u16,
        /// The exchanger's host name (needs its own A record to be usable).
        exchange: DomainName,
    },
    /// A delegation.
    Ns(DomainName),
    /// A reverse pointer: the host name an address maps back to.
    Ptr(DomainName),
    /// Arbitrary text.
    Txt(String),
}

impl RecordData {
    /// The type this payload answers for.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Ptr(_) => RecordType::Ptr,
            RecordData::Txt(_) => RecordType::Txt,
        }
    }
}

impl fmt::Display for RecordData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordData::A(ip) => write!(f, "A {ip}"),
            RecordData::Cname(target) => write!(f, "CNAME {target}"),
            RecordData::Mx { preference, exchange } => write!(f, "MX {preference} {exchange}"),
            RecordData::Ns(ns) => write!(f, "NS {ns}"),
            RecordData::Ptr(target) => write!(f, "PTR {target}"),
            RecordData::Txt(t) => write!(f, "TXT {t:?}"),
        }
    }
}

/// A complete resource record: owner name, TTL and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// The owner name the record answers for.
    pub name: DomainName,
    /// Cache lifetime.
    pub ttl: SimDuration,
    /// The payload.
    pub data: RecordData,
}

impl ResourceRecord {
    /// Default TTL used by the zone builders (1 hour).
    pub const DEFAULT_TTL: SimDuration = SimDuration::from_secs(3_600);

    /// Creates a record with the default TTL.
    pub fn new(name: DomainName, data: RecordData) -> Self {
        ResourceRecord { name, ttl: Self::DEFAULT_TTL, data }
    }

    /// The record's type.
    pub fn record_type(&self) -> RecordType {
        self.data.record_type()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.ttl, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn payload_type_mapping() {
        assert_eq!(RecordData::A(Ipv4Addr::LOCALHOST).record_type(), RecordType::A);
        assert_eq!(
            RecordData::Mx { preference: 0, exchange: name("mx.x.y") }.record_type(),
            RecordType::Mx
        );
        assert_eq!(RecordData::Ns(name("ns.x.y")).record_type(), RecordType::Ns);
        assert_eq!(RecordData::Txt("v=spf1".into()).record_type(), RecordType::Txt);
    }

    #[test]
    fn display_forms() {
        let rr = ResourceRecord::new(
            name("foo.net"),
            RecordData::Mx { preference: 10, exchange: name("smtp.foo.net") },
        );
        assert_eq!(rr.to_string(), "foo.net 1h00m00s MX 10 smtp.foo.net");
        assert_eq!(RecordType::Mx.to_string(), "MX");
    }
}
