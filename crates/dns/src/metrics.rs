//! Metric name constants and collectors for the DNS crate.
//!
//! All `dns.*` registry names live here (the O1 lint rule); hot paths only
//! bump the plain counter fields of
//! [`crate::resolver::ResolverStats`].

use crate::authority::Authority;
use crate::resolver::ResolverStats;
use spamward_obs::Registry;

/// A queries issued by the resolver.
pub const QUERY_A: &str = "dns.query.a";
/// MX queries issued by the resolver.
pub const QUERY_MX: &str = "dns.query.mx";
/// CNAME queries issued by the resolver.
pub const QUERY_CNAME: &str = "dns.query.cname";
/// Queries of any other record type.
pub const QUERY_OTHER: &str = "dns.query.other";
/// Queries answered from the resolver cache.
pub const CACHE_HIT: &str = "dns.cache.hit";
/// Queries forwarded to the authority.
pub const CACHE_MISS: &str = "dns.cache.miss";
/// Answers that came back NXDOMAIN.
pub const RCODE_NXDOMAIN: &str = "dns.rcode.nxdomain";
/// Answers that came back SERVFAIL.
pub const RCODE_SERVFAIL: &str = "dns.rcode.servfail";
/// MX resolutions that fell back to the implicit (apex A) exchanger.
pub const IMPLICIT_MX_FALLBACK: &str = "dns.resolve.implicit_mx_fallback";
/// Queries the authoritative server answered (all resolvers combined).
pub const AUTHORITY_SERVED: &str = "dns.authority.queries_served";
/// Resolutions forced to SERVFAIL by an injected DNS outage window.
pub const FAULT_SERVFAIL: &str = "net.fault.dns.servfail";
/// Resolutions that paid the slow-resolver surcharge.
pub const FAULT_SLOWED: &str = "net.fault.dns.slowed";

/// Exports injected-fault counters. Only call when a plan is installed (the
/// MTA world collector gates on [`Resolver::faults`]); fault-free runs keep
/// their exact metric composition.
///
/// [`Resolver::faults`]: crate::Resolver::faults
pub fn collect_resolver_faults(stats: &spamward_net::faults::DnsFaultStats, reg: &mut Registry) {
    reg.record_counter(FAULT_SERVFAIL, stats.servfails);
    reg.record_counter(FAULT_SLOWED, stats.slowed);
}

/// Exports resolver statistics under the canonical `dns.*` names.
pub fn collect_resolver(stats: &ResolverStats, reg: &mut Registry) {
    reg.record_counter(QUERY_A, stats.a_queries);
    reg.record_counter(QUERY_MX, stats.mx_queries);
    reg.record_counter(QUERY_CNAME, stats.cname_queries);
    reg.record_counter(QUERY_OTHER, stats.other_queries);
    reg.record_counter(CACHE_HIT, stats.hits);
    reg.record_counter(CACHE_MISS, stats.misses);
    reg.record_counter(RCODE_NXDOMAIN, stats.nxdomain);
    reg.record_counter(RCODE_SERVFAIL, stats.servfail);
    reg.record_counter(IMPLICIT_MX_FALLBACK, stats.implicit_mx_fallbacks);
}

/// Exports authority-side counters.
pub fn collect_authority(authority: &Authority, reg: &mut Registry) {
    reg.record_counter(AUTHORITY_SERVED, authority.queries_served());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use crate::Resolver;
    use spamward_sim::SimTime;
    use std::net::Ipv4Addr;

    #[test]
    fn collectors_mirror_the_stats_fields() {
        let mut dns = Authority::new();
        dns.publish(Zone::no_mx("bar.org".parse().unwrap(), Ipv4Addr::new(192, 0, 2, 7)));
        let mut r = Resolver::new();
        r.resolve_mx(&mut dns, &"bar.org".parse().unwrap(), SimTime::ZERO).unwrap();
        let _ = r.resolve_mx(&mut dns, &"ghost.example".parse().unwrap(), SimTime::ZERO);

        let mut reg = Registry::new();
        collect_resolver(&r.stats(), &mut reg);
        collect_authority(&dns, &mut reg);

        assert_eq!(reg.counter(QUERY_MX), Some(r.stats().mx_queries));
        assert_eq!(reg.counter(IMPLICIT_MX_FALLBACK), Some(1));
        assert_eq!(reg.counter(RCODE_NXDOMAIN), Some(r.stats().nxdomain));
        assert!(reg.counter(RCODE_NXDOMAIN).unwrap() >= 1, "ghost.example is NXDOMAIN");
        assert_eq!(reg.counter(AUTHORITY_SERVED), Some(dns.queries_served()));
        assert!(reg.len() >= 10);
    }
}
