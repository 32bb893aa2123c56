//! A caching stub resolver implementing mail-client MX resolution.

use crate::authority::{Authority, Rcode};
use crate::name::DomainName;
use crate::record::{RecordData, RecordType};
use spamward_net::faults::DnsFaults;
use spamward_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// One usable (or dangling) mail exchanger for a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxHost {
    /// MX preference; lower is tried first (RFC 5321 §5.1).
    pub preference: u16,
    /// The exchanger's name.
    pub name: DomainName,
    /// Resolved address; `None` when the MX target has no A record (the
    /// "missing entries" the paper's parallel scanner chased).
    pub ip: Option<Ipv4Addr>,
}

/// Why MX resolution failed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// The domain does not exist.
    NxDomain,
    /// The authority answered SERVFAIL.
    ServFail,
    /// The domain exists but publishes neither MX nor apex A records.
    NoMailServer,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NxDomain => write!(f, "domain does not exist"),
            ResolveError::ServFail => write!(f, "authoritative server failure"),
            ResolveError::NoMailServer => write!(f, "domain has no MX and no apex A record"),
        }
    }
}

impl std::error::Error for ResolveError {}

#[derive(Debug, Clone)]
struct CacheEntry {
    expires: SimTime,
    rcode: Rcode,
    answers: Vec<crate::record::ResourceRecord>,
}

/// Cache and query statistics.
///
/// Plain counter fields on the hot path; `spamward_dns::metrics` binds the
/// registry names at collection time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries forwarded to the authority.
    pub misses: u64,
    /// A queries issued (cached or not).
    pub a_queries: u64,
    /// MX queries issued.
    pub mx_queries: u64,
    /// CNAME queries issued.
    pub cname_queries: u64,
    /// Queries of any other record type.
    pub other_queries: u64,
    /// Answers that came back NXDOMAIN.
    pub nxdomain: u64,
    /// Answers that came back SERVFAIL.
    pub servfail: u64,
    /// MX resolutions that fell back to the implicit (apex A) exchanger —
    /// the path a nolisting zone without MX records would exercise.
    pub implicit_mx_fallbacks: u64,
}

/// A caching resolver over an [`Authority`].
///
/// The cache honors record TTLs against virtual time and negative-caches
/// NXDOMAIN/SERVFAIL briefly, mirroring a stub resolver in front of the
/// experiments.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_dns::{Authority, Resolver, Zone};
/// use spamward_sim::SimTime;
///
/// let mut dns = Authority::new();
/// dns.publish(Zone::nolisting(
///     "foo.net".parse()?,
///     Ipv4Addr::new(192, 0, 2, 1),
///     Ipv4Addr::new(192, 0, 2, 2),
/// ));
/// let mut resolver = Resolver::new();
///
/// let mxs = resolver.resolve_mx(&mut dns, &"foo.net".parse()?, SimTime::ZERO)?;
/// assert_eq!(mxs.len(), 2);
/// assert!(mxs[0].preference < mxs[1].preference);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Resolver {
    cache: HashMap<(DomainName, RecordType), CacheEntry>,
    stats: ResolverStats,
    faults: Option<DnsFaults>,
    /// Lifetime of cached negative answers.
    pub negative_ttl: SimDuration,
}

impl Resolver {
    /// Creates a resolver with a 5-minute negative-cache TTL.
    pub fn new() -> Self {
        Resolver {
            cache: HashMap::new(),
            stats: ResolverStats::default(),
            faults: None,
            negative_ttl: SimDuration::from_mins(5),
        }
    }

    /// Cache/query statistics so far.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Installs DNS faults (a compiled plan's `dns` half). Until this is
    /// called the resolver behaves exactly as if the fault layer did not
    /// exist.
    pub fn install_faults(&mut self, faults: DnsFaults) {
        self.faults = Some(faults);
    }

    /// The installed fault state (with its fired-fault counters), if any.
    pub fn faults(&self) -> Option<&DnsFaults> {
        self.faults.as_ref()
    }

    /// Extra resolution latency the slow-resolver fault charges at `now`
    /// ([`SimDuration::ZERO`] when no fault is active). Callers that model
    /// time spent resolving add this to their clock.
    pub fn fault_extra_latency(&mut self, now: SimTime) -> SimDuration {
        match &mut self.faults {
            Some(f) => f.extra_latency(now),
            None => SimDuration::ZERO,
        }
    }

    fn query_cached(
        &mut self,
        authority: &mut Authority,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
    ) -> (Rcode, Vec<crate::record::ResourceRecord>) {
        match rtype {
            RecordType::A => self.stats.a_queries += 1,
            RecordType::Mx => self.stats.mx_queries += 1,
            RecordType::Cname => self.stats.cname_queries += 1,
            _ => self.stats.other_queries += 1,
        }
        let key = (name.clone(), rtype);
        if let Some(entry) = self.cache.get(&key) {
            if entry.expires > now {
                self.stats.hits += 1;
                match entry.rcode {
                    Rcode::NxDomain => self.stats.nxdomain += 1,
                    Rcode::ServFail => self.stats.servfail += 1,
                    Rcode::NoError => {}
                }
                return (entry.rcode, entry.answers.clone());
            }
        }
        self.stats.misses += 1;
        let out = authority.query(name, rtype);
        match out.rcode {
            Rcode::NxDomain => self.stats.nxdomain += 1,
            Rcode::ServFail => self.stats.servfail += 1,
            Rcode::NoError => {}
        }
        let ttl = match out.rcode {
            Rcode::NoError => out.answers.iter().map(|r| r.ttl).min().unwrap_or(self.negative_ttl),
            _ => self.negative_ttl,
        };
        self.cache.insert(
            key,
            CacheEntry { expires: now + ttl, rcode: out.rcode, answers: out.answers.clone() },
        );
        (out.rcode, out.answers)
    }

    /// Resolves a single A record, following CNAME chains up to 8 deep
    /// (loop protection; real resolvers bound similarly).
    pub fn resolve_a(
        &mut self,
        authority: &mut Authority,
        name: &DomainName,
        now: SimTime,
    ) -> Option<Ipv4Addr> {
        let mut cursor = name.clone();
        for _ in 0..8 {
            let (rcode, answers) = self.query_cached(authority, &cursor, RecordType::A, now);
            if rcode != Rcode::NoError {
                return None;
            }
            if let Some(ip) = answers.iter().find_map(|r| match r.data {
                RecordData::A(ip) => Some(ip),
                _ => None,
            }) {
                return Some(ip);
            }
            // No A answer; is there an alias to chase?
            let (rcode, answers) = self.query_cached(authority, &cursor, RecordType::Cname, now);
            if rcode != Rcode::NoError {
                return None;
            }
            match answers.iter().find_map(|r| match &r.data {
                RecordData::Cname(target) => Some(target.clone()),
                _ => None,
            }) {
                Some(target) => cursor = target,
                None => return None,
            }
        }
        None // chain too long or looping
    }

    /// Resolves the ordered mail-exchanger list for `domain`, following RFC
    /// 5321 §5.1:
    ///
    /// 1. Query MX; sort ascending by preference (ties keep zone order).
    /// 2. Resolve each exchanger's A record (missing glue ⇒ `ip: None`).
    /// 3. If the domain publishes no MX at all, fall back to the *implicit
    ///    MX*: the apex A record with preference 0.
    ///
    /// # Errors
    ///
    /// * [`ResolveError::NxDomain`] / [`ResolveError::ServFail`] — forwarded
    ///   from the authority.
    /// * [`ResolveError::NoMailServer`] — no MX and no apex A.
    pub fn resolve_mx(
        &mut self,
        authority: &mut Authority,
        domain: &DomainName,
        now: SimTime,
    ) -> Result<Vec<MxHost>, ResolveError> {
        if let Some(faults) = &mut self.faults {
            if faults.servfail(now) {
                // An injected SERVFAIL never reaches the authority and is
                // not cached: the outage window, not the negative TTL,
                // decides when resolution recovers.
                self.stats.servfail += 1;
                return Err(ResolveError::ServFail);
            }
        }
        let (rcode, answers) = self.query_cached(authority, domain, RecordType::Mx, now);
        match rcode {
            Rcode::ServFail => return Err(ResolveError::ServFail),
            Rcode::NxDomain => return Err(ResolveError::NxDomain),
            Rcode::NoError => {}
        }
        let mut mxs: Vec<(u16, DomainName)> = answers
            .iter()
            .filter_map(|r| match &r.data {
                RecordData::Mx { preference, exchange } => Some((*preference, exchange.clone())),
                _ => None,
            })
            .collect();

        if mxs.is_empty() {
            // Implicit MX: an apex A record stands in as a preference-0
            // exchanger.
            self.stats.implicit_mx_fallbacks += 1;
            return match self.resolve_a(authority, domain, now) {
                Some(ip) => Ok(vec![MxHost { preference: 0, name: domain.clone(), ip: Some(ip) }]),
                None => Err(ResolveError::NoMailServer),
            };
        }

        mxs.sort_by_key(|a| a.0);
        let hosts = mxs
            .into_iter()
            .map(|(preference, name)| {
                let ip = self.resolve_a(authority, &name, now);
                MxHost { preference, name, ip }
            })
            .collect();
        Ok(hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, d)
    }

    #[test]
    fn injected_servfail_window_gates_resolution() {
        use spamward_net::faults::{FaultPlan, FaultProfile};
        let mut dns = Authority::new();
        dns.publish(Zone::builder(name("foo.net")).mx(10, "mx1", ip(1)).build());
        let mut r = Resolver::new();
        // dns_degraded: SERVFAIL over [2min, 12min), slow resolver [0, 30min).
        r.install_faults(FaultPlan::compile(&FaultProfile::dns_degraded(), 4).dns);
        let at = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);

        assert!(r.resolve_mx(&mut dns, &name("foo.net"), at(0)).is_ok());
        assert_eq!(r.resolve_mx(&mut dns, &name("foo.net"), at(5)), Err(ResolveError::ServFail));
        // The injected failure is not negative-cached: the moment the window
        // closes, resolution works again (the positive cache answers).
        assert!(r.resolve_mx(&mut dns, &name("foo.net"), at(12)).is_ok());

        assert_eq!(r.fault_extra_latency(at(20)), SimDuration::from_secs(2));
        assert_eq!(r.fault_extra_latency(at(31)), SimDuration::ZERO);
        let stats = r.faults().unwrap().stats;
        assert_eq!(stats.servfails, 1);
        assert_eq!(stats.slowed, 1);
        // The forced SERVFAIL also lands in the ordinary resolver stats.
        assert_eq!(r.stats().servfail, 1);
    }

    #[test]
    fn orders_by_preference() {
        let mut dns = Authority::new();
        dns.publish(
            Zone::builder(name("foo.net"))
                .mx(20, "mx2", ip(2))
                .mx(5, "mx0", ip(0))
                .mx(10, "mx1", ip(1))
                .build(),
        );
        let mut r = Resolver::new();
        let mxs = r.resolve_mx(&mut dns, &name("foo.net"), SimTime::ZERO).unwrap();
        let prefs: Vec<u16> = mxs.iter().map(|m| m.preference).collect();
        assert_eq!(prefs, vec![5, 10, 20]);
        assert_eq!(mxs[0].ip, Some(ip(0)));
    }

    #[test]
    fn implicit_mx_fallback() {
        let mut dns = Authority::new();
        dns.publish(Zone::no_mx(name("bar.org"), ip(7)));
        let mut r = Resolver::new();
        let mxs = r.resolve_mx(&mut dns, &name("bar.org"), SimTime::ZERO).unwrap();
        assert_eq!(mxs.len(), 1);
        assert_eq!(mxs[0].preference, 0);
        assert_eq!(mxs[0].name, name("bar.org"));
        assert_eq!(mxs[0].ip, Some(ip(7)));
    }

    #[test]
    fn dangling_mx_yields_none_ip() {
        let mut dns = Authority::new();
        dns.publish(Zone::dangling_mx(name("baz.io")));
        let mut r = Resolver::new();
        let mxs = r.resolve_mx(&mut dns, &name("baz.io"), SimTime::ZERO).unwrap();
        assert_eq!(mxs.len(), 1);
        assert_eq!(mxs[0].ip, None);
    }

    #[test]
    fn cname_chain_followed() {
        let mut dns = Authority::new();
        dns.publish(
            Zone::builder(name("foo.net"))
                .mx_to(10, name("mail.foo.net"))
                .cname(name("mail.foo.net"), name("real.foo.net"))
                .a_at(name("real.foo.net"), ip(9))
                .build(),
        );
        let mut r = Resolver::new();
        let mxs = r.resolve_mx(&mut dns, &name("foo.net"), SimTime::ZERO).unwrap();
        assert_eq!(mxs[0].ip, Some(ip(9)), "MX → CNAME → A must resolve");
    }

    #[test]
    fn cname_loop_bounded() {
        let mut dns = Authority::new();
        dns.publish(
            Zone::builder(name("loop.net"))
                .mx_to(10, name("a.loop.net"))
                .cname(name("a.loop.net"), name("b.loop.net"))
                .cname(name("b.loop.net"), name("a.loop.net"))
                .build(),
        );
        let mut r = Resolver::new();
        let mxs = r.resolve_mx(&mut dns, &name("loop.net"), SimTime::ZERO).unwrap();
        assert_eq!(mxs[0].ip, None, "CNAME loop must terminate with no address");
    }

    #[test]
    fn errors_forwarded() {
        let mut dns = Authority::new();
        dns.publish(Zone::builder(name("lame.org")).a(ip(1)).lame().build());
        let mut r = Resolver::new();
        assert_eq!(
            r.resolve_mx(&mut dns, &name("gone.example"), SimTime::ZERO),
            Err(ResolveError::NxDomain)
        );
        assert_eq!(
            r.resolve_mx(&mut dns, &name("lame.org"), SimTime::ZERO),
            Err(ResolveError::ServFail)
        );
    }

    #[test]
    fn no_mail_server_error() {
        let mut dns = Authority::new();
        dns.publish(Zone::builder(name("textonly.example")).txt("hello").build());
        let mut r = Resolver::new();
        assert_eq!(
            r.resolve_mx(&mut dns, &name("textonly.example"), SimTime::ZERO),
            Err(ResolveError::NoMailServer)
        );
    }

    #[test]
    fn cache_hits_within_ttl_and_expires_after() {
        let mut dns = Authority::new();
        dns.publish(Zone::single_mx(name("foo.net"), ip(1)));
        let mut r = Resolver::new();
        let t0 = SimTime::ZERO;
        r.resolve_mx(&mut dns, &name("foo.net"), t0).unwrap();
        let after_first = r.stats();
        r.resolve_mx(&mut dns, &name("foo.net"), t0 + SimDuration::from_mins(1)).unwrap();
        let after_second = r.stats();
        assert_eq!(after_second.misses, after_first.misses, "second resolve must hit cache");
        assert!(after_second.hits > after_first.hits);

        // Past the 1 h TTL the cache must refresh.
        r.resolve_mx(&mut dns, &name("foo.net"), t0 + SimDuration::from_hours(2)).unwrap();
        assert!(r.stats().misses > after_second.misses);
    }

    #[test]
    fn cache_serves_stale_config_until_expiry() {
        let mut dns = Authority::new();
        dns.publish(Zone::single_mx(name("foo.net"), ip(1)));
        let mut r = Resolver::new();
        let t0 = SimTime::ZERO;
        let first = r.resolve_mx(&mut dns, &name("foo.net"), t0).unwrap();
        // The domain re-publishes with a different MX.
        dns.publish(Zone::single_mx(name("foo.net"), ip(9)));
        let cached =
            r.resolve_mx(&mut dns, &name("foo.net"), t0 + SimDuration::from_mins(10)).unwrap();
        assert_eq!(first, cached, "stale answer expected within TTL");
        let fresh =
            r.resolve_mx(&mut dns, &name("foo.net"), t0 + SimDuration::from_hours(2)).unwrap();
        assert_eq!(fresh[0].ip, Some(ip(9)));
    }

    #[test]
    fn negative_cache_applies() {
        let mut dns = Authority::new();
        let mut r = Resolver::new();
        let t0 = SimTime::ZERO;
        let _ = r.resolve_mx(&mut dns, &name("ghost.example"), t0);
        let misses = r.stats().misses;
        let _ = r.resolve_mx(&mut dns, &name("ghost.example"), t0 + SimDuration::from_secs(30));
        assert_eq!(r.stats().misses, misses, "negative answer must be cached");
    }
}
