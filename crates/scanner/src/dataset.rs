//! The two zmap-style datasets: DNS-ANY MX records and the SMTP banner
//! grab.

use spamward_dns::{Authority, DomainName, RecordData, RecordType};
use spamward_net::{Network, SMTP_PORT};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One MX record as the DNS-ANY dataset carries it: the exchanger name,
/// its preference, and — when the original scan captured glue — its
/// address. Entries with `ip: None` are the paper's "missing entries".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxRecordEntry {
    /// MX preference.
    pub preference: u16,
    /// The exchanger name.
    pub exchange: DomainName,
    /// The exchanger's address, if the dump included it.
    pub ip: Option<Ipv4Addr>,
}

/// The DNS Records (ANY) dataset restricted to A and MX records, as the
/// paper used it.
#[derive(Debug, Clone, Default)]
pub struct DnsAnyScan {
    /// Per-domain MX entries (absent key = no MX data at all).
    pub mx: BTreeMap<DomainName, Vec<MxRecordEntry>>,
}

impl DnsAnyScan {
    /// Collects the dataset by querying every domain in `domains` against
    /// the authority for its MX records.
    ///
    /// Like the real dump, the dataset carries no glue: every entry comes
    /// back with `ip: None` until [`DnsAnyScan::resolve_glue`] looks the
    /// exchangers' A records up. Lame zones yield no entry at all; a
    /// dangling MX stays `ip: None` after that pass. Each domain counts as
    /// one served query, and its answers are read in place.
    pub fn collect<'a>(
        dns: &mut Authority,
        domains: impl IntoIterator<Item = &'a DomainName>,
    ) -> DnsAnyScan {
        let mut mx = BTreeMap::new();
        for domain in domains {
            let mut entries = Vec::new();
            collect_mx(dns, domain, &mut entries);
            if !entries.is_empty() {
                mx.insert(domain.clone(), entries);
            }
        }
        DnsAnyScan { mx }
    }

    /// The paper's "parallel scanner to resolve the missing entries":
    /// looks up the A record of every exchanger still lacking an address,
    /// reading the answers in place. Returns how many lookups it made and
    /// how many entries they patched.
    pub fn resolve_glue(&mut self, dns: &Authority) -> (u64, u64) {
        let (mut lookups, mut patched) = (0, 0);
        for entries in self.mx.values_mut() {
            let (l, p) = patch_glue(dns, entries);
            lookups += l;
            patched += p;
        }
        (lookups, patched)
    }

    /// One domain's entries: empty when the dataset has no MX data for it.
    pub(crate) fn entries(&self, domain: &DomainName) -> &[MxRecordEntry] {
        self.mx.get(domain).map_or(&[], Vec::as_slice)
    }

    /// Number of domains with MX data.
    pub fn len(&self) -> usize {
        self.mx.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.mx.is_empty()
    }

    /// Entries still lacking an address.
    pub fn missing_count(&self) -> usize {
        self.mx.values().map(|entries| missing(entries)).sum()
    }
}

/// One domain's row of the DNS-ANY dataset: counts one served query and
/// refills `entries` with the domain's MX records, preference-sorted and
/// without glue. A lame zone, an absent name or a zone without MX records
/// leaves `entries` empty, as the dataset leaves such a domain out.
pub(crate) fn collect_mx(
    dns: &mut Authority,
    domain: &DomainName,
    entries: &mut Vec<MxRecordEntry>,
) {
    entries.clear();
    dns.count_query();
    let Ok(records) = dns.lookup(domain, RecordType::Mx) else {
        return;
    };
    entries.extend(records.filter_map(|r| match &r.data {
        RecordData::Mx { preference, exchange } => {
            Some(MxRecordEntry { preference: *preference, exchange: exchange.clone(), ip: None })
        }
        _ => None,
    }));
    entries.sort_by_key(|e| e.preference);
}

/// One domain's glue pass: looks up the A record of every entry still
/// lacking an address, reading the answers in place. Returns how many
/// lookups it made and how many entries they patched.
pub(crate) fn patch_glue(dns: &Authority, entries: &mut [MxRecordEntry]) -> (u64, u64) {
    let (mut lookups, mut patched) = (0, 0);
    for e in entries.iter_mut().filter(|e| e.ip.is_none()) {
        lookups += 1;
        e.ip = dns.lookup(&e.exchange, RecordType::A).ok().and_then(|mut records| {
            records.find_map(|r| match r.data {
                RecordData::A(ip) => Some(ip),
                _ => None,
            })
        });
        patched += u64::from(e.ip.is_some());
    }
    (lookups, patched)
}

/// How many of `entries` still lack an address.
pub(crate) fn missing(entries: &[MxRecordEntry]) -> usize {
    entries.iter().filter(|e| e.ip.is_none()).count()
}

/// The IPv4 SMTP banner-grab dataset: every address that answered a SYN
/// on port 25 during one scan epoch.
#[derive(Debug, Clone, Default)]
pub struct BannerGrab {
    /// The scan epoch this grab ran in.
    pub epoch: u64,
    /// The listening addresses, ascending and each once.
    listening: Vec<Ipv4Addr>,
}

impl BannerGrab {
    /// Probes every host address in the network once.
    pub fn collect(network: &Network, epoch: u64) -> BannerGrab {
        let mut grab = BannerGrab::default();
        grab.refill(network, epoch);
        grab
    }

    /// Probes every host address in the network once, replacing what this
    /// grab held and keeping its buffer, so a grab refilled per domain
    /// allocates nothing once warm.
    pub(crate) fn refill(&mut self, network: &Network, epoch: u64) {
        self.epoch = epoch;
        self.listening.clear();
        for host in network.iter() {
            for &ip in host.ips() {
                if network.probe(ip, SMTP_PORT, epoch).is_listening() {
                    self.listening.push(ip);
                }
            }
        }
        // A network gives each address one owner, so sorting alone leaves
        // every address once.
        self.listening.sort_unstable();
    }

    /// Whether `ip` answered the SYN scan.
    pub fn is_listening(&self, ip: Ipv4Addr) -> bool {
        self.listening.binary_search(&ip).is_ok()
    }

    /// Number of listening addresses.
    pub fn len(&self) -> usize {
        self.listening.len()
    }

    /// Whether nothing listened.
    pub fn is_empty(&self) -> bool {
        self.listening.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{DomainTruth, PopulationSpec, PopulationStream};
    use crate::shard_scan::oracle::Oracle;

    fn small_world() -> Oracle {
        Oracle::build(&PopulationStream::new(PopulationSpec::fig2(800), 21))
    }

    #[test]
    fn dns_scan_covers_resolvable_domains() {
        let mut world = small_world();
        let scan = DnsAnyScan::collect(&mut world.dns, world.domains.iter().map(|d| &d.name));
        // Lame zones are absent; everything else with MX records present.
        assert!(scan.len() > 700);
        assert!(!scan.is_empty());
        // Initially, nothing carries glue.
        assert_eq!(scan.missing_count(), scan.mx.values().flatten().count());
    }

    #[test]
    fn glue_patch_leaves_only_dangling_mxs_unresolved() {
        let mut world = small_world();
        let (rounds, patched, _) = world.rounds(&[0]);
        let scan = &rounds[0].dns;
        assert!(patched > 0);
        assert_eq!(
            scan.missing_count() as u64,
            scan.mx.values().flatten().count() as u64 - patched
        );
        // What remains missing is exactly the dangling-MX misconfigured
        // domains.
        for (domain, entries) in &scan.mx {
            for e in entries.iter().filter(|e| e.ip.is_none()) {
                let truth =
                    world.domains.iter().find(|d| &d.name == domain).map(|d| d.truth).unwrap();
                assert_eq!(
                    truth,
                    DomainTruth::Misconfigured,
                    "{domain}: {e:?} unresolved but not misconfigured"
                );
            }
        }
    }

    #[test]
    fn banner_grab_sees_open_ports_only() {
        let world = small_world();
        let grab = BannerGrab::collect(&world.network, 0);
        assert!(!grab.is_empty());
        // Every nolisting primary must be absent (port closed).
        for d in world.domains.iter().filter(|d| d.truth == DomainTruth::Nolisting) {
            let primary = world
                .network
                .iter()
                .find(|h| h.name() == format!("smtp.{}", d.name))
                .expect("primary host");
            assert!(!grab.is_listening(primary.primary_ip()), "{}: dead primary listed", d.name);
        }
    }

    #[test]
    fn banner_grab_over_an_unsorted_multi_ip_network_answers_like_a_set() {
        use spamward_net::{Availability, PortState};
        use std::collections::BTreeSet;
        let ip = |d: u8| Ipv4Addr::new(198, 51, 100, d);
        let mut net = Network::new(1);
        // Several addresses per host, registered out of order, among
        // closed, filtered, down and flapping hosts.
        net.host("c.example").ip(ip(200)).ip(ip(7)).ip(ip(90)).smtp_open().build();
        net.host("b.example").ip(ip(3)).build();
        net.host("f.example").ip(ip(4)).port(SMTP_PORT, PortState::Filtered).build();
        net.host("a.example").ip(ip(150)).ip(ip(1)).smtp_open().build();
        net.host("d.example").ip(ip(60)).smtp_open().availability(Availability::Down).build();
        let flaky = Availability::Flaky { down_prob: 0.5 };
        net.host("e.example").ip(ip(120)).ip(ip(2)).smtp_open().availability(flaky).build();
        let mut sizes = BTreeSet::new();
        for epoch in 0..8 {
            let grab = BannerGrab::collect(&net, epoch);
            let set: BTreeSet<Ipv4Addr> = net
                .iter()
                .flat_map(|h| h.ips().iter().copied())
                .filter(|&a| net.probe(a, SMTP_PORT, epoch).is_listening())
                .collect();
            assert_eq!(grab.len(), set.len(), "epoch {epoch}");
            for d in 0..=u8::MAX {
                assert_eq!(grab.is_listening(ip(d)), set.contains(&ip(d)), "epoch {epoch}: .{d}");
            }
            sizes.insert(set.len());
        }
        assert_eq!(sizes.len(), 2, "the flapping host is up in some epochs and down in others");

        // A refill replaces everything the grab held.
        let mut grab = BannerGrab::collect(&net, 0);
        net.clear();
        net.host("z.example").ip(ip(9)).smtp_open().build();
        grab.refill(&net, 3);
        assert_eq!((grab.epoch, grab.len()), (3, 1));
        assert!(grab.is_listening(ip(9)));
        assert!(!grab.is_listening(ip(200)));
    }

    #[test]
    fn banner_grab_epochs_differ_for_flaky_hosts() {
        let mut spec = PopulationSpec::fig2(2_000);
        spec.flaky_hosts = 0.5;
        let world = Oracle::build(&PopulationStream::new(spec, 4));
        let a = BannerGrab::collect(&world.network, 0);
        let b = BannerGrab::collect(&world.network, 1);
        assert_ne!(a.len(), b.len(), "flaky hosts should change between epochs");
    }
}
