//! The two zmap-style datasets: DNS-ANY MX records and the SMTP banner
//! grab.

use spamward_dns::{Authority, DomainName, Rcode, RecordData, RecordType};
use spamward_net::{Network, SMTP_PORT};
use std::collections::{BTreeMap, BTreeSet};
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
    /// back with `ip: None`, and the caller resolves the exchangers' A
    /// records afterwards (the paper's "parallel scanner to resolve the
    /// missing entries"). Lame zones yield no entry at all; a dangling MX
    /// stays `ip: None` after that pass.
    pub fn collect<'a>(
        dns: &mut Authority,
        domains: impl IntoIterator<Item = &'a DomainName>,
    ) -> DnsAnyScan {
        let mut mx = BTreeMap::new();
        for domain in domains {
            let out = dns.query(domain, RecordType::Mx);
            if out.rcode != Rcode::NoError {
                continue;
            }
            let mut entries: Vec<MxRecordEntry> = out
                .answers
                .iter()
                .filter_map(|r| match &r.data {
                    RecordData::Mx { preference, exchange } => Some(MxRecordEntry {
                        preference: *preference,
                        exchange: exchange.clone(),
                        ip: None,
                    }),
                    _ => None,
                })
                .collect();
            if entries.is_empty() {
                continue;
            }
            entries.sort_by_key(|a| a.preference);
            mx.insert(domain.clone(), entries);
        }
        DnsAnyScan { mx }
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
        self.mx.values().flatten().filter(|e| e.ip.is_none()).count()
    }
}

/// The IPv4 SMTP banner-grab dataset: every address that answered a SYN
/// on port 25 during one scan epoch.
#[derive(Debug, Clone, Default)]
pub struct BannerGrab {
    /// The scan epoch this grab ran in.
    pub epoch: u64,
    listening: BTreeSet<Ipv4Addr>,
}

impl BannerGrab {
    /// Probes every host address in the network once.
    pub fn collect(network: &Network, epoch: u64) -> BannerGrab {
        let mut listening = BTreeSet::new();
        for host in network.iter() {
            for &ip in host.ips() {
                if network.probe(ip, SMTP_PORT, epoch).is_listening() {
                    listening.insert(ip);
                }
            }
        }
        BannerGrab { epoch, listening }
    }

    /// Whether `ip` answered the SYN scan.
    pub fn is_listening(&self, ip: Ipv4Addr) -> bool {
        self.listening.contains(&ip)
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
        let (rounds, patched) = world.rounds(&[0]);
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
    fn banner_grab_epochs_differ_for_flaky_hosts() {
        let mut spec = PopulationSpec::fig2(2_000);
        spec.flaky_hosts = 0.5;
        let world = Oracle::build(&PopulationStream::new(spec, 4));
        let a = BannerGrab::collect(&world.network, 0);
        let b = BannerGrab::collect(&world.network, 1);
        assert_ne!(a.len(), b.len(), "flaky hosts should change between epochs");
    }
}
