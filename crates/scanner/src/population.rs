//! Synthetic internet population with ground truth.
//!
//! [`PopulationStream`] is a *streaming* generator that can synthesize any
//! domain's complete record — ground truth, popularity rank, host
//! addresses, availability, DNS zone — directly from its index, in O(1)
//! time and memory, with no state threaded through earlier domains. Every
//! random decision is drawn from a per-domain fork of the seed and every
//! derived quantity (host seeds, addresses, ranks) is a pure function of
//! the index, so two parties streaming different subsets of the same
//! population agree on every record — the property shard-parallel scans
//! rely on. The population is never materialized: the scan expands one
//! domain at a time into its own corner of the internet.

use spamward_dns::{DomainName, NameTable, Zone};
use spamward_net::{indexed_ip, Availability, PortState};
use spamward_sim::DetRng;
use std::net::Ipv4Addr;

/// Ground-truth mail configuration of a generated domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainTruth {
    /// Exactly one MX record (47.73% in Fig. 2).
    SingleMx,
    /// Two or more MX records, all servers real (45.97%).
    MultiMx,
    /// Deliberate nolisting: dead primary, live secondary (0.52%).
    Nolisting,
    /// DNS misconfiguration — no resolvable mail server (5.78%).
    Misconfigured,
}

/// One generated domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// The domain name.
    pub name: DomainName,
    /// What the domain really is.
    pub truth: DomainTruth,
    /// Synthetic popularity rank (1 = most popular), unique per domain.
    pub alexa_rank: u32,
}

/// Parameters of population synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Number of domains to generate.
    pub domains: usize,
    /// Fraction with a single MX (Fig. 2: 0.4773).
    pub single_mx: f64,
    /// Fraction with multiple working MXs (Fig. 2: 0.4597).
    pub multi_mx: f64,
    /// Fraction using nolisting (Fig. 2: 0.0052).
    pub nolisting: f64,
    /// Fraction misconfigured (Fig. 2: 0.0578).
    pub misconfigured: f64,
    /// Fraction of *mail hosts* that flap (down in a random subset of scan
    /// epochs) — the noise source the double-scan exists to cancel.
    pub flaky_hosts: f64,
    /// Probability a flaky host is down in any given epoch.
    pub flaky_down_prob: f64,
}

impl PopulationSpec {
    /// The Fig. 2 mix at the given scale, with mild (2%) host flakiness —
    /// real mail servers are rarely down for a whole scan, which is what
    /// makes the paper's two-scan cross-check so clean (0.01% drift).
    pub fn fig2(domains: usize) -> Self {
        PopulationSpec {
            domains,
            single_mx: 0.4773,
            multi_mx: 0.4597,
            nolisting: 0.0052,
            misconfigured: 0.0578,
            flaky_hosts: 0.02,
            flaky_down_prob: 0.3,
        }
    }

    fn validate(&self) {
        let sum = self.single_mx + self.multi_mx + self.nolisting + self.misconfigured;
        assert!((sum - 1.0).abs() < 1e-6, "class fractions must sum to 1, got {sum}");
        assert!(self.domains > 0, "population needs at least one domain");
    }
}

/// First address of the population's mail-host range; domain `i`'s hosts
/// take the `2i` and `2i+1` slots of [`indexed_ip`] from here.
const HOST_IP_BASE: Ipv4Addr = Ipv4Addr::new(11, 0, 0, 1);

/// The compact per-domain record: everything random about a domain, packed
/// into sixteen bytes. Names, addresses and zones are derivable from the
/// index; [`PopulationStream::expand`] does so on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedDomain {
    /// Generation index (also determines names and addresses).
    pub index: u64,
    /// Ground truth class.
    pub truth: DomainTruth,
    /// Popularity rank, a permutation of `1..=N`.
    pub alexa_rank: u32,
    flags: u8,
}

const FLAG_FLAKY_0: u8 = 1;
const FLAG_FLAKY_1: u8 = 2;
const FLAG_DANGLING: u8 = 4;

impl PackedDomain {
    /// Whether the domain's first mail host flaps between epochs.
    pub fn flaky_first(&self) -> bool {
        self.flags & FLAG_FLAKY_0 != 0
    }

    /// Whether the domain's second mail host flaps between epochs.
    pub fn flaky_second(&self) -> bool {
        self.flags & FLAG_FLAKY_1 != 0
    }

    /// For misconfigured domains: dangling MX (vs lame delegation).
    pub fn dangling(&self) -> bool {
        self.flags & FLAG_DANGLING != 0
    }
}

/// One mail host of an expanded domain.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Host name (e.g. `mail.d7.example`).
    pub name: String,
    /// The host's address.
    pub ip: Ipv4Addr,
    /// Its SMTP port state.
    pub smtp: PortState,
    /// Its availability pattern.
    pub availability: Availability,
}

/// A fully expanded domain: the record plus everything needed to install
/// (or locally emulate) its corner of the internet.
#[derive(Debug, Clone)]
pub struct StreamedDomain {
    /// The domain record, name interned through the caller's table.
    pub record: DomainRecord,
    /// The domain's mail hosts (empty for misconfigured domains).
    pub hosts: Vec<HostSpec>,
    /// The domain's DNS zone.
    pub zone: Zone,
}

/// The streaming population generator — see the module docs.
#[derive(Debug, Clone)]
pub struct PopulationStream {
    spec: PopulationSpec,
    seed: u64,
    // Popularity ranks come from the affine bijection
    // `i ↦ ((a·i + b) mod N) + 1` with `gcd(a, N) = 1`, so any index's
    // rank is O(1) and the ranks are still a permutation of `1..=N`.
    rank_mult: u64,
    rank_offset: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl PopulationStream {
    /// Builds a stream for `spec`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's fractions don't sum to 1 or `domains == 0`.
    pub fn new(spec: PopulationSpec, seed: u64) -> PopulationStream {
        spec.validate();
        let n = spec.domains as u64;
        let mut rank_rng = DetRng::seed(seed).fork("population.rank");
        let mut rank_mult = (rank_rng.next_u64() % n).max(1);
        while gcd(rank_mult, n) != 1 {
            rank_mult += 1;
            if rank_mult >= n {
                rank_mult = 1;
            }
        }
        let rank_offset = rank_rng.next_u64() % n;
        PopulationStream { spec, seed, rank_mult, rank_offset }
    }

    /// The population size.
    pub fn len(&self) -> usize {
        self.spec.domains
    }

    /// Whether the stream is empty (never true — the spec rejects it).
    pub fn is_empty(&self) -> bool {
        self.spec.domains == 0
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Domain `i`'s name text, `d{i}.example`, written into `buf` (room
    /// for the 20 digits of any `u64`) without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn name_into<'b>(&self, i: u64, buf: &'b mut [u8; 32]) -> &'b str {
        assert!(i < self.spec.domains as u64, "domain index {i} out of range");
        const SUFFIX: &[u8] = b".example";
        let digits = i.checked_ilog10().map_or(1, |log| log as usize + 1);
        buf[0] = b'd';
        let mut rest = i;
        for at in (1..=digits).rev() {
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        let len = 1 + digits + SUFFIX.len();
        buf[1 + digits..len].copy_from_slice(SUFFIX);
        std::str::from_utf8(&buf[..len]).expect("ASCII digits and letters")
    }

    /// Domain `i`'s name text, as an owned `String`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn name_of(&self, i: u64) -> String {
        self.name_into(i, &mut [0; 32]).to_owned()
    }

    /// Domain `i`'s popularity rank.
    fn rank_of(&self, i: u64) -> u32 {
        let n = u128::from(self.spec.domains as u64);
        let r = (u128::from(self.rank_mult) * u128::from(i) + u128::from(self.rank_offset)) % n;
        u32::try_from(r + 1).expect("population fits u32 ranks")
    }

    /// Synthesizes domain `i`'s packed record — pure in `(seed, spec, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn packed(&self, i: u64) -> PackedDomain {
        assert!(i < self.spec.domains as u64, "domain index {i} out of range");
        let mut rng = DetRng::seed(self.seed).fork_idx("population.domain", i);
        let truth = {
            let x = rng.unit_f64();
            if x < self.spec.single_mx {
                DomainTruth::SingleMx
            } else if x < self.spec.single_mx + self.spec.multi_mx {
                DomainTruth::MultiMx
            } else if x < self.spec.single_mx + self.spec.multi_mx + self.spec.nolisting {
                DomainTruth::Nolisting
            } else {
                DomainTruth::Misconfigured
            }
        };
        let mut flags = 0u8;
        let mut flaky = |rng: &mut DetRng, bit: u8| {
            if rng.chance(self.spec.flaky_hosts) {
                flags |= bit;
            }
        };
        match truth {
            DomainTruth::SingleMx => flaky(&mut rng, FLAG_FLAKY_0),
            DomainTruth::MultiMx => {
                flaky(&mut rng, FLAG_FLAKY_0);
                flaky(&mut rng, FLAG_FLAKY_1);
            }
            // The dead primary is a machine, not a coin flip; only the
            // live secondary can flap.
            DomainTruth::Nolisting => flaky(&mut rng, FLAG_FLAKY_1),
            DomainTruth::Misconfigured => {
                if rng.chance(0.5) {
                    flags |= FLAG_DANGLING;
                }
            }
        }
        PackedDomain { index: i, truth, alexa_rank: self.rank_of(i), flags }
    }

    /// Expands a packed record into hosts and a zone, interning the domain
    /// name through `names`.
    ///
    /// # Panics
    ///
    /// Panics if the packed record's index is out of range.
    pub fn expand(&self, packed: &PackedDomain, names: &mut NameTable) -> StreamedDomain {
        let i = packed.index;
        let name = names.intern(self.name_into(i, &mut [0; 32])).expect("generated name is valid");
        let ip = |slot: u64| indexed_ip(HOST_IP_BASE, 2 * i + slot);
        let avail = |on: bool| {
            if on {
                Availability::Flaky { down_prob: self.spec.flaky_down_prob }
            } else {
                Availability::Up
            }
        };
        let (hosts, zone) = match packed.truth {
            DomainTruth::SingleMx => (
                vec![HostSpec {
                    name: format!("mail.{name}"),
                    ip: ip(0),
                    smtp: PortState::Open,
                    availability: avail(packed.flaky_first()),
                }],
                Zone::single_mx(name.clone(), ip(0)),
            ),
            DomainTruth::MultiMx => (
                vec![
                    HostSpec {
                        name: format!("mx1.{name}"),
                        ip: ip(0),
                        smtp: PortState::Open,
                        availability: avail(packed.flaky_first()),
                    },
                    HostSpec {
                        name: format!("mx2.{name}"),
                        ip: ip(1),
                        smtp: PortState::Open,
                        availability: avail(packed.flaky_second()),
                    },
                ],
                Zone::builder(name.clone()).mx(10, "mx1", ip(0)).mx(20, "mx2", ip(1)).build(),
            ),
            DomainTruth::Nolisting => (
                vec![
                    // The dead primary is a real machine that never opens
                    // port 25 — reliably down for SMTP in *every* epoch.
                    HostSpec {
                        name: format!("smtp.{name}"),
                        ip: ip(0),
                        smtp: PortState::Closed,
                        availability: Availability::Up,
                    },
                    HostSpec {
                        name: format!("smtp1.{name}"),
                        ip: ip(1),
                        smtp: PortState::Open,
                        availability: avail(packed.flaky_second()),
                    },
                ],
                Zone::nolisting(name.clone(), ip(0), ip(1)),
            ),
            DomainTruth::Misconfigured => {
                // Half dangling MX (target has no A record), half lame.
                let zone = if packed.dangling() {
                    Zone::dangling_mx(name.clone())
                } else {
                    Zone::builder(name.clone()).lame().build()
                };
                (Vec::new(), zone)
            }
        };
        let record = DomainRecord { name, truth: packed.truth, alexa_rank: packed.alexa_rank };
        StreamedDomain { record, hosts, zone }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_scan::oracle::Oracle;
    use spamward_sim::ShardPlan;

    fn packed_all(stream: &PopulationStream) -> Vec<PackedDomain> {
        (0..stream.len() as u64).map(|i| stream.packed(i)).collect()
    }

    #[test]
    fn mix_approximates_fig2() {
        let stream = PopulationStream::new(PopulationSpec::fig2(20_000), 1);
        let domains = packed_all(&stream);
        let frac = |t: DomainTruth| {
            domains.iter().filter(|d| d.truth == t).count() as f64 / domains.len() as f64
        };
        assert!((frac(DomainTruth::SingleMx) - 0.4773).abs() < 0.02);
        assert!((frac(DomainTruth::MultiMx) - 0.4597).abs() < 0.02);
        assert!((frac(DomainTruth::Misconfigured) - 0.0578).abs() < 0.01);
        assert!((frac(DomainTruth::Nolisting) - 0.0052).abs() < 0.005);
        assert!(frac(DomainTruth::Nolisting) > 0.0, "some nolisting domains must exist");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = packed_all(&PopulationStream::new(PopulationSpec::fig2(500), 7));
        let b = packed_all(&PopulationStream::new(PopulationSpec::fig2(500), 7));
        assert_eq!(a, b);
        let c = packed_all(&PopulationStream::new(PopulationSpec::fig2(500), 8));
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_order_independent() {
        // The record at index i must not depend on which other indices were
        // generated, or in what order — the property sharded scans rely on.
        let stream = PopulationStream::new(PopulationSpec::fig2(400), 11);
        let forward = packed_all(&stream);
        let mut backward: Vec<PackedDomain> = (0..400u64).rev().map(|i| stream.packed(i)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // A sparse reader sees the same records a full reader does.
        for i in [0u64, 17, 113, 399] {
            assert_eq!(stream.packed(i), forward[i as usize]);
        }
    }

    #[test]
    fn nolisting_domains_have_dead_primary_live_secondary() {
        let stream = PopulationStream::new(PopulationSpec::fig2(2_000), 3);
        let mut names = NameTable::new(0);
        let nolisting: Vec<_> = packed_all(&stream)
            .iter()
            .filter(|d| d.truth == DomainTruth::Nolisting)
            .map(|d| stream.expand(d, &mut names))
            .collect();
        assert!(!nolisting.is_empty());
        for d in nolisting {
            let [primary, secondary] = &d.hosts[..] else { panic!("{}: two hosts", d.record.name) };
            assert_eq!(primary.name, format!("smtp.{}", d.record.name));
            assert_eq!(primary.smtp, PortState::Closed);
            assert_eq!(secondary.smtp, PortState::Open);
        }
    }

    #[test]
    fn name_into_writes_the_formatted_name_at_every_digit_count() {
        // A stream this long is never materialized; only its names are read.
        let stream = PopulationStream::new(PopulationSpec::fig2(usize::MAX), 1);
        let plan = ShardPlan::new(1, 8);
        let last = stream.len() as u64 - 1;
        let mut indices = vec![0, last];
        for digits in 1..20 {
            let power = 10u64.pow(digits);
            indices.extend([power - 1, power]);
        }
        let mut buf = [0; 32];
        for i in indices {
            let formatted = format!("d{i}.example");
            let text = stream.name_into(i, &mut buf);
            assert_eq!(text, formatted);
            assert_eq!(stream.name_of(i), formatted);
            for shard in 0..plan.shards() {
                assert_eq!(plan.owns(shard, text), plan.owns(shard, &formatted), "d{i} in {shard}");
            }
        }
    }

    #[test]
    fn names_from_separate_tables_stay_distinct() {
        // The scan gives every domain a fresh table, so every name carries
        // the same id; they must still compare by their text.
        let stream = PopulationStream::new(PopulationSpec::fig2(20), 1);
        let expand = |i| stream.expand(&stream.packed(i), &mut NameTable::new(0)).record.name;
        let (d5, d13) = (expand(5), expand(13));
        assert_eq!(d5.id(), d13.id());
        assert_ne!(d5, d13);
        assert_eq!(std::collections::BTreeSet::from([d5.clone(), d13]).len(), 2);
        assert_eq!(d5, expand(5));
    }

    #[test]
    fn ranks_are_a_permutation() {
        let stream = PopulationStream::new(PopulationSpec::fig2(1_000), 5);
        let mut ranks: Vec<u32> = packed_all(&stream).iter().map(|d| d.alexa_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=1_000).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_fractions_rejected() {
        let mut spec = PopulationSpec::fig2(10);
        spec.single_mx = 0.9;
        let _ = PopulationStream::new(spec, 1);
    }

    #[test]
    fn misconfigured_domains_resolve_to_nothing() {
        let world = Oracle::build(&PopulationStream::new(PopulationSpec::fig2(2_000), 9));
        let mut dns = world.dns;
        let mut resolver = spamward_dns::Resolver::new();
        let misconf: Vec<_> = world
            .domains
            .iter()
            .filter(|d| d.truth == DomainTruth::Misconfigured)
            .take(20)
            .collect();
        assert!(!misconf.is_empty());
        for d in misconf {
            let result = resolver.resolve_mx(&mut dns, &d.name, spamward_sim::SimTime::ZERO);
            let unusable = match &result {
                Err(_) => true,
                Ok(mxs) => mxs.iter().all(|m| m.ip.is_none()),
            };
            assert!(unusable, "{}: misconfigured domain resolved {result:?}", d.name);
        }
    }
}
