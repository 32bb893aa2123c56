//! The Fig. 2 scan pipeline, streamed and shard-parallel.
//!
//! A whole-internet world — one global [`Network`]/[`Authority`] joined
//! against whole-internet datasets — is fine at laptop scale and
//! impossible at the paper's 135 M domains. [`scan_shard`] instead walks
//! the [`PopulationStream`] and, for each domain its shard owns,
//! synthesizes the domain's *corner* of the internet — its zone and mail
//! hosts — runs the collect → glue-patch → banner-grab → classify pipeline
//! against that corner, and folds the outcome into [`ShardScanStats`],
//! whose size depends only on the number of rounds. Nothing survives a
//! domain but its aggregate contribution, so memory stays flat no matter
//! the population size.
//!
//! Per-domain emulation is *exact*, not approximate: MX entries, glue
//! resolution and SYN probes depend only on the domain's own zone and
//! hosts (addresses are unique per domain, host availability seeds derive
//! from host names), so a domain's classification in its mini-world equals
//! its classification in a whole-internet world — a property the tests pin
//! against a test-only whole-world oracle. Shard outputs merge by
//! field-wise addition in shard order.

use crate::dataset::{BannerGrab, DnsAnyScan};
use crate::metrics::{SAMPLE_SCAN_EVENTS, SAMPLE_SCAN_NOLISTING};
use crate::pipeline::{DetectorAccuracy, DomainClass, Fig2Stats, NolistingDetector, ScanRound};
use crate::population::{DomainTruth, PopulationStream};
use spamward_dns::{Authority, NameTable, RecordData, RecordType};
use spamward_net::{Network, SMTP_PORT};
use spamward_obs::TimeSeries;
use spamward_sim::{ShardPlan, SimTime};

/// Virtual scan rate backing the fig2 time series: the streaming scanner
/// is modelled at one domain per virtual second, bucketed per minute.
/// The bucket of a domain is a pure function of its global stream index,
/// so per-shard series merge to identical bytes at any shard width.
const SCAN_BUCKET_DOMAINS: u64 = 60;
/// Seconds each bucket spans.
const SCAN_BUCKET_SECS: u64 = 60;

/// One scan round's aggregate sizes (the inputs of
/// [`crate::metrics::collect_shard_scan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanRoundStats {
    /// Domains with MX data this round.
    pub dns_domains: u64,
    /// MX entries still lacking an A record after glue patching.
    pub dns_missing_a: u64,
    /// Addresses found listening on port 25.
    pub banner_listening: u64,
}

/// One shard's (or, after merging, the whole scan's) aggregate results.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardScanStats {
    /// Domains this shard owned and classified.
    pub domains: u64,
    /// Scan work performed: DNS queries plus SYN probes.
    pub events: u64,
    /// Per-round dataset sizes, indexed by epoch position.
    pub rounds: Vec<ScanRoundStats>,
    /// MX entries whose glue the re-resolution pass patched.
    pub glue_resolved: u64,
    /// Class counts in Fig. 2 order (one-MX, no-nolisting, nolisting,
    /// misconfigured).
    pub class_counts: [u64; 4],
    /// Detected-nolisting count per *single* round, for the between-scan
    /// drift number.
    pub per_epoch_nolisting: Vec<u64>,
    /// Confusion-matrix cells against ground truth, one per round prefix:
    /// entry `n-1` cross-checks rounds `1..=n`, so the last entry scores
    /// the whole scan.
    pub accuracy: Vec<DetectorAccuracy>,
    /// Detected-nolisting counts within the top-k popular domains.
    pub top_k: Vec<(u32, u64)>,
    /// Scan progress over virtual time: events and detections per
    /// 60-second bucket of virtual time (`obs.sample.scan.*` series).
    pub samples: TimeSeries,
}

fn class_slot(class: DomainClass) -> usize {
    match class {
        DomainClass::OneMx => 0,
        DomainClass::MultiMxNoNolisting => 1,
        DomainClass::Nolisting => 2,
        DomainClass::DnsMisconfigured => 3,
    }
}

impl ShardScanStats {
    /// An empty accumulator for `epochs` rounds and the given top-k ranks.
    #[must_use]
    pub fn empty(epochs: usize, ks: &[u32]) -> ShardScanStats {
        ShardScanStats {
            domains: 0,
            events: 0,
            rounds: vec![ScanRoundStats::default(); epochs],
            glue_resolved: 0,
            class_counts: [0; 4],
            per_epoch_nolisting: vec![0; epochs],
            accuracy: vec![DetectorAccuracy::default(); epochs],
            top_k: ks.iter().map(|&k| (k, 0)).collect(),
            samples: TimeSeries::new(),
        }
    }

    /// Folds another shard's results in (field-wise addition).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators were built for different epochs or
    /// top-k ranks.
    pub fn merge(&mut self, other: &ShardScanStats) {
        assert_eq!(self.rounds.len(), other.rounds.len(), "mismatched round counts");
        assert_eq!(
            self.top_k.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            other.top_k.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "mismatched top-k ranks"
        );
        self.domains += other.domains;
        self.events += other.events;
        for (mine, theirs) in self.rounds.iter_mut().zip(&other.rounds) {
            mine.dns_domains += theirs.dns_domains;
            mine.dns_missing_a += theirs.dns_missing_a;
            mine.banner_listening += theirs.banner_listening;
        }
        self.glue_resolved += other.glue_resolved;
        for (mine, theirs) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.per_epoch_nolisting.iter_mut().zip(&other.per_epoch_nolisting) {
            *mine += theirs;
        }
        for (mine, theirs) in self.accuracy.iter_mut().zip(&other.accuracy) {
            mine.true_positives += theirs.true_positives;
            mine.false_positives += theirs.false_positives;
            mine.false_negatives += theirs.false_negatives;
        }
        for ((_, mine), (_, theirs)) in self.top_k.iter_mut().zip(&other.top_k) {
            *mine += theirs;
        }
        self.samples.merge(&other.samples);
    }

    /// The Fig. 2 aggregate view of the class counts.
    #[must_use]
    pub fn fig2(&self) -> Fig2Stats {
        let order = [
            DomainClass::OneMx,
            DomainClass::MultiMxNoNolisting,
            DomainClass::Nolisting,
            DomainClass::DnsMisconfigured,
        ];
        Fig2Stats {
            total: self.domains as usize,
            counts: order.iter().map(|&c| (c, self.class_counts[class_slot(c)] as usize)).collect(),
        }
    }
}

fn a_record(dns: &Authority, name: &spamward_dns::DomainName) -> Option<std::net::Ipv4Addr> {
    dns.query_ro(name, RecordType::A).answers.iter().find_map(|r| match r.data {
        RecordData::A(ip) => Some(ip),
        _ => None,
    })
}

/// Runs the full scan pipeline over every domain `shard` owns under
/// `plan`, streaming the population — memory use is independent of the
/// population size.
///
/// `epochs` are the banner-grab rounds (the paper's two scans) and `ks`
/// the popularity cutoffs for the Alexa cross-check.
///
/// # Panics
///
/// Panics if `epochs` is empty.
#[must_use]
pub fn scan_shard(
    stream: &PopulationStream,
    plan: &ShardPlan,
    shard: u32,
    epochs: &[u64],
    ks: &[u32],
) -> ShardScanStats {
    assert!(!epochs.is_empty(), "need at least one scan round");
    let mut stats = ShardScanStats::empty(epochs.len(), ks);
    let mut name = [0; 32];
    for i in 0..stream.len() as u64 {
        if !plan.owns(shard, stream.name_into(i, &mut name)) {
            continue;
        }
        let packed = stream.packed(i);
        let mut names = NameTable::new(shard);
        let expanded = stream.expand(&packed, &mut names);
        let domain = expanded.record.name.clone();
        stats.domains += 1;
        let bucket = SimTime::from_secs(i / SCAN_BUCKET_DOMAINS * SCAN_BUCKET_SECS);
        let events_before = stats.events;

        // The domain's corner of the internet: its zone, its hosts.
        let mut dns = Authority::new();
        dns.publish(expanded.zone);
        let mut net = Network::new(plan.seed());
        for h in &expanded.hosts {
            net.host(&h.name)
                .ip(h.ip)
                .port(SMTP_PORT, h.smtp)
                .availability(h.availability.clone())
                .build();
        }

        let mut rounds = Vec::with_capacity(epochs.len());
        for (ei, &epoch) in epochs.iter().enumerate() {
            let mut scan = DnsAnyScan::collect(&mut dns, [&domain]);
            stats.events += 1; // the MX query
            for e in scan.mx.values_mut().flatten() {
                if e.ip.is_none() {
                    stats.events += 1; // the glue re-resolution query
                    if let Some(ip) = a_record(&dns, &e.exchange) {
                        e.ip = Some(ip);
                        stats.glue_resolved += 1;
                    }
                }
            }
            let banner = BannerGrab::collect(&net, epoch);
            stats.events += expanded.hosts.len() as u64; // one SYN per address
            stats.rounds[ei].dns_domains += scan.len() as u64;
            stats.rounds[ei].dns_missing_a += scan.missing_count() as u64;
            stats.rounds[ei].banner_listening += banner.len() as u64;
            rounds.push(ScanRound { dns: scan, banner });
        }

        // Per round: its single-round verdict, then the cross-check of
        // every round so far (for the first round, the same verdict).
        let actual = packed.truth == DomainTruth::Nolisting;
        let mut class = DomainClass::DnsMisconfigured;
        for (ei, round) in rounds.iter().enumerate() {
            let single = NolistingDetector::classify(std::slice::from_ref(round), &domain);
            if single == DomainClass::Nolisting {
                stats.per_epoch_nolisting[ei] += 1;
            }
            class =
                if ei == 0 { single } else { NolistingDetector::classify(&rounds[..=ei], &domain) };
            stats.accuracy[ei].record(class == DomainClass::Nolisting, actual);
        }
        // `class` now cross-checks every round.
        stats.class_counts[class_slot(class)] += 1;
        let flagged = class == DomainClass::Nolisting;
        if flagged {
            for (k, count) in &mut stats.top_k {
                if packed.alexa_rank <= *k {
                    *count += 1;
                }
            }
        }
        let delta = i64::try_from(stats.events - events_before).unwrap_or(i64::MAX);
        stats.samples.record_point(SAMPLE_SCAN_EVENTS, bucket, delta);
        if flagged {
            stats.samples.record_point(SAMPLE_SCAN_NOLISTING, bucket, 1);
        }
    }
    stats
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The whole-internet reference the streamed scan is pinned against:
    //! every domain of a stream expanded into one [`Authority`] and one
    //! [`Network`], scanned with whole-world datasets, glue patched in one
    //! serial pass.

    use super::a_record;
    use crate::dataset::{BannerGrab, DnsAnyScan};
    use crate::pipeline::ScanRound;
    use crate::population::{DomainRecord, PopulationStream};
    use spamward_dns::{Authority, NameTable};
    use spamward_net::{Network, SMTP_PORT};

    /// A whole population installed in one world.
    pub(crate) struct Oracle {
        /// Every domain, in stream order.
        pub(crate) domains: Vec<DomainRecord>,
        /// Every domain's mail hosts.
        pub(crate) network: Network,
        /// Every domain's zone.
        pub(crate) dns: Authority,
    }

    impl Oracle {
        /// Expands every domain of `stream` into one world seeded like
        /// the stream.
        pub(crate) fn build(stream: &PopulationStream) -> Oracle {
            let mut names = NameTable::new(0);
            let mut network = Network::new(stream.seed());
            let mut dns = Authority::new();
            let mut domains = Vec::with_capacity(stream.len());
            for i in 0..stream.len() as u64 {
                let expanded = stream.expand(&stream.packed(i), &mut names);
                for h in &expanded.hosts {
                    network
                        .host(&h.name)
                        .ip(h.ip)
                        .port(SMTP_PORT, h.smtp)
                        .availability(h.availability.clone())
                        .build();
                }
                dns.publish(expanded.zone);
                domains.push(expanded.record);
            }
            Oracle { domains, network, dns }
        }

        /// One whole-world scan round per epoch, and how many MX entries
        /// the glue pass patched over all of them.
        pub(crate) fn rounds(&mut self, epochs: &[u64]) -> (Vec<ScanRound>, u64) {
            let mut rounds = Vec::with_capacity(epochs.len());
            let mut patched = 0;
            for &epoch in epochs {
                let mut dns =
                    DnsAnyScan::collect(&mut self.dns, self.domains.iter().map(|d| &d.name));
                for e in dns.mx.values_mut().flatten().filter(|e| e.ip.is_none()) {
                    e.ip = a_record(&self.dns, &e.exchange);
                    patched += u64::from(e.ip.is_some());
                }
                rounds.push(ScanRound { dns, banner: BannerGrab::collect(&self.network, epoch) });
            }
            (rounds, patched)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;
    use crate::population::PopulationSpec;
    use spamward_sim::shard::run_sharded;

    const EPOCHS: [u64; 2] = [0, 1];
    const KS: [u32; 3] = [15, 500, 1000];

    fn merged_scan(stream: &PopulationStream, shards: u32, epochs: &[u64]) -> ShardScanStats {
        let plan = ShardPlan::new(stream.seed(), shards);
        let per_shard = run_sharded(&plan, 4, |s| scan_shard(stream, &plan, s, epochs, &KS));
        let mut total = ShardScanStats::empty(epochs.len(), &KS);
        for s in &per_shard {
            total.merge(s);
        }
        total
    }

    fn merged(domains: usize, seed: u64, shards: u32) -> ShardScanStats {
        merged_scan(&PopulationStream::new(PopulationSpec::fig2(domains), seed), shards, &EPOCHS)
    }

    /// Scans `stream` `shards` wide and checks every aggregate against
    /// the whole-world oracle.
    fn assert_matches_oracle(stream: &PopulationStream, shards: u32, epochs: &[u64]) {
        let total = merged_scan(stream, shards, epochs);
        let mut world = Oracle::build(stream);
        let (rounds, glue) = world.rounds(epochs);
        let classify = |n: usize| -> Vec<DomainClass> {
            world
                .domains
                .iter()
                .map(|d| NolistingDetector::classify(&rounds[..n], &d.name))
                .collect()
        };

        assert_eq!(total.domains as usize, world.domains.len());
        let classes = classify(rounds.len());
        let mut class_counts = [0; 4];
        for &class in &classes {
            class_counts[class_slot(class)] += 1;
        }
        assert_eq!(
            total.class_counts, class_counts,
            "per-domain emulation must classify identically"
        );
        for n in 1..=rounds.len() {
            let mut accuracy = DetectorAccuracy::default();
            for (d, class) in world.domains.iter().zip(classify(n)) {
                accuracy.record(class == DomainClass::Nolisting, d.truth == DomainTruth::Nolisting);
            }
            assert_eq!(total.accuracy[n - 1], accuracy, "cross-checking {n} rounds");
        }
        for &(k, count) in &total.top_k {
            let flagged = world
                .domains
                .iter()
                .zip(&classes)
                .filter(|(d, class)| **class == DomainClass::Nolisting && d.alexa_rank <= k);
            assert_eq!(count, flagged.count() as u64, "top-{k}");
        }
        assert_eq!(total.glue_resolved, glue);
        for (ei, round) in rounds.iter().enumerate() {
            let single = world.domains.iter().filter(|d| {
                NolistingDetector::classify(std::slice::from_ref(round), &d.name)
                    == DomainClass::Nolisting
            });
            assert_eq!(total.per_epoch_nolisting[ei], single.count() as u64);
            assert_eq!(total.rounds[ei].dns_domains as usize, round.dns.len());
            assert_eq!(total.rounds[ei].dns_missing_a as usize, round.dns.missing_count());
            assert_eq!(total.rounds[ei].banner_listening as usize, round.banner.len());
        }
    }

    #[test]
    fn sharded_scan_matches_the_whole_world_oracle() {
        // The fig2 survey's population, eight shards wide...
        assert_matches_oracle(&PopulationStream::new(PopulationSpec::fig2(1_500), 13), 8, &EPOCHS);
        // ...and ablation 4's: flaky hosts, three rounds, one shard.
        let mut flaky = PopulationSpec::fig2(1_500);
        flaky.flaky_hosts = 0.2;
        assert_matches_oracle(&PopulationStream::new(flaky, 2015), 1, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one scan round")]
    fn scan_needs_a_round() {
        let stream = PopulationStream::new(PopulationSpec::fig2(10), 1);
        let _ = scan_shard(&stream, &ShardPlan::new(1, 1), 0, &[], &KS);
    }

    #[test]
    fn merge_is_independent_of_shard_count() {
        let one = merged(900, 5, 1);
        let four = merged(900, 5, 4);
        let eight = merged(900, 5, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn scan_samples_cover_every_bucket_at_any_shard_width() {
        let one = merged(900, 5, 1);
        let eight = merged(900, 5, 8);
        assert_eq!(one.samples.to_csv(), eight.samples.to_csv(), "byte-stable across widths");
        // 900 domains at one per virtual second = 15 one-minute buckets.
        let event_buckets =
            one.samples.iter().filter(|(series, _, _)| *series == SAMPLE_SCAN_EVENTS).count();
        assert_eq!(event_buckets, 15);
        // Every bucket did work: at least one MX query per domain.
        assert!(one
            .samples
            .iter()
            .filter(|(series, _, _)| *series == SAMPLE_SCAN_EVENTS)
            .all(|(_, _, v)| v >= 60));
    }

    #[test]
    fn shards_partition_the_population() {
        let stream = PopulationStream::new(PopulationSpec::fig2(700), 3);
        let plan = ShardPlan::new(3, 8);
        let per_shard = run_sharded(&plan, 2, |s| scan_shard(&stream, &plan, s, &EPOCHS, &KS));
        let covered: u64 = per_shard.iter().map(|s| s.domains).sum();
        assert_eq!(covered, 700, "every domain in exactly one shard");
        assert!(
            per_shard.iter().filter(|s| s.domains > 0).count() >= 6,
            "the hash should spread domains across shards"
        );
    }

    #[test]
    #[should_panic(expected = "mismatched round counts")]
    fn merging_mismatched_shapes_panics() {
        let mut a = ShardScanStats::empty(2, &KS);
        let b = ShardScanStats::empty(3, &KS);
        a.merge(&b);
    }
}
