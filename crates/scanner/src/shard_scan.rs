//! The Fig. 2 scan pipeline, streamed in blocks.
//!
//! A whole-internet world — one global [`Network`]/[`Authority`] joined
//! against whole-internet datasets — is fine at laptop scale and
//! impossible at the paper's 135 M domains. [`scan_block`] instead walks
//! one contiguous block of the [`PopulationStream`] and, for each domain,
//! refills one reused *corner* of the internet with the domain's zone and
//! mail hosts ([`PopulationStream::install`]), runs the collect →
//! glue-patch → banner-grab → classify pipeline against that corner, and
//! adds the outcome to the [`ShardScanStats`] of the shard the domain's
//! name hashes to, whose size depends only on the number of rounds. Each
//! name is formatted and hashed once, the corner's hosts, MX entries and
//! banner grab are refilled in place, and nothing survives a domain but
//! its aggregate contribution, so memory stays flat no matter the
//! population size.
//!
//! The corner collects a domain's MX entries and patches their glue once
//! for every round, then refills the banner grab and folds the verdict
//! per round. That is exact because only host availability depends on the
//! epoch: the population models no DNS churn between scans, and nothing
//! touches the corner's zone between rounds, so every round's DNS dataset
//! is the same. Each round still counts its own MX query, glue lookups and
//! SYNs. A population that changed zones between epochs would have to
//! collect per round again.
//!
//! Per-domain emulation is *exact*, not approximate: MX entries, glue
//! resolution and SYN probes depend only on the domain's own zone and
//! hosts (addresses are unique per domain, host availability seeds derive
//! from host names), so a domain's classification in its corner equals its
//! classification in a whole-internet world — a property the tests pin
//! against a test-only whole-world oracle. The corner is cleared before
//! each domain, so nothing of one domain reaches the next, and per-shard
//! sums do not depend on how the stream is cut into blocks: blocks merge
//! by field-wise addition in block order ([`BlockScan::merge`]).

use crate::dataset::{collect_mx, missing, patch_glue, BannerGrab, MxRecordEntry};
use crate::metrics::{SAMPLE_SCAN_EVENTS, SAMPLE_SCAN_NOLISTING};
use crate::pipeline::{CrossCheck, DetectorAccuracy, DomainClass, Fig2Stats, NolistingDetector};
use crate::population::{DomainTruth, PopulationStream};
use spamward_dns::Authority;
use spamward_net::Network;
use spamward_obs::TimeSeries;
use spamward_sim::{ShardPlan, SimTime};
use std::ops::Range;

/// Virtual scan rate backing the fig2 time series: the streaming scanner
/// is modelled at one domain per virtual second, bucketed per minute.
/// The bucket of a domain is a pure function of its global stream index,
/// so per-block series merge to identical bytes at any block split.
const SCAN_BUCKET_DOMAINS: u64 = 60;
/// Seconds each bucket spans.
const SCAN_BUCKET_SECS: u64 = 60;

/// One scan round's aggregates: its dataset sizes (the inputs of
/// [`crate::metrics::collect_shard_scan`]), its own nolisting count and
/// the score of the cross-check up to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanRoundStats {
    /// Domains with MX data this round.
    pub dns_domains: u64,
    /// MX entries still lacking an A record after glue patching.
    pub dns_missing_a: u64,
    /// Addresses found listening on port 25.
    pub banner_listening: u64,
    /// Domains this round alone flags as nolisting, for the between-scan
    /// drift number.
    pub nolisting: u64,
    /// Confusion-matrix cells against ground truth of the cross-check of
    /// every round up to and including this one: the last round's cells
    /// score the whole scan.
    pub accuracy: DetectorAccuracy,
}

/// One shard's (or, after merging, the whole scan's) aggregate results.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardScanStats {
    /// Domains this shard owned and classified.
    pub domains: u64,
    /// Scan work performed: DNS queries plus SYN probes.
    pub events: u64,
    /// Per-round aggregates, indexed by epoch position.
    pub rounds: Vec<ScanRoundStats>,
    /// MX entries whose glue the re-resolution pass patched.
    pub glue_resolved: u64,
    /// Class counts in Fig. 2 order (one-MX, no-nolisting, nolisting,
    /// misconfigured).
    pub class_counts: [u64; 4],
    /// Detected-nolisting counts within the top-k popular domains.
    pub top_k: Vec<(u32, u64)>,
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
            top_k: ks.iter().map(|&k| (k, 0)).collect(),
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
        assert!(
            self.top_k.iter().map(|(k, _)| k).eq(other.top_k.iter().map(|(k, _)| k)),
            "mismatched top-k ranks"
        );
        self.domains += other.domains;
        self.events += other.events;
        for (mine, theirs) in self.rounds.iter_mut().zip(&other.rounds) {
            mine.dns_domains += theirs.dns_domains;
            mine.dns_missing_a += theirs.dns_missing_a;
            mine.banner_listening += theirs.banner_listening;
            mine.nolisting += theirs.nolisting;
            mine.accuracy.true_positives += theirs.accuracy.true_positives;
            mine.accuracy.false_positives += theirs.accuracy.false_positives;
            mine.accuracy.false_negatives += theirs.accuracy.false_negatives;
        }
        self.glue_resolved += other.glue_resolved;
        for (mine, theirs) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *mine += theirs;
        }
        for ((_, mine), (_, theirs)) in self.top_k.iter_mut().zip(&other.top_k) {
            *mine += theirs;
        }
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

/// What [`scan_block`] yields: one accumulator per shard of the plan, and
/// the block's scan-progress samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockScan {
    /// Per-shard aggregates, indexed by shard id: every domain adds to
    /// the shard [`ShardPlan::shard_of`] assigns its name.
    pub shards: Vec<ShardScanStats>,
    /// Scan progress over virtual time: events and detections per
    /// 60-second bucket of virtual time (`obs.sample.scan.*` series).
    pub samples: TimeSeries,
}

impl BlockScan {
    /// An empty result over `shards` shards, `epochs` rounds and the
    /// given top-k ranks.
    #[must_use]
    pub fn empty(shards: u32, epochs: usize, ks: &[u32]) -> BlockScan {
        BlockScan {
            shards: vec![ShardScanStats::empty(epochs, ks); shards as usize],
            samples: TimeSeries::new(),
        }
    }

    /// Folds another block in: shard by shard, and the samples.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks were scanned over different shard counts,
    /// epochs or top-k ranks.
    pub fn merge(&mut self, other: &BlockScan) {
        assert_eq!(self.shards.len(), other.shards.len(), "mismatched shard counts");
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.merge(theirs);
        }
        self.samples.merge(&other.samples);
    }

    /// Every shard folded into one aggregate, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if there are no shards.
    #[must_use]
    pub fn total(&self) -> ShardScanStats {
        let (first, rest) = self.shards.split_first().expect("a plan has at least one shard");
        let mut total = first.clone();
        for stats in rest {
            total.merge(stats);
        }
        total
    }
}

/// The corner of the internet one block scans its domains in: one
/// authority, one network, one domain's MX entries and one banner grab,
/// cleared and refilled for every domain so their capacity carries over
/// and their contents never do.
struct Corner {
    dns: Authority,
    net: Network,
    mx: Vec<MxRecordEntry>,
    banner: BannerGrab,
}

impl Corner {
    /// An empty corner, its network seeded with `seed`.
    fn new(seed: u64) -> Corner {
        Corner {
            dns: Authority::new(),
            net: Network::new(seed),
            mx: Vec::new(),
            banner: BannerGrab::default(),
        }
    }

    /// Scans domain `i`, named `name`, once per epoch of `epochs` and adds
    /// its outcome to `stats`. Returns the scan work it took and whether
    /// the detector flagged it.
    fn scan(
        &mut self,
        stream: &PopulationStream,
        i: u64,
        name: &str,
        epochs: &[u64],
        stats: &mut ShardScanStats,
    ) -> (u64, bool) {
        let packed = stream.packed(i);
        self.dns.clear();
        self.net.clear();
        let domain = stream.install(&packed, name, &mut self.dns, &mut self.net);

        // No DNS input depends on the epoch (see the module docs), so the
        // DNS dataset is collected and glue-patched once for every round.
        // Each round still counts its own MX query, glue lookups and SYNs
        // (one per host, each on one address).
        collect_mx(&mut self.dns, &domain, &mut self.mx);
        let (glue_lookups, patched) = patch_glue(&self.dns, &mut self.mx);
        let (dns_domains, missing_a) = (u64::from(!self.mx.is_empty()), missing(&self.mx) as u64);
        let rounds = epochs.len() as u64;
        let events = rounds * (1 + glue_lookups + self.net.len() as u64);
        stats.glue_resolved += rounds * patched;

        // Per round: its single-round verdict, then the cross-check of
        // every round so far.
        let actual = packed.truth == DomainTruth::Nolisting;
        let mut check = CrossCheck::NONE;
        for (totals, &epoch) in stats.rounds.iter_mut().zip(epochs) {
            self.banner.refill(&self.net, epoch);
            let verdict = NolistingDetector::round_verdict(&self.mx, &self.banner);
            check = check.with(verdict);
            totals.dns_domains += dns_domains;
            totals.dns_missing_a += missing_a;
            totals.banner_listening += self.banner.len() as u64;
            let single = CrossCheck::NONE.with(verdict).class();
            totals.nolisting += u64::from(single == DomainClass::Nolisting);
            totals.accuracy.record(check.class() == DomainClass::Nolisting, actual);
        }
        // `check` now cross-checks every round.
        let class = check.class();
        stats.class_counts[class_slot(class)] += 1;
        let flagged = class == DomainClass::Nolisting;
        if flagged {
            for (k, count) in &mut stats.top_k {
                if packed.alexa_rank <= *k {
                    *count += 1;
                }
            }
        }
        stats.domains += 1;
        stats.events += events;
        (events, flagged)
    }
}

/// One bucket of scan-progress samples being summed. Indices ascend
/// within a block, so a bucket is whole once the next index leaves it.
struct Bucket {
    index: u64,
    events: u64,
    nolisting: u64,
}

impl Bucket {
    fn record(&self, samples: &mut TimeSeries) {
        let at = SimTime::from_secs(self.index * SCAN_BUCKET_SECS);
        samples.record_point(
            SAMPLE_SCAN_EVENTS,
            at,
            i64::try_from(self.events).unwrap_or(i64::MAX),
        );
        if self.nolisting > 0 {
            let nolisting = i64::try_from(self.nolisting).unwrap_or(i64::MAX);
            samples.record_point(SAMPLE_SCAN_NOLISTING, at, nolisting);
        }
    }
}

/// Runs the full scan pipeline over the domains of `block`, a range of
/// stream indices, streaming the population — memory use is independent
/// of the population size. Each domain is named and hashed once and adds
/// its outcome to the shard of `plan` that owns it.
///
/// `epochs` are the banner-grab rounds (the paper's two scans) and `ks`
/// the popularity cutoffs for the Alexa cross-check. The result is a pure
/// function of its arguments, and the per-shard sums of any split of the
/// stream into blocks, merged with [`BlockScan::merge`], are equal.
///
/// # Panics
///
/// Panics if `epochs` is empty or `block` leaves the stream.
#[must_use]
pub fn scan_block(
    stream: &PopulationStream,
    plan: &ShardPlan,
    block: Range<u64>,
    epochs: &[u64],
    ks: &[u32],
) -> BlockScan {
    assert!(!epochs.is_empty(), "need at least one scan round");
    let mut scan = BlockScan::empty(plan.shards(), epochs.len(), ks);
    let mut corner = Corner::new(plan.seed());
    let mut bucket: Option<Bucket> = None;
    let mut text = [0; 32];
    for i in block {
        let name = stream.name_into(i, &mut text);
        let stats = &mut scan.shards[plan.shard_of(name) as usize];
        let (events, flagged) = corner.scan(stream, i, name, epochs, stats);
        let index = i / SCAN_BUCKET_DOMAINS;
        if let Some(full) = bucket.take_if(|b| b.index != index) {
            full.record(&mut scan.samples);
        }
        let b = bucket.get_or_insert(Bucket { index, events: 0, nolisting: 0 });
        b.events += events;
        b.nolisting += u64::from(flagged);
    }
    if let Some(last) = bucket {
        last.record(&mut scan.samples);
    }
    scan
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The whole-internet reference the streamed scan is pinned against:
    //! every domain of a stream expanded into one [`Authority`] and one
    //! [`Network`], scanned with whole-world datasets, glue patched in one
    //! serial pass.

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

        /// One whole-world scan round per epoch, how many MX entries the
        /// glue pass patched over all of them, and the scan work they did:
        /// in every round one MX query per domain, one A lookup per entry
        /// that lacked glue and one SYN per host address.
        pub(crate) fn rounds(&mut self, epochs: &[u64]) -> (Vec<ScanRound>, u64, u64) {
            let mut rounds = Vec::with_capacity(epochs.len());
            let (mut patched, mut events) = (0, 0);
            let syns: usize = self.network.iter().map(|h| h.ips().len()).sum();
            for &epoch in epochs {
                let mut dns =
                    DnsAnyScan::collect(&mut self.dns, self.domains.iter().map(|d| &d.name));
                let (lookups, round_patched) = dns.resolve_glue(&self.dns);
                patched += round_patched;
                events += (self.domains.len() + syns) as u64 + lookups;
                rounds.push(ScanRound { dns, banner: BannerGrab::collect(&self.network, epoch) });
            }
            (rounds, patched, events)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;
    use crate::population::PopulationSpec;
    use spamward_sim::shard::run_partitioned;

    const EPOCHS: [u64; 2] = [0, 1];
    const KS: [u32; 3] = [15, 500, 1000];

    /// Scans `stream` under a `shards`-wide plan, `blocks` on four
    /// workers, merged in block order.
    fn scan_in(
        stream: &PopulationStream,
        shards: u32,
        blocks: Vec<Range<u64>>,
        epochs: &[u64],
    ) -> BlockScan {
        let plan = ShardPlan::new(stream.seed(), shards);
        let mut merged = BlockScan::empty(shards, epochs.len(), &KS);
        for block in run_partitioned(blocks, 4, |b| scan_block(stream, &plan, b, epochs, &KS)) {
            merged.merge(&block);
        }
        merged
    }

    /// The survey's split: eight contiguous blocks.
    fn merged_scan(stream: &PopulationStream, shards: u32, epochs: &[u64]) -> BlockScan {
        scan_in(stream, shards, stream.blocks(8), epochs)
    }

    fn merged(domains: usize, seed: u64, shards: u32) -> BlockScan {
        merged_scan(&PopulationStream::new(PopulationSpec::fig2(domains), seed), shards, &EPOCHS)
    }

    /// Scans `stream` `shards` wide and checks every aggregate against
    /// the whole-world oracle.
    fn assert_matches_oracle(stream: &PopulationStream, shards: u32, epochs: &[u64]) {
        let total = merged_scan(stream, shards, epochs).total();
        let mut world = Oracle::build(stream);
        let (rounds, glue, events) = world.rounds(epochs);
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
            assert_eq!(total.rounds[n - 1].accuracy, accuracy, "cross-checking {n} rounds");
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
        assert_eq!(total.events, events, "every round models its own DNS work and SYNs");
        for (ei, round) in rounds.iter().enumerate() {
            let single = world.domains.iter().filter(|d| {
                NolistingDetector::classify(std::slice::from_ref(round), &d.name)
                    == DomainClass::Nolisting
            });
            assert_eq!(total.rounds[ei].nolisting, single.count() as u64);
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
    fn the_reused_corner_leaks_nothing_and_the_block_split_changes_nothing() {
        let mut spec = PopulationSpec::fig2(1_200);
        spec.flaky_hosts = 0.5;
        let stream = PopulationStream::new(spec, 77);
        let epochs = [0, 1, 2];
        let n = stream.len() as u64;
        // One block reuses one corner for every domain; one-domain blocks
        // give every domain a fresh corner; the uneven split cuts buckets.
        let whole = scan_in(&stream, 8, stream.blocks(1), &epochs);
        let fresh = scan_in(&stream, 8, (0..n).map(|i| i..i + 1).collect(), &epochs);
        let uneven = scan_in(&stream, 8, vec![0..7, 7..1_000, 1_000..n], &epochs);
        assert_eq!(whole, fresh, "a domain scanned after another must not see it");
        assert_eq!(whole, uneven);

        let plan = ShardPlan::new(stream.seed(), 8);
        let mut owned = [0u64; 8];
        for i in 0..n {
            owned[plan.shard_of(&stream.name_of(i)) as usize] += 1;
        }
        let domains: Vec<u64> = whole.shards.iter().map(|s| s.domains).collect();
        assert_eq!(domains, owned, "each shard classifies exactly the names it owns");
        // The flaky hosts make the rounds disagree, so a leaked host or
        // answer would have shown.
        let total = whole.total();
        assert_ne!(total.rounds[0].banner_listening, total.rounds[1].banner_listening);
        assert!(total.class_counts.iter().all(|&c| c > 0), "{:?}", total.class_counts);
    }

    #[test]
    #[should_panic(expected = "at least one scan round")]
    fn scan_needs_a_round() {
        let stream = PopulationStream::new(PopulationSpec::fig2(10), 1);
        let _ = scan_block(&stream, &ShardPlan::new(1, 1), 0..10, &[], &KS);
    }

    #[test]
    fn merge_is_independent_of_shard_count() {
        let (one, four, eight) = (merged(900, 5, 1), merged(900, 5, 4), merged(900, 5, 8));
        assert_eq!(one.total(), four.total());
        assert_eq!(one.total(), eight.total());
        assert_eq!(one.samples, eight.samples);
    }

    #[test]
    fn scan_samples_cover_every_bucket() {
        let scan = merged(900, 5, 8);
        // 900 domains at one per virtual second = 15 one-minute buckets.
        let events = || scan.samples.iter().filter(|(series, _, _)| *series == SAMPLE_SCAN_EVENTS);
        assert_eq!(events().count(), 15);
        // Every bucket did work: at least one MX query per domain.
        assert!(events().all(|(_, _, v)| v >= 60));
        let total: i64 = events().map(|(_, _, v)| v).sum();
        assert_eq!(total, scan.total().events as i64);
        let flagged: i64 = scan
            .samples
            .iter()
            .filter(|(series, _, _)| *series == SAMPLE_SCAN_NOLISTING)
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(flagged, scan.total().class_counts[class_slot(DomainClass::Nolisting)] as i64);
    }

    #[test]
    fn shards_partition_the_population() {
        let scan = merged(700, 3, 8);
        let covered: u64 = scan.shards.iter().map(|s| s.domains).sum();
        assert_eq!(covered, 700, "every domain in exactly one shard");
        assert!(
            scan.shards.iter().filter(|s| s.domains > 0).count() >= 6,
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

    #[test]
    #[should_panic(expected = "mismatched shard counts")]
    fn merging_blocks_of_different_plans_panics() {
        let mut a = BlockScan::empty(8, 2, &KS);
        a.merge(&BlockScan::empty(4, 2, &KS));
    }
}
