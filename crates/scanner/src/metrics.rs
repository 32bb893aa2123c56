//! Metric names and collectors for the scanner crate.
//!
//! All `scanner.*` registry names live here (the O1 lint rule). The
//! streamed scan already accumulates its aggregate state in
//! [`ShardScanStats`]; collection reads that structure, so scan loops pay
//! nothing.

use crate::pipeline::{DetectorAccuracy, DomainClass, Fig2Stats};
use crate::shard_scan::ShardScanStats;
use spamward_obs::Registry;

/// Scan rounds fed to the detector.
pub const ROUNDS: &str = "scanner.rounds";
/// Domains with MX data in the DNS dataset (summed over rounds).
pub const DNS_DOMAINS: &str = "scanner.dns.domains";
/// MX entries still lacking an A record after glue patching.
pub const DNS_MISSING_A: &str = "scanner.dns.missing_a";
/// Hosts found listening on port 25 (summed over rounds).
pub const BANNER_LISTENING: &str = "scanner.banner.listening";
/// Domains classified by the detector.
pub const CLASSIFIED: &str = "scanner.classified";
/// Domains classified as single-MX.
pub const CLASS_ONE_MX: &str = "scanner.class.one_mx";
/// Domains classified as multi-MX without nolisting.
pub const CLASS_NO_NOLISTING: &str = "scanner.class.no_nolisting";
/// Domains classified as nolisting-protected.
pub const CLASS_NOLISTING: &str = "scanner.class.nolisting";
/// Domains classified as DNS-misconfigured.
pub const CLASS_MISCONFIGURED: &str = "scanner.class.misconfigured";
/// Sampled series: scan work (DNS queries + SYN probes) per virtual-time
/// bucket of the streaming scan.
pub const SAMPLE_SCAN_EVENTS: &str = "obs.sample.scan.events";
/// Sampled series: nolisting detections per virtual-time bucket.
pub const SAMPLE_SCAN_NOLISTING: &str = "obs.sample.scan.nolisting";

/// Detector true positives against ground truth.
pub const ACCURACY_TP: &str = "scanner.accuracy.true_positives";
/// Detector false positives against ground truth.
pub const ACCURACY_FP: &str = "scanner.accuracy.false_positives";
/// Detector false negatives against ground truth.
pub const ACCURACY_FN: &str = "scanner.accuracy.false_negatives";

/// Exports the classifier stage: Fig. 2 class counts.
pub fn collect_fig2(stats: &Fig2Stats, reg: &mut Registry) {
    reg.record_counter(CLASSIFIED, stats.total as u64);
    for (class, count) in &stats.counts {
        let name = match class {
            DomainClass::OneMx => CLASS_ONE_MX,
            DomainClass::MultiMxNoNolisting => CLASS_NO_NOLISTING,
            DomainClass::Nolisting => CLASS_NOLISTING,
            DomainClass::DnsMisconfigured => CLASS_MISCONFIGURED,
        };
        reg.record_counter(name, *count as u64);
    }
}

/// Exports the scoring stage: confusion-matrix cells.
pub fn collect_accuracy(acc: &DetectorAccuracy, reg: &mut Registry) {
    reg.record_counter(ACCURACY_TP, acc.true_positives as u64);
    reg.record_counter(ACCURACY_FP, acc.false_positives as u64);
    reg.record_counter(ACCURACY_FN, acc.false_negatives as u64);
}

/// Exports a (merged) shard-scan run: per-round dataset sizes, the Fig. 2
/// class counts, and the confusion cells of the full cross-check (the
/// last round prefix).
pub fn collect_shard_scan(stats: &ShardScanStats, reg: &mut Registry) {
    reg.record_counter(ROUNDS, stats.rounds.len() as u64);
    for round in &stats.rounds {
        reg.record_counter(DNS_DOMAINS, round.dns_domains);
        reg.record_counter(DNS_MISSING_A, round.dns_missing_a);
        reg.record_counter(BANNER_LISTENING, round.banner_listening);
    }
    collect_fig2(&stats.fig2(), reg);
    if let Some(last) = stats.rounds.last() {
        collect_accuracy(&last.accuracy, reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_and_accuracy_collection_mirror_inputs() {
        let stats = Fig2Stats {
            total: 10,
            counts: vec![
                (DomainClass::OneMx, 4),
                (DomainClass::MultiMxNoNolisting, 3),
                (DomainClass::Nolisting, 2),
                (DomainClass::DnsMisconfigured, 1),
            ],
        };
        let acc = DetectorAccuracy { true_positives: 2, false_positives: 1, false_negatives: 0 };
        let mut reg = Registry::new();
        collect_fig2(&stats, &mut reg);
        collect_accuracy(&acc, &mut reg);
        assert_eq!(reg.counter(CLASSIFIED), Some(10));
        assert_eq!(reg.counter(CLASS_NOLISTING), Some(2));
        assert_eq!(reg.counter(CLASS_MISCONFIGURED), Some(1));
        assert_eq!(reg.counter(ACCURACY_TP), Some(2));
        assert_eq!(reg.counter(ACCURACY_FN), Some(0));
    }
}
