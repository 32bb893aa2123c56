//! The three-step nolisting detector and the Fig. 2 classification.

use crate::dataset::{BannerGrab, DnsAnyScan, MxRecordEntry};
use spamward_dns::DomainName;
use std::fmt;

/// The detector's verdict for one domain (the four Fig. 2 slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainClass {
    /// Exactly one (resolvable) MX.
    OneMx,
    /// Multiple MXs, primary listening in at least one scan.
    MultiMxNoNolisting,
    /// Primary never listening, a lower-priority MX listening, in *every*
    /// scan round.
    Nolisting,
    /// No usable MX data (unresolvable or lame).
    DnsMisconfigured,
}

impl fmt::Display for DomainClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DomainClass::OneMx => "one MX record",
            DomainClass::MultiMxNoNolisting => "not using nolisting",
            DomainClass::Nolisting => "using nolisting",
            DomainClass::DnsMisconfigured => "DNS misconfiguration",
        };
        f.write_str(s)
    }
}

/// One complete scan round: the (glue-patched) DNS dataset plus the banner
/// grab taken in the same epoch.
#[derive(Debug)]
pub struct ScanRound {
    /// The DNS dataset.
    pub dns: DnsAnyScan,
    /// The SYN-scan results.
    pub banner: BannerGrab,
}

/// Fig. 2's aggregate: per-class counts and percentages.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Stats {
    /// Total domains classified.
    pub total: usize,
    /// Count per class.
    pub counts: Vec<(DomainClass, usize)>,
}

impl Fig2Stats {
    /// The percentage of a class.
    pub fn pct(&self, class: DomainClass) -> f64 {
        let count = self.counts.iter().find(|(c, _)| *c == class).map(|(_, n)| *n).unwrap_or(0);
        100.0 * count as f64 / self.total.max(1) as f64
    }
}

/// Detection quality against ground truth (the synthetic population's
/// advantage over the real study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorAccuracy {
    /// Nolisting domains correctly flagged.
    pub true_positives: usize,
    /// Non-nolisting domains wrongly flagged.
    pub false_positives: usize,
    /// Nolisting domains missed.
    pub false_negatives: usize,
}

impl DetectorAccuracy {
    /// Scores one domain: whether the detector `flagged` it and whether
    /// it `actual`ly uses nolisting.
    pub(crate) fn record(&mut self, flagged: bool, actual: bool) {
        match (flagged, actual) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, true) => self.false_negatives += 1,
            (false, false) => {}
        }
    }

    /// TP / (TP + FP); 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            return 1.0;
        }
        self.true_positives as f64 / flagged as f64
    }

    /// TP / (TP + FN); 1.0 when nothing was there to find.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            return 1.0;
        }
        self.true_positives as f64 / actual as f64
    }
}

/// The paper's three-step nolisting detector with N-scan cross-checking.
///
/// Per scan round and domain: (1) take the domain's MX records and check
/// their correctness, (2) use the resolved exchanger addresses in priority
/// order, (3) join against the banner grab. A domain is a *candidate* when
/// its primary is not listening but some lower-priority exchanger is; it
/// is classified [`DomainClass::Nolisting`] only when it is a candidate in
/// **every** round and the primary listened in none (the paper's two
/// scans, two months apart).
#[derive(Debug, Default)]
pub struct NolistingDetector;

/// One domain's verdict within one scan round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundVerdict {
    OneMx,
    PrimaryUp,
    Candidate,
    Misconfigured,
    /// Multi-MX with nothing listening at all — indistinguishable from an
    /// outage; treated as "not nolisting" (primary could be fine later).
    AllDown,
}

/// One domain's N-scan cross-check, folded a round at a time:
/// [`CrossCheck::class`] is the domain's class over the rounds folded in
/// so far, so the checks of every prefix of the rounds cost one fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrossCheck {
    all_misconfigured: bool,
    any_one_mx: bool,
    any_primary_up: bool,
    all_candidates: bool,
}

impl CrossCheck {
    /// The cross-check of no rounds yet.
    pub(crate) const NONE: CrossCheck = CrossCheck {
        all_misconfigured: true,
        any_one_mx: false,
        any_primary_up: false,
        all_candidates: true,
    };

    /// This cross-check with one more round's verdict folded in.
    #[must_use]
    pub(crate) fn with(self, verdict: RoundVerdict) -> CrossCheck {
        CrossCheck {
            all_misconfigured: self.all_misconfigured && verdict == RoundVerdict::Misconfigured,
            any_one_mx: self.any_one_mx || verdict == RoundVerdict::OneMx,
            any_primary_up: self.any_primary_up || verdict == RoundVerdict::PrimaryUp,
            all_candidates: self.all_candidates && verdict == RoundVerdict::Candidate,
        }
    }

    /// The class over the rounds folded in so far.
    pub(crate) fn class(self) -> DomainClass {
        // Misconfiguration and single-MX are structural; take them from
        // the first round that produced MX data at all.
        if self.all_misconfigured {
            return DomainClass::DnsMisconfigured;
        }
        if self.any_one_mx {
            return DomainClass::OneMx;
        }
        // "If one domain had the primary email server operational in at
        // least one of the two datasets, we concluded that it was not
        // using nolisting."
        if self.any_primary_up {
            return DomainClass::MultiMxNoNolisting;
        }
        // "If the primary was not responding in both cases but the
        // secondary did, we assumed the domain was protected by nolisting."
        if self.all_candidates {
            return DomainClass::Nolisting;
        }
        DomainClass::MultiMxNoNolisting
    }
}

impl NolistingDetector {
    /// Classifies one domain within one round, from its glue-patched MX
    /// entries (empty when the round has no MX data for it) and the
    /// round's banner grab.
    pub(crate) fn round_verdict(entries: &[MxRecordEntry], banner: &BannerGrab) -> RoundVerdict {
        // Entries are preference-sorted at collection time.
        let mut resolved = entries.iter().filter_map(|e| e.ip).peekable();
        let Some(primary) = resolved.next() else {
            return RoundVerdict::Misconfigured;
        };
        if resolved.peek().is_none() {
            return RoundVerdict::OneMx;
        }
        if banner.is_listening(primary) {
            return RoundVerdict::PrimaryUp;
        }
        if resolved.any(|ip| banner.is_listening(ip)) {
            RoundVerdict::Candidate
        } else {
            RoundVerdict::AllDown
        }
    }

    /// Classifies `domain` across all rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty.
    pub fn classify(rounds: &[ScanRound], domain: &DomainName) -> DomainClass {
        assert!(!rounds.is_empty(), "need at least one scan round");
        let verdicts = rounds.iter().map(|r| Self::round_verdict(r.dns.entries(domain), &r.banner));
        verdicts.fold(CrossCheck::NONE, CrossCheck::with).class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{DomainTruth, PopulationSpec, PopulationStream};
    use crate::shard_scan::{oracle::Oracle, scan_block};
    use spamward_sim::ShardPlan;

    #[test]
    fn fig2_shape_recovered() {
        let stream = PopulationStream::new(PopulationSpec::fig2(4_000), 13);
        let scan = scan_block(&stream, &ShardPlan::new(13, 1), 0..4_000, &[0, 1], &[]).total();
        let stats = scan.fig2();
        assert_eq!(stats.total, 4_000);
        assert!((stats.pct(DomainClass::OneMx) - 47.73).abs() < 3.0);
        assert!((stats.pct(DomainClass::MultiMxNoNolisting) - 45.97).abs() < 3.0);
        assert!((stats.pct(DomainClass::DnsMisconfigured) - 5.78).abs() < 2.0);
        let nolisting_pct = stats.pct(DomainClass::Nolisting);
        assert!(nolisting_pct > 0.0 && nolisting_pct < 2.0, "got {nolisting_pct}");

        let acc = scan.rounds[1].accuracy;
        // A nolisting domain whose flaky *secondary* happens to be down in
        // a scan epoch is undetectable by construction, so recall is high
        // but not guaranteed perfect.
        assert!(acc.recall() > 0.85, "recall {}", acc.recall());
        assert!(acc.precision() > 0.5, "precision {}", acc.precision());
    }

    #[test]
    fn double_scan_beats_single_scan_on_precision() {
        let mut spec = PopulationSpec::fig2(6_000);
        spec.flaky_hosts = 0.20; // plenty of flapping primaries
        let stream = PopulationStream::new(spec, 17);
        let scan = scan_block(&stream, &ShardPlan::new(17, 1), 0..6_000, &[0, 1], &[]).total();
        let (acc_single, acc_double) = (scan.rounds[0].accuracy, scan.rounds[1].accuracy);
        assert!(
            acc_double.false_positives < acc_single.false_positives,
            "double scan FP {} !< single scan FP {}",
            acc_double.false_positives,
            acc_single.false_positives
        );
        assert!(acc_double.precision() > acc_single.precision());
        assert!(acc_double.recall() > 0.5, "recall {}", acc_double.recall());
    }

    #[test]
    fn misconfigured_and_one_mx_classes() {
        let mut world = Oracle::build(&PopulationStream::new(PopulationSpec::fig2(1_500), 23));
        let (rounds, _, _) = world.rounds(&[0, 1]);
        for d in &world.domains {
            let v = NolistingDetector::classify(&rounds, &d.name);
            match d.truth {
                DomainTruth::Misconfigured => {
                    assert_eq!(v, DomainClass::DnsMisconfigured, "{}", d.name)
                }
                DomainTruth::SingleMx => assert_eq!(v, DomainClass::OneMx, "{}", d.name),
                _ => {}
            }
        }
    }

    /// A reference classifier that collects every round's verdict and
    /// resolved addresses into vectors: the oracle `classify` is pinned to.
    fn oracle_classify(rounds: &[ScanRound], domain: &DomainName) -> DomainClass {
        let verdict = |round: &ScanRound| {
            let Some(entries) = round.dns.mx.get(domain) else {
                return RoundVerdict::Misconfigured;
            };
            let resolved: Vec<_> = entries.iter().filter_map(|e| e.ip).collect();
            match resolved[..] {
                [] => RoundVerdict::Misconfigured,
                [_] => RoundVerdict::OneMx,
                [primary, ..] if round.banner.is_listening(primary) => RoundVerdict::PrimaryUp,
                [_, ref rest @ ..] if rest.iter().any(|&ip| round.banner.is_listening(ip)) => {
                    RoundVerdict::Candidate
                }
                _ => RoundVerdict::AllDown,
            }
        };
        let verdicts: Vec<RoundVerdict> = rounds.iter().map(verdict).collect();
        if verdicts.iter().all(|v| *v == RoundVerdict::Misconfigured) {
            DomainClass::DnsMisconfigured
        } else if verdicts.contains(&RoundVerdict::OneMx) {
            DomainClass::OneMx
        } else if verdicts.contains(&RoundVerdict::PrimaryUp) {
            DomainClass::MultiMxNoNolisting
        } else if verdicts.iter().all(|v| *v == RoundVerdict::Candidate) {
            DomainClass::Nolisting
        } else {
            DomainClass::MultiMxNoNolisting
        }
    }

    #[test]
    fn classify_matches_the_oracle_over_flaky_rounds() {
        let mut spec = PopulationSpec::fig2(3_000);
        spec.flaky_hosts = 0.5;
        let mut world = Oracle::build(&PopulationStream::new(spec, 31));
        let (rounds, _, _) = world.rounds(&[0, 1, 2]);
        let mut classes = std::collections::BTreeSet::new();
        for d in &world.domains {
            for n in 1..=rounds.len() {
                let class = NolistingDetector::classify(&rounds[..n], &d.name);
                assert_eq!(class, oracle_classify(&rounds[..n], &d.name), "{} over {n}", d.name);
                classes.insert(class);
            }
            for round in &rounds {
                let single = std::slice::from_ref(round);
                assert_eq!(
                    NolistingDetector::classify(single, &d.name),
                    oracle_classify(single, &d.name)
                );
            }
        }
        assert_eq!(classes.len(), 4, "the world exercises every class");
    }

    #[test]
    fn stats_pct_of_absent_class_is_zero() {
        let stats = Fig2Stats { total: 10, counts: vec![(DomainClass::OneMx, 10)] };
        assert_eq!(stats.pct(DomainClass::Nolisting), 0.0);
        assert_eq!(stats.pct(DomainClass::OneMx), 100.0);
    }

    #[test]
    fn accuracy_edge_cases() {
        let perfect =
            DetectorAccuracy { true_positives: 0, false_positives: 0, false_negatives: 0 };
        assert_eq!(perfect.precision(), 1.0);
        assert_eq!(perfect.recall(), 1.0);
        let bad = DetectorAccuracy { true_positives: 1, false_positives: 3, false_negatives: 1 };
        assert_eq!(bad.precision(), 0.25);
        assert_eq!(bad.recall(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one scan round")]
    fn classify_requires_rounds() {
        let name: DomainName = "x.example".parse().unwrap();
        let _ = NolistingDetector::classify(&[], &name);
    }

    #[test]
    fn display_class_names() {
        assert_eq!(DomainClass::Nolisting.to_string(), "using nolisting");
        assert_eq!(DomainClass::DnsMisconfigured.to_string(), "DNS misconfiguration");
    }
}
