//! Ablations of the design choices DESIGN.md calls out.
//!
//! Each function isolates one knob:
//!
//! 1. [`threshold_sweep`] — the §VI trade-off: spam blocked vs. benign
//!    delay across greylisting thresholds.
//! 2. [`netmask_ablation`] — /24 vs exact-IP triplet keying against a
//!    multi-address sender.
//! 3. [`second_campaign`] — the "second spam task slips through" effect
//!    the paper's postmaster control had to rule out.
//! 4. [`scan_rounds_ablation`] — nolisting-detector false positives as a
//!    function of how many scans are cross-checked.
//! 5. [`store_cap_ablation`] — bounded triplet stores under spam load
//!    (the §VI "cost for the system" angle).
//! 6. [`pregreet_ablation`] — postscreen-style early-talker rejection as a
//!    zero-delay alternative: which families it stops, and whether it ever
//!    costs benign mail.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::reduce::ordered_sum;
use spamward_analysis::Table;
use spamward_botnet::{BotSample, Campaign, MalwareFamily};
use spamward_greylist::{Greylist, GreylistConfig, TripletStore};
use spamward_mta::{MtaProfile, OutboundStatus, SendingMta};
use spamward_scanner::{scan_shard, PopulationSpec, PopulationStream};
use spamward_sim::{DetRng, ShardPlan, SimDuration, SimTime};
use spamward_smtp::{Message, ReversePath};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------
// 1. Threshold sweep
// ---------------------------------------------------------------------

/// One point of the threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPoint {
    /// The greylisting delay.
    pub threshold: SimDuration,
    /// Fraction of botnet spam blocked (share-weighted, Table I weights).
    pub spam_blocked_pct: f64,
    /// Benign delivery delay through this threshold for a postfix sender.
    pub benign_delay: SimDuration,
}

/// Sweeps the greylisting threshold across the paper's range (plus
/// extremes), measuring both sides of the §VI trade-off.
pub fn threshold_sweep(seed: u64) -> Vec<ThresholdPoint> {
    let thresholds = [
        SimDuration::from_secs(5),
        SimDuration::from_secs(60),
        SimDuration::from_secs(300),
        SimDuration::from_secs(1_800),
        SimDuration::from_hours(6),
        SimDuration::from_hours(30),
    ];
    thresholds
        .iter()
        .map(|&threshold| {
            // Spam side: run each family once.
            let mut blocked_parts = Vec::new();
            for family in MalwareFamily::ALL {
                let mut world = worlds::greylist_world(seed, threshold);
                let mut bot = BotSample::new(family, 0, Ipv4Addr::new(203, 0, 113, 10));
                let mut rng = DetRng::seed(seed).fork("sweep");
                let campaign = Campaign::synthetic(VICTIM_DOMAIN, 5, &mut rng);
                let report = bot.run_campaign(
                    &mut world,
                    &campaign,
                    SimTime::ZERO,
                    SimTime::from_secs(200_000),
                );
                if !report.any_delivered() {
                    blocked_parts.push(family.botnet_spam_pct());
                }
            }
            let blocked = ordered_sum(blocked_parts);
            // Benign side: a postfix sender's delivery delay.
            let mut world = worlds::greylist_world(seed, threshold);
            let mut sender = SendingMta::new(
                "relay.example",
                vec![Ipv4Addr::new(198, 51, 100, 9)],
                MtaProfile::postfix(),
            );
            sender.submit(
                VICTIM_DOMAIN.parse().expect("valid domain"),
                ReversePath::Address("a@relay.example".parse().expect("valid sender")),
                vec![format!("user@{VICTIM_DOMAIN}").parse().expect("valid rcpt")],
                Message::builder().body("x").build(),
                SimTime::ZERO,
            );
            sender.drain(SimTime::ZERO, &mut world);
            let benign_delay = sender
                .records()
                .iter()
                .find(|r| r.delivered)
                .map(|r| r.since_enqueue)
                .unwrap_or(SimDuration::from_days(5));
            ThresholdPoint { threshold, spam_blocked_pct: blocked, benign_delay }
        })
        .collect()
}

// ---------------------------------------------------------------------
// 2. Netmask keying
// ---------------------------------------------------------------------

/// Result of the netmask ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetmaskAblation {
    /// Attempts a two-address (same /24) sender needed at /24 keying.
    pub attempts_with_net24: u32,
    /// Attempts the same sender needed at exact-IP keying.
    pub attempts_with_exact: u32,
}

/// Compares /24 (Postgrey default) against exact-IP triplet keying for a
/// sender alternating between two addresses in one subnet.
pub fn netmask_ablation(seed: u64) -> NetmaskAblation {
    let run_with = |netmask: u8| -> u32 {
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        cfg.netmask = netmask;
        let mut world = worlds::custom_greylist_world(seed, Greylist::new(cfg));
        let pool = vec![Ipv4Addr::new(198, 51, 100, 1), Ipv4Addr::new(198, 51, 100, 2)];
        // sendmail's first retry (10 min) is comfortably past the 300 s
        // delay, so the /24-vs-exact difference is not confounded by
        // borderline timing.
        let mut sender = SendingMta::new("relay.example", pool, MtaProfile::sendmail())
            .with_ip_selection(spamward_mta::IpSelection::RoundRobin);
        sender.submit(
            VICTIM_DOMAIN.parse().expect("valid domain"),
            ReversePath::Address("a@relay.example".parse().expect("valid sender")),
            vec![format!("user@{VICTIM_DOMAIN}").parse().expect("valid rcpt")],
            Message::builder().body("x").build(),
            SimTime::ZERO,
        );
        sender.drain(SimTime::ZERO, &mut world);
        sender.records().len() as u32
    };
    NetmaskAblation { attempts_with_net24: run_with(24), attempts_with_exact: run_with(32) }
}

// ---------------------------------------------------------------------
// 3. Second-campaign slip-through
// ---------------------------------------------------------------------

/// Result of the second-campaign experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondCampaign {
    /// Was the first campaign's message delivered? (It must not be.)
    pub first_delivered: bool,
    /// Was the *second* campaign's different message delivered, despite the
    /// sender never retrying anything?
    pub second_delivered: bool,
    /// Gap between the campaigns.
    pub gap: SimDuration,
}

/// Demonstrates the subtlety of §V-A: greylisting keys ignore the message,
/// so a fire-and-forget bot that receives a *new* spam job for the same
/// (sender, recipient) pair after the delay effectively "retries" the old
/// triplet and the new message sails through.
pub fn second_campaign(seed: u64) -> SecondCampaign {
    let gap = SimDuration::from_hours(1);
    let mut world = worlds::greylist_world(seed, SimDuration::from_secs(300));
    let mut bot = BotSample::new(MalwareFamily::Cutwail, 0, Ipv4Addr::new(203, 0, 113, 77));

    let mut rng = DetRng::seed(seed).fork("campaigns");
    let first = Campaign::synthetic(VICTIM_DOMAIN, 3, &mut rng);
    let report1 = bot.run_campaign(&mut world, &first, SimTime::ZERO, SimTime::ZERO + gap);

    // Same botmaster job list, *different* message, one hour later.
    let mut second = Campaign::synthetic(VICTIM_DOMAIN, 3, &mut rng);
    second.sender = first.sender.clone();
    second.recipients = first.recipients.clone();
    assert_ne!(first.message.digest(), second.message.digest());
    let report2 =
        bot.run_campaign(&mut world, &second, SimTime::ZERO + gap, SimTime::ZERO + gap * 2);

    SecondCampaign {
        first_delivered: report1.any_delivered(),
        second_delivered: report2.any_delivered(),
        gap,
    }
}

// ---------------------------------------------------------------------
// 4. Scan rounds
// ---------------------------------------------------------------------

/// One point of the scan-round ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRoundsPoint {
    /// Rounds cross-checked.
    pub rounds: usize,
    /// Detector false positives.
    pub false_positives: usize,
    /// Detector false negatives.
    pub false_negatives: usize,
}

/// Measures nolisting-detection error against the number of cross-checked
/// scan rounds, on a deliberately flaky population: one streamed scan over
/// `max_rounds` epochs, one row per round prefix.
pub fn scan_rounds_ablation(seed: u64, domains: usize, max_rounds: usize) -> Vec<ScanRoundsPoint> {
    if max_rounds == 0 {
        return Vec::new();
    }
    let mut spec = PopulationSpec::fig2(domains);
    spec.flaky_hosts = 0.2;
    let stream = PopulationStream::new(spec, seed);
    let epochs: Vec<u64> = (0..max_rounds as u64).collect();
    let scan = scan_shard(&stream, &ShardPlan::new(seed, 1), 0, &epochs, &[]);
    scan.accuracy
        .iter()
        .enumerate()
        .map(|(n, acc)| ScanRoundsPoint {
            rounds: n + 1,
            false_positives: acc.false_positives,
            false_negatives: acc.false_negatives,
        })
        .collect()
}

// ---------------------------------------------------------------------
// 5. Triplet-store capacity
// ---------------------------------------------------------------------

/// Result of the store-capacity ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCapAblation {
    /// Store capacity tested.
    pub capacity: usize,
    /// Evictions under the spam load.
    pub evictions: u64,
    /// Whether the (slow, benign) sender still got its message through.
    pub benign_delivered: bool,
}

/// Floods a capacity-bounded greylist with one-shot spam triplets while a
/// benign postfix sender is waiting out its delay, then checks whether the
/// benign pending entry survived the LRU pressure.
pub fn store_cap_ablation(seed: u64, capacity: usize, spam_triplets: usize) -> StoreCapAblation {
    let cfg = GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
    let greylist = Greylist::new(cfg).with_store(TripletStore::new().with_capacity_bound(capacity));
    let mut world = worlds::custom_greylist_world(seed, greylist);

    // Benign sender's first attempt creates its pending triplet at t=0.
    let mut sender = SendingMta::new(
        "relay.example",
        vec![Ipv4Addr::new(198, 51, 100, 50)],
        MtaProfile::postfix(),
    );
    sender.submit(
        VICTIM_DOMAIN.parse().expect("valid domain"),
        ReversePath::Address("benign@relay.example".parse().expect("valid sender")),
        vec![format!("user@{VICTIM_DOMAIN}").parse().expect("valid rcpt")],
        Message::builder().body("legit").build(),
        SimTime::ZERO,
    );
    sender.run_due(SimTime::ZERO, &mut world);

    // Spam flood between t=0 and the benign retry at t=300 s: one-shot
    // bots, each with a unique triplet.
    let mut bot_ip_pool = spamward_net::IpPool::new(Ipv4Addr::new(203, 0, 0, 1));
    let mut rng = DetRng::seed(seed).fork("flood");
    for i in 0..spam_triplets {
        let mut bot = BotSample::new(MalwareFamily::Cutwail, 0, bot_ip_pool.next_ip());
        let mut campaign = Campaign::synthetic(VICTIM_DOMAIN, 1, &mut rng);
        campaign.recipients =
            vec![format!("victim{}@{VICTIM_DOMAIN}", i % 500).parse().expect("valid rcpt")];
        let at = SimTime::from_secs(1 + (i as u64 * 290 / spam_triplets.max(1) as u64));
        bot.run_campaign(&mut world, &campaign, at, at + SimDuration::from_secs(1));
    }

    // Benign retry at its scheduled 5-minute mark.
    sender.drain(SimTime::ZERO, &mut world);
    let benign_delivered = sender.queue()[0].status == OutboundStatus::Delivered;
    let evictions = world
        .server(VICTIM_MX_IP)
        .expect("victim")
        .greylist()
        .expect("greylist")
        .store()
        .evictions();
    StoreCapAblation { capacity, evictions, benign_delivered }
}

// ---------------------------------------------------------------------
// 6. Pregreet (early-talker) filtering
// ---------------------------------------------------------------------

/// Result of the pregreet ablation for one sender.
#[derive(Debug, Clone, PartialEq)]
pub struct PregreetPoint {
    /// Sender label.
    pub sender: String,
    /// Whether it delivered through a pregreet-filtering (but otherwise
    /// open) server.
    pub delivered: bool,
}

/// Runs every malware family and a compliant sender against a server whose
/// *only* defense is early-talker rejection. No delay is inflicted on
/// anyone — the filter acts purely on protocol manners.
pub fn pregreet_ablation(seed: u64) -> Vec<PregreetPoint> {
    let mut out = Vec::new();
    let build_world = || worlds::pregreet_world(seed);
    for family in MalwareFamily::ALL {
        let mut world = build_world();
        let mut bot = BotSample::new(family, 0, Ipv4Addr::new(203, 0, 113, 30));
        let mut rng = DetRng::seed(seed).fork("pregreet");
        let campaign = Campaign::synthetic(VICTIM_DOMAIN, 3, &mut rng);
        let report =
            bot.run_campaign(&mut world, &campaign, SimTime::ZERO, SimTime::from_secs(200_000));
        out.push(PregreetPoint {
            sender: family.name().to_owned(),
            delivered: report.any_delivered(),
        });
    }
    // The compliant control.
    let mut world = build_world();
    let mut sender = SendingMta::new(
        "relay.example",
        vec![Ipv4Addr::new(198, 51, 100, 40)],
        MtaProfile::postfix(),
    );
    sender.submit(
        VICTIM_DOMAIN.parse().expect("valid domain"),
        ReversePath::Address("a@relay.example".parse().expect("valid sender")),
        vec![format!("user@{VICTIM_DOMAIN}").parse().expect("valid rcpt")],
        Message::builder().body("x").build(),
        SimTime::ZERO,
    );
    sender.drain(SimTime::ZERO, &mut world);
    out.push(PregreetPoint {
        sender: "compliant-mta".into(),
        delivered: sender.records().iter().any(|r| r.delivered),
    });
    out
}

// ---------------------------------------------------------------------
// Aggregate run (the registry entry)
// ---------------------------------------------------------------------

/// Configuration of the combined ablation run. One seed drives all six
/// sub-ablations uniformly (the per-function seeds `repro` used to
/// hardcode are gone).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationsConfig {
    /// RNG seed for every sub-ablation.
    pub seed: u64,
    /// Population size of the scan-rounds ablation.
    pub scan_domains: usize,
    /// Scan rounds cross-checked.
    pub scan_rounds: usize,
    /// Spam triplets flooded at the bounded store.
    pub store_flood: usize,
}

impl Default for AblationsConfig {
    fn default() -> Self {
        AblationsConfig { seed: 2015, scan_domains: 4_000, scan_rounds: 3, store_flood: 300 }
    }
}

/// All six ablation outputs together.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationsResult {
    /// Ablation 1: the threshold sweep.
    pub sweep: Vec<ThresholdPoint>,
    /// Ablation 2: /24 vs exact keying.
    pub netmask: NetmaskAblation,
    /// Ablation 3: second-campaign slip-through.
    pub second: SecondCampaign,
    /// Ablation 4: scan rounds vs detector error.
    pub scan_rounds: Vec<ScanRoundsPoint>,
    /// Ablation 5: bounded triplet stores (one entry per tested capacity).
    pub store_caps: Vec<StoreCapAblation>,
    /// Ablation 6: pregreet filtering alone.
    pub pregreet: Vec<PregreetPoint>,
}

/// Runs all six ablations with one seed.
pub fn run(config: &AblationsConfig) -> AblationsResult {
    AblationsResult {
        sweep: threshold_sweep(config.seed),
        netmask: netmask_ablation(config.seed),
        second: second_campaign(config.seed),
        scan_rounds: scan_rounds_ablation(config.seed, config.scan_domains, config.scan_rounds),
        store_caps: [1_000_000, 500, 50]
            .iter()
            .map(|&cap| store_cap_ablation(config.seed, cap, config.store_flood))
            .collect(),
        pregreet: pregreet_ablation(config.seed),
    }
}

impl AblationsResult {
    /// The six ablations as typed [`Table`]s, in order.
    pub fn tables(&self) -> Vec<Table> {
        let mut sweep = Table::new(vec!["Threshold", "Spam blocked", "Benign delay"])
            .with_title("Ablation 1: greylisting threshold sweep");
        for p in &self.sweep {
            sweep.row(vec![
                p.threshold.to_string(),
                format!("{:.2}%", p.spam_blocked_pct),
                p.benign_delay.to_string(),
            ]);
        }

        let mut netmask = Table::new(vec!["Triplet keying", "Attempts to deliver"])
            .with_title("Ablation 2: triplet keying granularity");
        netmask.row(vec!["/24".into(), self.netmask.attempts_with_net24.to_string()]);
        netmask.row(vec!["exact IP".into(), self.netmask.attempts_with_exact.to_string()]);

        let mut second = Table::new(vec!["Campaign", "Delivered"])
            .with_title("Ablation 3: second spam campaign vs the triplet");
        second.row(vec!["first".into(), yes_no(self.second.first_delivered)]);
        second.row(vec![
            format!("second (new message, {} later)", self.second.gap),
            yes_no(self.second.second_delivered),
        ]);

        let mut rounds = Table::new(vec!["Rounds", "False positives", "False negatives"])
            .with_title("Ablation 4: scan rounds vs detector error");
        for p in &self.scan_rounds {
            rounds.row(vec![
                p.rounds.to_string(),
                p.false_positives.to_string(),
                p.false_negatives.to_string(),
            ]);
        }

        let mut caps = Table::new(vec!["Capacity", "Evictions", "Benign delivered"])
            .with_title("Ablation 5: triplet-store capacity under spam load");
        for c in &self.store_caps {
            caps.row(vec![
                c.capacity.to_string(),
                c.evictions.to_string(),
                yes_no(c.benign_delivered),
            ]);
        }

        let mut pregreet = Table::new(vec!["Sender", "Delivered"])
            .with_title("Ablation 6: pregreet (early-talker) filtering alone");
        for p in &self.pregreet {
            pregreet.row(vec![
                p.sender.clone(),
                if p.delivered { "yes".into() } else { "no (caught talking early)".into() },
            ]);
        }

        vec![sweep, netmask, second, rounds, caps, pregreet]
    }
}

fn yes_no(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

/// Registry entry for the combined design-choice ablations.
pub struct AblationsExperiment;

impl Experiment for AblationsExperiment {
    fn id(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> &'static str {
        "Design-choice ablations (threshold, keying, store, pregreet)"
    }

    fn paper_artifact(&self) -> &'static str {
        "DESIGN.md sweeps"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = match config.scale {
            Scale::Paper => AblationsConfig {
                seed: config.seed_or(AblationsConfig::default().seed),
                ..Default::default()
            },
            Scale::Quick => AblationsConfig {
                seed: config.seed_or(AblationsConfig::default().seed),
                scan_domains: 2_000,
                store_flood: 200,
                ..Default::default()
            },
        };
        let result = run(&module_config);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        crate::metrics::collect_ablations(&result, &mut obs.registry);
        for table in result.tables() {
            report.push_table(table);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_the_tradeoff() {
        let points = threshold_sweep(5);
        assert_eq!(points.len(), 6);
        // Spam blocked is flat at 93.02% until the threshold passes
        // Kelihos' last retry window (~90 ks), where it stays 93.02 only
        // if >25 h... the 30 h point blocks everything.
        let last = points.last().unwrap();
        assert!((last.spam_blocked_pct - 93.02).abs() < 1e-9, "30 h blocks all: {last:?}");
        let at_300 = &points[2];
        assert!((at_300.spam_blocked_pct - 56.69).abs() < 1e-9, "300 s blocks all but Kelihos");
        // Benign delay grows with the threshold.
        for w in points.windows(2) {
            assert!(w[1].benign_delay >= w[0].benign_delay);
        }
        // At 5 s, benign mail arrives on the first (5 min) retry.
        assert_eq!(points[0].benign_delay, SimDuration::from_mins(5));
    }

    #[test]
    fn netmask_24_saves_the_pool_sender() {
        let r = netmask_ablation(7);
        assert_eq!(r.attempts_with_net24, 2, "same-/24 retry passes immediately");
        assert!(r.attempts_with_exact > r.attempts_with_net24);
    }

    #[test]
    fn second_campaign_slips_through() {
        let r = second_campaign(11);
        assert!(!r.first_delivered, "fire-and-forget first campaign dies on the greylist");
        assert!(
            r.second_delivered,
            "the second, different message must pass: greylisting never saw the content"
        );
    }

    #[test]
    fn more_scan_rounds_fewer_false_positives() {
        let points = scan_rounds_ablation(3, 3_000, 3);
        assert_eq!(points.len(), 3);
        assert!(points[0].false_positives > points[1].false_positives);
        assert!(points[1].false_positives >= points[2].false_positives);
    }

    #[test]
    fn pregreet_stops_early_talkers_only() {
        let points = pregreet_ablation(13);
        let get = |name: &str| points.iter().find(|p| p.sender == name).unwrap().delivered;
        // Cutwail and Kelihos blast before the banner: stopped, with zero
        // added delay for anyone.
        assert!(!get("Cutwail"));
        assert!(!get("Kelihos"));
        // The Darkmailers wait politely: pregreet filtering alone cannot
        // stop them (greylisting can — the defenses are complementary).
        assert!(get("Darkmailer"));
        assert!(get("Darkmailer(v3)"));
        // Benign mail flows instantly.
        assert!(get("compliant-mta"));
    }

    #[test]
    fn aggregate_run_collects_all_six() {
        let r =
            run(&AblationsConfig { scan_domains: 1_500, store_flood: 100, ..Default::default() });
        assert_eq!(r.sweep.len(), 6);
        assert_eq!(r.scan_rounds.len(), 3);
        assert_eq!(r.store_caps.len(), 3);
        assert_eq!(r.pregreet.len(), 5);
        let tables = r.tables();
        assert_eq!(tables.len(), 6);
        assert!(tables[0].title().unwrap_or_default().contains("threshold sweep"));
        assert!(tables[1].cell("/24", "Attempts to deliver").is_some());
    }

    #[test]
    fn tight_store_cap_evicts_and_can_hurt_benign_mail() {
        // Unbounded (huge) cap: no evictions, benign mail fine.
        let roomy = store_cap_ablation(9, 1_000_000, 200);
        assert_eq!(roomy.evictions, 0);
        assert!(roomy.benign_delivered);
        // Tiny cap: heavy eviction; the benign pending triplet is likely
        // evicted by the flood, so the sender needs extra rounds — it may
        // still deliver eventually (postfix retries for days) but the
        // store must show the churn.
        let tight = store_cap_ablation(9, 50, 400);
        assert!(tight.evictions > 100, "evictions {}", tight.evictions);
    }
}
