//! Property-based invariants spanning crate boundaries.

use proptest::prelude::*;
use spamward::core::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use spamward::prelude::*;
use spamward::sim::SimTime;
use spamward::smtp::ReversePath;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A compliant sender ALWAYS eventually delivers through any greylist
    /// threshold its queue lifetime can out-wait, and never before the
    /// threshold elapses.
    #[test]
    fn prop_compliant_sender_beats_any_outwaitable_threshold(
        seed in 0u64..1_000,
        threshold_mins in 1u64..300,
    ) {
        let threshold = SimDuration::from_mins(threshold_mins);
        let mut world = worlds::greylist_world(seed, threshold);
        let mut sender = SendingMta::new(
            "relay.example",
            vec![Ipv4Addr::new(198, 51, 100, 3)],
            MtaProfile::postfix(), // 5-day queue life >> 300 min
        );
        sender.submit(
            VICTIM_DOMAIN.parse().unwrap(),
            ReversePath::Address("a@relay.example".parse().unwrap()),
            vec![format!("u@{VICTIM_DOMAIN}").parse().unwrap()],
            Message::builder().body("x").build(),
            SimTime::ZERO,
        );
        sender.drain(SimTime::ZERO, &mut world);
        let delivered = sender.records().iter().find(|r| r.delivered);
        prop_assert!(delivered.is_some(), "postfix must out-wait {threshold}");
        prop_assert!(delivered.unwrap().since_enqueue >= threshold);
    }

    /// Fire-and-forget families never deliver through ANY greylist, and
    /// always deliver without one.
    #[test]
    fn prop_fire_and_forget_dichotomy(seed in 0u64..500, threshold_secs in 1u64..10_000) {
        for family in [MalwareFamily::Cutwail, MalwareFamily::Darkmailer] {
            let mut rng = DetRng::seed(seed).fork("prop");
            let campaign = Campaign::synthetic(VICTIM_DOMAIN, 2, &mut rng);
            let horizon = SimTime::from_secs(100_000);

            let mut world = worlds::greylist_world(seed, SimDuration::from_secs(threshold_secs));
            let mut bot = BotSample::new(family, 0, Ipv4Addr::new(203, 0, 113, 8));
            let blocked = bot.run_campaign(&mut world, &campaign, SimTime::ZERO, horizon);
            prop_assert!(!blocked.any_delivered(), "{family} through greylist@{threshold_secs}s");

            let mut world = worlds::plain_world(seed);
            let mut bot = BotSample::new(family, 0, Ipv4Addr::new(203, 0, 113, 8));
            let open = bot.run_campaign(&mut world, &campaign, SimTime::ZERO, horizon);
            prop_assert!(open.any_delivered(), "{family} blocked by nothing");
        }
    }

    /// The victim's mailbox count always equals the count of `Accepted`
    /// events in its anonymized log — the log never lies.
    #[test]
    fn prop_log_matches_mailbox(seed in 0u64..500, n_msgs in 1usize..6) {
        let mut world = worlds::greylist_world(seed, SimDuration::from_secs(300));
        for i in 0..n_msgs {
            let mut sender = SendingMta::new(
                "relay.example",
                vec![Ipv4Addr::new(198, 51, 100, (10 + i) as u8)],
                MtaProfile::sendmail(),
            );
            sender.submit(
                VICTIM_DOMAIN.parse().unwrap(),
                ReversePath::Address(format!("s{i}@relay.example").parse().unwrap()),
                vec![format!("r{i}@{VICTIM_DOMAIN}").parse().unwrap()],
                Message::builder().body("x").build(),
                SimTime::from_secs(i as u64 * 7),
            );
            sender.drain(SimTime::from_secs(i as u64 * 7), &mut world);
        }
        let server = world.server(VICTIM_MX_IP).unwrap();
        let accepted_in_log = server
            .log()
            .iter()
            .filter(|e| matches!(e.event, spamward::analysis::log::LogEvent::Accepted))
            .count();
        prop_assert_eq!(server.mailbox().len(), accepted_in_log);
        prop_assert_eq!(server.mailbox().len(), n_msgs);
    }

    /// Nolisting never affects which MESSAGES a compliant sender delivers —
    /// only bots notice it.
    #[test]
    fn prop_nolisting_transparent_to_compliant_senders(seed in 0u64..500) {
        let run = |mut world: MailWorld| {
            let mut sender = SendingMta::new(
                "relay.example",
                vec![Ipv4Addr::new(198, 51, 100, 21)],
                MtaProfile::exim(),
            );
            sender.submit(
                VICTIM_DOMAIN.parse().unwrap(),
                ReversePath::Address("a@relay.example".parse().unwrap()),
                vec![format!("u@{VICTIM_DOMAIN}").parse().unwrap()],
                Message::builder().body("x").build(),
                SimTime::ZERO,
            );
            sender.drain(SimTime::ZERO, &mut world);
            sender.records().iter().filter(|r| r.delivered).count()
        };
        prop_assert_eq!(run(worlds::plain_world(seed)), 1);
        prop_assert_eq!(run(worlds::nolisting_world(seed)), 1);
    }

    /// The metric registry never disagrees with the greylist's own stats:
    /// collecting any post-campaign world reproduces the decision counters
    /// exactly, and the deferred/passed split is internally consistent.
    #[test]
    fn prop_metrics_mirror_greylist_stats(seed in 0u64..200, n in 1usize..6) {
        let mut world = worlds::greylist_world(seed, SimDuration::from_secs(300));
        let mut rng = DetRng::seed(seed).fork("obs");
        let campaign = Campaign::synthetic(VICTIM_DOMAIN, n, &mut rng);
        let mut bot = BotSample::new(MalwareFamily::Kelihos, 0, Ipv4Addr::new(203, 0, 113, 4));
        bot.run_campaign(&mut world, &campaign, SimTime::ZERO, SimTime::from_secs(100_000));

        let mut reg = spamward::obs::Registry::new();
        spamward::mta::metrics::collect_world(&world, &mut reg);
        let stats = world.server(VICTIM_MX_IP).unwrap().greylist().unwrap().stats();
        let c = |name: &str| reg.counter(name).unwrap_or(0);
        prop_assert_eq!(c("greylist.deferred.total"), stats.total_greylisted());
        prop_assert_eq!(c("greylist.passed.total"), stats.total_passed());
        prop_assert_eq!(
            c("greylist.deferred.total"),
            c("greylist.deferred.new")
                + c("greylist.deferred.early")
                + c("greylist.deferred.restarted"),
        );
        prop_assert_eq!(c("mta.receive.rcpt_greylisted"), c("greylist.deferred.total"));
    }

    /// Triplet accounting: after any bot campaign against a greylisted
    /// victim, greylist stats add up (total = passed + greylisted).
    #[test]
    fn prop_greylist_stats_add_up(seed in 0u64..500, n in 1usize..8) {
        let mut world = worlds::greylist_world(seed, SimDuration::from_secs(300));
        let mut rng = DetRng::seed(seed).fork("stats");
        let campaign = Campaign::synthetic(VICTIM_DOMAIN, n, &mut rng);
        let mut bot = BotSample::new(MalwareFamily::Kelihos, 0, Ipv4Addr::new(203, 0, 113, 3));
        bot.run_campaign(&mut world, &campaign, SimTime::ZERO, SimTime::from_secs(100_000));
        let gl = world.server(VICTIM_MX_IP).unwrap().greylist().unwrap();
        let stats = gl.stats();
        prop_assert_eq!(stats.total(), stats.total_passed() + stats.total_greylisted());
        prop_assert!(stats.total() >= n as u64);
    }
}

/// Every registered experiment exports a non-empty metric registry, and
/// the canonical JSON rendering always embeds it.
#[test]
fn every_registered_report_has_metrics() {
    use spamward::core::harness::{self, HarnessConfig, Scale};
    let config = HarnessConfig { seed: Some(9), scale: Scale::Quick, ..Default::default() };
    for exp in harness::registry() {
        let report = exp.run(&config).expect("unbudgeted run completes");
        assert!(!report.metrics().is_empty(), "{}: empty metric registry", exp.id());
        assert!(
            report.to_json().contains("\"metrics\":[{"),
            "{}: JSON rendering lacks a populated metrics section",
            exp.id()
        );
    }
}

/// Table II's metric registry agrees with its table: the bots that beat
/// greylisting in the table are exactly the ones that show up as passed
/// triplets, and the defer/pass split stays internally consistent.
#[test]
fn efficacy_metrics_consistent_with_table() {
    use spamward::core::experiments::efficacy;
    let config = efficacy::EfficacyConfig { recipients: 4, ..Default::default() };
    let mut obs = spamward::core::harness::Obs::default();
    let result = efficacy::run(&config, &mut obs);
    let reg = obs.registry;

    let c = |name: &str| reg.counter(name).unwrap_or(0);
    // Every sample's first contact with the greylisted victim is deferred.
    assert!(c("greylist.deferred.new") >= result.rows.len() as u64);
    assert_eq!(c("greylist.deferred.total"), c("mta.receive.rcpt_greylisted"));
    assert_eq!(
        c("greylist.deferred.total"),
        c("greylist.deferred.new")
            + c("greylist.deferred.early")
            + c("greylist.deferred.restarted"),
    );
    // The table's "greylisting blocked" column and the pass counters tell
    // the same story: passes happen iff some family out-waits the delay.
    let unblocked = result.rows.iter().filter(|r| !r.greylisting_blocked).count();
    if unblocked > 0 {
        assert!(
            c("greylist.passed.after_delay") >= unblocked as u64,
            "families that beat greylisting must have passed triplets"
        );
    } else {
        assert_eq!(c("greylist.passed.total"), 0, "nothing passed, nothing may count as passed");
    }
}

/// The §VI cost table and the metric registry are two views of the same
/// run: delivered counts, store sizes and greylist defer/pass counters
/// must line up across the three setups.
#[test]
fn costs_metrics_consistent_with_table() {
    use spamward::core::experiments::costs;
    let config = costs::CostsConfig { messages: 60, ..Default::default() };
    let mut obs = spamward::core::harness::Obs::default();
    let result = costs::run(&config, &mut obs);
    let reg = obs.registry;

    let c = |name: &str| reg.counter(name).unwrap_or(0);
    let delivered_total: usize = result.rows.iter().map(|r| r.delivered).sum();
    assert_eq!(c("mta.send.delivered"), delivered_total as u64);
    assert_eq!(c("mta.receive.accepted"), delivered_total as u64);

    // Only the greylisting setup owns a triplet store; its table column is
    // the same number the registry reports as the store-size gauge.
    let grey = result.row("greylisting").expect("greylisting row exists");
    assert_eq!(reg.gauge("greylist.store.size"), Some(grey.store_entries as i64));
    // Each benign message is a fresh triplet: deferred once on first
    // contact, passed after out-waiting the delay.
    assert_eq!(c("greylist.deferred.new"), config.messages as u64);
    assert_eq!(c("greylist.passed.after_delay"), grey.delivered as u64);
    assert_eq!(c("greylist.deferred.total"), c("mta.receive.rcpt_greylisted"));
}
