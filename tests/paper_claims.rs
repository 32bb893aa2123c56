//! The paper's headline claims, asserted against the full reproduction.
//!
//! One test per table/figure, each running the corresponding experiment at
//! reduced (but still meaningful) scale and checking the *shape* the paper
//! reports — who wins, by roughly what factor, where crossovers fall.

use spamward::core::experiments::{
    ablations, dataset, deployment, efficacy, kelihos, mta_schedules, nolisting_adoption, summary,
    webmail,
};
use spamward::core::harness::{HarnessConfig, Obs, Scale};
use spamward::scanner::DomainClass;
use spamward::sim::SimDuration;

#[test]
fn table_i_dataset_inventory() {
    let t = dataset::run();
    assert_eq!(t.rows.iter().map(|r| r.2).sum::<u32>(), 11);
    assert!((t.total_botnet_pct - 93.02).abs() < 1e-9);
    assert!((t.total_global_pct - 70.69).abs() < 0.01);
}

#[test]
fn figure_2_adoption_survey() {
    let r = nolisting_adoption::run(
        &nolisting_adoption::AdoptionConfig { domains: 8_000, ..Default::default() },
        &mut Obs::default(),
    );
    // The four slices of the pie, within tolerance of the paper's values.
    assert!((r.stats.pct(DomainClass::OneMx) - 47.73).abs() < 2.5);
    assert!((r.stats.pct(DomainClass::MultiMxNoNolisting) - 45.97).abs() < 2.5);
    assert!((r.stats.pct(DomainClass::DnsMisconfigured) - 5.78).abs() < 1.5);
    let nolisting = r.stats.pct(DomainClass::Nolisting);
    assert!(nolisting > 0.1 && nolisting < 1.5, "nolisting share {nolisting}");
    // Nolisting is small but NOT negligible, and popular domains use it.
    let top1000 = r.top_k.iter().find(|(k, _)| *k == 1000).unwrap().1;
    assert!(top1000 > 0, "expected some popular adopters");
}

#[test]
fn table_ii_efficacy_matrix() {
    let r = efficacy::run(
        &efficacy::EfficacyConfig { recipients: 5, ..Default::default() },
        &mut Obs::default(),
    );
    // Kelihos: nolisting ✓, greylisting ✗; everyone else the reverse.
    for row in &r.rows {
        let kelihos = row.family.name() == "Kelihos";
        assert_eq!(row.nolisting_blocked, kelihos, "{:?}", row);
        assert_eq!(row.greylisting_blocked, !kelihos, "{:?}", row);
    }
}

#[test]
fn figure_3_threshold_insensitivity() {
    let r = kelihos::run(
        &kelihos::KelihosConfig { recipients: 50, ..Default::default() },
        &mut Obs::default(),
    );
    // Both thresholds: everything delivered on the first retry, ≥300 s.
    assert_eq!(r.fast.delivery_rate, 1.0);
    assert_eq!(r.default.delivery_rate, 1.0);
    assert!(r.fast.cdf.min() >= 300.0);
    assert!(r.fig3_ks_distance < 0.3, "curves must nearly coincide: KS {}", r.fig3_ks_distance);
}

#[test]
fn figure_4_peaks_and_late_delivery() {
    let r = kelihos::run(
        &kelihos::KelihosConfig { recipients: 50, ..Default::default() },
        &mut Obs::default(),
    );
    assert_eq!(r.extreme.delivery_rate, 1.0);
    // Deliveries strictly above the 21 600 s threshold (red dots).
    for p in r.extreme.attempts.iter().filter(|p| p.delivered) {
        assert!(p.delay_secs > 21_600.0);
    }
    // The documented peaks.
    let peaks = r.fig4_peaks();
    assert!(peaks.len() >= 3, "{peaks:?}");
    // The one-spam-task control the paper used to rule out botmaster
    // re-sends.
    assert!(r.single_task_confirmed);
}

#[test]
fn figure_5_benign_mail_pays() {
    let r = deployment::run(
        &deployment::DeploymentConfig { messages: 600, ..Default::default() },
        &mut Obs::default(),
    );
    // "only half of the messages get delivered in less than 10 minutes".
    assert!((0.3..=0.8).contains(&r.within_10min), "{}", r.within_10min);
    // "some messages are delivered with over 50 minutes of delay".
    assert!(r.beyond_50min > 0.0);
    // And some legitimate mail is lost outright.
    assert!(r.abandonment_rate > 0.0);
}

#[test]
fn figure_5_cdf_rises_slower_than_figure_3() {
    let benign = deployment::run(
        &deployment::DeploymentConfig { messages: 400, ..Default::default() },
        &mut Obs::default(),
    );
    let bots = kelihos::run(
        &kelihos::KelihosConfig { recipients: 40, ..Default::default() },
        &mut Obs::default(),
    );
    // The paper's "surprising, and quite negative, result": at 600 s the
    // malware curve is essentially done while the benign one is ~half way.
    let benign_at_600 = benign.cdf.fraction_at_or_below(600.0);
    let kelihos_at_600 = bots.default.cdf.fraction_at_or_below(600.0);
    assert!(
        kelihos_at_600 > benign_at_600 + 0.2,
        "kelihos {kelihos_at_600} vs benign {benign_at_600}"
    );
}

#[test]
fn table_iii_webmail_behaviour() {
    let r = webmail::run(&webmail::WebmailConfig::default(), &mut Obs::default());
    // Deliver column matches the paper for all ten providers.
    assert_eq!(r.verdict_matches(), 10);
    // aol loses mail; hotmail hammers; gmail is efficient.
    let get = |name: &str| r.rows.iter().find(|x| x.provider == name).unwrap();
    assert!(!get("aol.com").delivered);
    assert!(get("hotmail.com").attempts > 90);
    assert!(get("gmail.com").attempts < 12);
    // Five of ten rotate source addresses.
    assert_eq!(r.rows.iter().filter(|x| !x.same_ip).count(), 5);
}

#[test]
fn table_iv_schedules() {
    let r = mta_schedules::run();
    assert_eq!(r.rows.len(), 6);
    // Exchange is the only one below RFC's 4–5 day guidance.
    let below: Vec<&str> = r.below_rfc_queue_time().iter().map(|x| x.mta.as_str()).collect();
    assert_eq!(below, vec!["exchange"]);
    // qmail and courier keep messages a full week.
    for name in ["qmail", "courier"] {
        assert_eq!(r.rows.iter().find(|x| x.mta == name).unwrap().max_queue_days, 7.0);
    }
}

#[test]
fn section_vi_headline() {
    // The summary consumes Table II through the harness registry.
    let s = summary::run(
        &HarnessConfig { scale: Scale::Quick, ..Default::default() },
        &mut Obs::default(),
    )
    .expect("unbudgeted summary completes");
    assert!(s.either_global_pct > 70.0, "\"over 70% of the world spam is prevented\"");
    assert!(s.greylisting_botnet_pct > s.nolisting_botnet_pct);
}

#[test]
fn section_vi_short_threshold_recommendation() {
    let points = ablations::threshold_sweep(99);
    let at_5s = &points[0];
    let at_6h = points.iter().find(|p| p.threshold == SimDuration::from_hours(6)).unwrap();
    // Same spam blocked...
    assert_eq!(at_5s.spam_blocked_pct, at_6h.spam_blocked_pct);
    // ...wildly different benign cost.
    assert!(at_6h.benign_delay > at_5s.benign_delay * 10);
}
