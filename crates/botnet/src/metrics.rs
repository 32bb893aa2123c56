//! Metric names and collectors for the botnet crate.
//!
//! All `botnet.*` registry names live here (the O1 lint rule). Campaign
//! runs accumulate plain counters on [`BotRunReport`]; collection labels
//! them per family and per MX preference rank — the observable shape of
//! the paper's four-way MX-selection taxonomy (§IV-B).

use crate::bot::BotRunReport;
use crate::family::MalwareFamily;
use spamward_obs::Registry;

/// Delivery attempts a family made (SMTP transactions, counting retries).
pub const PREFIX_ATTEMPTS: &str = "botnet.attempts";
/// Victims a family reached.
pub const PREFIX_DELIVERED: &str = "botnet.delivered";
/// Victims a family gave up on.
pub const PREFIX_FAILED: &str = "botnet.failed";
/// Connection attempts per MX preference rank (`rank0` = primary).
pub const PREFIX_MX_RANK: &str = "botnet.mx_rank";

/// Actor name of a fixed-dialect bot chain on the engine — the suffix its
/// episode histogram gets under `sim.engine.episode_events.`.
pub const ACTOR_BOTNET_CHAIN: &str = "botnet.chain";
/// Actor name of the adaptive (dialect-switching) bot chain.
pub const ACTOR_BOTNET_ADAPTIVE: &str = "botnet.adaptive";

/// Canonical metric-name segment for a family: lowercase alphanumerics,
/// runs of anything else collapsed to `_` ("Darkmailer(v3)" → `darkmailer_v3`).
pub fn family_slug(family: MalwareFamily) -> String {
    let mut slug = String::new();
    for c in family.name().chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') && !slug.is_empty() {
            slug.push('_');
        }
    }
    slug.trim_end_matches('_').to_owned()
}

/// Exports one campaign run under per-family names:
/// `botnet.attempts.<family>`, `botnet.delivered.<family>`,
/// `botnet.failed.<family>`, and `botnet.mx_rank.<family>.rank<k>`.
pub fn collect_run(family: MalwareFamily, report: &BotRunReport, reg: &mut Registry) {
    let slug = family_slug(family);
    reg.record_counter(format!("{PREFIX_ATTEMPTS}.{slug}"), report.attempts.len() as u64);
    reg.record_counter(format!("{PREFIX_DELIVERED}.{slug}"), report.delivered.len() as u64);
    reg.record_counter(format!("{PREFIX_FAILED}.{slug}"), report.failed.len() as u64);
    for (rank, count) in report.mx_rank_attempts.iter().enumerate() {
        if *count > 0 {
            reg.record_counter(format!("{PREFIX_MX_RANK}.{slug}.rank{rank}"), *count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::BotSample;
    use crate::campaign::Campaign;
    use spamward_dns::Zone;
    use spamward_mta::ReceivingMta;
    use spamward_net::{PortState, SMTP_PORT};
    use spamward_sim::{DetRng, SimTime};
    use std::net::Ipv4Addr;

    #[test]
    fn family_slugs_are_name_safe() {
        assert_eq!(family_slug(MalwareFamily::Cutwail), "cutwail");
        assert_eq!(family_slug(MalwareFamily::DarkmailerV3), "darkmailer_v3");
    }

    #[test]
    fn secondary_only_bot_counts_only_rank_one() {
        // A nolisting victim: dead primary, live secondary. Cutwail skips
        // the primary outright, so only rank 1 accumulates.
        let mut w = spamward_mta::MailWorld::new(3);
        let dead = Ipv4Addr::new(192, 0, 2, 20);
        let live = Ipv4Addr::new(192, 0, 2, 21);
        w.network.host("smtp.victim.example").ip(dead).port(SMTP_PORT, PortState::Closed).build();
        w.install_server(ReceivingMta::new("smtp1.victim.example", live));
        w.dns.publish(Zone::nolisting("victim.example".parse().unwrap(), dead, live));

        let mut rng = DetRng::seed(5).fork("metrics-test");
        let campaign = Campaign::synthetic("victim.example", 3, &mut rng);
        let mut bot = BotSample::new(MalwareFamily::Cutwail, 0, Ipv4Addr::new(203, 0, 113, 50));
        let report = bot.run_campaign(&mut w, &campaign, SimTime::ZERO, SimTime::from_secs(1_800));

        assert_eq!(report.mx_rank_attempts, vec![0, 3]);
        let mut reg = Registry::new();
        collect_run(MalwareFamily::Cutwail, &report, &mut reg);
        assert_eq!(reg.counter("botnet.mx_rank.cutwail.rank1"), Some(3));
        assert_eq!(reg.counter("botnet.mx_rank.cutwail.rank0"), None);
        assert_eq!(reg.counter("botnet.delivered.cutwail"), Some(3));
        assert_eq!(reg.counter("botnet.attempts.cutwail"), Some(3));
    }
}
