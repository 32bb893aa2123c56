//! Shared world builders: the lab setups of §III.
//!
//! Public so that integration tests and downstream users can reuse the
//! paper's exact victim configurations.

use spamward_dns::{DomainName, Zone};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{DegradationMode, MailWorld, ReceivingMta};
use spamward_net::{Availability, FaultWindow, PortState, SMTP_PORT};
use spamward_sim::SimDuration;
use std::net::Ipv4Addr;

/// The victim domain every lab experiment targets.
pub const VICTIM_DOMAIN: &str = "victim.example";

/// Address of the (live) victim mail server.
pub const VICTIM_MX_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);

/// Address of the nolisting dead primary.
pub const VICTIM_DEAD_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 11);

fn victim_domain() -> DomainName {
    VICTIM_DOMAIN.parse().expect("victim domain is valid")
}

/// An unprotected victim server (baseline).
pub fn plain_world(seed: u64) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.install_server(ReceivingMta::new("mail.victim.example", VICTIM_MX_IP));
    w.dns.publish(Zone::single_mx(victim_domain(), VICTIM_MX_IP));
    w
}

/// A victim protected by nolisting: dead primary (port 25 closed), working
/// secondary — the paper's §IV DNS configuration.
pub fn nolisting_world(seed: u64) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.network
        .host("smtp.victim.example")
        .ip(VICTIM_DEAD_IP)
        .port(SMTP_PORT, PortState::Closed)
        .build();
    w.install_server(ReceivingMta::new("smtp1.victim.example", VICTIM_MX_IP));
    w.dns.publish(Zone::nolisting(victim_domain(), VICTIM_DEAD_IP, VICTIM_MX_IP));
    w
}

/// A victim protected by greylisting at `delay` (Postgrey-like defaults,
/// auto-whitelist off so repeated experiments stay independent), with an
/// unprotected `postmaster` control address as in §V-A.
pub fn greylist_world(seed: u64, delay: SimDuration) -> MailWorld {
    let mut cfg = GreylistConfig::with_delay(delay).without_auto_whitelist();
    cfg.whitelist_recipients.add_local_part("postmaster");
    custom_greylist_world(seed, Greylist::new(cfg))
}

/// The standard victim behind an arbitrary pre-configured [`Greylist`] —
/// the shared base of every keying/capacity/AWL variation the ablations
/// and extension experiments test.
pub fn custom_greylist_world(seed: u64, greylist: Greylist) -> MailWorld {
    greylist_world_at(seed, VICTIM_DOMAIN, "mail.victim.example", greylist)
}

/// A single-MX deployment at an arbitrary `domain` whose server `host`
/// runs the given greylist (e.g. the Fig. 5 campus deployment).
///
/// # Panics
///
/// Panics if `domain` is not a valid DNS name.
pub fn greylist_world_at(seed: u64, domain: &str, host: &str, greylist: Greylist) -> MailWorld {
    let domain: DomainName = domain.parse().expect("deployment domain is valid");
    let mut w = MailWorld::new(seed);
    w.install_server(ReceivingMta::new(host, VICTIM_MX_IP).with_greylist(greylist));
    w.dns.publish(Zone::single_mx(domain, VICTIM_MX_IP));
    w
}

/// The standard greylist victim with an explicit store-outage degradation
/// mode — [`custom_greylist_world`] plus the fail-open/fail-closed policy
/// the `resilience` and `policy_backend` experiments exercise against
/// store faults.
pub fn degraded_greylist_world(seed: u64, greylist: Greylist, mode: DegradationMode) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.install_server(
        ReceivingMta::new("mail.victim.example", VICTIM_MX_IP)
            .with_greylist(greylist)
            .with_degradation(mode),
    );
    w.dns.publish(Zone::single_mx(victim_domain(), VICTIM_MX_IP));
    w
}

/// Nolisting *and* greylisting stacked: the dead primary of
/// [`nolisting_world`] in front of a secondary running `greylist`.
pub fn stacked_world(seed: u64, greylist: Greylist) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.network
        .host("smtp.victim.example")
        .ip(VICTIM_DEAD_IP)
        .port(SMTP_PORT, PortState::Closed)
        .build();
    w.install_server(
        ReceivingMta::new("smtp1.victim.example", VICTIM_MX_IP).with_greylist(greylist),
    );
    w.dns.publish(Zone::nolisting(victim_domain(), VICTIM_DEAD_IP, VICTIM_MX_IP));
    w
}

/// A nolisting victim whose *live* secondary additionally observes planned
/// maintenance windows ([`Availability::Windows`]): connections during a
/// window time out exactly like an unplanned outage, and resume as soon as
/// the window closes. The resilience experiment uses this to measure how
/// retry policies ride out scheduled downtime.
pub fn planned_downtime_world(seed: u64, down: Vec<FaultWindow>) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.network
        .host("smtp.victim.example")
        .ip(VICTIM_DEAD_IP)
        .port(SMTP_PORT, PortState::Closed)
        .build();
    w.network
        .host("smtp1.victim.example")
        .ip(VICTIM_MX_IP)
        .smtp_open()
        .availability(Availability::Windows { down })
        .build();
    w.install_server(ReceivingMta::new("smtp1.victim.example", VICTIM_MX_IP));
    w.dns.publish(Zone::nolisting(victim_domain(), VICTIM_DEAD_IP, VICTIM_MX_IP));
    w
}

/// A victim whose *only* defense is postscreen-style pregreet (early-talker)
/// rejection — no delay is inflicted on anyone.
pub fn pregreet_world(seed: u64) -> MailWorld {
    let mut w = MailWorld::new(seed);
    w.install_server(
        ReceivingMta::new("mail.victim.example", VICTIM_MX_IP).with_pregreet_rejection(),
    );
    w.dns.publish(Zone::single_mx(victim_domain(), VICTIM_MX_IP));
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_net::ProbeResult;

    #[test]
    fn worlds_have_expected_shape() {
        let w = plain_world(1);
        assert!(w.server(VICTIM_MX_IP).is_some());

        let w = nolisting_world(1);
        assert_eq!(w.network.probe(VICTIM_DEAD_IP, SMTP_PORT, 0), ProbeResult::Rst);
        assert_eq!(w.network.probe(VICTIM_MX_IP, SMTP_PORT, 0), ProbeResult::SynAck);

        let w = greylist_world(1, SimDuration::from_secs(300));
        let gl = w.server(VICTIM_MX_IP).unwrap().greylist().unwrap();
        assert_eq!(gl.config().delay, SimDuration::from_secs(300));
        assert_eq!(gl.config().auto_whitelist_after, None);
    }

    #[test]
    fn planned_downtime_world_times_out_inside_windows_only() {
        use spamward_sim::SimTime;
        let window = FaultWindow::new(SimTime::from_secs(600), SimTime::from_secs(1200));
        let mut w = planned_downtime_world(3, vec![window]);
        assert!(w.network.connect_at(VICTIM_MX_IP, SMTP_PORT, 0, SimTime::ZERO).is_ok());
        assert!(w.network.connect_at(VICTIM_MX_IP, SMTP_PORT, 0, SimTime::from_secs(600)).is_err());
        assert!(w.network.connect_at(VICTIM_MX_IP, SMTP_PORT, 0, SimTime::from_secs(1200)).is_ok());
        // The dead primary stays dead regardless of the schedule.
        assert_eq!(w.network.probe(VICTIM_DEAD_IP, SMTP_PORT, 0), ProbeResult::Rst);
    }

    #[test]
    fn custom_builders_have_expected_shape() {
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(60)).without_auto_whitelist();
        cfg.netmask = 32;
        let w = custom_greylist_world(2, Greylist::new(cfg.clone()));
        let gl = w.server(VICTIM_MX_IP).unwrap().greylist().unwrap();
        assert_eq!(gl.config().netmask, 32);
        assert_eq!(gl.config().delay, SimDuration::from_secs(60));

        let w = greylist_world_at(2, "campus.example", "mx.campus.example", Greylist::new(cfg));
        assert!(w.server(VICTIM_MX_IP).unwrap().greylist().is_some());

        let w = stacked_world(2, Greylist::new(GreylistConfig::default()));
        assert_eq!(w.network.probe(VICTIM_DEAD_IP, SMTP_PORT, 0), ProbeResult::Rst);
        assert!(w.server(VICTIM_MX_IP).unwrap().greylist().is_some());

        let w = pregreet_world(2);
        assert!(w.server(VICTIM_MX_IP).unwrap().greylist().is_none());

        let w = degraded_greylist_world(
            2,
            Greylist::new(GreylistConfig::default()),
            DegradationMode::FailClosed,
        );
        assert!(w.server(VICTIM_MX_IP).unwrap().greylist().is_some());
    }
}
