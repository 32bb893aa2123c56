//! Metric name constants and collectors for the network substrate.
//!
//! All `net.*` registry names live here (the O1 lint rule); the hot path
//! only bumps plain counter fields on [`Network`].

use crate::network::Network;
use spamward_obs::Registry;

/// TCP connection attempts (the §VI traffic-cost counter).
pub const CONNECT_ATTEMPTED: &str = "net.connect.attempted";
/// Attempts that completed the handshake.
pub const CONNECT_ESTABLISHED: &str = "net.connect.established";
/// Attempts refused with a RST (closed port — the nolisting primary).
pub const CONNECT_REFUSED: &str = "net.connect.refused";
/// Attempts that timed out (filtered port or down host).
pub const CONNECT_TIMED_OUT: &str = "net.connect.timed_out";
/// Attempts to unrouted addresses.
pub const CONNECT_NO_ROUTE: &str = "net.connect.no_route";
/// SYN probes sent by scanners.
pub const PROBES_SENT: &str = "net.probe.sent";
/// Connections swallowed by a scripted host-outage window.
pub const FAULT_OUTAGE_TIMEOUTS: &str = "net.fault.outage_timeouts";
/// Connections whose SYN a lossy link dropped.
pub const FAULT_LINK_DROPPED: &str = "net.fault.link_dropped";
/// Connections that paid a latency-spike surcharge.
pub const FAULT_LATENCY_SPIKED: &str = "net.fault.latency_spiked";

/// Exports network counters under the canonical `net.*` names. Fault
/// counters appear only when a fault plan is installed, so fault-free runs
/// keep their exact metric composition.
pub fn collect(net: &Network, reg: &mut Registry) {
    reg.record_counter(CONNECT_ATTEMPTED, net.connects_attempted());
    reg.record_counter(CONNECT_ESTABLISHED, net.connects_established());
    reg.record_counter(CONNECT_REFUSED, net.connects_refused());
    reg.record_counter(CONNECT_TIMED_OUT, net.connects_timed_out());
    reg.record_counter(CONNECT_NO_ROUTE, net.connects_no_route());
    reg.record_counter(PROBES_SENT, net.probes_sent());
    if let Some(faults) = net.faults() {
        reg.record_counter(FAULT_OUTAGE_TIMEOUTS, faults.stats.outage_timeouts);
        reg.record_counter(FAULT_LINK_DROPPED, faults.stats.link_dropped);
        reg.record_counter(FAULT_LATENCY_SPIKED, faults.stats.latency_spiked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PortState, SMTP_PORT};
    use spamward_sim::SimTime;
    use std::net::Ipv4Addr;

    #[test]
    fn outcomes_partition_the_attempts() {
        let mut net = Network::new(1);
        let open = Ipv4Addr::new(192, 0, 2, 1);
        let closed = Ipv4Addr::new(192, 0, 2, 2);
        net.host("a").ip(open).port(SMTP_PORT, PortState::Open).build();
        net.host("b").ip(closed).port(SMTP_PORT, PortState::Closed).build();

        assert!(net.connect_at(open, SMTP_PORT, 0, SimTime::ZERO).is_ok());
        assert!(net.connect_at(closed, SMTP_PORT, 0, SimTime::ZERO).is_err());
        assert!(net
            .connect_at(Ipv4Addr::new(203, 0, 113, 9), SMTP_PORT, 0, SimTime::ZERO)
            .is_err());

        let mut reg = Registry::new();
        collect(&net, &mut reg);
        assert_eq!(reg.counter(CONNECT_ATTEMPTED), Some(3));
        assert_eq!(reg.counter(CONNECT_ESTABLISHED), Some(1));
        assert_eq!(reg.counter(CONNECT_REFUSED), Some(1));
        assert_eq!(reg.counter(CONNECT_NO_ROUTE), Some(1));
        let parts = net.connects_established()
            + net.connects_refused()
            + net.connects_timed_out()
            + net.connects_no_route();
        assert_eq!(parts, net.connects_attempted(), "outcomes partition attempts");
        // No fault plan installed → no net.fault.* names in the registry.
        assert_eq!(reg.counter(FAULT_OUTAGE_TIMEOUTS), None);
    }

    #[test]
    fn fault_counters_partition_too_and_export_when_installed() {
        use crate::faults::{FaultPlan, FaultProfile};
        use spamward_sim::{SimDuration, SimTime};
        let mut net = Network::new(3);
        let addr = Ipv4Addr::new(192, 0, 2, 10);
        net.host("mail.victim.example").ip(addr).port(SMTP_PORT, PortState::Open).build();
        net.install_faults(FaultPlan::compile(&FaultProfile::flaky_net(), 3).net);
        let inside = SimTime::ZERO + SimDuration::from_mins(1);
        for _ in 0..4 {
            let _ = net.connect_at(addr, SMTP_PORT, 0, inside);
        }
        let mut reg = Registry::new();
        collect(&net, &mut reg);
        assert_eq!(reg.counter(FAULT_OUTAGE_TIMEOUTS), Some(4));
        // Fault-swallowed SYNs still land in the timed_out bucket, so the
        // outcome partition invariant holds under injection.
        let parts = net.connects_established()
            + net.connects_refused()
            + net.connects_timed_out()
            + net.connects_no_route();
        assert_eq!(parts, net.connects_attempted(), "fault outcomes escape the partition");
    }
}
