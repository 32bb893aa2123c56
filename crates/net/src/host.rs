//! Hosts: named machines owning IPs, ports, and an availability model.

use spamward_sim::{DetRng, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Opaque identifier of a host within a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub(crate) u64);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// TCP state of a port as seen from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortState {
    /// A listener answers: SYN → SYN-ACK.
    Open,
    /// No listener: SYN → RST. This is the recommended nolisting setup — a
    /// real machine with port 25 *closed*, so clients fail fast.
    Closed,
    /// A firewall drops the packet: SYN → silence (client times out). The
    /// "poor man's nolisting" variant; noticeably slower for RFC-compliant
    /// clients.
    Filtered,
}

/// Whether a host is reachable at all, possibly varying per scan epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Availability {
    /// Always reachable.
    Up,
    /// Never reachable (unplugged, black-holed address).
    Down,
    /// Down with probability `down_prob`, re-drawn independently for every
    /// epoch (an epoch is one scan round or one coarse time bucket). This is
    /// what makes the detector's two-scans-two-months-apart cross-check
    /// meaningful: a flaky-but-real primary MX will usually be up in at
    /// least one of the scans, while a nolisting primary never is.
    Flaky {
        /// Probability the host is unreachable in a given epoch.
        down_prob: f64,
    },
    /// Down exactly during the listed virtual-time windows — *planned*
    /// downtime (maintenance, a scheduled reboot), as opposed to `Flaky`'s
    /// random flapping. Outside every window the host is up. Scan-epoch
    /// checks ([`Availability::is_up`]) treat a windowed host as up, since
    /// epochs carry no instant; time-aware paths use
    /// [`Availability::is_up_at`].
    Windows {
        /// The intervals during which the host is unreachable.
        down: Vec<crate::FaultWindow>,
    },
}

impl Availability {
    /// Whether the host is up in `epoch`, deterministically derived from the
    /// host's stable seed.
    pub fn is_up(&self, host_seed: u64, epoch: u64) -> bool {
        match self {
            Availability::Up | Availability::Windows { .. } => true,
            Availability::Down => false,
            Availability::Flaky { down_prob } => {
                let mut rng = DetRng::seed(host_seed).fork_idx("availability", epoch);
                !rng.chance(*down_prob)
            }
        }
    }

    /// Whether the host is up in `epoch` *at* virtual instant `now`. For
    /// `Up`/`Down`/`Flaky` this is exactly [`Availability::is_up`]; for
    /// `Windows` the instant decides.
    pub fn is_up_at(&self, host_seed: u64, epoch: u64, now: SimTime) -> bool {
        match self {
            Availability::Windows { down } => !down.iter().any(|w| w.contains(now)),
            other => other.is_up(host_seed, epoch),
        }
    }
}

/// A machine in the simulated internet.
#[derive(Debug, Clone)]
pub struct Host {
    pub(crate) name: String,
    pub(crate) ips: Vec<Ipv4Addr>,
    pub(crate) ports: BTreeMap<u16, PortState>,
    pub(crate) availability: Availability,
    pub(crate) seed: u64,
}

impl Host {
    /// The host's mnemonic name (e.g. `"smtp1.foo.net"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The addresses this host answers on.
    pub fn ips(&self) -> &[Ipv4Addr] {
        &self.ips
    }

    /// The host's primary (first) address.
    ///
    /// # Panics
    ///
    /// Panics if the host was somehow built without addresses (the builder
    /// prevents this).
    pub fn primary_ip(&self) -> Ipv4Addr {
        *self.ips.first().expect("host has no IPs")
    }

    /// The state of `port`, defaulting to [`PortState::Closed`].
    pub fn port(&self, port: u16) -> PortState {
        self.ports.get(&port).copied().unwrap_or(PortState::Closed)
    }

    /// Whether the host is reachable in `epoch`.
    pub fn is_up(&self, epoch: u64) -> bool {
        self.availability.is_up(self.seed, epoch)
    }

    /// Whether the host is reachable in `epoch` at virtual instant `now`
    /// (respects [`Availability::Windows`] planned downtime).
    pub fn is_up_at(&self, epoch: u64, now: SimTime) -> bool {
        self.availability.is_up_at(self.seed, epoch, now)
    }
}

/// Builder for [`Host`]s; obtained from [`Network::host`](crate::Network::host).
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_net::{Network, PortState, SMTP_PORT};
///
/// let mut net = Network::new(1);
/// let id = net
///     .host("smtp.foo.net")
///     .ip(Ipv4Addr::new(192, 0, 2, 10))
///     .port(SMTP_PORT, PortState::Open)
///     .build();
/// assert_eq!(net.get(id).name(), "smtp.foo.net");
/// ```
#[derive(Debug)]
pub struct HostBuilder<'a> {
    pub(crate) network: &'a mut crate::Network,
    pub(crate) name: String,
    pub(crate) ips: Vec<Ipv4Addr>,
    pub(crate) ports: BTreeMap<u16, PortState>,
    pub(crate) availability: Availability,
}

impl HostBuilder<'_> {
    /// Adds an address the host answers on.
    pub fn ip(mut self, ip: Ipv4Addr) -> Self {
        self.ips.push(ip);
        self
    }

    /// Sets a port's externally visible state.
    pub fn port(mut self, port: u16, state: PortState) -> Self {
        self.ports.insert(port, state);
        self
    }

    /// Convenience: opens TCP port 25.
    pub fn smtp_open(self) -> Self {
        self.port(crate::SMTP_PORT, PortState::Open)
    }

    /// Sets the availability model (defaults to [`Availability::Up`]).
    pub fn availability(mut self, availability: Availability) -> Self {
        self.availability = availability;
        self
    }

    /// Registers the host with the network and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if no address was supplied or an address is already owned by
    /// another host.
    pub fn build(self) -> HostId {
        self.network.register(self.name, self.ips, self.ports, self.availability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_up_down() {
        assert!(Availability::Up.is_up(1, 0));
        assert!(!Availability::Down.is_up(1, 0));
    }

    #[test]
    fn flaky_is_deterministic_per_epoch() {
        let a = Availability::Flaky { down_prob: 0.5 };
        for epoch in 0..16 {
            assert_eq!(a.is_up(42, epoch), a.is_up(42, epoch));
        }
    }

    #[test]
    fn flaky_varies_across_epochs_and_hosts() {
        let a = Availability::Flaky { down_prob: 0.5 };
        let per_epoch: Vec<bool> = (0..64).map(|e| a.is_up(7, e)).collect();
        assert!(per_epoch.iter().any(|&b| b), "never up across 64 epochs");
        assert!(per_epoch.iter().any(|&b| !b), "never down across 64 epochs");
        let other_host: Vec<bool> = (0..64).map(|e| a.is_up(8, e)).collect();
        assert_ne!(per_epoch, other_host, "different hosts share flap pattern");
    }

    #[test]
    fn windows_availability_follows_the_schedule() {
        use crate::FaultWindow;
        use spamward_sim::SimDuration;
        let maintenance = Availability::Windows {
            down: vec![
                FaultWindow::new(SimTime::from_secs(60), SimTime::from_secs(120)),
                FaultWindow::new(SimTime::from_secs(600), SimTime::from_secs(660)),
            ],
        };
        // Epoch-only checks (scanner view) see the host as up.
        assert!(maintenance.is_up(1, 0));
        // Time-aware checks respect the schedule, on any epoch/seed.
        for (seed, epoch) in [(1, 0), (9, 4)] {
            assert!(maintenance.is_up_at(seed, epoch, SimTime::ZERO));
            assert!(!maintenance.is_up_at(seed, epoch, SimTime::from_secs(60)));
            assert!(!maintenance.is_up_at(seed, epoch, SimTime::from_secs(119)));
            assert!(maintenance.is_up_at(seed, epoch, SimTime::from_secs(120)));
            assert!(!maintenance.is_up_at(seed, epoch, SimTime::from_secs(630)));
            assert!(maintenance.is_up_at(seed, epoch, SimTime::from_secs(661)));
        }
        // The other variants answer is_up_at exactly like is_up.
        let t = SimTime::ZERO + SimDuration::from_mins(3);
        assert!(Availability::Up.is_up_at(1, 0, t));
        assert!(!Availability::Down.is_up_at(1, 0, t));
        let flaky = Availability::Flaky { down_prob: 0.5 };
        for epoch in 0..8 {
            assert_eq!(flaky.is_up_at(42, epoch, t), flaky.is_up(42, epoch));
        }
    }

    #[test]
    fn flaky_probability_respected() {
        let a = Availability::Flaky { down_prob: 0.1 };
        let ups = (0..10_000).filter(|&e| a.is_up(3, e)).count();
        let frac = ups as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "up fraction {frac} far from 0.9");
    }
}
