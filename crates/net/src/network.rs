//! The network registry and its connection/probe semantics.

use crate::faults::NetFaults;
use crate::host::{Host, HostBuilder, HostId, PortState};
use crate::latency::LatencyModel;
use spamward_sim::{DetRng, SimDuration, SimTime, WordHash};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Result of a single SYN probe, as a zmap-style banner grab records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeResult {
    /// SYN-ACK received: a listener is there.
    SynAck,
    /// RST received: host is up, port closed.
    Rst,
    /// Nothing came back within the scanner's timeout.
    Timeout,
}

impl ProbeResult {
    /// Whether the probe proves a listener ("responded to a SYN packet on
    /// port 25" in the paper's wording).
    pub fn is_listening(self) -> bool {
        matches!(self, ProbeResult::SynAck)
    }
}

/// Why a connection attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// No host owns the destination address.
    NoRoute,
    /// The host exists but is unreachable this epoch.
    HostDown,
    /// The port answered with RST — fail fast.
    ConnectionRefused,
    /// The packet was dropped; the client waited out its own timeout.
    TimedOut {
        /// How long the client waited before giving up.
        waited: SimDuration,
    },
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::NoRoute => write!(f, "no route to host"),
            ConnectError::HostDown => write!(f, "host unreachable"),
            ConnectError::ConnectionRefused => write!(f, "connection refused"),
            ConnectError::TimedOut { waited } => write!(f, "connection timed out after {waited}"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl ConnectError {
    /// Time the *client* spent learning about the failure: a refused
    /// connection costs one RTT, a filtered one costs the full timeout.
    pub fn client_cost(&self, rtt: SimDuration) -> SimDuration {
        match self {
            ConnectError::NoRoute | ConnectError::ConnectionRefused | ConnectError::HostDown => rtt,
            ConnectError::TimedOut { waited } => *waited,
        }
    }
}

/// The stable per-host seed for flap patterns, derived purely from the
/// host's name — never from registration order — so a streaming generator
/// that synthesizes a host record on the fly and a materialized
/// [`Network`] agree on every availability decision.
#[must_use]
pub fn host_seed(name: &str) -> u64 {
    let mut h: u64 = 0x9E37_79B9;
    for b in name.bytes() {
        h = h.rotate_left(5) ^ u64::from(b);
    }
    h
}

/// An established (simulated) TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// The host that accepted.
    pub host: HostId,
    /// Round-trip time for this connection; callers charge it per exchange.
    pub rtt: SimDuration,
}

/// The simulated internet: hosts, their addresses, and reachability rules.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_net::{Network, PortState, ProbeResult, SMTP_PORT};
///
/// let mut net = Network::new(7);
/// let ip = Ipv4Addr::new(192, 0, 2, 1);
/// net.host("mx.example.org").ip(ip).smtp_open().build();
///
/// assert_eq!(net.probe(ip, SMTP_PORT, 0), ProbeResult::SynAck);
/// assert_eq!(net.probe(ip, 80, 0), ProbeResult::Rst);
/// ```
#[derive(Debug)]
pub struct Network {
    hosts: Vec<Host>,
    /// Hosts [`Network::clear`] removed, whose buffers the next
    /// [`Network::host`] calls refill.
    parked: Vec<Host>,
    by_ip: HashMap<Ipv4Addr, HostId, WordHash>,
    latency: LatencyModel,
    rng: DetRng,
    connects_attempted: u64,
    connects_established: u64,
    connects_refused: u64,
    connects_timed_out: u64,
    connects_no_route: u64,
    probes_sent: std::cell::Cell<u64>,
    faults: Option<NetFaults>,
    /// How long clients wait on a filtered port before giving up.
    pub syn_timeout: SimDuration,
}

impl Network {
    /// Creates an empty network with the default latency model.
    pub fn new(seed: u64) -> Self {
        Network {
            hosts: Vec::new(),
            parked: Vec::new(),
            by_ip: HashMap::default(),
            latency: LatencyModel::default(),
            rng: DetRng::seed(seed).fork("net.latency"),
            connects_attempted: 0,
            connects_established: 0,
            connects_refused: 0,
            connects_timed_out: 0,
            connects_no_route: 0,
            probes_sent: std::cell::Cell::new(0),
            faults: None,
            syn_timeout: SimDuration::from_secs(30),
        }
    }

    /// Total TCP connection attempts so far (the traffic-cost counter the
    /// §VI accounting reads).
    pub fn connects_attempted(&self) -> u64 {
        self.connects_attempted
    }

    /// Attempts that completed the handshake.
    pub fn connects_established(&self) -> u64 {
        self.connects_established
    }

    /// Attempts refused with a RST (closed port — the nolisting primary).
    pub fn connects_refused(&self) -> u64 {
        self.connects_refused
    }

    /// Attempts that timed out (filtered port or down host).
    pub fn connects_timed_out(&self) -> u64 {
        self.connects_timed_out
    }

    /// Attempts to addresses with no route.
    pub fn connects_no_route(&self) -> u64 {
        self.connects_no_route
    }

    /// Total SYN probes sent by scanners.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent.get()
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Installs network-level faults (a compiled plan's `net` half). Until
    /// this is called the network behaves exactly as if the fault layer did
    /// not exist — same results, same RNG draw order.
    pub fn install_faults(&mut self, faults: NetFaults) {
        self.faults = Some(faults);
    }

    /// The installed fault state (with its fired-fault counters), if any.
    pub fn faults(&self) -> Option<&NetFaults> {
        self.faults.as_ref()
    }

    /// Starts building a host named `name`. After [`Network::clear`] the
    /// host refills a removed host's name, address and port buffers in
    /// place; nothing else of that host carries over.
    pub fn host(&mut self, name: &str) -> HostBuilder<'_> {
        let mut host = self.parked.pop().unwrap_or_else(Host::empty);
        host.reset(name);
        HostBuilder { network: self, host }
    }

    /// Removes every host and its addresses, keeping the host list's and
    /// the address index's capacity and parking the removed hosts for
    /// [`Network::host`] to refill, so a network refilled per domain
    /// allocates nothing once warm. Counters, the latency stream and
    /// installed faults are kept.
    pub fn clear(&mut self) {
        self.parked.append(&mut self.hosts);
        self.by_ip.clear();
    }

    pub(crate) fn register(&mut self, mut host: Host) -> HostId {
        assert!(!host.ips.is_empty(), "host {:?} needs at least one IP", host.name);
        let id = HostId(self.hosts.len() as u64);
        for &ip in &host.ips {
            let prev = self.by_ip.insert(ip, id);
            assert!(prev.is_none(), "IP {ip} already owned by {:?}", prev);
        }
        host.seed = host_seed(&host.name);
        self.hosts.push(host);
        id
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the network has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The host with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn get(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Looks up the owner of `ip`.
    pub fn host_at(&self, ip: Ipv4Addr) -> Option<&Host> {
        self.by_ip.get(&ip).map(|&id| self.get(id))
    }

    /// Iterates over all hosts.
    pub fn iter(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// Sends one SYN to `ip:port` during `epoch` and reports what came back.
    ///
    /// This is the primitive the banner-grab scanner uses: it does not
    /// complete a handshake, and it treats an absent or down host as
    /// [`ProbeResult::Timeout`] (on the real Internet a scanner cannot tell
    /// "no such host" from "packet dropped").
    pub fn probe(&self, ip: Ipv4Addr, port: u16, epoch: u64) -> ProbeResult {
        self.probes_sent.set(self.probes_sent.get() + 1);
        let Some(host) = self.host_at(ip) else {
            return ProbeResult::Timeout;
        };
        if !host.is_up(epoch) {
            return ProbeResult::Timeout;
        }
        match host.port(port) {
            PortState::Open => ProbeResult::SynAck,
            PortState::Closed => ProbeResult::Rst,
            PortState::Filtered => ProbeResult::Timeout,
        }
    }

    /// Attempts a full TCP connection to `ip:port` during `epoch` at the
    /// virtual instant `now`: planned-downtime windows
    /// ([`Availability::Windows`](crate::Availability::Windows)) and
    /// installed faults (outages, link loss, latency spikes) are evaluated
    /// at `now`. Fault decisions are pure functions of
    /// `(plan seed, ip, now)`, so they cannot perturb the latency RNG
    /// stream — a faulted and a fault-free run sample RTTs in the same
    /// order.
    ///
    /// # Errors
    ///
    /// * [`ConnectError::NoRoute`] — nothing owns `ip`.
    /// * [`ConnectError::HostDown`] — owner unreachable this epoch.
    /// * [`ConnectError::ConnectionRefused`] — port closed (RST).
    /// * [`ConnectError::TimedOut`] — port filtered, or a fault swallowed
    ///   the SYN (a lost SYN is indistinguishable from a filtered port);
    ///   the error carries the client's SYN timeout so callers can charge
    ///   the wasted wait.
    pub fn connect_at(
        &mut self,
        ip: Ipv4Addr,
        port: u16,
        epoch: u64,
        now: SimTime,
    ) -> Result<Connection, ConnectError> {
        self.connects_attempted += 1;
        let mut rtt = self.latency.sample(&mut self.rng);
        let Some(&id) = self.by_ip.get(&ip) else {
            self.connects_no_route += 1;
            return Err(ConnectError::NoRoute);
        };
        let host = &self.hosts[id.0 as usize];
        if let Some(faults) = &mut self.faults {
            if faults.host_out(&host.name, now) || faults.link_drop(ip, now) {
                self.connects_timed_out += 1;
                return Err(ConnectError::TimedOut { waited: self.syn_timeout });
            }
            rtt += faults.extra_latency(now);
        }
        if !host.is_up_at(epoch, now) {
            // A down host looks like a filtered port from the outside.
            self.connects_timed_out += 1;
            return Err(ConnectError::TimedOut { waited: self.syn_timeout });
        }
        match host.port(port) {
            PortState::Open => {
                self.connects_established += 1;
                Ok(Connection { host: id, rtt })
            }
            PortState::Closed => {
                self.connects_refused += 1;
                Err(ConnectError::ConnectionRefused)
            }
            PortState::Filtered => {
                self.connects_timed_out += 1;
                Err(ConnectError::TimedOut { waited: self.syn_timeout })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Availability, SMTP_PORT};

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn basic_net() -> (Network, Ipv4Addr, Ipv4Addr, Ipv4Addr) {
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let open = ip(192, 0, 2, 1);
        let closed = ip(192, 0, 2, 2);
        let filtered = ip(192, 0, 2, 3);
        net.host("open.example").ip(open).smtp_open().build();
        net.host("closed.example").ip(closed).build();
        net.host("filtered.example").ip(filtered).port(SMTP_PORT, PortState::Filtered).build();
        (net, open, closed, filtered)
    }

    #[test]
    fn probe_reflects_port_state() {
        let (net, open, closed, filtered) = basic_net();
        assert_eq!(net.probe(open, SMTP_PORT, 0), ProbeResult::SynAck);
        assert_eq!(net.probe(closed, SMTP_PORT, 0), ProbeResult::Rst);
        assert_eq!(net.probe(filtered, SMTP_PORT, 0), ProbeResult::Timeout);
        assert_eq!(net.probe(ip(192, 0, 2, 99), SMTP_PORT, 0), ProbeResult::Timeout);
        assert!(net.probe(open, SMTP_PORT, 0).is_listening());
        assert!(!net.probe(closed, SMTP_PORT, 0).is_listening());
    }

    #[test]
    fn connect_semantics() {
        let (mut net, open, closed, filtered) = basic_net();
        assert!(net.connect_at(open, SMTP_PORT, 0, SimTime::ZERO).is_ok());
        assert_eq!(
            net.connect_at(closed, SMTP_PORT, 0, SimTime::ZERO),
            Err(ConnectError::ConnectionRefused)
        );
        match net.connect_at(filtered, SMTP_PORT, 0, SimTime::ZERO) {
            Err(ConnectError::TimedOut { waited }) => {
                assert_eq!(waited, SimDuration::from_secs(30))
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(
            net.connect_at(ip(10, 0, 0, 1), SMTP_PORT, 0, SimTime::ZERO),
            Err(ConnectError::NoRoute)
        );
    }

    #[test]
    fn down_host_times_out() {
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let addr = ip(192, 0, 2, 9);
        net.host("down.example").ip(addr).smtp_open().availability(Availability::Down).build();
        assert!(matches!(
            net.connect_at(addr, SMTP_PORT, 0, SimTime::ZERO),
            Err(ConnectError::TimedOut { .. })
        ));
        assert_eq!(net.probe(addr, SMTP_PORT, 0), ProbeResult::Timeout);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn duplicate_ip_rejected() {
        let mut net = Network::new(1);
        let addr = ip(192, 0, 2, 1);
        net.host("a").ip(addr).build();
        net.host("b").ip(addr).build();
    }

    #[test]
    #[should_panic(expected = "at least one IP")]
    fn host_without_ip_rejected() {
        let mut net = Network::new(1);
        net.host("a").build();
    }

    #[test]
    fn multi_ip_host_reachable_on_all() {
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let a = ip(198, 51, 100, 1);
        let b = ip(198, 51, 100, 2);
        let id = net.host("pool.example").ip(a).ip(b).smtp_open().build();
        assert_eq!(net.connect_at(a, SMTP_PORT, 0, SimTime::ZERO).unwrap().host, id);
        assert_eq!(net.connect_at(b, SMTP_PORT, 0, SimTime::ZERO).unwrap().host, id);
        assert_eq!(net.get(id).primary_ip(), a);
    }

    #[test]
    fn clear_removes_every_host_and_frees_its_addresses() {
        let (mut net, open, closed, filtered) = basic_net();
        net.clear();
        assert!(net.is_empty());
        for addr in [open, closed, filtered] {
            assert!(net.host_at(addr).is_none());
            assert_eq!(net.probe(addr, SMTP_PORT, 0), ProbeResult::Timeout);
        }
        assert_eq!(net.probes_sent(), 3, "counters keep counting");
        // An address a cleared host owned can be registered again, and
        // ids restart from the first slot.
        let id = net.host("again.example").ip(closed).smtp_open().build();
        assert_eq!(net.get(id).name(), "again.example");
        assert_eq!(id, HostId(0));
        assert_eq!(net.probe(closed, SMTP_PORT, 0), ProbeResult::SynAck);
    }

    #[test]
    fn a_host_rebuilt_after_clear_inherits_nothing_from_the_parked_host() {
        use crate::FaultWindow;
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let (a, b, c) = (ip(192, 0, 2, 1), ip(192, 0, 2, 2), ip(192, 0, 2, 3));
        let down = vec![FaultWindow::new(SimTime::ZERO, SimTime::from_secs(60))];
        net.host("a-parked-host-with-a-long-name.example")
            .ip(a)
            .ip(b)
            .smtp_open()
            .port(80, PortState::Filtered)
            .availability(Availability::Windows { down })
            .build();
        net.host("flat.example").ip(c).availability(Availability::Down).build();
        net.clear();

        // Both parked hosts come back, each as what its builder says only.
        let first = net.host("x.example").ip(c).build();
        let second = net.host("y.example").ip(a).smtp_open().build();
        assert_eq!((first, second), (HostId(0), HostId(1)), "ids restart at the first slot");
        for (id, name, addr, smtp) in
            [(first, "x.example", c, PortState::Closed), (second, "y.example", a, PortState::Open)]
        {
            let host = net.get(id);
            assert_eq!(host.name(), name);
            assert_eq!(host.ips(), [addr]);
            assert_eq!(host.port(SMTP_PORT), smtp);
            assert_eq!(host.port(80), PortState::Closed);
            assert_eq!(host.availability(), &Availability::Up);
            assert!(host.is_up_at(0, SimTime::from_secs(30)));
            assert_eq!(host.seed, host_seed(name), "the seed follows the new name");
        }
        assert!(net.host_at(b).is_none(), "the parked host's extra address is gone");
        assert_eq!(net.probe(c, SMTP_PORT, 0), ProbeResult::Rst);
        assert_eq!(net.probe(a, SMTP_PORT, 0), ProbeResult::SynAck);
        assert_eq!(net.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn duplicate_ip_rejected_after_clear() {
        let mut net = Network::new(1);
        net.host("a").ip(ip(192, 0, 2, 1)).build();
        net.host("b").ip(ip(192, 0, 2, 2)).build();
        net.clear();
        net.host("c").ip(ip(192, 0, 2, 2)).build();
        net.host("d").ip(ip(192, 0, 2, 2)).build();
    }

    #[test]
    fn setting_a_port_again_replaces_its_state() {
        let mut net = Network::new(1);
        let addr = ip(192, 0, 2, 1);
        let id = net
            .host("twice.example")
            .ip(addr)
            .port(SMTP_PORT, PortState::Filtered)
            .port(587, PortState::Open)
            .port(SMTP_PORT, PortState::Open)
            .build();
        let host = net.get(id);
        assert_eq!(host.port(SMTP_PORT), PortState::Open);
        assert_eq!(host.port(587), PortState::Open);
        assert_eq!(host.ports.len(), 2, "one entry per port");
        assert_eq!(net.probe(addr, SMTP_PORT, 0), ProbeResult::SynAck);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let (mut net, open, closed, _) = basic_net();
        assert_eq!(net.connects_attempted(), 0);
        let _ = net.connect_at(open, SMTP_PORT, 0, SimTime::ZERO);
        let _ = net.connect_at(closed, SMTP_PORT, 0, SimTime::ZERO);
        assert_eq!(net.connects_attempted(), 2, "failed connects count too");
        let before = net.probes_sent();
        net.probe(open, SMTP_PORT, 0);
        assert_eq!(net.probes_sent(), before + 1);
    }

    #[test]
    fn installed_faults_swallow_syns_and_spike_latency() {
        use crate::faults::{FaultPlan, FaultProfile};
        let mins = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let addr = ip(192, 0, 2, 10);
        net.host("mail.victim.example").ip(addr).smtp_open().build();
        // Without faults the host accepts at any instant.
        assert!(net.connect_at(addr, SMTP_PORT, 0, mins(1)).is_ok());

        let plan = FaultPlan::compile(&FaultProfile::flaky_net(), 5);
        net.install_faults(plan.net);
        // Inside the outage window every SYN vanishes (timeout, not refusal).
        assert!(matches!(
            net.connect_at(addr, SMTP_PORT, 0, mins(1)),
            Err(ConnectError::TimedOut { .. })
        ));
        let stats = net.faults().unwrap().stats;
        assert_eq!(stats.outage_timeouts, 1);
        // Past every window the connection goes back to succeeding, and the
        // latency-spike window adds its surcharge onto the sampled RTT.
        let conn = net.connect_at(addr, SMTP_PORT, 0, mins(45)).unwrap();
        assert_eq!(conn.rtt, SimDuration::ZERO, "Zero latency model, no spike at 45min");
        // (The spike window [5,15) overlaps the outage [0,22), so a spiked
        // RTT is only observable via the counter here.)
        assert_eq!(net.faults().unwrap().stats.latency_spiked, 0);
    }

    #[test]
    fn windowed_downtime_times_out_during_the_window_only() {
        use crate::FaultWindow;
        let mut net = Network::new(1).with_latency(LatencyModel::Zero);
        let addr = ip(192, 0, 2, 20);
        let window = FaultWindow::new(SimTime::from_secs(100), SimTime::from_secs(200));
        net.host("maint.example")
            .ip(addr)
            .smtp_open()
            .availability(Availability::Windows { down: vec![window] })
            .build();
        assert!(net.connect_at(addr, SMTP_PORT, 0, SimTime::from_secs(50)).is_ok());
        assert!(matches!(
            net.connect_at(addr, SMTP_PORT, 0, SimTime::from_secs(150)),
            Err(ConnectError::TimedOut { .. })
        ));
        assert!(net.connect_at(addr, SMTP_PORT, 0, SimTime::from_secs(200)).is_ok());
        // Epoch-only `connect` evaluates at t=0, outside the window.
        assert!(net.connect_at(addr, SMTP_PORT, 0, SimTime::ZERO).is_ok());
    }

    #[test]
    fn fault_layer_does_not_perturb_the_latency_stream() {
        use crate::faults::{FaultPlan, FaultProfile};
        let run = |faulted: bool| -> Vec<SimDuration> {
            let mut net = Network::new(9);
            let addr = ip(192, 0, 2, 30);
            net.host("stable.example").ip(addr).smtp_open().build();
            if faulted {
                // flaky_net's windows end by 40min; connect at 50min so every
                // attempt succeeds and we can read its sampled RTT.
                net.install_faults(FaultPlan::compile(&FaultProfile::flaky_net(), 5).net);
            }
            let at = SimTime::ZERO + SimDuration::from_mins(50);
            (0..8).map(|_| net.connect_at(addr, SMTP_PORT, 0, at).unwrap().rtt).collect()
        };
        assert_eq!(run(false), run(true), "installing faults changed RNG draw order");
    }

    #[test]
    fn connect_error_cost_model() {
        let rtt = SimDuration::from_millis(80);
        assert_eq!(ConnectError::ConnectionRefused.client_cost(rtt), rtt);
        let waited = SimDuration::from_secs(30);
        assert_eq!(ConnectError::TimedOut { waited }.client_cost(rtt), waited);
    }
}
