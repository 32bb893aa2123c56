//! Simulated IPv4 internet substrate for the `spamward` suite.
//!
//! The paper's measurements run over two very different "networks": the real
//! Internet (the zmap DNS-ANY and SMTP banner-grab scans behind Fig. 2) and a
//! two-VM lab (the malware efficacy experiments behind Table II and Figs.
//! 3–5). This crate models the parts of both that the measurements actually
//! observe:
//!
//! * [`Host`]s own one or more IPv4 addresses and a per-port TCP state
//!   ([`PortState::Open`] answers SYNs, [`Closed`] resets, [`Filtered`]
//!   drops) — exactly the signal the banner grab records.
//! * [`Availability`] models machines that are down or *flapping*: the
//!   paper's nolisting detector must distinguish a deliberately dead primary
//!   MX from one that happened to be off during a scan, so hosts can be
//!   deterministically up/down per *epoch* (scan round).
//! * [`Network`] is the registry tying IPs to hosts and answering connection
//!   attempts ([`Network::connect_at`]) and SYN probes ([`Network::probe`]),
//!   with a pluggable [`LatencyModel`].
//!
//! Everything is deterministic given the seed material passed in.
//!
//! [`Closed`]: PortState::Closed
//! [`Filtered`]: PortState::Filtered

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
mod host;
mod ip;
mod latency;
pub mod metrics;
mod network;

pub use faults::{
    DnsFaults, FaultPlan, FaultProfile, FaultSpec, FaultWindow, NetFaults, SmtpAbortKind,
    SmtpFaults,
};
pub use host::{Availability, Host, HostBuilder, HostId, PortState};
pub use ip::{indexed_ip, net24, IpPool};
pub use latency::LatencyModel;
pub use network::{host_seed, ConnectError, Connection, Network, ProbeResult};

/// The SMTP port, used pervasively across the suite.
pub const SMTP_PORT: u16 = 25;
