//! Deterministic fault injection for the simulated internet.
//!
//! The paper's subject is behaviour under *transient failure* — greylisting
//! is a deliberate 4xx fault, nolisting a deliberately dead primary MX — but
//! until this module the simulated internet could only fail via the
//! per-epoch coin flips of [`crate::Availability`]. Here failures become
//! *scriptable*: a declarative [`FaultProfile`] (a named list of
//! [`FaultSpec`]s) compiles under a seed into a [`FaultPlan`], whose
//! per-subsystem halves are installed into the network
//! ([`NetFaults`]), the resolver ([`DnsFaults`]) and the SMTP exchange
//! path ([`SmtpFaults`]).
//!
//! Determinism contract: every probabilistic decision is a *pure function*
//! of `(plan seed, fork label, target identity, virtual time)` — a fresh
//! [`DetRng`] fork per decision, never a shared mutable stream — so serial
//! and `--jobs N` runs of the same seed see byte-identical faults, and
//! installing a plan never perturbs the RNG draw order of fault-free code
//! paths. Window checks are plain interval tests against sorted `Vec`s
//! (no hash iteration, no hand-rolled event queues): the engine remains
//! the only scheduler, and fault window *boundaries* fire as engine events
//! through the actor layer (see `spamward_mta::worldsim`).
//!
//! All probability and fault-name literals live in this module (and the
//! per-crate `metrics.rs` modules) by decree of lint rule `F1`: experiments
//! pick named profiles instead of sprinkling magic numbers.

use spamward_sim::{DetRng, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// How long a tarpitting server holds the client before the session dies.
pub const TARPIT_HOLD: SimDuration = SimDuration::from_secs(30);

/// A half-open window of virtual time: `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant the fault is over.
    pub until: SimTime,
}

impl FaultWindow {
    /// A window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        FaultWindow { from, until }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// How a faulted server kills an SMTP session mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtpAbortKind {
    /// The connection drops after the client sends `DATA` — the dialogue
    /// ran to the end but nothing was stored, and the client never
    /// learns which.
    DropAfterData,
    /// The server answers the greeting with `421` and closes — graceful
    /// shutdown under load.
    Shutdown421,
    /// The server accepts the connection and then holds it silently until
    /// the client gives up ([`TARPIT_HOLD`]).
    Tarpit,
}

/// One declarative fault. Windows are virtual-time intervals; probabilities
/// apply per delivery attempt inside the window.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// A named host is unreachable for the window (its SYNs vanish).
    HostOutage {
        /// The host's registered name.
        host: String,
        /// When it is down.
        window: FaultWindow,
    },
    /// Each connection attempt inside the window loses its SYN with this
    /// probability (the client sees a timeout).
    LinkLoss {
        /// Per-attempt drop probability.
        prob: f64,
        /// When the link is lossy.
        window: FaultWindow,
    },
    /// Every connection inside the window pays extra round-trip latency.
    LatencySpike {
        /// Extra one-way latency added to the sampled RTT.
        extra: SimDuration,
        /// When the spike applies.
        extra_window: FaultWindow,
    },
    /// The authoritative DNS answers `SERVFAIL` for the window.
    DnsServFail {
        /// When resolution fails.
        window: FaultWindow,
    },
    /// The resolver is slow: every resolution inside the window costs
    /// extra time.
    DnsSlow {
        /// Extra resolution latency.
        extra: SimDuration,
        /// When the resolver crawls.
        extra_window: FaultWindow,
    },
    /// Receiving servers abort sessions mid-stream with this probability.
    SmtpAbort {
        /// The abort flavour.
        kind: SmtpAbortKind,
        /// Per-session abort probability.
        prob: f64,
        /// When sessions are at risk.
        window: FaultWindow,
    },
    /// The greylist triplet store is unavailable: every receiving MTA's
    /// greylist refuses store lookups inside the window, whether its store
    /// is in-process or remote, and the MTA falls back to its degradation
    /// policy (fail-open or fail-closed).
    GreylistStoreDown {
        /// When the store is down.
        window: FaultWindow,
    },
    /// A named receiving MTA crashes at `at` and stays down for
    /// `downtime`: in-flight sessions drop, new connections are refused,
    /// and at the restart instant (`at + downtime`) greylist state is
    /// rebuilt per the MTA's configured durability mode.
    MtaCrashRestart {
        /// The host's registered name.
        host: String,
        /// The crash instant.
        at: SimTime,
        /// How long the MTA is down before restarting.
        downtime: SimDuration,
    },
}

/// A named, declarative set of faults — the unit experiments sweep over.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Stable profile name (report row label).
    pub name: &'static str,
    /// The faults, in declaration order.
    pub specs: Vec<FaultSpec>,
}

/// Minutes are the natural unit for fault windows at experiment scale.
fn mins(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}

fn window_mins(from: u64, until: u64) -> FaultWindow {
    FaultWindow::new(mins(from), mins(until))
}

impl FaultProfile {
    /// The control profile: no faults at all.
    pub fn none() -> Self {
        FaultProfile { name: "baseline", specs: Vec::new() }
    }

    /// DNS degradation: the authority SERVFAILs for ten minutes and the
    /// resolver crawls for the first half hour.
    pub fn dns_degraded() -> Self {
        FaultProfile {
            name: "dns_degraded",
            specs: vec![
                FaultSpec::DnsServFail { window: window_mins(2, 12) },
                FaultSpec::DnsSlow {
                    extra: SimDuration::from_secs(2),
                    extra_window: window_mins(0, 30),
                },
            ],
        }
    }

    /// Flaky transport: the victim's primary exchanger is out for twenty
    /// minutes, a lossy link eats SYNs, and latency spikes mid-outage.
    pub fn flaky_net() -> Self {
        FaultProfile {
            name: "flaky_net",
            specs: vec![
                FaultSpec::HostOutage {
                    host: "mail.victim.example".to_owned(),
                    window: window_mins(0, 22),
                },
                FaultSpec::LinkLoss { prob: 0.30, window: window_mins(0, 40) },
                FaultSpec::LatencySpike {
                    extra: SimDuration::from_millis(800),
                    extra_window: window_mins(5, 15),
                },
            ],
        }
    }

    /// Hostile SMTP weather: sessions die mid-stream in all three flavours
    /// and the greylist store is down for most of the first half hour.
    pub fn smtp_chaos() -> Self {
        FaultProfile {
            name: "smtp_chaos",
            specs: vec![
                FaultSpec::SmtpAbort {
                    kind: SmtpAbortKind::Shutdown421,
                    prob: 0.35,
                    window: window_mins(0, 25),
                },
                FaultSpec::SmtpAbort {
                    kind: SmtpAbortKind::DropAfterData,
                    prob: 0.25,
                    window: window_mins(0, 25),
                },
                FaultSpec::SmtpAbort {
                    kind: SmtpAbortKind::Tarpit,
                    prob: 0.20,
                    window: window_mins(0, 25),
                },
                FaultSpec::GreylistStoreDown { window: window_mins(2, 28) },
            ],
        }
    }

    /// A pure store outage: only the greylist triplet store is down, for
    /// ten minutes early in the run. The `policy_backend` experiment uses
    /// it to run the in-process and the remote store through the one
    /// outage path (refused lookups, answered by the MTA's degradation
    /// policy) without any network noise.
    /// Deliberately *not* in [`FaultProfile::catalog`]: the `resilience`
    /// sweep's byte-stable output is pinned to the original five profiles.
    pub fn store_degraded() -> Self {
        FaultProfile {
            name: "store_degraded",
            specs: vec![FaultSpec::GreylistStoreDown { window: window_mins(5, 15) }],
        }
    }

    /// One crash–restart of a named receiving MTA. Like
    /// [`FaultProfile::store_degraded`], deliberately *not* in
    /// [`FaultProfile::catalog`]: the `recovery` experiment sweeps crash
    /// timing and durability itself, and the `resilience` sweep's
    /// byte-stable output stays pinned to the original five profiles.
    pub fn crash_restart(host: &str, at: SimTime, downtime: SimDuration) -> Self {
        FaultProfile {
            name: "crash_restart",
            specs: vec![FaultSpec::MtaCrashRestart { host: host.to_owned(), at, downtime }],
        }
    }

    /// Everything at once: the union of the three degraded profiles.
    pub fn all_faults() -> Self {
        let mut specs = Self::dns_degraded().specs;
        specs.extend(Self::flaky_net().specs);
        specs.extend(Self::smtp_chaos().specs);
        FaultProfile { name: "all_faults", specs }
    }

    /// The sweep order the `resilience` experiment uses.
    pub fn catalog() -> Vec<FaultProfile> {
        vec![
            Self::none(),
            Self::dns_degraded(),
            Self::flaky_net(),
            Self::smtp_chaos(),
            Self::all_faults(),
        ]
    }
}

/// Counters for network-level faults that fired. Plain fields on the hot
/// path; `crate::metrics` binds the registry names at collection time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Connections swallowed by a host-outage window.
    pub outage_timeouts: u64,
    /// Connections whose SYN a lossy link dropped.
    pub link_dropped: u64,
    /// Connections that paid a latency-spike surcharge.
    pub latency_spiked: u64,
}

/// The network's half of a compiled [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaults {
    seed: u64,
    outages: Vec<(String, FaultWindow)>,
    loss: Vec<(f64, FaultWindow)>,
    spikes: Vec<(SimDuration, FaultWindow)>,
    /// What fired so far.
    pub stats: NetFaultStats,
}

impl NetFaults {
    /// Whether `host` is inside an outage window at `now`. Counts a hit.
    pub fn host_out(&mut self, host: &str, now: SimTime) -> bool {
        let out = self.outages.iter().any(|(h, w)| h == host && w.contains(now));
        if out {
            self.stats.outage_timeouts += 1;
        }
        out
    }

    /// Whether the SYN towards `ip` at `now` is lost. A pure function of
    /// `(seed, ip, now)`: the decision is drawn from a fresh fork, so call
    /// order cannot change it.
    pub fn link_drop(&mut self, ip: Ipv4Addr, now: SimTime) -> bool {
        let prob: f64 = self.loss.iter().filter(|(_, w)| w.contains(now)).map(|(p, _)| *p).sum();
        if prob <= 0.0 {
            return false;
        }
        let dropped = DetRng::seed(self.seed)
            .fork("fault.link")
            .fork_idx("ip", u64::from(u32::from(ip)))
            .fork_idx("us", now.as_micros())
            .chance(prob.min(1.0));
        if dropped {
            self.stats.link_dropped += 1;
        }
        dropped
    }

    /// Extra latency active at `now` (sum of active spikes). Counts a hit
    /// when nonzero.
    pub fn extra_latency(&mut self, now: SimTime) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for (d, w) in &self.spikes {
            if w.contains(now) {
                extra += *d;
            }
        }
        if extra > SimDuration::ZERO {
            self.stats.latency_spiked += 1;
        }
        extra
    }

    /// True when no network fault is configured.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.loss.is_empty() && self.spikes.is_empty()
    }
}

/// Counters for DNS faults that fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsFaultStats {
    /// Resolutions forced to SERVFAIL.
    pub servfails: u64,
    /// Resolutions that paid the slow-resolver surcharge.
    pub slowed: u64,
}

/// The resolver's half of a compiled [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct DnsFaults {
    servfail: Vec<FaultWindow>,
    slow: Vec<(SimDuration, FaultWindow)>,
    /// What fired so far.
    pub stats: DnsFaultStats,
}

impl DnsFaults {
    /// Whether resolution at `now` is forced to SERVFAIL. Counts a hit.
    pub fn servfail(&mut self, now: SimTime) -> bool {
        let fail = self.servfail.iter().any(|w| w.contains(now));
        if fail {
            self.stats.servfails += 1;
        }
        fail
    }

    /// Extra resolution latency at `now`. Counts a hit when nonzero.
    pub fn extra_latency(&mut self, now: SimTime) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for (d, w) in &self.slow {
            if w.contains(now) {
                extra += *d;
            }
        }
        if extra > SimDuration::ZERO {
            self.stats.slowed += 1;
        }
        extra
    }

    /// True when no DNS fault is configured.
    pub fn is_empty(&self) -> bool {
        self.servfail.is_empty() && self.slow.is_empty()
    }
}

/// Counters for SMTP session aborts that fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmtpFaultStats {
    /// Sessions whose connection dropped after DATA.
    pub dropped_after_data: u64,
    /// Sessions greeted with 421 and closed.
    pub shutdown_421: u64,
    /// Sessions held in a tarpit until the client gave up.
    pub tarpitted: u64,
}

/// The SMTP exchange path's half of a compiled [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct SmtpFaults {
    seed: u64,
    aborts: Vec<(SmtpAbortKind, f64, FaultWindow)>,
    /// What fired so far.
    pub stats: SmtpFaultStats,
}

impl SmtpFaults {
    /// Decides whether (and how) the session towards `ip` at `now` aborts.
    /// Pure function of `(seed, kind, ip, now)`; the first declared kind
    /// whose draw fires wins. Counts the fired abort.
    pub fn abort(&mut self, ip: Ipv4Addr, now: SimTime) -> Option<SmtpAbortKind> {
        for (idx, (kind, prob, window)) in self.aborts.iter().enumerate() {
            if !window.contains(now) {
                continue;
            }
            let fires = DetRng::seed(self.seed)
                .fork("fault.smtp")
                .fork_idx("kind", idx as u64)
                .fork_idx("ip", u64::from(u32::from(ip)))
                .fork_idx("us", now.as_micros())
                .chance(*prob);
            if fires {
                match kind {
                    SmtpAbortKind::DropAfterData => self.stats.dropped_after_data += 1,
                    SmtpAbortKind::Shutdown421 => self.stats.shutdown_421 += 1,
                    SmtpAbortKind::Tarpit => self.stats.tarpitted += 1,
                }
                return Some(*kind);
            }
        }
        None
    }

    /// True when no SMTP abort is configured.
    pub fn is_empty(&self) -> bool {
        self.aborts.is_empty()
    }
}

/// A seeded, byte-stable compilation of a [`FaultProfile`]: per-subsystem
/// window tables plus the seed every probabilistic decision forks from.
///
/// Cloning a plan is cheap and gives each holder (network, resolver,
/// world) its own counter block; the plan itself never mutates windows
/// after compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Profile name this plan was compiled from.
    pub profile: &'static str,
    /// Network-level faults (outages, link loss, latency spikes).
    pub net: NetFaults,
    /// DNS faults (SERVFAIL and slow-resolver windows).
    pub dns: DnsFaults,
    /// SMTP mid-session aborts.
    pub smtp: SmtpFaults,
    /// Windows during which the greylist store is unavailable.
    pub greylist_down: Vec<FaultWindow>,
    /// Crash windows per receiving MTA, `[at, at + downtime)` — the lower
    /// edge is the crash instant, the upper edge the restart instant.
    pub crashes: Vec<(String, FaultWindow)>,
}

impl FaultPlan {
    /// Compiles `profile` under `seed` into an executable plan.
    pub fn compile(profile: &FaultProfile, seed: u64) -> FaultPlan {
        let mut net = NetFaults {
            seed: DetRng::seed(seed).fork("fault.plan.net").next_u64(),
            outages: Vec::new(),
            loss: Vec::new(),
            spikes: Vec::new(),
            stats: NetFaultStats::default(),
        };
        let mut dns =
            DnsFaults { servfail: Vec::new(), slow: Vec::new(), stats: DnsFaultStats::default() };
        let mut smtp = SmtpFaults {
            seed: DetRng::seed(seed).fork("fault.plan.smtp").next_u64(),
            aborts: Vec::new(),
            stats: SmtpFaultStats::default(),
        };
        let mut greylist_down = Vec::new();
        let mut crashes = Vec::new();
        for spec in &profile.specs {
            match spec {
                FaultSpec::HostOutage { host, window } => net.outages.push((host.clone(), *window)),
                FaultSpec::LinkLoss { prob, window } => net.loss.push((*prob, *window)),
                FaultSpec::LatencySpike { extra, extra_window } => {
                    net.spikes.push((*extra, *extra_window));
                }
                FaultSpec::DnsServFail { window } => dns.servfail.push(*window),
                FaultSpec::DnsSlow { extra, extra_window } => {
                    dns.slow.push((*extra, *extra_window))
                }
                FaultSpec::SmtpAbort { kind, prob, window } => {
                    smtp.aborts.push((*kind, *prob, *window));
                }
                FaultSpec::GreylistStoreDown { window } => greylist_down.push(*window),
                FaultSpec::MtaCrashRestart { host, at, downtime } => {
                    crashes.push((host.clone(), FaultWindow::new(*at, *at + *downtime)));
                }
            }
        }
        FaultPlan { profile: profile.name, net, dns, smtp, greylist_down, crashes }
    }

    /// Every window edge across every subsystem, sorted and deduplicated —
    /// the instants a world's fault timer turns into engine events.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut edges = Vec::new();
        let mut push = |w: &FaultWindow| {
            edges.push(w.from);
            edges.push(w.until);
        };
        for (_, w) in &self.net.outages {
            push(w);
        }
        for (_, w) in &self.net.loss {
            push(w);
        }
        for (_, w) in &self.net.spikes {
            push(w);
        }
        for w in &self.dns.servfail {
            push(w);
        }
        for (_, w) in &self.dns.slow {
            push(w);
        }
        for (_, _, w) in &self.smtp.aborts {
            push(w);
        }
        for w in &self.greylist_down {
            push(w);
        }
        for (_, w) in &self.crashes {
            push(w);
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
            && self.dns.is_empty()
            && self.smtp.is_empty()
            && self.greylist_down.is_empty()
            && self.crashes.is_empty()
    }

    /// Crash windows scheduled for `host`, sorted by crash instant, with
    /// overlapping windows merged: a host that is down cannot crash again
    /// before it restarts, so it stays down until the later restart.
    pub fn crash_windows_for(&self, host: &str) -> Vec<FaultWindow> {
        let mut windows: Vec<FaultWindow> =
            self.crashes.iter().filter(|(h, _)| h == host).map(|&(_, w)| w).collect();
        windows.sort_unstable_by_key(|w| w.from);
        windows.dedup_by(|later, kept| {
            let overlaps = later.from < kept.until;
            if overlaps {
                kept.until = kept.until.max(later.until);
            }
            overlaps
        });
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, d)
    }

    #[test]
    fn windows_are_half_open() {
        let w = window_mins(5, 10);
        assert!(!w.contains(mins(4)));
        assert!(w.contains(mins(5)));
        assert!(w.contains(mins(9)));
        assert!(!w.contains(mins(10)));
    }

    #[test]
    fn compile_is_deterministic() {
        let a = FaultPlan::compile(&FaultProfile::all_faults(), 7);
        let b = FaultPlan::compile(&FaultProfile::all_faults(), 7);
        assert_eq!(a, b);
        let c = FaultPlan::compile(&FaultProfile::all_faults(), 8);
        assert_ne!(a.net.seed, c.net.seed, "seed must reach the plan");
    }

    #[test]
    fn link_drop_is_a_pure_function_of_identity_and_time() {
        let plan = FaultPlan::compile(&FaultProfile::flaky_net(), 7);
        let t = mins(3);
        let mut first = plan.net.clone();
        let mut second = plan.net.clone();
        // Perturb the call order on the second copy; decisions must match.
        let _ = second.link_drop(ip(9), mins(4));
        for d in 0..32u8 {
            assert_eq!(
                first.link_drop(ip(d), t),
                second.link_drop(ip(d), t),
                "draw order leaked into the decision for .{d}"
            );
        }
    }

    #[test]
    fn link_drop_rate_tracks_probability() {
        let plan = FaultPlan::compile(&FaultProfile::flaky_net(), 11);
        let mut net = plan.net.clone();
        let t = mins(1);
        let drops =
            (0..1000u32).filter(|i| net.link_drop(Ipv4Addr::from(0x0A00_0000 + i), t)).count();
        assert!((200..400).contains(&drops), "0.30 loss gave {drops}/1000 drops");
        assert_eq!(net.stats.link_dropped, drops as u64);
        // Outside the window nothing drops.
        assert!(!net.link_drop(ip(1), mins(50)));
    }

    #[test]
    fn host_outage_and_spike_windows_apply() {
        let plan = FaultPlan::compile(&FaultProfile::flaky_net(), 3);
        let mut net = plan.net;
        assert!(net.host_out("mail.victim.example", mins(1)));
        assert!(!net.host_out("mail.victim.example", mins(30)));
        assert!(!net.host_out("other.example", mins(1)));
        assert_eq!(net.extra_latency(mins(6)), SimDuration::from_millis(800));
        assert_eq!(net.extra_latency(mins(20)), SimDuration::ZERO);
        assert_eq!(net.stats.outage_timeouts, 1);
        assert_eq!(net.stats.latency_spiked, 1);
    }

    #[test]
    fn dns_faults_apply_inside_windows_only() {
        let plan = FaultPlan::compile(&FaultProfile::dns_degraded(), 3);
        let mut dns = plan.dns;
        assert!(dns.servfail(mins(5)));
        assert!(!dns.servfail(mins(20)));
        assert_eq!(dns.extra_latency(mins(20)), SimDuration::from_secs(2));
        assert_eq!(dns.extra_latency(mins(40)), SimDuration::ZERO);
        assert_eq!(dns.stats, DnsFaultStats { servfails: 1, slowed: 1 });
    }

    #[test]
    fn smtp_abort_decisions_are_stable_and_counted() {
        let plan = FaultPlan::compile(&FaultProfile::smtp_chaos(), 5);
        let mut a = plan.smtp.clone();
        let mut b = plan.smtp.clone();
        for d in 0..64u8 {
            assert_eq!(a.abort(ip(d), mins(2)), b.abort(ip(d), mins(2)));
        }
        let fired = a.stats.dropped_after_data + a.stats.shutdown_421 + a.stats.tarpitted;
        assert!(fired > 0, "with three flavours at 0.2-0.35, 64 sessions must hit some abort");
        // Outside the windows nothing fires.
        assert_eq!(a.abort(ip(1), mins(60)), None);
    }

    #[test]
    fn boundaries_are_sorted_and_deduped() {
        let plan = FaultPlan::compile(&FaultProfile::all_faults(), 1);
        let edges = plan.boundaries();
        assert!(!edges.is_empty());
        assert!(edges.windows(2).all(|p| p[0] < p[1]), "sorted strictly: {edges:?}");
        // smtp_chaos has three abort specs sharing the same window; it must
        // contribute its edges once.
        let zero_count = edges.iter().filter(|&&e| e == SimTime::ZERO).count();
        assert_eq!(zero_count, 1);
    }

    #[test]
    fn store_degraded_touches_only_the_greylist() {
        let plan = FaultPlan::compile(&FaultProfile::store_degraded(), 7);
        assert!(plan.net.is_empty());
        assert!(plan.dns.is_empty());
        assert!(plan.smtp.is_empty());
        assert_eq!(plan.greylist_down, vec![window_mins(5, 15)]);
        assert_eq!(plan.boundaries(), vec![mins(5), mins(15)]);
        // The resilience sweep's catalog is pinned to its original five.
        assert!(FaultProfile::catalog().iter().all(|p| p.name != "store_degraded"));
    }

    #[test]
    fn crash_restart_compiles_to_a_crash_window() {
        let profile =
            FaultProfile::crash_restart("mail.victim.example", mins(10), SimDuration::from_mins(5));
        let plan = FaultPlan::compile(&profile, 7);
        assert!(plan.net.is_empty());
        assert!(plan.dns.is_empty());
        assert!(plan.smtp.is_empty());
        assert!(plan.greylist_down.is_empty());
        assert!(!plan.is_empty(), "a crash is a fault");
        assert_eq!(plan.crashes, vec![("mail.victim.example".to_owned(), window_mins(10, 15))]);
        assert_eq!(plan.crash_windows_for("mail.victim.example"), vec![window_mins(10, 15)]);
        assert!(plan.crash_windows_for("other.example").is_empty());
        // Both edges — the crash and the restart — fire as engine events.
        assert_eq!(plan.boundaries(), vec![mins(10), mins(15)]);
        // The resilience sweep's catalog stays pinned to its original five.
        assert!(FaultProfile::catalog().iter().all(|p| p.name != "crash_restart"));
    }

    #[test]
    fn crash_windows_are_sorted_by_crash_and_merged_where_they_overlap() {
        let host = "mail.victim.example";
        let crash = |at, down| FaultSpec::MtaCrashRestart {
            host: host.to_owned(),
            at: mins(at),
            downtime: SimDuration::from_mins(down),
        };
        let specs = vec![crash(50, 5), crash(10, 5), crash(35, 10), crash(30, 10), crash(15, 5)];
        let plan = FaultPlan::compile(&FaultProfile { name: "crashes", specs }, 7);
        assert_eq!(
            plan.crash_windows_for(host),
            // [10, 15) and [15, 20) only touch: the host restarts, then
            // crashes again at the same instant.
            vec![
                window_mins(10, 15),
                window_mins(15, 20),
                window_mins(30, 45),
                window_mins(50, 55)
            ]
        );
    }

    #[test]
    fn empty_profile_compiles_to_empty_plan() {
        let plan = FaultPlan::compile(&FaultProfile::none(), 9);
        assert!(plan.is_empty());
        assert!(plan.boundaries().is_empty());
        assert!(!FaultPlan::compile(&FaultProfile::all_faults(), 9).is_empty());
    }
}
