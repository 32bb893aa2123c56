//! The greylisting decision engine.

use crate::backend::{StoreBackend, StoreUnavailable, Touch};
use crate::keying::KeyPolicy;
use crate::persist::{GreylistWal, WalRecord};
use crate::stats::GreylistStats;
use crate::store::{TripletEntry, TripletStore};
use crate::triplet::TripletKey;
use crate::whitelist::Whitelist;
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{EmailAddress, ReversePath};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Why a check passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassReason {
    /// The client matched the static client whitelist.
    ClientWhitelisted,
    /// The recipient matched the recipient whitelist (e.g. `postmaster`).
    RecipientWhitelisted,
    /// The client earned the auto-whitelist.
    AutoWhitelisted,
    /// The triplet's delay elapsed and the retry arrived in time.
    DelayElapsed,
    /// The triplet had already passed before.
    TripletKnown,
}

/// The outcome of one greylist check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Accept the RCPT.
    Pass(PassReason),
    /// Defer with a 450.
    Greylisted {
        /// How long until a retry would pass (hint only; clients retry on
        /// their own schedule).
        retry_after: SimDuration,
    },
}

impl Decision {
    /// Whether the check passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, Decision::Pass(_))
    }
}

/// Configuration mirroring Postgrey's command-line knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GreylistConfig {
    /// How long an unknown triplet must wait before a retry passes
    /// (`--delay`, default 300 s — the paper's default threshold).
    pub delay: SimDuration,
    /// Client-address prefix length used in the triplet key
    /// (Postgrey keys on /24 by default).
    pub netmask: u8,
    /// After this many *distinct successful* greylist passes, the client
    /// network skips greylisting entirely (`--auto-whitelist-clients`,
    /// default 5). `None` disables auto-whitelisting.
    pub auto_whitelist_after: Option<u32>,
    /// Static client whitelist.
    pub whitelist_clients: Whitelist,
    /// Static recipient whitelist.
    pub whitelist_recipients: Whitelist,
    /// How envelopes collapse into store keys. `None` (the default) means
    /// Postgrey full-triplet keying under [`GreylistConfig::netmask`] —
    /// exactly the pre-policy behaviour.
    pub key_policy: Option<KeyPolicy>,
}

impl Default for GreylistConfig {
    fn default() -> Self {
        GreylistConfig {
            delay: SimDuration::from_secs(300),
            netmask: 24,
            auto_whitelist_after: Some(5),
            whitelist_clients: Whitelist::new(),
            whitelist_recipients: Whitelist::new(),
            key_policy: None,
        }
    }
}

impl GreylistConfig {
    /// A config with the given delay and everything else at defaults.
    pub fn with_delay(delay: SimDuration) -> Self {
        GreylistConfig { delay, ..Default::default() }
    }

    /// Disables the auto-whitelist (for ablation experiments).
    pub fn without_auto_whitelist(mut self) -> Self {
        self.auto_whitelist_after = None;
        self
    }

    /// Selects a non-default [`KeyPolicy`].
    pub fn with_key_policy(mut self, policy: KeyPolicy) -> Self {
        self.key_policy = Some(policy);
        self
    }

    /// The effective keying policy (defaults to Postgrey full-triplet
    /// under [`GreylistConfig::netmask`]).
    pub fn effective_key_policy(&self) -> KeyPolicy {
        self.key_policy.unwrap_or(KeyPolicy::FullTriplet { netmask: self.netmask })
    }
}

/// The greylisting engine: configuration + triplet store + counters.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_greylist::{Greylist, GreylistConfig};
/// use spamward_sim::{SimDuration, SimTime};
/// use spamward_smtp::ReversePath;
///
/// let mut gl = Greylist::new(GreylistConfig::with_delay(SimDuration::from_secs(300)));
/// let ip = Ipv4Addr::new(203, 0, 113, 9);
/// let from = ReversePath::Address("sender@relay.example".parse()?);
/// let rcpt = "user@foo.net".parse()?;
///
/// // First contact: deferred.
/// let t0 = SimTime::ZERO;
/// assert!(!gl.check(t0, ip, &from, &rcpt).is_pass());
/// // Retry after the delay: passes.
/// let t1 = t0 + SimDuration::from_secs(301);
/// assert!(gl.check(t1, ip, &from, &rcpt).is_pass());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Greylist {
    config: GreylistConfig,
    store: StoreBackend,
    stats: GreylistStats,
    /// Successful greylist passes per client network (for auto-whitelist).
    awl_counts: BTreeMap<u32, u32>,
    /// Write-ahead log of store mutations since the last checkpoint
    /// (`SnapshotPlusWal` durability); `None` means no WAL is kept.
    wal: Option<GreylistWal>,
}

impl Greylist {
    /// Creates an engine with the given configuration (in-memory backend).
    pub fn new(config: GreylistConfig) -> Self {
        Greylist {
            config,
            store: StoreBackend::InMemory(TripletStore::new()),
            stats: GreylistStats::default(),
            awl_counts: BTreeMap::new(),
            wal: None,
        }
    }

    /// Replaces the triplet store (e.g. one with a capacity bound),
    /// keeping the in-memory backend.
    pub fn with_store(mut self, store: TripletStore) -> Self {
        self.store = StoreBackend::InMemory(store);
        self
    }

    /// Selects a non-default store backend.
    pub fn with_backend(mut self, backend: StoreBackend) -> Self {
        self.store = backend;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &GreylistConfig {
        &self.config
    }

    /// The store backend (for snapshots and assertions).
    pub fn store(&self) -> &StoreBackend {
        &self.store
    }

    /// Decision counters so far.
    pub fn stats(&self) -> GreylistStats {
        self.stats
    }

    /// Collapses an envelope into the store key under the configured
    /// [`KeyPolicy`].
    pub fn key_for(
        &self,
        client_ip: Ipv4Addr,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> TripletKey {
        self.config.effective_key_policy().key_for(client_ip, sender, recipient)
    }

    /// Runs periodic maintenance (expiry sweep); returns entries dropped.
    ///
    /// A remote store inside an outage window refuses the sweep: nothing
    /// is dropped and, as with a refused check, nothing is logged — replay
    /// must not drop what the live store still holds.
    pub fn maintain(&mut self, now: SimTime) -> usize {
        let Ok(dropped) = self.store.purge_expired(now) else {
            return 0;
        };
        if let Some(wal) = &mut self.wal {
            wal.append(WalRecord::Maintain { now });
        }
        dropped
    }

    /// Starts keeping a write-ahead log of store mutations
    /// (`SnapshotPlusWal` durability). A no-op if one is already kept.
    pub fn enable_wal(&mut self) {
        if self.wal.is_none() {
            self.wal = Some(GreylistWal::new());
        }
    }

    /// Builder form of [`Greylist::enable_wal`].
    pub fn with_wal(mut self) -> Self {
        self.enable_wal();
        self
    }

    /// The write-ahead log, if one is kept.
    pub fn wal(&self) -> Option<&GreylistWal> {
        self.wal.as_ref()
    }

    /// Empties the WAL — called right after a checkpoint, which now covers
    /// everything the log held.
    pub fn clear_wal(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.clear();
        }
    }

    /// Drops all runtime state — triplets, auto-whitelist counters and any
    /// WAL tail — exactly as a crash losing RAM would. Configuration, the
    /// store's shape (capacity, lifetimes, outage windows) and the
    /// cumulative decision and lookup counters survive: the counters model
    /// what an external observer tallied, not what the server remembered.
    pub fn reset(&mut self) {
        self.store.triplets_mut().clear();
        self.awl_counts.clear();
        self.clear_wal();
    }

    /// Routes outage windows into a [`StoreBackend::Remote`] backend,
    /// where they make lookups fail ([`StoreUnavailable`]). Returns `false`
    /// (and installs nothing) when the active backend is not remote —
    /// in-process stores have no network path to fault, so callers fall
    /// back to MTA-level outage windows.
    pub fn install_remote_faults(&mut self, outages: Vec<(SimTime, SimTime)>) -> bool {
        match &mut self.store {
            StoreBackend::Remote(r) => {
                r.set_outages(outages);
                true
            }
            _ => false,
        }
    }

    /// The auto-whitelist counters as `(client_net, passes)` pairs, in
    /// network order (for checkpoints).
    pub(crate) fn awl_counts(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.awl_counts.iter().map(|(&n, &c)| (n, c))
    }

    /// Installs restored state (checkpoint restore): each entry and each
    /// counter replaces a held one with the same key.
    pub(crate) fn install(
        &mut self,
        triplets: BTreeMap<TripletKey, TripletEntry>,
        mut awl_counts: BTreeMap<u32, u32>,
    ) {
        self.store.triplets_mut().restore(triplets);
        self.awl_counts.append(&mut awl_counts);
    }

    /// Re-applies one logged record (WAL replay). A touch runs the same
    /// state machine the live check did — including the auto-whitelist
    /// bump on maturing — but reaches the store directly, past remote
    /// outage windows and lookup accounting, and never re-logs.
    pub(crate) fn apply_wal(&mut self, record: &WalRecord) {
        match *record {
            WalRecord::Touch { now, key, awl_net } => {
                let delay = self.config.delay;
                if self.store.triplets_mut().touch(key, now, delay) == Touch::Matured {
                    *self.awl_counts.entry(awl_net).or_insert(0) += 1;
                }
            }
            WalRecord::Maintain { now } => {
                self.store.triplets_mut().purge_expired(now);
            }
        }
    }

    fn client_net(&self, ip: Ipv4Addr) -> u32 {
        let m = self.config.netmask;
        let mask = if m == 0 { 0 } else { u32::MAX << (32 - u32::from(m)) };
        u32::from(ip) & mask
    }

    /// Checks one RCPT against the greylist, updating state.
    ///
    /// Order of evaluation mirrors Postgrey: client whitelist, recipient
    /// whitelist, auto-whitelist, then the triplet state machine.
    pub fn check(
        &mut self,
        now: SimTime,
        client_ip: Ipv4Addr,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> Decision {
        self.check_with_rdns(now, client_ip, None, sender, recipient)
    }

    /// Like [`Greylist::check`] but with the client's reverse-DNS name, so
    /// name-based whitelist entries can match.
    ///
    /// A backend that cannot answer ([`StoreUnavailable`]) is treated as a
    /// plain deferral here; callers that distinguish degradation modes use
    /// [`Greylist::try_check_with_rdns`].
    pub fn check_with_rdns(
        &mut self,
        now: SimTime,
        client_ip: Ipv4Addr,
        client_rdns: Option<&str>,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> Decision {
        let delay = self.config.delay;
        self.try_check_with_rdns(now, client_ip, client_rdns, sender, recipient)
            .unwrap_or(Decision::Greylisted { retry_after: delay })
    }

    /// The full decision path, surfacing store unavailability to the
    /// caller instead of folding it into a deferral.
    ///
    /// # Errors
    ///
    /// [`StoreUnavailable`] when the backend cannot answer (remote store
    /// inside a fault window). Whitelist passes never touch the store and
    /// therefore never fail.
    pub fn try_check_with_rdns(
        &mut self,
        now: SimTime,
        client_ip: Ipv4Addr,
        client_rdns: Option<&str>,
        sender: &ReversePath,
        recipient: &EmailAddress,
    ) -> Result<Decision, StoreUnavailable> {
        if self.config.whitelist_clients.matches_client(client_ip, client_rdns) {
            self.stats.passed_client_whitelist += 1;
            return Ok(Decision::Pass(PassReason::ClientWhitelisted));
        }
        // An empty recipient whitelist matches nothing: skip building the
        // normalized address it would compare.
        let recipients = &self.config.whitelist_recipients;
        if !recipients.is_empty() && recipients.matches_recipient(&recipient.normalized()) {
            self.stats.passed_recipient_whitelist += 1;
            return Ok(Decision::Pass(PassReason::RecipientWhitelisted));
        }
        // The auto-whitelist is always keyed on the client network under
        // `config.netmask`, independent of the key policy: it models the
        // per-client reputation Postgrey keeps next to (not inside) the
        // triplet database.
        let net = self.client_net(client_ip);
        if let Some(threshold) = self.config.auto_whitelist_after {
            if self.awl_counts.get(&net).copied().unwrap_or(0) >= threshold {
                self.stats.passed_auto_whitelist += 1;
                return Ok(Decision::Pass(PassReason::AutoWhitelisted));
            }
        }

        let key = self.key_for(client_ip, sender, recipient);
        let delay = self.config.delay;
        let touch = self.store.touch(key, now, delay)?;
        // Log only after the store answered: an unavailable backend mutated
        // nothing, so there is nothing to replay. Whitelist passes above
        // never reach the store and are likewise absent from the log.
        if let Some(wal) = &mut self.wal {
            wal.append(WalRecord::Touch { now, key, awl_net: net });
        }
        match touch {
            Touch::New { restarted } => {
                if restarted {
                    self.stats.greylisted_restarted += 1;
                } else {
                    self.stats.greylisted_new += 1;
                }
                Ok(Decision::Greylisted { retry_after: delay })
            }
            Touch::Early { remaining } => {
                self.stats.greylisted_early += 1;
                Ok(Decision::Greylisted { retry_after: remaining })
            }
            Touch::Matured => {
                self.stats.passed_after_delay += 1;
                *self.awl_counts.entry(net).or_insert(0) += 1;
                Ok(Decision::Pass(PassReason::DelayElapsed))
            }
            Touch::Known => {
                self.stats.passed_known += 1;
                Ok(Decision::Pass(PassReason::TripletKnown))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, d)
    }

    fn from(s: &str) -> ReversePath {
        ReversePath::Address(s.parse().unwrap())
    }

    fn rcpt(s: &str) -> EmailAddress {
        s.parse().unwrap()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn gl(delay_secs: u64) -> Greylist {
        Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(delay_secs)).without_auto_whitelist(),
        )
    }

    #[test]
    fn first_contact_deferred_retry_passes() {
        let mut g = gl(300);
        let d = g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Greylisted { retry_after: SimDuration::from_secs(300) });
        let d = g.check(t(300), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Pass(PassReason::DelayElapsed));
        // Third time: known triplet.
        let d = g.check(t(400), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Pass(PassReason::TripletKnown));
        assert_eq!(g.stats().total_greylisted(), 1);
        assert_eq!(g.stats().total_passed(), 2);
    }

    #[test]
    fn early_retry_redeferred_with_remaining_time() {
        let mut g = gl(300);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        let d = g.check(t(100), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Greylisted { retry_after: SimDuration::from_secs(200) });
        // The clock runs from first_seen, not last attempt: passing at
        // t=300 still works even after the early retry.
        assert!(g.check(t(300), ip(1), &from("a@b.cc"), &rcpt("u@foo.net")).is_pass());
        assert_eq!(g.stats().greylisted_early, 1);
    }

    #[test]
    fn different_triplets_are_independent() {
        let mut g = gl(300);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        // Different sender → fresh greylisting.
        let d = g.check(t(400), ip(1), &from("other@b.cc"), &rcpt("u@foo.net"));
        assert!(!d.is_pass());
        // Different recipient → fresh greylisting.
        let d = g.check(t(400), ip(1), &from("a@b.cc"), &rcpt("v@foo.net"));
        assert!(!d.is_pass());
    }

    #[test]
    fn netmask_24_lets_neighbour_retry_pass() {
        let mut g = gl(300);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        // Retry from another host in the same /24 (webmail pool behaviour).
        let d = g.check(t(301), ip(77), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert!(d.is_pass(), "same /24 must share the triplet");
    }

    #[test]
    fn exact_netmask_regreylists_pool_senders() {
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        cfg.netmask = 32;
        let mut g = Greylist::new(cfg);
        g.check(t(0), Ipv4Addr::new(10, 0, 0, 1), &from("a@b.cc"), &rcpt("u@foo.net"));
        let d = g.check(t(301), Ipv4Addr::new(10, 0, 1, 1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert!(!d.is_pass(), "different IP with /32 keying must be re-greylisted");
    }

    #[test]
    fn client_whitelist_short_circuits() {
        let mut cfg = GreylistConfig::default();
        cfg.whitelist_clients.add_cidr(ip(0), 24);
        let mut g = Greylist::new(cfg);
        let d = g.check(t(0), ip(5), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Pass(PassReason::ClientWhitelisted));
        assert_eq!(g.store().len(), 0, "whitelisted checks must not create triplets");
    }

    #[test]
    fn recipient_whitelist_postmaster_control() {
        let mut cfg = GreylistConfig::default();
        cfg.whitelist_recipients.add_local_part("postmaster");
        let mut g = Greylist::new(cfg);
        let d = g.check(t(0), ip(5), &from("spam@bot.example"), &rcpt("postmaster@foo.net"));
        assert_eq!(d, Decision::Pass(PassReason::RecipientWhitelisted));
        let d = g.check(t(0), ip(5), &from("spam@bot.example"), &rcpt("alice@foo.net"));
        assert!(!d.is_pass());
    }

    #[test]
    fn auto_whitelist_after_n_passes() {
        let mut cfg = GreylistConfig::with_delay(SimDuration::from_secs(10));
        cfg.auto_whitelist_after = Some(2);
        let mut g = Greylist::new(cfg);
        // Two distinct triplets pass the delay from the same client net.
        for (i, sender) in ["s1@b.cc", "s2@b.cc"].iter().enumerate() {
            let base = t(i as u64 * 1_000);
            g.check(base, ip(9), &from(sender), &rcpt("u@foo.net"));
            assert!(g
                .check(base + SimDuration::from_secs(10), ip(9), &from(sender), &rcpt("u@foo.net"))
                .is_pass());
        }
        // Third, unseen triplet: auto-whitelisted on first contact.
        let d = g.check(t(5_000), ip(9), &from("s3@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Pass(PassReason::AutoWhitelisted));
    }

    #[test]
    fn zero_delay_passes_on_second_attempt_same_instant() {
        let mut g = gl(0);
        assert!(!g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net")).is_pass());
        assert!(g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net")).is_pass());
    }

    #[test]
    fn null_sender_triplets_work() {
        let mut g = gl(300);
        assert!(!g.check(t(0), ip(1), &ReversePath::Null, &rcpt("u@foo.net")).is_pass());
        assert!(g.check(t(300), ip(1), &ReversePath::Null, &rcpt("u@foo.net")).is_pass());
    }

    #[test]
    fn pending_expiry_restarts_greylisting() {
        let mut g = gl(300);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        // Wait far beyond the pending lifetime (2 days default).
        let late = t(0) + SimDuration::from_days(3);
        let d = g.check(late, ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert!(!d.is_pass(), "expired pending triplet must be re-greylisted");
        assert_eq!(g.stats().greylisted_new, 1);
        assert_eq!(g.stats().greylisted_restarted, 1, "restart must be accounted separately");
    }

    #[test]
    fn maintain_sweeps() {
        let mut g = gl(300);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(g.maintain(t(0) + SimDuration::from_days(3)), 1);
        assert_eq!(g.store().len(), 0);
    }

    #[test]
    fn attempts_counter_accumulates() {
        let mut g = gl(300);
        for i in 0..5 {
            g.check(t(i * 10), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        }
        let (_, entry) = g.store().iter().next().unwrap();
        assert_eq!(entry.attempts, 5);
    }

    #[test]
    fn decisions_are_backend_independent() {
        use crate::backend::RemoteStore;
        let backends = [
            StoreBackend::InMemory(TripletStore::new()),
            StoreBackend::Remote(RemoteStore::new(SimDuration::from_millis(2))),
        ];
        let script = [
            (1u8, 0u64, "a@b.cc"),
            (1, 100, "a@b.cc"),
            (2, 200, "c@d.ee"),
            (1, 301, "a@b.cc"),
            (2, 501, "c@d.ee"),
            (1, 600, "a@b.cc"),
        ];
        let mut runs: Vec<Vec<Decision>> = Vec::new();
        for backend in backends {
            let mut g = gl(300).with_backend(backend);
            runs.push(
                script
                    .iter()
                    .map(|&(c, at, s)| g.check(t(at), ip(c), &from(s), &rcpt("u@foo.net")))
                    .collect(),
            );
        }
        assert_eq!(runs[0], runs[1], "remote backend changed decisions");
    }

    #[test]
    fn sender_recipient_policy_tolerates_pool_ip_fallback() {
        use crate::keying::KeyPolicy;
        let cfg = GreylistConfig::with_delay(SimDuration::from_secs(300))
            .without_auto_whitelist()
            .with_key_policy(KeyPolicy::SenderRecipient);
        let mut g = Greylist::new(cfg);
        // First attempt from one pool member, retry from an IP in a far
        // /24 — the Table III pain case full-triplet keying re-greylists.
        g.check(t(0), Ipv4Addr::new(64, 12, 0, 5), &from("a@b.cc"), &rcpt("u@foo.net"));
        let d = g.check(t(301), Ipv4Addr::new(205, 188, 9, 1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert!(d.is_pass(), "qdgrey keying must accept a pool-fallback retry: {d:?}");
    }

    #[test]
    fn client_net_policy_whitelists_whole_network() {
        use crate::keying::KeyPolicy;
        let cfg = GreylistConfig::with_delay(SimDuration::from_secs(300))
            .without_auto_whitelist()
            .with_key_policy(KeyPolicy::ClientNet { netmask: 24 });
        let mut g = Greylist::new(cfg);
        g.check(t(0), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        g.check(t(301), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        // Any envelope from the same /24 now passes: pure IP reputation.
        let d = g.check(t(400), ip(200), &from("other@z.yy"), &rcpt("v@foo.net"));
        assert!(d.is_pass(), "client-net keying must pass the whole network: {d:?}");
        assert_eq!(g.store().len(), 1, "one key per network");
    }

    #[test]
    fn unavailable_store_folds_to_deferral_in_check() {
        use crate::backend::RemoteStore;
        let mut remote = RemoteStore::new(SimDuration::from_millis(2));
        remote.set_outages(vec![(t(0), t(1_000))]);
        let mut g = gl(300).with_backend(StoreBackend::Remote(remote));
        let err = g.try_check_with_rdns(t(10), ip(1), None, &from("a@b.cc"), &rcpt("u@foo.net"));
        assert!(err.is_err(), "outage must surface through try_check");
        let d = g.check(t(10), ip(1), &from("a@b.cc"), &rcpt("u@foo.net"));
        assert_eq!(d, Decision::Greylisted { retry_after: SimDuration::from_secs(300) });
        assert_eq!(g.stats().total(), 0, "failed lookups are not greylist decisions");
    }
}
