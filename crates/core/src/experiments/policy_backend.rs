//! Extension — key policies × store backends as an experiment axis.
//!
//! The paper's Table III pins the webmail retry cost of exactly one keying
//! choice: Postgrey's full `(client/24, sender, recipient)` triplet against
//! an in-process store. Real deployments vary both halves — qdgrey keys on
//! `(sender, recipient)` so any pool member's retry matches, sites shard or
//! outsource the triplet database — and the choice changes how much pain a
//! multi-IP webmail pool suffers and what a store outage does. This sweep
//! runs every [`KeyPolicy`] against both store flavours — the in-process
//! store and the same store behind a [`RemoteStore`] hop — under two
//! provider pool layouts (all addresses in one /24 vs one /24 each), with
//! a pure greylist-store outage ([`FaultProfile::store_degraded`]) and a
//! periodic store-maintenance timer in every cell.
//!
//! Both flavours keep one `TripletStore` and refuse lookups inside the
//! same outage windows, so within a (policy, layout) group the delivery
//! trajectory must be identical across the two backends — they differ
//! only in the remote-traffic columns. The *policy* axis is where
//! Table III moves:
//! `sender_recipient` collapses the spread-pool retry cost back to the
//! same-/24 number, `full_triplet` pays it in full.

use crate::experiments::worlds::{self, VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::{fmt_min_sec, Table};
use spamward_greylist::{Greylist, GreylistConfig, KeyPolicy, RemoteStore};
use spamward_mta::{DegradationMode, OutboundStatus, SendingMta, WorldSim};
use spamward_net::{FaultPlan, FaultProfile};
use spamward_sim::shard::run_partitioned;
use spamward_sim::{DetRng, SimDuration, SimTime};
use spamward_webmail::WebmailProvider;
use std::net::Ipv4Addr;

/// Virtual round-trip time to the remote store (qdgrey/redis-style).
pub const REMOTE_RTT: SimDuration = SimDuration::from_millis(2);

/// The key policies swept, label order.
pub const POLICIES: [KeyPolicy; 3] = [
    KeyPolicy::FullTriplet { netmask: 24 },
    KeyPolicy::SenderRecipient,
    KeyPolicy::ClientNet { netmask: 24 },
];

/// The store backend flavours swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Today's in-process [`spamward_greylist::TripletStore`].
    InMemory,
    /// A remote store paying [`REMOTE_RTT`] per answered lookup.
    Remote,
}

impl BackendKind {
    /// All backends, sweep order.
    pub const ALL: [BackendKind; 2] = [BackendKind::InMemory, BackendKind::Remote];

    /// Stable row label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::InMemory => "in_memory",
            BackendKind::Remote => "remote",
        }
    }

    /// `greylist` on a fresh store of this flavour.
    pub fn build(&self, greylist: Greylist) -> Greylist {
        match self {
            BackendKind::InMemory => greylist,
            BackendKind::Remote => greylist.with_remote(RemoteStore::new(REMOTE_RTT)),
        }
    }
}

/// How each provider's outbound pool is laid out (the Table III axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolLayout {
    /// All pool addresses inside one /24 — the paper-consistent layout.
    Pooled,
    /// Every pool address in its own /24 — the layout that restarts the
    /// full-triplet clock on each rotation.
    Spread,
}

impl PoolLayout {
    /// Both layouts, sweep order.
    pub const ALL: [PoolLayout; 2] = [PoolLayout::Pooled, PoolLayout::Spread];

    /// Stable row label.
    pub fn label(&self) -> &'static str {
        match self {
            PoolLayout::Pooled => "one_/24",
            PoolLayout::Spread => "spread_/24s",
        }
    }
}

/// Configuration of the policy × backend sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyBackendConfig {
    /// RNG seed.
    pub seed: u64,
    /// The greylisting threshold (paper scale: Table III's 6 h).
    pub delay: SimDuration,
    /// Virtual horizon each cell runs to (bounds the maintenance clock).
    pub horizon: SimTime,
    /// Store-maintenance sweep interval.
    pub maintenance_interval: SimDuration,
    /// Shard-executor width for the cell grid (`repro --shards`). Cells
    /// are independent worlds merged in grid order, so output bytes are
    /// identical for every value.
    pub workers: usize,
}

impl Default for PolicyBackendConfig {
    fn default() -> Self {
        PolicyBackendConfig {
            seed: 1604,
            delay: SimDuration::from_hours(6),
            horizon: SimTime::ZERO + SimDuration::from_hours(24),
            maintenance_interval: SimDuration::from_mins(30),
            workers: 1,
        }
    }
}

/// One (policy, backend, pool layout) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyBackendCell {
    /// Key-policy slug.
    pub policy: &'static str,
    /// Backend label.
    pub backend: &'static str,
    /// Pool-layout label.
    pub pool: &'static str,
    /// Delivery attempts across both providers.
    pub attempts: u64,
    /// RCPTs deferred by a greylist decision.
    pub deferred: u64,
    /// RCPTs tempfailed by fail-closed degradation during the outage.
    pub degraded: u64,
    /// Messages delivered (of [`providers`]`().len()`).
    pub delivered: u64,
    /// Worst delivery delay since enqueue among delivered messages.
    pub worst_delay: SimDuration,
    /// Live triplet-store entries at the end of the run.
    pub store_keys: u64,
    /// Approximate resident store bytes at the end of the run.
    pub store_bytes: u64,
    /// Requests the remote store answered (0 for in-process backends).
    pub remote_ops: u64,
    /// Requests the remote store refused inside the outage window.
    pub remote_unavailable: u64,
}

/// The full policy × backend × layout grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyBackendResult {
    /// One cell per grid point, policy-major then backend then layout.
    pub cells: Vec<PolicyBackendCell>,
}

impl PolicyBackendResult {
    /// Looks up one cell.
    pub fn cell(&self, policy: &str, backend: &str, pool: &str) -> Option<&PolicyBackendCell> {
        self.cells.iter().find(|c| c.policy == policy && c.backend == backend && c.pool == pool)
    }

    /// Total attempts in the spread-pool cells of one policy (summed over
    /// backends — identical per backend by the store contract).
    pub fn spread_attempts(&self, policy: &str) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.policy == policy && c.pool == PoolLayout::Spread.label())
            .map(|c| c.attempts)
            .sum()
    }

    /// The grid as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Policy",
            "Backend",
            "Pool",
            "Attempts",
            "Deferred",
            "Degraded",
            "Delivered",
            "WorstDelay",
            "Keys",
            "Bytes",
            "RemoteOps",
            "Refused",
        ])
        .with_title("Key policy x store backend x webmail pool layout");
        for c in &self.cells {
            t.row(vec![
                c.policy.to_owned(),
                c.backend.to_owned(),
                c.pool.to_owned(),
                c.attempts.to_string(),
                c.deferred.to_string(),
                c.degraded.to_string(),
                c.delivered.to_string(),
                if c.delivered > 0 { fmt_min_sec(c.worst_delay) } else { "-".to_owned() },
                c.store_keys.to_string(),
                c.store_bytes.to_string(),
                c.remote_ops.to_string(),
                c.remote_unavailable.to_string(),
            ]);
        }
        t
    }
}

/// The provider models each cell drives: qq.com's dense early ladder lands
/// retries inside the store-outage window, mail.ru's 7-address pool is the
/// rotation that makes the key policy matter.
pub fn providers() -> Vec<WebmailProvider> {
    vec![WebmailProvider::qq(), WebmailProvider::mail_ru()]
}

/// Runs one grid cell into `obs`.
fn run_cell(
    config: &PolicyBackendConfig,
    policy: KeyPolicy,
    backend: BackendKind,
    layout: PoolLayout,
    obs: &mut Obs,
) -> PolicyBackendCell {
    let mut cell_rng = DetRng::seed(config.seed)
        .fork("policy_backend")
        .fork(policy.slug())
        .fork(backend.label())
        .fork(layout.label());
    let world_seed = cell_rng.next_u64();

    let gl_config =
        GreylistConfig::with_delay(config.delay).without_auto_whitelist().with_key_policy(policy);
    let greylist = backend.build(Greylist::new(gl_config));
    let mut world = obs.arm(
        worlds::degraded_greylist_world(world_seed, greylist, DegradationMode::FailClosed)
            .with_store_maintenance(config.maintenance_interval),
    );
    let plan = FaultPlan::compile(&FaultProfile::store_degraded(), world_seed);
    world.install_faults(&plan);

    let mut attempts = 0u64;
    let mut delivered = 0u64;
    let mut worst_delay = SimDuration::ZERO;
    for (idx, provider) in providers().into_iter().enumerate() {
        // Well-separated bases: under the spread layout each provider
        // claims `distinct_ips` *consecutive* /24s, so adjacent bases
        // would overlap and let `client_net` cross-mature providers.
        let pool_base = Ipv4Addr::new(198, 18 + 10 * idx as u8, 0, 1);
        let sender_seed = cell_rng.next_u64();
        let mut sender: SendingMta = match layout {
            PoolLayout::Pooled => provider.build_sender(pool_base, sender_seed),
            PoolLayout::Spread => provider.build_sender_spread(pool_base, sender_seed),
        };
        sender.submit(
            VICTIM_DOMAIN.parse().expect("valid victim domain"),
            spamward_smtp::ReversePath::Address(
                format!("tester@{}", provider.name).parse().expect("valid provider sender"),
            ),
            vec![format!("testaccount@{VICTIM_DOMAIN}").parse().expect("valid recipient")],
            spamward_smtp::Message::builder()
                .header("Subject", "policy x backend probe")
                .body("webmail retry under a pluggable greylist store")
                .build(),
            SimTime::ZERO,
        );
        // The horizon bounds the world's maintenance sweep; the installed
        // outage's edges fire in the same episode.
        WorldSim::episode(&mut world, &mut sender, SimTime::ZERO, Some(config.horizon));
        spamward_mta::metrics::collect_sender(&sender, &mut obs.registry);
        let records = sender.records();
        attempts += records.len() as u64;
        if sender.queue()[0].status == OutboundStatus::Delivered {
            delivered += 1;
            if let Some(last) = records.last() {
                worst_delay = worst_delay.max(last.since_enqueue);
            }
        }
    }
    obs.collect(&world);
    let server = world.server(VICTIM_MX_IP).expect("victim server");
    let stats = server.stats();
    let gl = server.greylist().expect("greylisted victim");
    spamward_greylist::metrics::collect_backend(gl, &mut obs.registry);
    let (remote_ops, remote_unavailable) = match gl.remote() {
        Some(r) => (r.ops(), r.unavailable()),
        None => (0, 0),
    };

    PolicyBackendCell {
        policy: policy.slug(),
        backend: backend.label(),
        pool: layout.label(),
        attempts,
        deferred: stats.rcpt_greylisted,
        degraded: stats.greylist_failed_closed,
        delivered,
        worst_delay,
        store_keys: gl.store().len() as u64,
        store_bytes: gl.store().approx_bytes() as u64,
        remote_ops,
        remote_unavailable,
    }
}

/// Runs the sweep, folding every cell's senders and world into `obs` in
/// grid order, independent of [`PolicyBackendConfig::workers`].
pub fn run(config: &PolicyBackendConfig, obs: &mut Obs) -> PolicyBackendResult {
    let mut grid = Vec::new();
    for policy in POLICIES {
        for backend in BackendKind::ALL {
            for layout in PoolLayout::ALL {
                grid.push((policy, backend, layout));
            }
        }
    }
    // Each cell is an independent world; the executor width only picks how
    // many run at once, and outputs merge in grid order either way.
    let outputs = run_partitioned(grid, config.workers.max(1), |(policy, backend, layout)| {
        let mut cell_obs = obs.fork();
        let cell = run_cell(config, policy, backend, layout, &mut cell_obs);
        (cell, cell_obs)
    });
    let mut cells = Vec::new();
    for (cell, cell_obs) in outputs {
        obs.absorb(cell_obs);
        cells.push(cell);
    }
    PolicyBackendResult { cells }
}

/// Registry entry for the policy × backend sweep.
pub struct PolicyBackendExperiment;

impl PolicyBackendExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> PolicyBackendConfig {
        let defaults = PolicyBackendConfig::default();
        let (delay, horizon) = match harness.scale {
            Scale::Paper => (defaults.delay, defaults.horizon),
            // Same code path at a 300 s threshold: the spread-pool ladder
            // still needs an address to repeat, so differences survive.
            Scale::Quick => {
                (SimDuration::from_secs(300), SimTime::ZERO + SimDuration::from_hours(8))
            }
        };
        PolicyBackendConfig {
            seed: harness.seed_or(defaults.seed),
            delay,
            horizon,
            workers: harness.shard_workers(),
            ..defaults
        }
    }
}

impl Experiment for PolicyBackendExperiment {
    fn id(&self) -> &'static str {
        "policy_backend"
    }

    fn title(&self) -> &'static str {
        "Greylist key policies across store backends"
    }

    fn paper_artifact(&self) -> &'static str {
        "Table III extension"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        report
            .push_table(result.table())
            .push_scalar("cells", result.cells.len() as f64)
            .push_scalar(
                "messages delivered (all cells)",
                result.cells.iter().map(|c| c.delivered).sum::<u64>() as f64,
            )
            .push_scalar(
                "delivery attempts (all cells)",
                result.cells.iter().map(|c| c.attempts).sum::<u64>() as f64,
            )
            .push_scalar(
                "store-outage refusals (remote cells)",
                result.cells.iter().map(|c| c.remote_unavailable).sum::<u64>() as f64,
            );
        for policy in POLICIES {
            report.push_scalar(
                &format!("spread-pool attempts ({})", policy.slug()),
                result.spread_attempts(policy.slug()) as f64,
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PolicyBackendConfig {
        PolicyBackendConfig {
            delay: SimDuration::from_secs(300),
            horizon: SimTime::ZERO + SimDuration::from_hours(8),
            ..Default::default()
        }
    }

    #[test]
    fn grid_covers_every_policy_backend_and_layout() {
        let r = run(&quick(), &mut Obs::default());
        assert_eq!(r.cells.len(), POLICIES.len() * BackendKind::ALL.len() * PoolLayout::ALL.len());
        for policy in POLICIES {
            for backend in BackendKind::ALL {
                for layout in PoolLayout::ALL {
                    assert!(
                        r.cell(policy.slug(), backend.label(), layout.label()).is_some(),
                        "{} x {} x {} missing",
                        policy.slug(),
                        backend.label(),
                        layout.label()
                    );
                }
            }
        }
    }

    #[test]
    fn decisions_are_backend_independent_within_each_policy_and_layout() {
        // The store contract, observed at experiment level: backends may
        // differ in store shape and remote traffic, never in decisions.
        let r = run(&quick(), &mut Obs::default());
        for policy in POLICIES {
            for layout in PoolLayout::ALL {
                let probe = |b: BackendKind| {
                    let c = r.cell(policy.slug(), b.label(), layout.label()).unwrap();
                    (c.attempts, c.deferred, c.degraded, c.delivered, c.worst_delay, c.store_keys)
                };
                assert_eq!(
                    probe(BackendKind::Remote),
                    probe(BackendKind::InMemory),
                    "{} x {} diverges on the remote backend",
                    policy.slug(),
                    layout.label()
                );
            }
        }
    }

    #[test]
    fn sender_recipient_collapses_the_spread_pool_penalty() {
        // Table III's lesson, quantified per policy: keying without the
        // client makes the spread pool behave like the same-/24 pool,
        // while the full triplet pays extra attempts for every rotation.
        let r = run(&quick(), &mut Obs::default());
        let attempts =
            |policy: &str, pool: &str| r.cell(policy, "in_memory", pool).unwrap().attempts;
        assert_eq!(
            attempts("sender_recipient", PoolLayout::Pooled.label()),
            attempts("sender_recipient", PoolLayout::Spread.label()),
            "sender_recipient must not see the pool layout"
        );
        assert!(
            attempts("full_triplet", PoolLayout::Spread.label())
                > attempts("full_triplet", PoolLayout::Pooled.label()),
            "full_triplet must pay for the rotation"
        );
    }

    #[test]
    fn store_outage_degrades_and_remote_cells_account_refusals() {
        let r = run(&quick(), &mut Obs::default());
        for c in &r.cells {
            assert!(
                c.degraded > 0,
                "{} x {} x {}: qq's early ladder must hit the outage",
                c.policy,
                c.backend,
                c.pool
            );
            if c.backend == "remote" {
                assert!(c.remote_ops > 0, "remote cells must pay protocol traffic");
                assert_eq!(
                    c.remote_unavailable, c.degraded,
                    "every refusal routes through degradation"
                );
            } else {
                assert_eq!(c.remote_ops, 0);
                assert_eq!(c.remote_unavailable, 0);
            }
        }
    }

    #[test]
    fn client_net_tracks_networks_not_envelopes() {
        let r = run(&quick(), &mut Obs::default());
        // Pooled: one /24 per provider → two keys; spread: one per address.
        let pooled = r.cell("client_net", "in_memory", PoolLayout::Pooled.label()).unwrap();
        assert_eq!(pooled.store_keys, 2);
        let spread = r.cell("client_net", "in_memory", PoolLayout::Spread.label()).unwrap();
        assert!(spread.store_keys > pooled.store_keys);
        // And the full triplet tracks at least as many keys as client_net.
        let full = r.cell("full_triplet", "in_memory", PoolLayout::Pooled.label()).unwrap();
        assert!(full.store_keys >= pooled.store_keys);
    }

    #[test]
    fn sweep_is_deterministic_and_worker_invariant() {
        let serial = run(&quick(), &mut Obs::default());
        let wide = run(&PolicyBackendConfig { workers: 4, ..quick() }, &mut Obs::default());
        assert_eq!(serial, wide, "executor width must not change results");
        let again = run(&quick(), &mut Obs::default());
        assert_eq!(serial, again);
    }

    #[test]
    fn registry_run_exports_backend_metrics_and_scalars() {
        use spamward_greylist::metrics as gl_metrics;
        let config = HarnessConfig { scale: Scale::Quick, ..Default::default() };
        let report = PolicyBackendExperiment.run(&config).unwrap();
        let reg = report.metrics();
        assert!(reg.counter(gl_metrics::BACKEND_OPS).unwrap_or(0) > 0);
        assert!(reg.counter(gl_metrics::BACKEND_UNAVAILABLE).unwrap_or(0) > 0);
        assert!(reg.counter(gl_metrics::BACKEND_LATENCY_US).unwrap_or(0) > 0);
        assert!(reg.gauge(gl_metrics::STORE_BYTES).unwrap_or(0) > 0);
        assert!(reg.gauge(gl_metrics::POLICY_CLIENT_NETS).unwrap_or(0) > 0);
        assert!(report.scalar("cells").is_some());
        assert!(
            report.scalar("spread-pool attempts (full_triplet)").unwrap()
                > report.scalar("spread-pool attempts (sender_recipient)").unwrap()
        );
    }
}
