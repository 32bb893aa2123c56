//! Fig. 5 — greylisting at a real deployment.
//!
//! The paper analyzed four months of anonymized greylist logs from the
//! University of Milan's CS department (threshold 300 s) and found the
//! benign delivery-delay CDF rising far more slowly than the malware
//! curves: only ~half the messages arrive within 10 minutes and a tail
//! stretches past 50. The reproduction replays a realistic *sender mix* —
//! the Table IV MTA fleet, the Table III webmail tiers, and the
//! notification scripts that retry hourly or never — through the same
//! greylist, then analyzes the server's anonymized log exactly as the
//! paper did.
//!
//! The replay runs sharded: every message is a pure function of its index
//! (its own RNG fork, its own source address), messages partition into
//! [`DEPLOYMENT_SHARDS`] fixed shards by stable hash of their relay name,
//! and each shard drains its messages through its own victim world.
//! Senders are triplet-independent, so per-shard worlds see exactly the
//! traffic a single world would have; logs, bounces and metrics merge in
//! shard order, and the partition never depends on the executor width.

use crate::experiments::worlds::{self, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::log::{GreylistLogAnalysis, LogRecord};
use spamward_analysis::reduce::ordered_sum;
use spamward_analysis::{plot, Cdf, Series};
use spamward_dns::DomainName;
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{MailWorld, MtaProfile, RetrySchedule, SendingMta};
use spamward_net::indexed_ip;
use spamward_obs::Registry;
use spamward_sim::shard::run_sharded;
use spamward_sim::{DetRng, ShardPlan, SimDuration, SimTime};
use spamward_smtp::{EmailAddress, Message, ReversePath};
use spamward_webmail::WebmailProvider;
use std::net::Ipv4Addr;

/// The deployment's domain.
pub const DEPLOYMENT_DOMAIN: &str = "cs-dept.example";

/// Fixed shard count of the replay's partition. Messages are assigned to
/// shards by stable hash of their relay name, never by worker id, so
/// [`DeploymentConfig::workers`] only picks how many shards run at once.
pub const DEPLOYMENT_SHARDS: u32 = 8;

/// CGNAT-range base the replay's source addresses are indexed from.
const SOURCE_IP_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 1);

/// Relative weights of the benign sender classes.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderMix {
    /// Table IV MTAs: (profile, weight).
    pub mtas: Vec<(MtaProfile, f64)>,
    /// Webmail tiers: weight of drawing *some* provider (uniform across
    /// the ten).
    pub webmail: f64,
    /// Custom notification scripts retrying hourly.
    pub hourly_script: f64,
    /// Custom scripts that never retry (lost to greylisting).
    pub no_retry_script: f64,
}

impl Default for SenderMix {
    /// A plausible campus inbound mix.
    fn default() -> Self {
        SenderMix {
            mtas: vec![
                (MtaProfile::postfix(), 0.16),
                (MtaProfile::sendmail(), 0.10),
                (MtaProfile::exim(), 0.12),
                (MtaProfile::qmail(), 0.04),
                (MtaProfile::courier(), 0.04),
                (MtaProfile::exchange(), 0.12),
            ],
            webmail: 0.24,
            hourly_script: 0.12,
            no_retry_script: 0.06,
        }
    }
}

/// Configuration of the deployment replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// RNG seed.
    pub seed: u64,
    /// Messages to replay (the four-month log, compressed).
    pub messages: usize,
    /// Greylisting threshold (the deployment used 300 s).
    pub threshold: SimDuration,
    /// Arrival window over which messages are spread.
    pub window: SimDuration,
    /// The sender mix.
    pub mix: SenderMix,
    /// Shard-executor width: how many of the [`DEPLOYMENT_SHARDS`] run
    /// concurrently. Output bytes are identical for every value.
    pub workers: usize,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            seed: 300,
            messages: 2_000,
            threshold: SimDuration::from_secs(300),
            window: SimDuration::from_days(120),
            mix: SenderMix::default(),
            workers: 4,
        }
    }
}

/// The Fig. 5 output.
#[derive(Debug, Clone)]
pub struct DeploymentResult {
    /// Delivery-delay CDF of greylisted-then-delivered messages.
    pub cdf: Cdf,
    /// Fraction delivered within 10 minutes (paper: ≈ half).
    pub within_10min: f64,
    /// Fraction delivered later than 50 minutes.
    pub beyond_50min: f64,
    /// Fraction of greylisted messages whose sender gave up entirely.
    pub abandonment_rate: f64,
    /// Non-delivery reports the senders generated (mail lost to the
    /// greylist turns into bounce traffic — a §VI cost the paper does not
    /// quantify).
    pub bounces_generated: usize,
    /// Total messages replayed.
    pub messages: usize,
}

fn hourly_script_profile() -> MtaProfile {
    MtaProfile {
        name: "cron-script-hourly".into(),
        schedule: RetrySchedule::Arithmetic {
            first: SimDuration::from_hours(1),
            step: SimDuration::from_hours(1),
        },
        max_queue_time: SimDuration::from_days(2),
    }
}

fn no_retry_profile() -> MtaProfile {
    MtaProfile {
        name: "cron-script-oneshot".into(),
        schedule: RetrySchedule::Explicit { times: vec![], tail_interval: None },
        max_queue_time: SimDuration::from_days(1),
    }
}

fn build_world(config: &DeploymentConfig) -> MailWorld {
    worlds::greylist_world_at(
        config.seed,
        DEPLOYMENT_DOMAIN,
        "mail.cs-dept.example",
        Greylist::new(GreylistConfig::with_delay(config.threshold).without_auto_whitelist()),
    )
}

/// The nominal relay name of message `i` — what the shard partition
/// hashes, whatever sender class the message ends up drawing.
fn relay_name(i: usize) -> String {
    format!("relay{i}.example")
}

/// Builds message `i`'s pre-submitted sender, tagged with its arrival
/// instant. A pure function of (config, i) — each message draws from its
/// own RNG fork and takes its source address by index — so any shard can
/// synthesize exactly the messages it owns without generating the rest.
fn build_message(
    config: &DeploymentConfig,
    providers: &[WebmailProvider],
    domain: &DomainName,
    i: usize,
) -> (SimTime, SendingMta) {
    let mut rng = DetRng::seed(config.seed).fork_idx("deployment.msg", i as u64);
    let arrival =
        SimTime::ZERO + SimDuration::from_micros(rng.below(config.window.as_micros().max(1)));
    let source_ip = indexed_ip(SOURCE_IP_BASE, i as u64);
    let sender_addr: EmailAddress =
        format!("user{i}@{}", relay_name(i)).parse().expect("synthetic sender is valid");
    let rcpt: EmailAddress =
        format!("staff{}@{DEPLOYMENT_DOMAIN}", i % 50).parse().expect("valid recipient");
    let message = Message::builder()
        .header("Subject", &format!("message {i}"))
        .body("benign mail body")
        .build();

    let mta_weight: f64 = ordered_sum(config.mix.mtas.iter().map(|(_, w)| *w));
    let total_weight =
        mta_weight + config.mix.webmail + config.mix.hourly_script + config.mix.no_retry_script;

    // Draw the sender class.
    let mut x = rng.unit_f64() * total_weight;
    let mut sender: SendingMta = 'pick: {
        for (profile, w) in &config.mix.mtas {
            if x < *w {
                break 'pick SendingMta::new(&relay_name(i), vec![source_ip], profile.clone());
            }
            x -= w;
        }
        if x < config.mix.webmail {
            let provider = rng.pick(providers).clone();
            break 'pick provider.build_sender(source_ip, config.seed ^ i as u64);
        }
        x -= config.mix.webmail;
        if x < config.mix.hourly_script {
            break 'pick SendingMta::new(&relay_name(i), vec![source_ip], hourly_script_profile());
        }
        SendingMta::new(&relay_name(i), vec![source_ip], no_retry_profile())
    };

    sender.submit(domain.clone(), ReversePath::Address(sender_addr), vec![rcpt], message, arrival);
    (arrival, sender)
}

/// What one shard's replay leaves behind, as plain data so shards merge
/// in shard order whatever the executor width.
struct ShardRun {
    events: u64,
    bounces: usize,
    log: Vec<LogRecord>,
    obs: Obs,
}

fn summarize(
    log: impl IntoIterator<Item = LogRecord>,
    bounces_generated: usize,
    messages: usize,
) -> DeploymentResult {
    // Analyze the *server's* anonymized log, as the paper did. Keys are
    // triplet hashes, so concatenating the shard logs loses nothing.
    let analysis = GreylistLogAnalysis::from_records(log);
    let cdf = analysis.delay_cdf();
    let within_10min = if cdf.is_empty() { 0.0 } else { cdf.fraction_at_or_below(600.0) };
    let beyond_50min = if cdf.is_empty() { 0.0 } else { 1.0 - cdf.fraction_at_or_below(3_000.0) };

    DeploymentResult {
        within_10min,
        beyond_50min,
        abandonment_rate: analysis.abandonment_rate(),
        bounces_generated,
        cdf,
        messages,
    }
}

/// Runs the deployment replay, draining each sender to completion in turn
/// (senders are triplet-independent, so ordering is immaterial), and folds
/// per-sender, victim-world and per-shard metrics and the delivery traces
/// into `obs` in shard order.
pub fn run(config: &DeploymentConfig, obs: &mut Obs) -> DeploymentResult {
    let plan = ShardPlan::new(config.seed, DEPLOYMENT_SHARDS);
    let domain: DomainName = DEPLOYMENT_DOMAIN.parse().expect("valid deployment domain");
    let providers = WebmailProvider::table_iii();
    // Each message's shard, hashed once rather than once per shard pass.
    let owners: Vec<u32> = (0..config.messages).map(|i| plan.shard_of(&relay_name(i))).collect();
    let shard_runs = run_sharded(&plan, config.workers, |shard| {
        let mut shard_obs = obs.fork();
        let mut world = shard_obs.arm(build_world(config));
        let mut senders = Vec::new();
        for (i, _) in owners.iter().enumerate().filter(|&(_, &owner)| owner == shard) {
            let (arrival, mut sender) = build_message(config, &providers, &domain, i);
            sender.drain(arrival, &mut world);
            senders.push(sender);
        }
        for sender in &senders {
            spamward_mta::metrics::collect_sender(sender, &mut shard_obs.registry);
        }
        shard_obs.collect(&world);
        ShardRun {
            events: world.engine_stats.events,
            bounces: senders.iter().map(|s| s.bounces().len()).sum(),
            log: world.server(VICTIM_MX_IP).expect("deployment server").log().to_vec(),
            obs: shard_obs,
        }
    });

    let mut bounces = 0;
    let mut logs = Vec::with_capacity(shard_runs.len());
    for (shard, run) in shard_runs.into_iter().enumerate() {
        spamward_mta::metrics::collect_shard_events(shard as u32, run.events, &mut obs.registry);
        obs.absorb(run.obs);
        bounces += run.bounces;
        logs.push(run.log);
    }
    summarize(logs.into_iter().flatten(), bounces, config.messages)
}

/// [`run`] for callers holding their own registry and trace lines: the
/// registry moves into the run's context and back, so nothing is merged.
pub fn run_with_obs(
    config: &DeploymentConfig,
    trace: bool,
    reg: &mut Registry,
    trace_lines: &mut Vec<String>,
) -> DeploymentResult {
    let mut obs = Obs::new(&HarnessConfig { trace, ..Default::default() });
    obs.registry = std::mem::take(reg);
    let result = run(config, &mut obs);
    *reg = obs.registry;
    trace_lines.extend(obs.trace_lines);
    result
}

impl DeploymentResult {
    /// The Fig. 5 curve (x = seconds, y = F(x)).
    pub fn fig5_series(&self) -> Series {
        Series::new("benign-delay-cdf-300s", self.cdf.to_points(120))
    }
}

/// Registry entry for the Fig. 5 deployment replay.
pub struct DeploymentExperiment;

impl DeploymentExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> DeploymentConfig {
        DeploymentConfig {
            seed: harness.seed_or(DeploymentConfig::default().seed),
            messages: match harness.scale {
                Scale::Paper => DeploymentConfig::default().messages,
                Scale::Quick => 300,
            },
            workers: if harness.shards > 0 {
                harness.shard_workers()
            } else {
                DeploymentConfig::default().workers
            },
            ..Default::default()
        }
    }
}

impl Experiment for DeploymentExperiment {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Benign delivery delay at a real greylisting deployment"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig. 5"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        // A budget-cut replay may deliver nothing; its report is discarded.
        let median = if result.cdf.is_empty() { f64::NAN } else { result.cdf.quantile(0.5) };
        report
            .push_text(&format!(
                "benign delivery-delay CDF (x = seconds):\n{}",
                plot::ascii_cdf(&result.cdf, 60, 10)
            ))
            .push_scalar("messages replayed", result.messages as f64)
            .push_scalar("greylisted & delivered", result.cdf.len() as f64)
            .push_scalar("median delay (s)", median)
            .push_scalar("delivered <10 min (%)", result.within_10min * 100.0)
            .push_scalar("delivered >50 min (%)", result.beyond_50min * 100.0)
            .push_scalar("abandonment (%)", result.abandonment_rate * 100.0)
            .push_scalar("bounce DSNs", result.bounces_generated as f64)
            .push_series(result.fig5_series());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DeploymentResult {
        run(&DeploymentConfig { messages: 400, ..Default::default() }, &mut Obs::default())
    }

    /// Every message of a 300-message replay drained through one unsharded
    /// world.
    fn replay_world(seed: u64) -> MailWorld {
        let config = DeploymentConfig { seed, messages: 300, ..Default::default() };
        let domain: DomainName = DEPLOYMENT_DOMAIN.parse().unwrap();
        let providers = WebmailProvider::table_iii();
        let mut world = build_world(&config);
        for i in 0..config.messages {
            let (arrival, mut sender) = build_message(&config, &providers, &domain, i);
            sender.drain(arrival, &mut world);
        }
        world
    }

    #[test]
    fn server_records_analyze_like_their_text() {
        for seed in [1, 2] {
            let world = replay_world(seed);
            let server = world.server(VICTIM_MX_IP).unwrap();
            let typed = GreylistLogAnalysis::from_records(server.log().iter().copied());
            let text = GreylistLogAnalysis::from_lines(server.log_text().lines()).unwrap();
            assert!(typed.len() > 200, "seed {seed}: {} timelines", typed.len());
            assert_eq!(typed.len(), text.len(), "seed {seed}");
            assert_eq!(typed.delivery_delays(), text.delivery_delays(), "seed {seed}");
            assert_eq!(typed.abandonment_rate(), text.abandonment_rate(), "seed {seed}");
        }
    }

    #[test]
    fn fig5_shape_holds() {
        let r = quick();
        assert!(r.cdf.len() > 200, "most messages should be greylisted+delivered");
        // Paper: "only half of the messages get delivered in less than 10
        // minutes" — allow a generous band around one half.
        assert!(
            (0.35..=0.75).contains(&r.within_10min),
            "within-10min fraction {} out of band",
            r.within_10min
        );
        // Tail past 50 minutes exists.
        assert!(r.beyond_50min > 0.02, "no >50 min tail: {}", r.beyond_50min);
        // Some senders never retried.
        assert!(r.abandonment_rate > 0.01, "abandonment {}", r.abandonment_rate);
    }

    #[test]
    fn benign_cdf_slower_than_kelihos() {
        // The surprising Fig. 5 observation: the *benign* CDF rises more
        // slowly than the malware CDF of Fig. 3.
        let benign = quick();
        let kelihos = crate::experiments::kelihos::run(
            &crate::experiments::kelihos::KelihosConfig { recipients: 40, ..Default::default() },
            &mut Obs::default(),
        );
        let benign_median = benign.cdf.quantile(0.5);
        let kelihos_median = kelihos.default.cdf.quantile(0.5);
        assert!(
            benign_median > kelihos_median,
            "benign median {benign_median} should exceed Kelihos median {kelihos_median}"
        );
    }

    #[test]
    fn no_message_beats_the_threshold() {
        let r = quick();
        assert!(r.cdf.min() >= 300.0, "delivery below the greylist delay: {}", r.cdf.min());
    }

    #[test]
    fn deterministic() {
        let cfg = DeploymentConfig { messages: 150, ..Default::default() };
        let a = run(&cfg, &mut Obs::default());
        let b = run(&cfg, &mut Obs::default());
        assert_eq!(a.cdf, b.cdf);
        assert_eq!(a.abandonment_rate, b.abandonment_rate);
    }

    #[test]
    fn abandoned_mail_turns_into_bounces() {
        let r = quick();
        // Every no-retry/hourly-script give-up owes its sender a DSN.
        assert!(r.bounces_generated > 0);
        let abandoned = (r.abandonment_rate * r.messages as f64).round() as usize;
        // Bounces ≈ abandoned messages (hourly scripts that expire later
        // also bounce, so allow a margin).
        assert!(
            r.bounces_generated >= abandoned / 2,
            "bounces {} vs abandoned {abandoned}",
            r.bounces_generated
        );
    }

    #[test]
    fn tiny_event_budget_is_a_typed_error() {
        // Satellite of the single-scheduler refactor: a run the budget
        // truncates must surface as a typed harness error, never as a
        // report with silently wrong numbers.
        let config =
            HarnessConfig { scale: Scale::Quick, event_budget: Some(10), ..Default::default() };
        match DeploymentExperiment.run(&config) {
            Err(HarnessError::BudgetExhausted { id, episodes_cut, events }) => {
                assert_eq!(id, "fig5");
                assert!(episodes_cut > 0);
                // The budget caps each shard world independently.
                let cap = 10 * u64::from(DEPLOYMENT_SHARDS);
                assert!(events <= cap, "budget must cap executed events, got {events}");
            }
            Ok(_) => panic!("a 10-event budget cannot complete a 300-message replay"),
        }
    }

    #[test]
    fn exports_the_fig5_series() {
        assert!(!quick().fig5_series().is_empty());
    }
}
