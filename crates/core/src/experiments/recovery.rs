//! Recovery extension — crash–restart faults × greylist durability.
//!
//! The paper assumes the greylisting MTA never loses its triplet store.
//! This experiment crashes the victim MTA mid-day
//! ([`spamward_net::FaultSpec::MtaCrashRestart`]) and sweeps what the
//! server remembered when it came back: nothing
//! ([`DurabilityMode::Volatile`]), the last periodic checkpoint
//! ([`DurabilityMode::Snapshot`]), or checkpoint plus write-ahead log
//! ([`DurabilityMode::SnapshotPlusWal`]) — across two checkpoint
//! cadences and two crash timings, against a no-crash baseline per
//! timing.
//!
//! The traffic is shaped so each durability tier has something distinct
//! to lose:
//!
//! * **regulars** mature their triplets (and the client-net
//!   auto-whitelist) early, then send again after the restart — only a
//!   volatile store re-defers them;
//! * a **drifter** matures between the 10-minute and 30-minute
//!   checkpoint ticks and sends again after the restart — the checkpoint
//!   *cadence* decides whether a snapshot saves it;
//! * **late joiners** first appear after the last checkpoint, so their
//!   pending triplets live only in the WAL;
//! * a **retrying spam bot** shows the flip side: a crash re-pends its
//!   matured triplet, but the bot retries straight through the fresh
//!   delay window and is re-admitted anyway.

use crate::experiments::worlds::{VICTIM_DOMAIN, VICTIM_MX_IP};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::Table;
use spamward_dns::{DomainName, Zone};
use spamward_greylist::{DurabilityMode, Greylist, GreylistConfig};
use spamward_mta::{
    MailWorld, MtaProfile, OutboundStatus, ReceivingMta, RetryPolicy, SendingMta, WorldSim,
};
use spamward_net::{FaultPlan, FaultProfile};
use spamward_sim::{DetRng, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// The victim hostname the crash fault targets (must match the installed
/// server for [`spamward_net::FaultPlan::crash_windows_for`] to route).
const VICTIM_HOST: &str = "mail.victim.example";

/// Greylist delay, Postgrey's 300 s default (also postfix's first retry).
const GREYLIST_DELAY: SimDuration = SimDuration::from_secs(300);

/// Client nets auto-whitelist after this many matured triplets.
const AWL_AFTER: u32 = 3;

/// How long the crashed MTA stays down.
const DOWNTIME: SimDuration = SimDuration::from_mins(2);

/// Episode horizon: one working day's worth of simulated mail.
const HORIZON_MINS: u64 = 480;

/// When in the day the crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTiming {
    /// Two hours in — most of the day's triplets form afterwards.
    Early,
    /// Five hours in — the store is at its richest.
    Late,
}

impl CrashTiming {
    /// Both timings, sweep order.
    pub const ALL: [CrashTiming; 2] = [CrashTiming::Early, CrashTiming::Late];

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            CrashTiming::Early => "early",
            CrashTiming::Late => "late",
        }
    }

    /// Minutes into the episode the crash fires. Multiples of both
    /// checkpoint cadences, so the last pre-crash tick is exactly one
    /// interval before the crash for either cadence.
    pub fn crash_min(&self) -> u64 {
        match self {
            CrashTiming::Early => 120,
            CrashTiming::Late => 300,
        }
    }
}

/// The checkpoint cadences swept (minutes).
pub const CHECKPOINT_INTERVALS_MINS: [u64; 2] = [10, 30];

/// Configuration of the recovery sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// RNG seed.
    pub seed: u64,
    /// Ham senders whose triplets mature long before the crash and who
    /// send a second wave after the restart.
    pub regulars: usize,
    /// Ham senders whose first contact lands *after* the last checkpoint
    /// tick, so only a WAL remembers them.
    pub late_joiners: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { seed: 42, regulars: 4, late_joiners: 2 }
    }
}

/// One cell of the durability × cadence × timing sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCell {
    /// Durability label (`"baseline"` for the no-crash reference cells).
    pub mode: &'static str,
    /// Checkpoint cadence in minutes (0 in baseline cells).
    pub interval_mins: u64,
    /// Crash timing label (baseline cells keep the timing label they
    /// share a submission schedule with).
    pub timing: &'static str,
    /// Whether this cell actually crashed.
    pub crashed: bool,
    /// Ham messages that reached the mailbox.
    pub ham_delivered: u64,
    /// Total queue-to-mailbox latency over all delivered ham, seconds.
    pub ham_delay_s: u64,
    /// Ham delivery attempts actually made.
    pub ham_attempts: u64,
    /// Spam messages that reached the mailbox.
    pub spam_delivered: u64,
    /// Spam delivery attempts actually made.
    pub spam_attempts: u64,
    /// Spam delivered post-restart only after paying a *fresh* greylist
    /// window — re-admitted through the re-pending window the crash
    /// opened.
    pub spam_readmitted: u64,
    /// Auto-whitelist passes the server granted over the whole day (the
    /// AWL-survival sub-axis: a lost counter means fewer passes).
    pub awl_passes: u64,
    /// Checkpoints the server took (including the post-restart re-baseline).
    pub checkpoints: u64,
    /// Triplets restored from the checkpoint at restart.
    pub entries_restored: u64,
    /// WAL records replayed on top of the checkpoint at restart.
    pub wal_replayed: u64,
    /// Triplets the restart lost versus the in-memory store at crash.
    pub entries_lost: u64,
}

/// The full sweep: per timing, one baseline cell plus the durability ×
/// cadence matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// Sweep cells, timing-major.
    pub cells: Vec<RecoveryCell>,
}

impl RecoveryResult {
    /// Looks up one crash cell.
    pub fn cell(&self, mode: &str, interval_mins: u64, timing: &str) -> Option<&RecoveryCell> {
        self.cells
            .iter()
            .find(|c| c.mode == mode && c.interval_mins == interval_mins && c.timing == timing)
    }

    /// The no-crash reference cell sharing `timing`'s submission schedule.
    pub fn baseline(&self, timing: &str) -> Option<&RecoveryCell> {
        self.cells.iter().find(|c| c.mode == "baseline" && c.timing == timing)
    }

    /// Ham delay a crash cell paid beyond its timing's baseline, seconds.
    pub fn extra_ham_delay_s(&self, cell: &RecoveryCell) -> u64 {
        let base = self.baseline(cell.timing).map(|b| b.ham_delay_s).unwrap_or(0);
        cell.ham_delay_s.saturating_sub(base)
    }

    /// The sweep as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Mode",
            "Ckpt(min)",
            "Crash",
            "HamDeliv",
            "HamDelay(s)",
            "ExtraDelay(s)",
            "HamAttempts",
            "SpamDeliv",
            "SpamReadmit",
            "AwlPasses",
            "Ckpts",
            "Restored",
            "WalReplay",
            "Lost",
        ])
        .with_title("Recovery: durability x checkpoint cadence x crash timing");
        for c in &self.cells {
            t.row(vec![
                c.mode.to_owned(),
                if c.crashed { c.interval_mins.to_string() } else { "-".to_owned() },
                if c.crashed { c.timing.to_owned() } else { format!("none ({})", c.timing) },
                c.ham_delivered.to_string(),
                c.ham_delay_s.to_string(),
                self.extra_ham_delay_s(c).to_string(),
                c.ham_attempts.to_string(),
                c.spam_delivered.to_string(),
                c.spam_readmitted.to_string(),
                c.awl_passes.to_string(),
                c.checkpoints.to_string(),
                c.entries_restored.to_string(),
                c.wal_replayed.to_string(),
                c.entries_lost.to_string(),
            ]);
        }
        t
    }
}

fn victim_domain() -> DomainName {
    VICTIM_DOMAIN.parse().expect("victim domain is valid")
}

fn at_min(mins: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(mins)
}

fn at_secs(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// One cell's identity within the sweep.
struct CellSpec {
    /// `None` = no-crash baseline.
    durability: Option<DurabilityMode>,
    /// Checkpoint cadence (`None` = baseline).
    interval: Option<SimDuration>,
    interval_mins: u64,
    timing: CrashTiming,
}

/// Seeds shared by every cell of one crash timing. Keeping the world and
/// sender seeds identical across a timing's cells makes the sweep a
/// *controlled* comparison: latency draws and retry jitter are the same
/// everywhere, so cells differ only through durability and checkpoint
/// cadence — exactly the quantities under test.
struct CellSeeds {
    world: u64,
    regulars: u64,
    edge: u64,
    bot: u64,
}

impl CellSeeds {
    fn for_timing(seed: u64, timing: CrashTiming) -> Self {
        let mut rng = DetRng::seed(seed).fork("recovery").fork(timing.label());
        CellSeeds {
            world: rng.next_u64(),
            regulars: rng.next_u64(),
            edge: rng.next_u64(),
            bot: rng.next_u64(),
        }
    }
}

fn submit_ham(sender: &mut SendingMta, name: &str, index: usize, at: SimTime, subject: &str) {
    sender.submit(
        victim_domain(),
        spamward_smtp::ReversePath::Address(
            format!("{name}{index}@{}", sender.fqdn()).parse().expect("valid sender"),
        ),
        vec![format!("{name}{index}@{VICTIM_DOMAIN}").parse().expect("valid recipient")],
        spamward_smtp::Message::builder()
            .header("Subject", subject)
            .body("legitimate mail across the crash")
            .build(),
        at,
    );
}

/// Delivered-message latency plus attempt count for one sender.
fn ham_tally(sender: &SendingMta) -> (u64, u64, u64) {
    let delivered =
        sender.queue().iter().filter(|m| m.status == OutboundStatus::Delivered).count() as u64;
    let delay_s: u64 =
        sender.records().iter().filter(|r| r.delivered).map(|r| r.since_enqueue.as_secs()).sum();
    (delivered, delay_s, sender.records().len() as u64)
}

/// Spam delivered post-restart only after a fresh deferral post-restart.
fn spam_readmitted(sender: &SendingMta, restart: Option<SimTime>) -> u64 {
    let Some(restart) = restart else { return 0 };
    sender
        .records()
        .iter()
        .filter(|r| r.delivered && r.at >= restart)
        .filter(|done| {
            sender
                .records()
                .iter()
                .any(|r| r.message_id == done.message_id && !r.delivered && r.at >= restart)
        })
        .count() as u64
}

fn run_cell(
    config: &RecoveryConfig,
    spec: &CellSpec,
    seeds: &CellSeeds,
    obs: &mut Obs,
) -> RecoveryCell {
    let crash_min = spec.timing.crash_min();
    let crash_at = at_min(crash_min);
    let restart_at = crash_at + DOWNTIME;

    let profile = match spec.durability {
        Some(_) => FaultProfile::crash_restart(VICTIM_HOST, crash_at, DOWNTIME),
        None => FaultProfile::none(),
    };
    let plan = FaultPlan::compile(&profile, seeds.world);

    let mut greylist_config = GreylistConfig::with_delay(GREYLIST_DELAY);
    greylist_config.auto_whitelist_after = Some(AWL_AFTER);
    let mut world = MailWorld::new(seeds.world);
    world.install_server(
        ReceivingMta::new(VICTIM_HOST, VICTIM_MX_IP)
            .with_greylist(Greylist::new(greylist_config))
            .with_durability(spec.durability.unwrap_or_default()),
    );
    world.dns.publish(Zone::single_mx(victim_domain(), VICTIM_MX_IP));
    if let Some(interval) = spec.interval {
        world = world.with_checkpointing(interval);
    }
    world = obs.arm(world);
    world.install_faults(&plan);

    // Regulars: triplets (and the relay's auto-whitelist standing) mature
    // in the first hours; a second wave lands after the restart.
    let mut regulars = SendingMta::new(
        "relay.example",
        vec![Ipv4Addr::new(198, 51, 100, 1)],
        MtaProfile::postfix(),
    )
    .with_seed(seeds.regulars)
    .with_retry_policy(RetryPolicy::resilient());
    for i in 0..config.regulars {
        submit_ham(&mut regulars, "regular", i, at_min(7 * i as u64), "morning wave");
        submit_ham(
            &mut regulars,
            "regular",
            i,
            at_min(crash_min + 12 + 3 * i as u64),
            "after the restart",
        );
    }

    // The edge relay (a different client /24, so the regulars' whitelist
    // standing cannot mask its triplets): one drifter maturing between
    // the two checkpoint cadences' last ticks, then the late joiners
    // whose first contact outruns every checkpoint.
    let mut edge = SendingMta::new(
        "edge-relay.example",
        vec![Ipv4Addr::new(203, 0, 113, 9)],
        MtaProfile::postfix(),
    )
    .with_seed(seeds.edge)
    .with_retry_policy(RetryPolicy::resilient());
    submit_ham(&mut edge, "drifter", 0, at_min(crash_min - 20), "between the ticks");
    submit_ham(&mut edge, "drifter", 0, at_min(crash_min + 22), "did the snapshot see me");
    for j in 0..config.late_joiners {
        submit_ham(
            &mut edge,
            "joiner",
            j,
            at_secs((crash_min - 4) * 60 + 30 * j as u64),
            "after the last checkpoint",
        );
    }

    // A retry-capable spam bot: one message matures its triplet in the
    // morning, a second probes the store right after the restart.
    let mut bot = SendingMta::new(
        "harvester.example",
        vec![Ipv4Addr::new(198, 18, 5, 7)],
        MtaProfile::postfix(),
    )
    .with_seed(seeds.bot)
    .with_retry_policy(RetryPolicy::resilient());
    for s in 0..2u64 {
        let at = if s == 0 {
            at_min(5)
        } else {
            at_min(crash_min) + DOWNTIME + SimDuration::from_mins(2)
        };
        bot.submit(
            victim_domain(),
            spamward_smtp::ReversePath::Address(
                "spam@harvester.example".parse().expect("valid sender"),
            ),
            vec![format!("regular0@{VICTIM_DOMAIN}").parse().expect("valid recipient")],
            spamward_smtp::Message::builder()
                .header("Subject", "cheap watches")
                .body("unsolicited bulk mail")
                .build(),
            at,
        );
    }

    // All three senders and the world's fault timeline share one event
    // stream, so the crash edges are ordered against the attempts they
    // disturb (and serial vs --jobs runs see the identical sequence).
    let cast = [&mut regulars, &mut edge, &mut bot].map(|mta| {
        let first = mta.next_due().unwrap_or(SimTime::ZERO);
        (mta, first)
    });
    WorldSim::episode_with(&mut world, cast, Some(at_min(HORIZON_MINS)));

    obs.collect(&world);
    for sender in [&regulars, &edge, &bot] {
        spamward_mta::metrics::collect_sender(sender, &mut obs.registry);
    }

    let server = world.server(VICTIM_MX_IP).expect("victim server installed");
    let crash_stats = server.crash_stats();
    let greylist_stats = server.greylist().map(|g| g.stats()).unwrap_or_default();
    let (r_deliv, r_delay, r_attempts) = ham_tally(&regulars);
    let (e_deliv, e_delay, e_attempts) = ham_tally(&edge);
    let (s_deliv, _s_delay, s_attempts) = ham_tally(&bot);
    RecoveryCell {
        mode: spec.durability.map(|d| d.label()).unwrap_or("baseline"),
        interval_mins: spec.interval_mins,
        timing: spec.timing.label(),
        crashed: spec.durability.is_some(),
        ham_delivered: r_deliv + e_deliv,
        ham_delay_s: r_delay + e_delay,
        ham_attempts: r_attempts + e_attempts,
        spam_delivered: s_deliv,
        spam_attempts: s_attempts,
        spam_readmitted: spam_readmitted(&bot, spec.durability.map(|_| restart_at)),
        awl_passes: greylist_stats.passed_auto_whitelist,
        checkpoints: crash_stats.checkpoints,
        entries_restored: crash_stats.entries_restored,
        wal_replayed: crash_stats.wal_records_replayed,
        entries_lost: crash_stats.entries_lost,
    }
}

/// Runs the sweep, folding every cell's world and senders into `obs`.
pub fn run(config: &RecoveryConfig, obs: &mut Obs) -> RecoveryResult {
    let mut cells = Vec::new();
    for timing in CrashTiming::ALL {
        let seeds = CellSeeds::for_timing(config.seed, timing);
        cells.push(run_cell(
            config,
            &CellSpec { durability: None, interval: None, interval_mins: 0, timing },
            &seeds,
            obs,
        ));
        for &interval_mins in &CHECKPOINT_INTERVALS_MINS {
            for durability in DurabilityMode::all() {
                cells.push(run_cell(
                    config,
                    &CellSpec {
                        durability: Some(durability),
                        interval: Some(SimDuration::from_mins(interval_mins)),
                        interval_mins,
                        timing,
                    },
                    &seeds,
                    obs,
                ));
            }
        }
    }
    RecoveryResult { cells }
}

/// Registry entry for the recovery sweep.
pub struct RecoveryExperiment;

impl RecoveryExperiment {
    /// The module config a harness config maps to.
    fn config(harness: &HarnessConfig) -> RecoveryConfig {
        RecoveryConfig {
            seed: harness.seed_or(RecoveryConfig::default().seed),
            regulars: match harness.scale {
                Scale::Paper => RecoveryConfig::default().regulars,
                Scale::Quick => 2,
            },
            late_joiners: match harness.scale {
                Scale::Paper => RecoveryConfig::default().late_joiners,
                Scale::Quick => 1,
            },
        }
    }
}

impl Experiment for RecoveryExperiment {
    fn id(&self) -> &'static str {
        "recovery"
    }

    fn title(&self) -> &'static str {
        "Crash-restart durability and greylist recovery"
    }

    fn paper_artifact(&self) -> &'static str {
        "DESIGN.md durability model"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = Self::config(config);
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        let extra = |mode: &str| -> f64 {
            result
                .cells
                .iter()
                .filter(|c| c.mode == mode)
                .map(|c| result.extra_ham_delay_s(c))
                .sum::<u64>() as f64
        };
        report
            .push_table(result.table())
            .push_scalar("extra ham delay s (volatile cells)", extra("volatile"))
            .push_scalar("extra ham delay s (snapshot cells)", extra("snapshot"))
            .push_scalar("extra ham delay s (snapshot_wal cells)", extra("snapshot_wal"))
            .push_scalar(
                "spam re-admitted through re-pending windows",
                result.cells.iter().map(|c| c.spam_readmitted).sum::<u64>() as f64,
            )
            .push_scalar(
                "greylist entries lost (all cells)",
                result.cells.iter().map(|c| c.entries_lost).sum::<u64>() as f64,
            )
            .push_scalar(
                "wal records replayed (all cells)",
                result.cells.iter().map(|c| c.wal_replayed).sum::<u64>() as f64,
            );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_mta::metrics as mta_metrics;

    fn full() -> RecoveryResult {
        run(&RecoveryConfig::default(), &mut Obs::default())
    }

    #[test]
    fn sweep_covers_baselines_and_the_full_matrix() {
        let r = full();
        assert_eq!(
            r.cells.len(),
            CrashTiming::ALL.len()
                * (1 + CHECKPOINT_INTERVALS_MINS.len() * DurabilityMode::all().len())
        );
        for timing in CrashTiming::ALL {
            assert!(r.baseline(timing.label()).is_some());
            for interval in CHECKPOINT_INTERVALS_MINS {
                for mode in DurabilityMode::all() {
                    assert!(
                        r.cell(mode.label(), interval, timing.label()).is_some(),
                        "{} x {} x {} missing",
                        mode.label(),
                        interval,
                        timing.label()
                    );
                }
            }
        }
    }

    #[test]
    fn no_ham_is_lost_and_no_spam_is_stopped_by_the_crash() {
        // A crash delays mail; the resilient postfix schedule means it
        // never loses any — and the retrying bot gets through every time.
        let r = full();
        let expected_ham = (RecoveryConfig::default().regulars * 2
            + RecoveryConfig::default().late_joiners
            + 2) as u64;
        for c in &r.cells {
            assert_eq!(
                c.ham_delivered, expected_ham,
                "{} x {} x {}",
                c.mode, c.interval_mins, c.timing
            );
            assert_eq!(c.spam_delivered, 2, "{} x {} x {}", c.mode, c.interval_mins, c.timing);
        }
    }

    #[test]
    fn durability_strictly_orders_the_extra_ham_delay() {
        // The acceptance ordering: losing everything costs more than
        // losing the checkpoint tail, which costs more than losing
        // nothing — in every cadence x timing combination.
        let r = full();
        for timing in CrashTiming::ALL {
            for interval in CHECKPOINT_INTERVALS_MINS {
                let volatile =
                    r.extra_ham_delay_s(r.cell("volatile", interval, timing.label()).unwrap());
                let snapshot =
                    r.extra_ham_delay_s(r.cell("snapshot", interval, timing.label()).unwrap());
                let wal =
                    r.extra_ham_delay_s(r.cell("snapshot_wal", interval, timing.label()).unwrap());
                assert!(
                    volatile > snapshot && snapshot > wal,
                    "{}min x {}: volatile {volatile} / snapshot {snapshot} / wal {wal}",
                    interval,
                    timing.label()
                );
                // Snapshot+WAL loses no state, so its residual cost is
                // only the downtime's retry displacement — a fraction of
                // what any state loss costs.
                assert!(
                    wal < volatile / 2,
                    "{}min x {}: wal {wal} not close to baseline (volatile {volatile})",
                    interval,
                    timing.label()
                );
            }
        }
    }

    #[test]
    fn checkpoint_cadence_decides_the_drifters_fate() {
        // The drifter matures between the 30-min cadence's last tick and
        // the 10-min cadence's: a snapshot-only store re-defers it only
        // under the slow cadence.
        let r = full();
        for timing in CrashTiming::ALL {
            let fast = r.extra_ham_delay_s(r.cell("snapshot", 10, timing.label()).unwrap());
            let slow = r.extra_ham_delay_s(r.cell("snapshot", 30, timing.label()).unwrap());
            assert!(slow > fast, "{}: slow cadence {slow} <= fast cadence {fast}", timing.label());
        }
    }

    #[test]
    fn wal_recovers_every_entry_and_volatile_recovers_none() {
        let r = full();
        for c in r.cells.iter().filter(|c| c.crashed) {
            match c.mode {
                "volatile" => {
                    assert_eq!(
                        c.entries_restored + c.wal_replayed,
                        0,
                        "{} x {}",
                        c.interval_mins,
                        c.timing
                    );
                    assert!(c.entries_lost > 0, "{} x {}", c.interval_mins, c.timing);
                    assert_eq!(c.checkpoints, 0);
                }
                "snapshot" => {
                    assert!(c.entries_restored > 0, "{} x {}", c.interval_mins, c.timing);
                    assert_eq!(c.wal_replayed, 0);
                    assert!(c.entries_lost > 0, "snapshot must lose the tail");
                }
                "snapshot_wal" => {
                    assert!(c.entries_restored > 0);
                    assert!(
                        c.wal_replayed > 0,
                        "{} x {}: tail must live in the WAL",
                        c.interval_mins,
                        c.timing
                    );
                    assert_eq!(c.entries_lost, 0, "{} x {}", c.interval_mins, c.timing);
                }
                other => panic!("unexpected crash-cell mode {other}"),
            }
        }
        for timing in CrashTiming::ALL {
            let b = r.baseline(timing.label()).unwrap();
            assert_eq!(b.entries_lost + b.entries_restored + b.checkpoints, 0);
        }
    }

    #[test]
    fn auto_whitelist_standing_survives_only_durable_stores() {
        let r = full();
        for timing in CrashTiming::ALL {
            for interval in CHECKPOINT_INTERVALS_MINS {
                let volatile = r.cell("volatile", interval, timing.label()).unwrap().awl_passes;
                let snapshot = r.cell("snapshot", interval, timing.label()).unwrap().awl_passes;
                let wal = r.cell("snapshot_wal", interval, timing.label()).unwrap().awl_passes;
                assert!(
                    snapshot > volatile && wal > volatile,
                    "{}min x {}: awl volatile {volatile} / snapshot {snapshot} / wal {wal}",
                    interval,
                    timing.label()
                );
            }
        }
    }

    #[test]
    fn retrying_spam_is_readmitted_exactly_where_state_was_lost() {
        // The bot's triplet matured in the morning, so only a store that
        // forgot it re-pends the post-restart probe — and the bot rides
        // out the fresh window and lands anyway.
        let r = full();
        for c in &r.cells {
            if c.crashed && c.mode == "volatile" {
                assert!(c.spam_readmitted > 0, "{} x {}", c.interval_mins, c.timing);
            } else {
                assert_eq!(c.spam_readmitted, 0, "{} x {} x {}", c.mode, c.interval_mins, c.timing);
            }
        }
    }

    #[test]
    fn registry_run_exports_crash_and_recovery_metrics() {
        let config = HarnessConfig { scale: Scale::Quick, ..Default::default() };
        let report = RecoveryExperiment.run(&config).unwrap();
        let reg = report.metrics();
        assert!(reg.counter(mta_metrics::CRASH_EVENTS).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::CRASH_RESTARTS).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::RECOVERY_CHECKPOINTS).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::RECOVERY_ENTRIES_RESTORED).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::RECOVERY_WAL_REPLAYED).unwrap_or(0) > 0);
        assert!(reg.counter(mta_metrics::RECOVERY_ENTRIES_LOST).unwrap_or(0) > 0);
        assert!(report.scalar("extra ham delay s (volatile cells)").is_some());
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = RecoveryConfig { regulars: 2, late_joiners: 1, ..Default::default() };
        let a = run(&config, &mut Obs::default());
        let b = run(&config, &mut Obs::default());
        assert_eq!(a, b);
    }
}
