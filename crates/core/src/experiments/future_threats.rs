//! §VI forward-looking analysis: when do the defenses become obsolete?
//!
//! The paper ends on a warning — both techniques work only until malware
//! adapts, and "it is important to know when they will become obsolete".
//! This experiment runs the plausible adaptations (see
//! [`spamward_botnet::AdaptiveBot`]) against each defense configuration
//! and reports which combinations still hold.

use crate::experiments::worlds::{self, VICTIM_DOMAIN};
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report, Scale};
use spamward_analysis::Table;
use spamward_botnet::{AdaptiveBot, Campaign};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::MailWorld;
use spamward_sim::{DetRng, SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// Configuration of the future-threats matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureThreatsConfig {
    /// RNG seed.
    pub seed: u64,
    /// Victims per campaign.
    pub recipients: usize,
    /// Observation horizon.
    pub horizon: SimDuration,
}

impl Default for FutureThreatsConfig {
    fn default() -> Self {
        FutureThreatsConfig { seed: 2030, recipients: 10, horizon: SimDuration::from_secs(200_000) }
    }
}

/// Defense configurations tested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseSetup {
    /// Nolisting only.
    Nolisting,
    /// Greylisting at 300 s, /24 keying (Postgrey defaults).
    GreylistNet24,
    /// Greylisting at 300 s, exact-IP keying.
    GreylistExact,
    /// Nolisting + greylisting stacked.
    Stack,
}

impl fmt::Display for DefenseSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefenseSetup::Nolisting => "nolisting",
            DefenseSetup::GreylistNet24 => "greylist (/24 key)",
            DefenseSetup::GreylistExact => "greylist (exact key)",
            DefenseSetup::Stack => "nolisting + greylist",
        };
        f.write_str(s)
    }
}

impl DefenseSetup {
    /// All tested setups.
    pub const ALL: [DefenseSetup; 4] = [
        DefenseSetup::Nolisting,
        DefenseSetup::GreylistNet24,
        DefenseSetup::GreylistExact,
        DefenseSetup::Stack,
    ];
}

/// One cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatCell {
    /// The attacking bot model.
    pub bot: String,
    /// The defense it ran against.
    pub defense: DefenseSetup,
    /// Fraction of the campaign delivered.
    pub delivery_rate: f64,
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureThreatsResult {
    /// One cell per (bot, defense) pair.
    pub cells: Vec<ThreatCell>,
}

impl FutureThreatsResult {
    /// The delivery rate of a specific pair.
    pub fn rate(&self, bot: &str, defense: DefenseSetup) -> Option<f64> {
        self.cells.iter().find(|c| c.bot == bot && c.defense == defense).map(|c| c.delivery_rate)
    }
}

fn build_world(seed: u64, setup: DefenseSetup) -> MailWorld {
    let greylist = |netmask: u8| {
        let mut cfg =
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist();
        cfg.netmask = netmask;
        Greylist::new(cfg)
    };
    match setup {
        DefenseSetup::Nolisting => worlds::nolisting_world(seed),
        DefenseSetup::GreylistNet24 => worlds::custom_greylist_world(seed, greylist(24)),
        DefenseSetup::GreylistExact => worlds::custom_greylist_world(seed, greylist(32)),
        DefenseSetup::Stack => worlds::stacked_world(seed, greylist(24)),
    }
}

fn bots() -> Vec<AdaptiveBot> {
    let cross_subnet: Vec<Ipv4Addr> = (0..8u8).map(|i| Ipv4Addr::new(203, 0, 100 + i, 7)).collect();
    vec![
        AdaptiveBot::full_compliance(Ipv4Addr::new(203, 0, 113, 90)),
        AdaptiveBot::distributed_retry(cross_subnet),
        AdaptiveBot::subnet_botnet(Ipv4Addr::new(203, 0, 113, 10), 20),
    ]
}

/// Runs the full (bot × defense) matrix, folding every cell's world into
/// `obs`.
pub fn run(config: &FutureThreatsConfig, obs: &mut Obs) -> FutureThreatsResult {
    let mut cells = Vec::new();
    for template in bots() {
        for defense in DefenseSetup::ALL {
            let mut world = obs.arm(build_world(config.seed, defense));
            let mut rng = DetRng::seed(config.seed).fork("future");
            let campaign = Campaign::synthetic(VICTIM_DOMAIN, config.recipients, &mut rng);
            let mut bot = template.clone();
            let report = bot.run_campaign(
                &mut world,
                &campaign,
                SimTime::ZERO,
                SimTime::ZERO + config.horizon,
            );
            obs.collect(&world);
            cells.push(ThreatCell {
                bot: template.name.clone(),
                defense,
                delivery_rate: report.delivery_rate(),
            });
        }
    }
    FutureThreatsResult { cells }
}

const READING_NOTE: &str = "Reading: a fully RFC-compliant retrying bot ends the story for both\n\
     defenses; distributed retry is self-defeating UNLESS the botnet owns a\n\
     whole /24 — in which case only exact-IP keying holds.";

impl FutureThreatsResult {
    /// The matrix as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Hypothetical bot",
            "nolisting",
            "greylist /24",
            "greylist exact",
            "stack",
        ])
        .with_title(
            "Section VI outlook: spam delivered by adapted malware (100% = defense obsolete)",
        );
        let mut bots: Vec<&str> = self.cells.iter().map(|c| c.bot.as_str()).collect();
        bots.dedup();
        for bot in bots {
            let cell = |d: DefenseSetup| {
                self.rate(bot, d).map(|r| format!("{:.0}%", r * 100.0)).unwrap_or_default()
            };
            t.row(vec![
                bot.to_owned(),
                cell(DefenseSetup::Nolisting),
                cell(DefenseSetup::GreylistNet24),
                cell(DefenseSetup::GreylistExact),
                cell(DefenseSetup::Stack),
            ]);
        }
        t
    }
}

/// Registry entry for the §VI adaptation matrix.
pub struct FutureThreatsExperiment;

impl Experiment for FutureThreatsExperiment {
    fn id(&self) -> &'static str {
        "future"
    }

    fn title(&self) -> &'static str {
        "Adapted-malware obsolescence matrix"
    }

    fn paper_artifact(&self) -> &'static str {
        "§VI outlook"
    }

    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let module_config = FutureThreatsConfig {
            seed: config.seed_or(FutureThreatsConfig::default().seed),
            recipients: match config.scale {
                Scale::Paper => FutureThreatsConfig::default().recipients,
                Scale::Quick => 4,
            },
            ..Default::default()
        };
        let result = run(&module_config, obs);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact())
            .with_seed(module_config.seed);
        report.push_table(result.table()).push_text(READING_NOTE);
        for cell in &result.cells {
            report.push_scalar(
                &format!("delivered (%): {} vs {}", cell.bot, cell.defense),
                cell.delivery_rate * 100.0,
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> FutureThreatsResult {
        run(&FutureThreatsConfig { recipients: 4, ..Default::default() }, &mut Obs::default())
    }

    #[test]
    fn full_compliance_defeats_everything() {
        let r = result();
        for defense in DefenseSetup::ALL {
            assert_eq!(
                r.rate("full-compliance", defense),
                Some(1.0),
                "full compliance must defeat {defense}"
            );
        }
    }

    #[test]
    fn distributed_retry_beaten_by_any_greylist() {
        let r = result();
        // It walks MXs, so nolisting alone doesn't stop it...
        assert_eq!(r.rate("distributed-retry", DefenseSetup::Nolisting), Some(1.0));
        // ...but every greylist variant does.
        for d in [DefenseSetup::GreylistNet24, DefenseSetup::GreylistExact, DefenseSetup::Stack] {
            assert_eq!(r.rate("distributed-retry", d), Some(0.0), "{d}");
        }
    }

    #[test]
    fn subnet_botnet_splits_on_keying() {
        let r = result();
        assert_eq!(r.rate("subnet-botnet", DefenseSetup::GreylistNet24), Some(1.0));
        assert_eq!(r.rate("subnet-botnet", DefenseSetup::GreylistExact), Some(0.0));
        // The stack uses /24 keying, and the bot walks MXs: it wins there
        // too.
        assert_eq!(r.rate("subnet-botnet", DefenseSetup::Stack), Some(1.0));
    }
}
