//! Dialect fingerprinting — the B@bel foundation (§II) the paper rests on.
//!
//! The paper's premise is Stringhini et al.'s observation that SMTP
//! "dialects" fingerprint the sending software well enough to tell botnets
//! from benign MTAs. This experiment closes the loop inside the suite: it
//! runs every sender model (the four malware families, a compliant MTA, a
//! webmail tier) against a greylisting victim, extracts a behavioural
//! fingerprint *from the transcript alone*, classifies each session with
//! the bot-vs-MTA heuristic, and reports the confusion matrix.

use crate::experiments::worlds::VICTIM_DOMAIN;
use crate::harness::{Experiment, HarnessConfig, HarnessError, Obs, Report};
use spamward_analysis::Table;
use spamward_botnet::MalwareFamily;
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{
    exchange, ClientSession, Dialect, DialectFingerprint, Envelope, Message, ReversePath,
    ServerSession,
};
use std::net::Ipv4Addr;

/// One observed sender class.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectObservation {
    /// Sender label ("kelihos", "compliant-mta", ...).
    pub sender: String,
    /// Whether the sender really is a bot.
    pub is_bot: bool,
    /// The fingerprint recovered from the transcript.
    pub fingerprint: DialectFingerprint,
    /// Whether the heuristic classified it as a bot.
    pub classified_bot: bool,
}

/// The classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectsResult {
    /// One row per sender class.
    pub observations: Vec<DialectObservation>,
}

impl DialectsResult {
    /// Fraction of senders classified correctly.
    pub fn accuracy(&self) -> f64 {
        if self.observations.is_empty() {
            return 1.0;
        }
        let correct = self.observations.iter().filter(|o| o.classified_bot == o.is_bot).count();
        correct as f64 / self.observations.len() as f64
    }
}

/// A greylist-everything session against one sender dialect, returning the
/// transcript fingerprint. The greylisted failure path is exactly where
/// dialects diverge.
fn observe(dialect: Dialect) -> DialectFingerprint {
    let client_ip = Ipv4Addr::new(203, 0, 113, 120);
    let envelope = Envelope::builder()
        .client_ip(client_ip)
        .helo(&dialect.helo_argument(client_ip))
        .mail_from(ReversePath::Address("probe@sender.example".parse().expect("valid sender")))
        .rcpt(format!("a@{VICTIM_DOMAIN}").parse().expect("valid rcpt"))
        .rcpt(format!("b@{VICTIM_DOMAIN}").parse().expect("valid rcpt"))
        .build();
    let message = Message::builder().header("Subject", "probe").body("x").build();
    let mut client = ClientSession::new(dialect, envelope, message);
    let mut server = ServerSession::new("mx.victim.example", client_ip);

    // A pure greylisting policy (no recipient validation noise).
    struct GreylistAll(Greylist);
    impl spamward_smtp::ServerPolicy for GreylistAll {
        fn on_rcpt(
            &mut self,
            now: SimTime,
            tx: &spamward_smtp::Transaction,
            rcpt: &spamward_smtp::EmailAddress,
        ) -> spamward_smtp::PolicyDecision {
            let sender = tx.mail_from.clone().unwrap_or(ReversePath::Null);
            match self.0.check(now, tx.client_ip, &sender, rcpt) {
                spamward_greylist::Decision::Pass(_) => spamward_smtp::PolicyDecision::Accept,
                spamward_greylist::Decision::Greylisted { retry_after } => {
                    spamward_smtp::PolicyDecision::TempFail(spamward_smtp::Reply::greylisted(
                        retry_after.as_secs(),
                    ))
                }
            }
        }
    }
    let mut policy = GreylistAll(Greylist::new(
        GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
    ));
    let (_, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
    transcript.fingerprint()
}

/// Runs the classification over every sender model in the suite.
pub fn run() -> DialectsResult {
    let mut senders: Vec<(String, bool, Dialect)> = vec![
        ("compliant-mta".into(), false, Dialect::compliant_mta("relay.example")),
        ("webmail-tier".into(), false, Dialect::compliant_mta("mta.gmail.com")),
    ];
    for family in MalwareFamily::ALL {
        senders.push((family.name().to_ascii_lowercase(), true, family.dialect()));
    }

    let observations = senders
        .into_iter()
        .map(|(sender, is_bot, dialect)| {
            let fingerprint = observe(dialect);
            DialectObservation {
                sender,
                is_bot,
                classified_bot: !fingerprint.looks_like_mta(),
                fingerprint,
            }
        })
        .collect();
    DialectsResult { observations }
}

impl DialectsResult {
    /// The confusion matrix as a typed [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Sender",
            "Truth",
            "Classified",
            "EHLO",
            "Literal HELO",
            "QUITs",
            "Early talker",
        ])
        .with_title("Dialect fingerprinting (B@bel-style) from greylisted-session transcripts");
        for o in &self.observations {
            let yn = |b: bool| if b { "yes".to_owned() } else { "no".to_owned() };
            t.row(vec![
                o.sender.clone(),
                if o.is_bot { "bot".into() } else { "MTA".into() },
                if o.classified_bot { "bot".into() } else { "MTA".into() },
                yn(o.fingerprint.greets_with_ehlo),
                yn(o.fingerprint.helo_is_literal),
                yn(o.fingerprint.quits_politely),
                yn(o.fingerprint.early_talker),
            ]);
        }
        t
    }
}

/// Registry entry for the dialect-fingerprinting loop. The transcripts are
/// deterministic functions of the sender models, so the run ignores seed
/// and scale.
pub struct DialectsExperiment;

impl Experiment for DialectsExperiment {
    fn id(&self) -> &'static str {
        "dialects"
    }

    fn title(&self) -> &'static str {
        "SMTP dialect fingerprinting of the sender models"
    }

    fn paper_artifact(&self) -> &'static str {
        "§II premise"
    }

    fn seedable(&self) -> bool {
        false
    }

    fn observe(&self, _config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError> {
        let result = run();
        crate::metrics::collect_dialects(&result, &mut obs.registry);
        let mut report = Report::new(self.id(), self.title(), self.paper_artifact());
        report
            .push_table(result.table())
            .push_scalar("sender models", result.observations.len() as f64)
            .push_scalar("classification accuracy (%)", result.accuracy() * 100.0);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_most_senders_correctly() {
        let r = run();
        assert_eq!(r.observations.len(), 6);
        // Benign MTAs are never misclassified.
        for o in r.observations.iter().filter(|o| !o.is_bot) {
            assert!(!o.classified_bot, "{} misclassified as bot", o.sender);
        }
        // Cutwail and Kelihos (sloppy dialects) are caught.
        for name in ["cutwail", "kelihos"] {
            let o = r.observations.iter().find(|o| o.sender == name).unwrap();
            assert!(o.classified_bot, "{name} evaded the fingerprint");
        }
        // The Darkmailers speak near-correct SMTP — exactly the senders
        // dialect fingerprinting struggles with (and why defenses that
        // don't rely on dialects still matter).
        assert!(r.accuracy() >= 4.0 / 6.0);
    }

    #[test]
    fn bot_fingerprints_show_the_expected_features() {
        let r = run();
        let kelihos = r.observations.iter().find(|o| o.sender == "kelihos").unwrap();
        assert!(kelihos.fingerprint.early_talker);
        assert!(!kelihos.fingerprint.quits_politely);
        assert!(!kelihos.fingerprint.retries_remaining_rcpts);
        let cutwail = r.observations.iter().find(|o| o.sender == "cutwail").unwrap();
        assert!(cutwail.fingerprint.helo_is_literal);
    }
}
