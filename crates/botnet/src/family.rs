//! The four families of Table I and their published spam shares.

use crate::behavior::{BotRetrySchedule, RetryBehavior};
use spamward_mta::MxStrategy;
use spamward_smtp::{Dialect, HeloStyle};
use std::fmt;

/// Fraction of 2014 world spam sent from botnets (Symantec ISTR, via the
/// paper: "76% of the world spam was sent from botnets").
pub const BOTNET_FRACTION_OF_GLOBAL_SPAM: f64 = 0.76;

/// The malware families of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalwareFamily {
    /// Cutwail — 46.90% of botnet spam; skips straight to the lowest-
    /// priority MX; never retries a greylisted message.
    Cutwail,
    /// Kelihos — 36.33%; targets only the primary MX; retries greylisted
    /// messages on a ladder starting no earlier than ~300 s.
    Kelihos,
    /// Darkmailer — 7.21%; RFC-compliant MX walking; never retries.
    Darkmailer,
    /// Darkmailer v3 — 2.58%; same protocol behaviour as Darkmailer.
    DarkmailerV3,
}

impl fmt::Display for MalwareFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyShare {
    /// The family.
    pub family: MalwareFamily,
    /// Percentage of 2014 botnet spam (Table I column 2).
    pub botnet_spam_pct: f64,
    /// Number of samples the paper analyzed (Table I column 3).
    pub samples: u32,
}

impl MalwareFamily {
    /// All four families, in Table I row order.
    pub const ALL: [MalwareFamily; 4] = [
        MalwareFamily::Cutwail,
        MalwareFamily::Kelihos,
        MalwareFamily::Darkmailer,
        MalwareFamily::DarkmailerV3,
    ];

    /// The family's display name.
    pub fn name(self) -> &'static str {
        match self {
            MalwareFamily::Cutwail => "Cutwail",
            MalwareFamily::Kelihos => "Kelihos",
            MalwareFamily::Darkmailer => "Darkmailer",
            MalwareFamily::DarkmailerV3 => "Darkmailer(v3)",
        }
    }

    /// Percentage of 2014 botnet spam attributed to the family (Table I).
    pub fn botnet_spam_pct(self) -> f64 {
        match self {
            MalwareFamily::Cutwail => 46.90,
            MalwareFamily::Kelihos => 36.33,
            MalwareFamily::Darkmailer => 7.21,
            MalwareFamily::DarkmailerV3 => 2.58,
        }
    }

    /// Number of distinct samples the paper collected (Table I).
    pub fn sample_count(self) -> u32 {
        match self {
            MalwareFamily::Cutwail => 3,
            MalwareFamily::Kelihos => 6,
            MalwareFamily::Darkmailer => 1,
            MalwareFamily::DarkmailerV3 => 1,
        }
    }

    /// Which MX records the family targets (§IV-B taxonomy).
    pub fn mx_strategy(self) -> MxStrategy {
        match self {
            MalwareFamily::Cutwail => MxStrategy::SecondaryOnly,
            MalwareFamily::Kelihos => MxStrategy::PrimaryOnly,
            MalwareFamily::Darkmailer | MalwareFamily::DarkmailerV3 => MxStrategy::RfcCompliant,
        }
    }

    /// How the family reacts to 4xx deferrals (§V-A observations).
    pub fn retry_behavior(self) -> RetryBehavior {
        match self {
            MalwareFamily::Kelihos => RetryBehavior::Scheduled(BotRetrySchedule::kelihos()),
            _ => RetryBehavior::FireAndForget,
        }
    }

    /// The family's SMTP session dialect. All four are bot routines, not
    /// full MTAs, but the Darkmailers speak noticeably better SMTP.
    pub fn dialect(self) -> Dialect {
        match self {
            MalwareFamily::Cutwail => Dialect {
                name: "cutwail".into(),
                uses_ehlo: false,
                helo_style: HeloStyle::AddressLiteral,
                quits_on_failure: false,
                aborts_on_first_rcpt_error: true,
                resets_between_messages: false,
                waits_for_banner: false,
            },
            MalwareFamily::Kelihos => Dialect {
                name: "kelihos".into(),
                uses_ehlo: false,
                helo_style: HeloStyle::Fixed("localhost".into()),
                quits_on_failure: false,
                aborts_on_first_rcpt_error: true,
                resets_between_messages: false,
                waits_for_banner: false,
            },
            MalwareFamily::Darkmailer | MalwareFamily::DarkmailerV3 => Dialect {
                name: if self == MalwareFamily::Darkmailer { "darkmailer" } else { "darkmailer3" }
                    .into(),
                uses_ehlo: true,
                helo_style: HeloStyle::Fixed("mail.local".into()),
                quits_on_failure: true,
                aborts_on_first_rcpt_error: false,
                resets_between_messages: false,
                // The Darkmailers speak near-correct SMTP and do wait.
                waits_for_banner: true,
            },
        }
    }

    /// Table I as data: one [`FamilyShare`] per family plus the totals the
    /// paper reports (93.02% of botnet spam, 70.69% of global spam).
    pub fn table_i() -> Vec<FamilyShare> {
        Self::ALL
            .iter()
            .map(|&family| FamilyShare {
                family,
                botnet_spam_pct: family.botnet_spam_pct(),
                samples: family.sample_count(),
            })
            .collect()
    }

    /// Sum of the four families' botnet-spam shares (the paper's 93.02%).
    pub fn total_botnet_pct() -> f64 {
        Self::ALL.iter().map(|f| f.botnet_spam_pct()).sum()
    }

    /// Sum of the four families' global-spam shares (the paper's 70.69%).
    pub fn total_global_pct() -> f64 {
        Self::total_botnet_pct() * BOTNET_FRACTION_OF_GLOBAL_SPAM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_totals_match_paper() {
        assert!((MalwareFamily::total_botnet_pct() - 93.02).abs() < 1e-9);
        // 93.02 × 0.76 = 70.6952 ≈ the paper's 70.69%.
        assert!((MalwareFamily::total_global_pct() - 70.69).abs() < 0.01);
        let samples: u32 = MalwareFamily::ALL.iter().map(|f| f.sample_count()).sum();
        assert_eq!(samples, 11, "Table I lists 11 samples");
    }

    #[test]
    fn mx_strategies_match_section_iv() {
        assert_eq!(MalwareFamily::Cutwail.mx_strategy(), MxStrategy::SecondaryOnly);
        assert_eq!(MalwareFamily::Kelihos.mx_strategy(), MxStrategy::PrimaryOnly);
        assert_eq!(MalwareFamily::Darkmailer.mx_strategy(), MxStrategy::RfcCompliant);
        assert_eq!(MalwareFamily::DarkmailerV3.mx_strategy(), MxStrategy::RfcCompliant);
    }

    #[test]
    fn only_kelihos_retries() {
        for f in MalwareFamily::ALL {
            let retries = matches!(f.retry_behavior(), RetryBehavior::Scheduled(_));
            assert_eq!(retries, f == MalwareFamily::Kelihos, "{f}");
        }
    }

    #[test]
    fn dialects_are_bot_like() {
        for f in MalwareFamily::ALL {
            let d = f.dialect();
            assert!(!d.resets_between_messages, "{f} should not RSET like a real MTA");
        }
        assert!(!MalwareFamily::Cutwail.dialect().uses_ehlo);
        assert!(MalwareFamily::Darkmailer.dialect().uses_ehlo);
    }

    #[test]
    fn display_names_match_table_i() {
        assert_eq!(MalwareFamily::Cutwail.to_string(), "Cutwail");
        assert_eq!(MalwareFamily::DarkmailerV3.to_string(), "Darkmailer(v3)");
    }

    #[test]
    fn table_i_rows() {
        let rows = MalwareFamily::table_i();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].family, MalwareFamily::Cutwail);
        assert_eq!(rows[1].samples, 6);
    }
}
