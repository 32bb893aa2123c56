//! Greylist decision counters.

use std::fmt;

/// Running counters over every [`check`](crate::Greylist::check) call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreylistStats {
    /// New triplets greylisted on first contact.
    pub greylisted_new: u64,
    /// Retries that arrived *before* the delay elapsed (re-greylisted).
    pub greylisted_early: u64,
    /// Retries of pending triplets that had expired and were re-greylisted
    /// from scratch.
    pub greylisted_restarted: u64,
    /// Retries that passed after the delay.
    pub passed_after_delay: u64,
    /// Hits on already-passed triplets.
    pub passed_known: u64,
    /// Passes due to the client whitelist.
    pub passed_client_whitelist: u64,
    /// Passes due to the recipient whitelist.
    pub passed_recipient_whitelist: u64,
    /// Passes due to the client auto-whitelist.
    pub passed_auto_whitelist: u64,
}

impl GreylistStats {
    /// All checks that ended in a 450.
    pub fn total_greylisted(&self) -> u64 {
        self.greylisted_new + self.greylisted_early + self.greylisted_restarted
    }

    /// All checks that passed.
    pub fn total_passed(&self) -> u64 {
        self.passed_after_delay
            + self.passed_known
            + self.passed_client_whitelist
            + self.passed_recipient_whitelist
            + self.passed_auto_whitelist
    }

    /// All checks.
    pub fn total(&self) -> u64 {
        self.total_greylisted() + self.total_passed()
    }
}

impl fmt::Display for GreylistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "greylisted {} (new {}, early {}, restarted {}), passed {} (delay {}, known {}, wl {}, awl {})",
            self.total_greylisted(),
            self.greylisted_new,
            self.greylisted_early,
            self.greylisted_restarted,
            self.total_passed(),
            self.passed_after_delay,
            self.passed_known,
            self.passed_client_whitelist + self.passed_recipient_whitelist,
            self.passed_auto_whitelist,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = GreylistStats {
            greylisted_new: 5,
            greylisted_early: 2,
            greylisted_restarted: 1,
            passed_after_delay: 3,
            passed_known: 10,
            passed_client_whitelist: 4,
            passed_recipient_whitelist: 1,
            passed_auto_whitelist: 2,
        };
        assert_eq!(s.total_greylisted(), 8);
        assert_eq!(s.total_passed(), 20);
        assert_eq!(s.total(), 28);
        let rendered = s.to_string();
        assert!(rendered.contains("greylisted 8"));
        assert!(rendered.contains("passed 20"));
    }
}
