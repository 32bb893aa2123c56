//! Metrics, distributions and rendering for the `spamward` experiments.
//!
//! Every figure in the paper is a distribution or a scatter, and every
//! table is rows of formatted durations and counts. This crate provides the
//! shared machinery:
//!
//! * [`Cdf`] — empirical CDFs (Figs. 3 and 5 are delivery-delay CDFs).
//! * [`Histogram`] — linear- or log-binned counts (Fig. 4's peaks).
//! * [`Table`] — the typed table every `repro` subcommand prints, with
//!   canonical CSV/JSON rendering for the experiment harness
//!   ([`AsciiTable`] remains as an alias).
//! * [`Series`] — CSV/JSON series for external plotting.
//! * [`json`] — canonical JSON primitives shared by all report serializers.
//! * [`reduce`] — order-pinned f64 reduction ([`reduce::ordered_sum`]);
//!   the only sanctioned way to fold floats in experiment code (lint `C2`).
//! * [`log`] — the anonymized greylist log: its record
//!   ([`log::LogRecord`], which `spamward-mta`'s receiving server writes),
//!   its one-line text form and one parser, and the analyzer that
//!   reconstructs per-triplet delivery delays (the paper's
//!   university-deployment methodology behind Fig. 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
pub mod ci;
mod hist;
pub mod json;
pub mod log;
pub mod plot;
pub mod reduce;
mod series;
mod table;

pub use cdf::Cdf;
pub use hist::Histogram;
pub use series::Series;
pub use table::{AsciiTable, Table};

use spamward_sim::SimDuration;

/// Formats a duration as Table III's `min:sec` notation (e.g. `434:46`).
pub fn fmt_min_sec(d: SimDuration) -> String {
    let total = d.as_secs();
    format!("{}:{:02}", total / 60, total % 60)
}

/// Parses Table III's `min:sec` notation back into a duration.
pub fn parse_min_sec(s: &str) -> Option<SimDuration> {
    let (m, sec) = s.split_once(':')?;
    let m: u64 = m.trim().parse().ok()?;
    let sec: u64 = sec.trim().parse().ok()?;
    if sec >= 60 {
        return None;
    }
    Some(SimDuration::from_secs(m * 60 + sec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_sec_roundtrip() {
        let d = SimDuration::from_secs(434 * 60 + 46);
        assert_eq!(fmt_min_sec(d), "434:46");
        assert_eq!(parse_min_sec("434:46"), Some(d));
        assert_eq!(fmt_min_sec(SimDuration::from_secs(62)), "1:02");
    }

    #[test]
    fn parse_min_sec_rejects_bad_input() {
        assert_eq!(parse_min_sec("nope"), None);
        assert_eq!(parse_min_sec("1:99"), None);
        assert_eq!(parse_min_sec("1:xx"), None);
    }
}
