//! OpenMetrics text rendering of a [`Registry`].
//!
//! The simulator's canonical renderings (`Registry::to_text`/`to_csv`/
//! `to_json`) are internal formats pinned byte-for-byte by golden tests.
//! This module renders the *interchange* format instead: the OpenMetrics
//! text exposition understood by Prometheus scrapers, so the registry of a
//! run — and, later, of the real SMTP front end the roadmap plans — can be
//! pasted straight into standard tooling.
//!
//! The rendering is as deterministic as every other one in this crate:
//! metric order is registry (name) order, names are sanitised with a pure
//! character map, and all arithmetic is integral.

use crate::registry::{MetricValue, Registry};
use std::fmt::Write as _;

/// Renders `reg` in OpenMetrics text exposition format, terminated by the
/// mandatory `# EOF` marker.
///
/// Dotted registry names become underscore-joined OpenMetrics names
/// (`smtp.command.total` → `smtp_command_total`); counters gain the
/// conventional `_total` suffix, and histograms render cumulative
/// `_bucket{le=...}` rows plus `_count`/`_sum`.
pub fn to_openmetrics(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in reg.iter() {
        let om = sanitize(name);
        match value {
            MetricValue::Counter(v) => {
                // OpenMetrics counter families carry the `_total` suffix on
                // the sample, not the family name.
                let family = om.strip_suffix("_total").unwrap_or(&om);
                let _ = writeln!(out, "# TYPE {family} counter");
                let _ = writeln!(out, "{family}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {om} gauge");
                let _ = writeln!(out, "{om} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {om} histogram");
                let mut cumulative = 0u64;
                for (bound, n) in h.bounds().iter().zip(h.counts()) {
                    cumulative += *n;
                    let _ = writeln!(out, "{om}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{om}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{om}_count {}", h.count());
                let _ = writeln!(out, "{om}_sum {}", h.sum());
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Maps a dotted registry name onto the OpenMetrics name charset
/// (`[a-zA-Z0-9_]`, not starting with a digit).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;

    #[test]
    fn exposition_format_is_pinned() {
        let mut reg = Registry::new();
        reg.record_counter("smtp.command.total", 12);
        reg.record_gauge("greylist.store.size", 3);
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(500);
        reg.record_histogram("mta.retry.delay_s", h);

        assert_eq!(
            to_openmetrics(&reg),
            "# TYPE greylist_store_size gauge\n\
             greylist_store_size 3\n\
             # TYPE mta_retry_delay_s histogram\n\
             mta_retry_delay_s_bucket{le=\"10\"} 1\n\
             mta_retry_delay_s_bucket{le=\"100\"} 1\n\
             mta_retry_delay_s_bucket{le=\"+Inf\"} 2\n\
             mta_retry_delay_s_count 2\n\
             mta_retry_delay_s_sum 505\n\
             # TYPE smtp_command counter\n\
             smtp_command_total 12\n\
             # EOF\n"
        );
    }

    #[test]
    fn empty_registry_renders_just_the_eof_marker() {
        assert_eq!(to_openmetrics(&Registry::new()), "# EOF\n");
    }

    #[test]
    fn names_outside_the_charset_are_mapped_to_underscores() {
        let mut reg = Registry::new();
        reg.record_counter("9sim.engine.shard.0.events", 1);
        assert!(to_openmetrics(&reg).contains("_sim_engine_shard_0_events_total 1"));
    }
}
