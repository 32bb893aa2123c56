//! Round-trip properties of the anonymized log format.
//!
//! `spamward-analysis` owns the format: a [`LogRecord`]'s `Display` renders
//! the line a receiving MTA's `log_text()` writes, and [`parse_log_line`]
//! reads it back. These properties pin the wire format across every
//! [`LogEvent`] variant.

use proptest::prelude::*;
use spamward::analysis::log::{parse_log_line, GreylistLogAnalysis, LogEvent, LogRecord};
use spamward::sim::SimTime;

const ALL_EVENTS: [LogEvent; 4] =
    [LogEvent::Greylisted, LogEvent::PassedGreylist, LogEvent::Whitelisted, LogEvent::Accepted];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// render → parse is the identity, for every variant and arbitrary
    /// timestamps/keys.
    #[test]
    fn prop_log_line_roundtrips(
        micros in 0u64..=u64::MAX / 2,
        hash in any::<u64>(),
        event_idx in 0usize..4,
    ) {
        let record = LogRecord {
            at: SimTime::from_micros(micros),
            event: ALL_EVENTS[event_idx],
            key: hash,
        };
        let line = record.to_string();
        let parsed = parse_log_line(&line).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(parsed, record);
    }

    /// Damaging any single field of a rendered line makes the parser reject
    /// it with a typed error (never a silent skip).
    #[test]
    fn prop_damaged_lines_are_rejected_typed(
        micros in 0u64..=u64::MAX / 2,
        hash in any::<u64>(),
        event_idx in 0usize..4,
    ) {
        let record = LogRecord {
            at: SimTime::from_micros(micros),
            event: ALL_EVENTS[event_idx],
            key: hash,
        };
        let line = record.to_string();
        let mut fields: Vec<&str> = line.split(' ').collect();
        prop_assert_eq!(fields.len(), 3);

        // Break the timestamp.
        let ts = fields[0].replace('.', "x");
        fields[0] = &ts;
        prop_assert!(parse_log_line(&fields.join(" ")).is_err());
        fields[0] = &line[..line.find(' ').unwrap()];

        // Break the key.
        let damaged = line.replace("key=", "key=zz");
        prop_assert!(parse_log_line(&damaged).is_err());

        // Drop the key field entirely.
        let truncated = fields[..2].join(" ");
        prop_assert!(parse_log_line(&truncated).is_err());
        prop_assert!(GreylistLogAnalysis::from_lines(truncated.lines()).is_err());
    }
}

/// Non-property cross-check: a multi-line log carrying every variant feeds
/// the analyzer and reconstructs the expected timeline.
#[test]
fn full_event_log_feeds_analyzer() {
    let lines: Vec<String> = ALL_EVENTS
        .iter()
        .enumerate()
        .map(|(i, &event)| {
            LogRecord { at: SimTime::from_secs(100 * (i as u64 + 1)), event, key: 1 }.to_string()
        })
        .collect();
    let text = lines.join("\n");
    let analysis = GreylistLogAnalysis::from_lines(text.lines()).expect("all variants parse");
    assert_eq!(analysis.len(), 1);
    let delivered: Vec<_> = analysis.delivered().collect();
    assert_eq!(delivered.len(), 1);
    // Greylisted (t=100) then accepted (t=400): a 300 s delivery delay.
    assert_eq!(delivered[0].delivery_delay().map(|d| d.as_secs()), Some(300));
}
