//! The anonymized greylist log: its record, its text form, and the
//! Fig. 5 analysis over it.
//!
//! The university dataset gives, per greylisted message, only the
//! timestamps of its delivery attempts and an opaque identity. This module
//! reconstructs what the paper plots from exactly that information:
//!
//! * the *delivery delay* of each eventually-accepted message — time from
//!   its first (deferred) attempt to its accepting attempt;
//! * per-message attempt counts and inter-attempt gaps;
//! * the set of messages that were never delivered (sender gave up).
//!
//! It also owns the log format. `spamward-mta`'s receiving server writes
//! [`LogRecord`]s; a record's `Display` is the one-line text form
//! (`"<secs>.<micros> <event> key=<hex>"`) and [`parse_log_line`] reads it
//! back, so a log written to disk is analyzed with no dependency on the
//! MTA crate.

use crate::cdf::Cdf;
use serde::{Deserialize, Serialize};
use spamward_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// What happened to one RCPT (or one completed message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogEvent {
    /// The RCPT was deferred by greylisting.
    Greylisted,
    /// The RCPT passed greylisting after the delay.
    PassedGreylist,
    /// The RCPT was exempt (whitelist/auto-whitelist).
    Whitelisted,
    /// A complete message was accepted and stored.
    Accepted,
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LogEvent::Greylisted => "greylisted",
            LogEvent::PassedGreylist => "passed",
            LogEvent::Whitelisted => "whitelisted",
            LogEvent::Accepted => "accepted",
        })
    }
}

/// One anonymized log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: LogEvent,
    /// Opaque hash of the greylist triplet — the only identity that
    /// survives anonymization.
    pub key: u64,
}

impl fmt::Display for LogRecord {
    /// The one-line text form, `"<secs>.<micros:06> <event> key=<hex:016>"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.at.as_micros();
        write!(f, "{}.{:06} {} key={:016x}", us / 1_000_000, us % 1_000_000, self.event, self.key)
    }
}

/// Why one log line could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogParseReason {
    /// The named whitespace-separated field is absent.
    MissingField(&'static str),
    /// The leading `<secs>.<micros>` timestamp is malformed.
    BadTimestamp,
    /// The event word is not one [`LogEvent`] renders.
    UnknownEvent,
    /// The trailing `key=<hex>` field is malformed.
    BadKey,
}

impl fmt::Display for LogParseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogParseReason::MissingField(name) => write!(f, "missing {name} field"),
            LogParseReason::BadTimestamp => write!(f, "malformed <secs>.<micros> timestamp"),
            LogParseReason::UnknownEvent => write!(f, "unknown event"),
            LogParseReason::BadKey => write!(f, "malformed key=<hex> field"),
        }
    }
}

/// A malformed log line: the typed rejection [`GreylistLogAnalysis::from_lines`]
/// and [`parse_log_line`] report instead of silently skipping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError {
    /// 1-based line number within the parsed text; 0 when a line was parsed
    /// outside a multi-line context.
    pub line_no: usize,
    /// The offending line, verbatim.
    pub line: String,
    /// What was wrong with it.
    pub reason: LogParseReason,
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log line {}: {} in {:?}", self.line_no, self.reason, self.line)
    }
}

impl std::error::Error for LogParseError {}

/// Parses one line of the text form a [`LogRecord`] renders, reporting
/// *why* a malformed line was rejected.
///
/// The timestamp must be ASCII digits, a point and exactly six digits of
/// microseconds, and must fit in a `u64` of microseconds. The returned
/// error carries `line_no: 0`; callers iterating a file fill in the
/// position.
pub fn parse_log_line(line: &str) -> Result<LogRecord, LogParseError> {
    let fail = |reason| LogParseError { line_no: 0, line: line.to_owned(), reason };
    let mut parts = line.split_whitespace();
    let ts = parts.next().ok_or_else(|| fail(LogParseReason::MissingField("timestamp")))?;
    let event = parts.next().ok_or_else(|| fail(LogParseReason::MissingField("event")))?;
    let key = parts
        .next()
        .and_then(|f| f.strip_prefix("key="))
        .ok_or_else(|| fail(LogParseReason::MissingField("key=")))?;
    let at = parse_timestamp(ts).ok_or_else(|| fail(LogParseReason::BadTimestamp))?;
    let event = match event {
        "greylisted" => LogEvent::Greylisted,
        "passed" => LogEvent::PassedGreylist,
        "whitelisted" => LogEvent::Whitelisted,
        "accepted" => LogEvent::Accepted,
        _ => return Err(fail(LogParseReason::UnknownEvent)),
    };
    let key = u64::from_str_radix(key, 16).map_err(|_| fail(LogParseReason::BadKey))?;
    Ok(LogRecord { at, event, key })
}

/// `<secs>.<micros>`, with no overflow and no short or long fraction.
fn parse_timestamp(ts: &str) -> Option<SimTime> {
    let (secs, micros) = ts.split_once('.')?;
    if secs.is_empty() || micros.len() != 6 {
        return None;
    }
    // With exactly six fraction digits, the digits read as one number are
    // the instant in microseconds.
    let us = secs.bytes().chain(micros.bytes()).try_fold(0u64, |us, b| {
        let digit = b.checked_sub(b'0').filter(|d| *d < 10)?;
        us.checked_mul(10)?.checked_add(u64::from(digit))
    })?;
    Some(SimTime::from_micros(us))
}

/// Per-message reconstruction from the anonymized log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageTimeline {
    /// The opaque identity.
    pub key: u64,
    /// Timestamps of every observed attempt, in order.
    pub attempts: Vec<SimTime>,
    /// When the message was finally accepted, if ever.
    pub accepted_at: Option<SimTime>,
}

impl MessageTimeline {
    /// Delay from first attempt to acceptance (the Fig. 5 quantity).
    pub fn delivery_delay(&self) -> Option<SimDuration> {
        let first = *self.attempts.first()?;
        Some(self.accepted_at?.elapsed_since(first))
    }

    /// Gaps between consecutive attempts (retry intervals of the sender).
    pub fn retry_gaps(&self) -> Vec<SimDuration> {
        self.attempts.windows(2).map(|w| w[1].elapsed_since(w[0])).collect()
    }
}

/// The Fig. 5 analyzer: feeds on log records, produces delay CDFs.
///
/// # Example
///
/// ```
/// use spamward_analysis::log::GreylistLogAnalysis;
///
/// let log = "\
/// 100.000000 greylisted key=00000000000000aa
/// 500.000000 passed key=00000000000000aa
/// 500.000000 accepted key=00000000000000aa
/// ";
/// let analysis = GreylistLogAnalysis::from_lines(log.lines()).expect("well-formed log");
/// assert_eq!(analysis.delivered().count(), 1);
/// let delays = analysis.delivery_delays();
/// assert_eq!(delays[0].as_secs(), 400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreylistLogAnalysis {
    timelines: BTreeMap<u64, MessageTimeline>,
}

impl GreylistLogAnalysis {
    /// Builds the analysis from records, in log order. Every record opens
    /// its key's timeline; deferred and passing attempts extend it and the
    /// first acceptance closes it.
    pub fn from_records(records: impl IntoIterator<Item = LogRecord>) -> Self {
        let mut timelines: BTreeMap<u64, MessageTimeline> = BTreeMap::new();
        for r in records {
            let tl = timelines.entry(r.key).or_insert_with(|| MessageTimeline {
                key: r.key,
                attempts: Vec::new(),
                accepted_at: None,
            });
            match r.event {
                LogEvent::Greylisted | LogEvent::PassedGreylist => tl.attempts.push(r.at),
                LogEvent::Accepted => {
                    if tl.accepted_at.is_none() {
                        tl.accepted_at = Some(r.at);
                    }
                }
                LogEvent::Whitelisted => {}
            }
        }
        GreylistLogAnalysis { timelines }
    }

    /// Builds the analysis from raw text lines, rejecting the first
    /// malformed line with a typed [`LogParseError`] (blank lines are
    /// allowed and skipped).
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, LogParseError> {
        let mut records = Vec::new();
        for (idx, line) in lines.into_iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record =
                parse_log_line(line).map_err(|e| LogParseError { line_no: idx + 1, ..e })?;
            records.push(record);
        }
        Ok(Self::from_records(records))
    }

    /// Number of distinct message identities seen.
    pub fn len(&self) -> usize {
        self.timelines.len()
    }

    /// Whether the log was empty.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }

    /// Timelines that ended in acceptance.
    pub fn delivered(&self) -> impl Iterator<Item = &MessageTimeline> {
        self.timelines.values().filter(|t| t.accepted_at.is_some())
    }

    /// Timelines whose sender gave up (greylisted, never accepted).
    pub fn abandoned(&self) -> impl Iterator<Item = &MessageTimeline> {
        self.timelines.values().filter(|t| t.accepted_at.is_none() && !t.attempts.is_empty())
    }

    /// Delivery delays of all delivered messages (unordered).
    pub fn delivery_delays(&self) -> Vec<SimDuration> {
        self.delivered().filter_map(MessageTimeline::delivery_delay).collect()
    }

    /// The delivery-delay CDF — Fig. 5 (or Fig. 3, fed with bot logs).
    pub fn delay_cdf(&self) -> Cdf {
        Cdf::from_durations(self.delivery_delays())
    }

    /// Fraction of messages whose senders gave up before delivery.
    pub fn abandonment_rate(&self) -> f64 {
        if self.timelines.is_empty() {
            return 0.0;
        }
        self.abandoned().count() as f64 / self.timelines.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(at_secs: u64, event: LogEvent, key: u64) -> LogRecord {
        LogRecord { at: SimTime::from_secs(at_secs), event, key }
    }

    #[test]
    fn line_roundtrip() {
        let r = LogRecord {
            at: SimTime::from_micros(1_234_567_890),
            event: LogEvent::Greylisted,
            key: 0xdead_beef_cafe_f00d,
        };
        let line = r.to_string();
        assert_eq!(line, "1234.567890 greylisted key=deadbeefcafef00d");
        assert_eq!(parse_log_line(&line), Ok(r));
    }

    #[test]
    fn parse_reads_every_event_word() {
        let r = parse_log_line("1234.567890 greylisted key=00000000000000ff").unwrap();
        assert_eq!(r.at, SimTime::from_micros(1_234_567_890));
        assert_eq!(r.event, LogEvent::Greylisted);
        assert_eq!(r.key, 0xff);
        let event = |l: &str| parse_log_line(l).unwrap().event;
        assert_eq!(event("1.000000 passed key=01"), LogEvent::PassedGreylist);
        assert_eq!(event("1.000000 whitelisted key=01"), LogEvent::Whitelisted);
        assert_eq!(event("1.000000 accepted key=01"), LogEvent::Accepted);
        assert!(parse_log_line("garbage").is_err());
    }

    #[test]
    fn reconstructs_delivery_delay() {
        let a = GreylistLogAnalysis::from_records(vec![
            rec(100, LogEvent::Greylisted, 1),
            rec(250, LogEvent::Greylisted, 1),
            rec(500, LogEvent::PassedGreylist, 1),
            rec(500, LogEvent::Accepted, 1),
        ]);
        let tl = a.delivered().next().unwrap();
        assert_eq!(tl.attempts.len(), 3);
        assert_eq!(tl.delivery_delay(), Some(SimDuration::from_secs(400)));
        assert_eq!(tl.retry_gaps(), vec![SimDuration::from_secs(150), SimDuration::from_secs(250)]);
    }

    #[test]
    fn distinguishes_abandoned() {
        let a = GreylistLogAnalysis::from_records(vec![
            rec(100, LogEvent::Greylisted, 1),
            rec(500, LogEvent::PassedGreylist, 1),
            rec(500, LogEvent::Accepted, 1),
            rec(200, LogEvent::Greylisted, 2), // never retried
        ]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.delivered().count(), 1);
        assert_eq!(a.abandoned().count(), 1);
        assert_eq!(a.abandonment_rate(), 0.5);
    }

    #[test]
    fn cdf_over_delays() {
        let a = GreylistLogAnalysis::from_records(vec![
            rec(0, LogEvent::Greylisted, 1),
            rec(300, LogEvent::Accepted, 1),
            rec(0, LogEvent::Greylisted, 2),
            rec(600, LogEvent::Accepted, 2),
        ]);
        let cdf = a.delay_cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.fraction_at_or_below(300.0), 0.5);
    }

    #[test]
    fn from_lines_rejects_malformed_with_position() {
        let text = "0.000000 greylisted key=01\n\nnot a line\n1.000000 accepted key=01\n";
        let err = GreylistLogAnalysis::from_lines(text.lines()).unwrap_err();
        assert_eq!(err.line_no, 3, "1-based, blank line still counted");
        assert_eq!(err.line, "not a line");
        assert_eq!(err.reason, LogParseReason::MissingField("key="));
        assert!(err.to_string().contains("log line 3"));

        let ok = GreylistLogAnalysis::from_lines("0.000000 greylisted key=01\n\n".lines())
            .expect("well-formed log parses");
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn parse_reports_reasons() {
        let reason = |l: &str| parse_log_line(l).unwrap_err().reason;
        assert_eq!(reason(""), LogParseReason::MissingField("timestamp"));
        assert_eq!(reason("1.000000"), LogParseReason::MissingField("event"));
        assert_eq!(reason("1.000000 accepted"), LogParseReason::MissingField("key="));
        assert_eq!(reason("1.000000 accepted id=01"), LogParseReason::MissingField("key="));
        assert_eq!(reason("1 accepted key=01"), LogParseReason::BadTimestamp);
        assert_eq!(reason("x.000000 accepted key=01"), LogParseReason::BadTimestamp);
        assert_eq!(reason("1.000000 unknown-rcpt key=01"), LogParseReason::UnknownEvent);
        assert_eq!(reason("1.000000 accepted key=zz"), LogParseReason::BadKey);
        assert!(parse_log_line("1.000000 accepted key=01").is_ok());
    }

    #[test]
    fn timestamps_are_exact_and_never_overflow() {
        let reason = |l: &str| parse_log_line(l).unwrap_err().reason;
        // Seconds that overflow a u64 of microseconds.
        assert_eq!(
            reason("18446744073709551615.000000 greylisted key=01"),
            LogParseReason::BadTimestamp
        );
        assert_eq!(reason("18446744073709.551616 greylisted key=01"), LogParseReason::BadTimestamp);
        // A fraction that is not exactly six digits of microseconds.
        assert_eq!(reason("1.5 greylisted key=01"), LogParseReason::BadTimestamp);
        assert_eq!(reason("1.1234567 greylisted key=01"), LogParseReason::BadTimestamp);
        // Signs and empty parts are not digits.
        assert_eq!(reason("+1.000000 greylisted key=01"), LogParseReason::BadTimestamp);
        assert_eq!(reason("1.+00000 greylisted key=01"), LogParseReason::BadTimestamp);
        assert_eq!(reason(".000000 greylisted key=01"), LogParseReason::BadTimestamp);
        // The largest representable instant still parses.
        let last = parse_log_line("18446744073709.551615 accepted key=01").unwrap();
        assert_eq!(last.at, SimTime::from_micros(u64::MAX));
    }

    #[test]
    fn accepted_without_attempts_has_no_delay() {
        // Whitelisted mail is accepted with no greylist attempt records.
        let a = GreylistLogAnalysis::from_records(vec![rec(50, LogEvent::Accepted, 9)]);
        assert_eq!(a.delivered().count(), 1);
        assert!(a.delivery_delays().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No line, however damaged, panics the parser, and a line it
        /// accepts renders back to a line that parses to the same record.
        /// Each field is well-formed about half the time, so both outcomes
        /// are common; 14-digit seconds often overflow the microseconds.
        #[test]
        fn prop_arbitrary_lines_never_panic(
            secs in "([0-9]{1,14}|[0-9+]{0,22})",
            micros in "([0-9]{6}|[0-9+]{0,8})",
            event in "(greylisted|passed|whitelisted|accepted|[a-z-]{0,12})",
            key in "([0-9a-f]{1,16}|[0-9a-fz+]{0,18})",
            noise in "\\PC{0,40}",
        ) {
            let shaped = format!("{secs}.{micros} {event} key={key}");
            for line in [shaped.as_str(), noise.as_str()] {
                if let Ok(record) = parse_log_line(line) {
                    prop_assert_eq!(parse_log_line(&record.to_string()), Ok(record));
                }
            }
        }
    }
}
