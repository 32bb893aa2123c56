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
use spamward_sim::{SimDuration, SimTime};
use std::fmt;

/// What happened to one RCPT (or one completed message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Per-message reconstruction from the anonymized log: what Fig. 5 reads
/// of one identity's records, kept compact (no list of attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTimeline {
    /// The opaque identity.
    pub key: u64,
    /// When the first deferred or passing attempt happened, taken in log
    /// order (not the earliest instant).
    pub first_attempt: Option<SimTime>,
    /// Deferred and passing attempts observed.
    pub attempts: u32,
    /// When the message was first accepted, in log order, if ever.
    pub accepted_at: Option<SimTime>,
}

impl MessageTimeline {
    /// The timeline of `record` alone.
    fn of(record: &LogRecord) -> Self {
        let mut timeline = MessageTimeline {
            key: record.key,
            first_attempt: None,
            attempts: 0,
            accepted_at: None,
        };
        timeline.record(record);
        timeline
    }

    /// Folds in the next record of this identity, in log order: deferred
    /// and passing attempts count (the first one opens the delay), the
    /// first acceptance closes it.
    fn record(&mut self, record: &LogRecord) {
        match record.event {
            LogEvent::Greylisted | LogEvent::PassedGreylist => {
                self.first_attempt.get_or_insert(record.at);
                self.attempts = self.attempts.saturating_add(1);
            }
            LogEvent::Accepted => {
                self.accepted_at.get_or_insert(record.at);
            }
            LogEvent::Whitelisted => {}
        }
    }

    /// Continues this timeline with `later`: the same identity's timeline
    /// over records that follow this one's in log order.
    fn extend(&mut self, later: &MessageTimeline) {
        self.first_attempt = self.first_attempt.or(later.first_attempt);
        self.attempts = self.attempts.saturating_add(later.attempts);
        self.accepted_at = self.accepted_at.or(later.accepted_at);
    }

    /// Delay from first attempt to acceptance (the Fig. 5 quantity);
    /// `None` without both, or when a log read from outside times the
    /// acceptance before the first attempt.
    pub fn delivery_delay(&self) -> Option<SimDuration> {
        self.accepted_at?.checked_elapsed_since(self.first_attempt?)
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
    /// One timeline per key, in key order.
    timelines: Vec<MessageTimeline>,
}

impl GreylistLogAnalysis {
    /// Builds the analysis from records, in log order. Every record opens
    /// its key's timeline; deferred and passing attempts extend it and the
    /// first acceptance closes it. The records are read once and never
    /// stored: what is kept is one compact timeline per key.
    pub fn from_records(records: impl IntoIterator<Item = LogRecord>) -> Self {
        let mut timelines: Vec<MessageTimeline> = Vec::new();
        for record in records {
            match timelines.last_mut() {
                // A sender's records mostly sit together in a log, so most
                // records continue the last timeline.
                Some(last) if last.key == record.key => last.record(&record),
                _ => {
                    if timelines.len() == timelines.capacity() {
                        // Fold repeated keys before growing, so an
                        // interleaved log keeps a few timelines per key,
                        // not one per record; grow when that frees less
                        // than half, so each fold is paid for by as many
                        // records as it keeps.
                        fold_keys(&mut timelines);
                        timelines.reserve(timelines.len());
                    }
                    timelines.push(MessageTimeline::of(&record));
                }
            }
        }
        fold_keys(&mut timelines);
        timelines.shrink_to_fit();
        GreylistLogAnalysis { timelines }
    }

    /// Builds the analysis from raw text lines, rejecting the first
    /// malformed line with a typed [`LogParseError`] (blank lines are
    /// allowed and skipped).
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, LogParseError> {
        // Records stream into the analysis as they parse; the first bad
        // line ends the stream and is reported.
        let mut error = None;
        let records =
            lines.into_iter().enumerate().filter(|(_, line)| !line.trim().is_empty()).map_while(
                |(idx, line)| {
                    parse_log_line(line)
                        .map_err(|e| error = Some(LogParseError { line_no: idx + 1, ..e }))
                        .ok()
                },
            );
        let analysis = Self::from_records(records);
        error.map_or(Ok(analysis), Err)
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
        self.timelines.iter().filter(|t| t.accepted_at.is_some())
    }

    /// Timelines whose sender gave up (greylisted, never accepted).
    pub fn abandoned(&self) -> impl Iterator<Item = &MessageTimeline> {
        self.timelines.iter().filter(|t| t.accepted_at.is_none() && t.attempts > 0)
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

impl FromIterator<GreylistLogAnalysis> for GreylistLogAnalysis {
    /// Joins the analyses of consecutive parts of one log, given in log
    /// order: the result is [`GreylistLogAnalysis::from_records`] over the
    /// parts' records concatenated. The parts' key-ordered timelines merge
    /// into one list of exactly their length, and a key's timelines fold
    /// in part order.
    fn from_iter<I: IntoIterator<Item = GreylistLogAnalysis>>(parts: I) -> Self {
        let parts: Vec<Vec<MessageTimeline>> = parts.into_iter().map(|p| p.timelines).collect();
        let mut timelines: Vec<MessageTimeline> =
            Vec::with_capacity(parts.iter().map(Vec::len).sum());
        let mut next = vec![0; parts.len()];
        // The smallest next key, the earliest part's on a tie.
        let smallest = |next: &[usize]| {
            (0..parts.len())
                .filter(|&p| next[p] < parts[p].len())
                .min_by_key(|&p| parts[p][next[p]].key)
        };
        while let Some(p) = smallest(&next) {
            let timeline = parts[p][next[p]];
            next[p] += 1;
            match timelines.last_mut() {
                Some(last) if last.key == timeline.key => last.extend(&timeline),
                _ => timelines.push(timeline),
            }
        }
        GreylistLogAnalysis { timelines }
    }
}

/// Sorts `timelines` by key, keeping the order of equal keys, and folds
/// each key's timelines into the first in that order: log order, when
/// they were pushed as their records came.
fn fold_keys(timelines: &mut Vec<MessageTimeline>) {
    timelines.sort_by_key(|t| t.key);
    timelines.dedup_by(|later, earlier| {
        let same = later.key == earlier.key;
        if same {
            earlier.extend(later);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        assert_eq!(tl.attempts, 3);
        assert_eq!(tl.first_attempt, Some(SimTime::from_secs(100)));
        assert_eq!(tl.delivery_delay(), Some(SimDuration::from_secs(400)));
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

    #[test]
    fn acceptance_timed_before_the_first_attempt_has_no_delay() {
        let log = "100.000000 greylisted key=01\n50.000000 accepted key=01";
        let a = GreylistLogAnalysis::from_lines(log.lines()).expect("well-formed log");
        assert_eq!(a.delivered().count(), 1);
        assert_eq!(a.delivered().next().and_then(MessageTimeline::delivery_delay), None);
        assert!(a.delivery_delays().is_empty());
        assert!(a.delay_cdf().is_empty());
    }

    /// The analysis as it was built before timelines were compacted: a
    /// `Vec` of every attempt instant per key, in log order, and the first
    /// acceptance. The oracle for the compact fold.
    fn reference(records: &[LogRecord]) -> BTreeMap<u64, (Vec<SimTime>, Option<SimTime>)> {
        let mut timelines: BTreeMap<u64, (Vec<SimTime>, Option<SimTime>)> = BTreeMap::new();
        for r in records {
            let (attempts, accepted_at) = timelines.entry(r.key).or_default();
            match r.event {
                LogEvent::Greylisted | LogEvent::PassedGreylist => attempts.push(r.at),
                LogEvent::Accepted => {
                    if accepted_at.is_none() {
                        *accepted_at = Some(r.at);
                    }
                }
                LogEvent::Whitelisted => {}
            }
        }
        timelines
    }

    /// Asserts that `analysis` reads like the reference over `records`.
    fn assert_matches_reference(
        analysis: &GreylistLogAnalysis,
        records: &[LogRecord],
    ) -> Result<(), TestCaseError> {
        let reference = reference(records);
        prop_assert_eq!(analysis.len(), reference.len());
        let delivered: Vec<(u64, u32, Option<SimDuration>)> = reference
            .iter()
            .filter(|(_, (_, accepted_at))| accepted_at.is_some())
            .map(|(&key, (attempts, accepted_at))| {
                let delay = attempts
                    .first()
                    .zip(*accepted_at)
                    .and_then(|(&f, a)| a.checked_elapsed_since(f));
                (key, attempts.len() as u32, delay)
            })
            .collect();
        let got: Vec<_> =
            analysis.delivered().map(|t| (t.key, t.attempts, t.delivery_delay())).collect();
        prop_assert_eq!(got, delivered.clone());
        let abandoned: Vec<u64> = reference
            .iter()
            .filter(|(_, (attempts, accepted_at))| accepted_at.is_none() && !attempts.is_empty())
            .map(|(&key, _)| key)
            .collect();
        prop_assert_eq!(analysis.abandoned().map(|t| t.key).collect::<Vec<_>>(), abandoned.clone());
        let delays: Vec<SimDuration> = delivered.iter().filter_map(|&(_, _, d)| d).collect();
        prop_assert_eq!(analysis.delivery_delays(), delays);
        let rate = if reference.is_empty() {
            0.0
        } else {
            abandoned.len() as f64 / reference.len() as f64
        };
        prop_assert_eq!(analysis.abandonment_rate(), rate);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The compact fold reads every log like the per-key attempt lists
        /// did: keys interleave or repeat in runs, instants run out of
        /// order, keys are accepted more than once, and key 5 is only ever
        /// whitelisted. An accept may be timed before its key's first
        /// attempt, which yields no delay. A log cut anywhere into three
        /// parts, their analyses joined, reads like the whole log.
        #[test]
        fn prop_compact_fold_matches_the_attempt_lists(
            draws in proptest::collection::vec((0u64..8, 0usize..4, 0u64..10_000), 0..48),
            split in 0usize..49,
            second_split in 0usize..49,
        ) {
            let mut records = Vec::with_capacity(draws.len());
            let mut key = 0;
            for (pick, event, secs) in draws {
                // Picks 6 and 7 repeat the previous key, making runs.
                if pick < 6 {
                    key = pick;
                }
                let event = match event {
                    _ if key == 5 => LogEvent::Whitelisted,
                    0 => LogEvent::Greylisted,
                    1 => LogEvent::PassedGreylist,
                    2 => LogEvent::Whitelisted,
                    _ => LogEvent::Accepted,
                };
                records.push(rec(secs, event, 0xfeed_0000 + key));
            }
            let analysis = GreylistLogAnalysis::from_records(records.iter().copied());
            assert_matches_reference(&analysis, &records)?;

            let (head, rest) = records.split_at(split.min(records.len()));
            let (middle, tail) = rest.split_at(second_split.min(rest.len()));
            let joined: GreylistLogAnalysis = [head, middle, tail]
                .into_iter()
                .map(|part| GreylistLogAnalysis::from_records(part.iter().copied()))
                .collect();
            assert_matches_reference(&joined, &records)?;
        }

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
