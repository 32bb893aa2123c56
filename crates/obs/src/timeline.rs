//! Timeline of causally-linked span events, and its Chrome-trace renderer.
//!
//! A [`Timeline`] holds the lifecycle of individual messages — campaign
//! emit → DNS → connect → greylist decision → retry → delivery — as named
//! instant events on per-message *tracks*, in virtual time. It is a plain
//! list: whoever fills it bounds it (the mail world renders one from its
//! bounded event record at export time).
//!
//! The export format is Chrome trace-event JSON (`to_chrome_trace`), the
//! schema read by `chrome://tracing` and Perfetto: each track becomes a
//! named thread, each event an instant (`"ph":"i"`) on that thread at its
//! virtual-time microsecond offset. Events are sorted and tracks numbered
//! deterministically, so the rendered bytes are a pure function of the
//! recorded events regardless of shard merge order.

use crate::registry::json_str;
use spamward_sim::SimTime;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One recorded instant event on a timeline track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Event name (a `timeline.*` constant; rule O1 keeps literals out of
    /// call sites).
    pub name: String,
    /// Track the event belongs to — one track per message lifecycle.
    pub track: String,
    /// Free-form detail rendered into the trace `args`.
    pub detail: String,
}

/// A deterministic list of [`TimelineEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends an instant event.
    pub fn record_event(&mut self, name: &str, at: SimTime, track: &str, detail: String) {
        self.events.push(TimelineEvent {
            at,
            name: name.to_owned(),
            track: track.to_owned(),
            detail,
        });
    }

    /// Appends every event of `other`.
    pub fn merge(&mut self, other: &Timeline) {
        self.events.extend_from_slice(&other.events);
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimelineEvent> {
        self.events.iter()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders Chrome trace-event JSON (the Perfetto / `chrome://tracing`
    /// format): one process, one named thread per track, one instant event
    /// per record, `ts` in virtual-time microseconds.
    ///
    /// Events are sorted by `(at, track, name, detail)` and threads are
    /// numbered by sorted track name, so the bytes do not depend on the
    /// order shard timelines were merged in.
    pub fn to_chrome_trace(&self) -> String {
        let mut sorted: Vec<&TimelineEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| {
            (a.at, &a.track, &a.name, &a.detail).cmp(&(b.at, &b.track, &b.name, &b.detail))
        });
        let tracks: BTreeSet<&str> = sorted.iter().map(|e| e.track.as_str()).collect();
        let tid_of = |track: &str| tracks.range(..=track).count();

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (tid, track) in tracks.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                tid + 1,
                json_str(track)
            );
        }
        for event in sorted {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\
                 \"tid\":{},\"s\":\"t\",\"args\":{{\"detail\":{}}}}}",
                json_str(&event.name),
                event.at.as_micros(),
                tid_of(&event.track),
                json_str(&event.detail)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn chrome_trace_bytes_ignore_merge_order() {
        let mut a = Timeline::new();
        a.record_event("timeline.emit", t(1), "msg-a", "first".to_owned());
        let mut b = Timeline::new();
        b.record_event("timeline.emit", t(1), "msg-b", "first".to_owned());
        b.record_event("timeline.deliver", t(9), "msg-b", "done".to_owned());

        let mut ab = Timeline::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Timeline::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.to_chrome_trace(), ba.to_chrome_trace());
    }

    #[test]
    fn chrome_trace_shape_is_pinned() {
        let mut tl = Timeline::new();
        tl.record_event("timeline.emit", t(1), "msg-1", "first attempt".to_owned());
        assert_eq!(
            tl.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"msg-1\"}},\
             {\"name\":\"timeline.emit\",\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":1000000,\
             \"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"detail\":\"first attempt\"}}]}"
        );
        assert_eq!(
            Timeline::new().to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
