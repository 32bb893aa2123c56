//! O1 fixture (clean): names flow through constants from the crate's
//! metrics module; single-argument record() calls carry no category; trace
//! details are lazy.

use crate::metrics::{RECV_COMMANDS, STORE_SIZE, TRACE_SMTP_REJECT};

pub fn export(reg: &mut Registry, stats: &Stats) {
    reg.record_counter(RECV_COMMANDS, stats.commands);
    reg.record_gauge(STORE_SIZE, stats.store as i64);
    reg.record_span(crate::metrics::SPAN_EXCHANGE, &stats.exchange);
}

pub fn note(trace: &mut Tracer, now: SimTime, span: &mut SpanStats, d: SimDuration) {
    trace.record(now, TRACE_SMTP_REJECT, "550 no such user".to_string());
    trace.record(now, TRACE_SMTP_REJECT, format_args!("550 no such user {}", d));
    span.record(d);
}

pub fn sample(samples: &mut TimeSeries, timeline: &mut Timeline, now: SimTime) {
    samples.record_point(crate::metrics::SAMPLE_RECV_ACCEPTED, now, 1);
    timeline.record_event(crate::metrics::TL_EMIT, now, "msg-1", String::new());
}
