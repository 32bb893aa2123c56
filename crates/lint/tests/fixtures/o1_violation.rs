//! O1 fixture: metric and trace name literals bound outside the crate's
//! `metrics.rs`/`obs` module, and an eager `format!` trace detail.

pub fn export(reg: &mut Registry, stats: &Stats) {
    reg.record_counter("smtp.server.commands", stats.commands);
    reg.record_gauge("greylist.store.size", stats.store as i64);
    reg.record_histogram("mta.send.delivery_delay_s", &stats.delays);
    reg.record_span("smtp.wire.exchange", &stats.exchange);
}

pub fn note(trace: &mut Tracer, now: SimTime, stats: &Stats) {
    trace.record(now, "smtp.reject", "550 no such user".to_string());
    trace.record(now, TRACE_SMTP_REJECT, format!("550 no such user {}", stats.commands));
}

pub fn sample(samples: &mut TimeSeries, timeline: &mut Timeline, now: SimTime) {
    samples.record_point("obs.sample.recv.accepted", now, 1);
    timeline.record_event("timeline.emit", now, "msg-1", String::new());
}
