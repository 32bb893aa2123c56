//! The world's event record: one typed entry per delivery fact.
//!
//! The delivery path, the crash lifecycle and the fault timer record
//! [`WorldEvent`]s into the world's bounded [`EventLog`]; nothing is
//! rendered while the world runs. `--trace` lines ([`EventLog::lines`])
//! and `--timeline` tracks ([`EventLog::timeline`]) are views built when
//! someone reads the record.

use crate::metrics::{
    TL_CONNECT, TL_DELIVER, TL_DNS, TL_EMIT, TL_GREYLIST_DEFER, TL_GREYLIST_PASS, TL_MTA_CRASH,
    TL_MTA_RESTART, TL_REJECT, TL_RETRY, TRACE_DNS_FAIL, TRACE_DNS_MX, TRACE_FAULT, TRACE_NET_FAIL,
    TRACE_SMTP_OUTCOME,
};
use crate::receive::CrashTransition;
use crate::world::ConnectFailure;
use spamward_dns::{DomainName, ResolveError};
use spamward_net::SmtpAbortKind;
use spamward_obs::Timeline;
use spamward_sim::SimTime;
use spamward_smtp::{DeliveryOutcome, Envelope};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;

/// One fact about a world's delivery activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// A delivery attempt for this envelope began.
    Attempt(Envelope),
    /// The attempt's MX lookup: the exchanger count, or why it failed.
    MxLookup {
        /// The destination domain.
        domain: DomainName,
        /// Exchangers found, or the resolver's error.
        result: Result<usize, ResolveError>,
    },
    /// Something happened at one exchanger the attempt tried.
    Exchanger {
        /// The exchanger's name.
        mx: DomainName,
        /// Its address.
        ip: Ipv4Addr,
        /// What happened there.
        what: AtExchanger,
    },
    /// The SMTP session ran to an outcome.
    Session {
        /// The envelope the session carried.
        envelope: Envelope,
        /// The exchanger it ran against.
        mx: DomainName,
        /// How it ended.
        outcome: DeliveryOutcome,
    },
    /// A fault window opened or closed.
    FaultEdge,
    /// A receiving MTA crashed or restarted.
    Crash {
        /// The server's hostname.
        host: String,
        /// Which edge fired, with its recovery figures.
        transition: CrashTransition,
    },
}

/// What happened at one exchanger of an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtExchanger {
    /// No SMTP session: the connect failed, or no MTA was listening.
    ConnectFailed(ConnectFailure),
    /// The TCP connection was established.
    Connected,
    /// An injected fault killed the session after the handshake.
    Aborted(SmtpAbortKind),
    /// A crash at this instant cut the session mid-dialogue.
    CrashCut(SimTime),
}

impl fmt::Display for AtExchanger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtExchanger::ConnectFailed(failure) => write!(f, "{failure}"),
            AtExchanger::Connected => f.write_str("connected"),
            AtExchanger::Aborted(kind) => f.write_str(match kind {
                SmtpAbortKind::Shutdown421 => "421 service shutting down",
                SmtpAbortKind::DropAfterData => "connection dropped after DATA",
                SmtpAbortKind::Tarpit => "tarpitted",
            }),
            AtExchanger::CrashCut(at) => write!(f, "session dropped by crash at {at}"),
        }
    }
}

impl fmt::Display for CrashTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashTransition::Crashed { entries_in_memory } => {
                write!(f, "crashed; {entries_in_memory} greylist entries in memory")
            }
            CrashTransition::Restarted { restored, replayed, torn, lost } => write!(
                f,
                "restarted; restored {restored} from checkpoint, \
                 replayed {replayed} wal records ({torn} torn), lost {lost}"
            ),
        }
    }
}

/// A bounded, typed record of [`WorldEvent`]s, off unless enabled.
///
/// Once [`EventLog::CAPACITY`] events are held, each new one drops the
/// oldest and [`EventLog::dropped`] counts it: the tail of a run is
/// usually the interesting part.
#[derive(Debug, Default)]
pub struct EventLog {
    events: VecDeque<(SimTime, WorldEvent)>,
    enabled: bool,
    dropped: u64,
}

impl EventLog {
    /// The most events a log holds.
    pub const CAPACITY: usize = 65_536;

    /// An enabled, empty log.
    pub fn enabled() -> Self {
        EventLog { enabled: true, ..EventLog::default() }
    }

    /// Records the event `event` builds at `at`. A disabled log never
    /// calls `event`, so an untraced world builds and formats nothing.
    pub fn record(&mut self, at: SimTime, event: impl FnOnce() -> WorldEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == Self::CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event()));
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The `--trace` view: one `[<time>] <category>: <detail>` line per
    /// traced event, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.events.iter().filter_map(|(at, event)| {
            let (category, detail) = match event {
                WorldEvent::Attempt(_) => return None,
                WorldEvent::MxLookup { domain, result: Ok(n) } => {
                    (TRACE_DNS_MX, format!("{domain}: {n} exchanger(s)"))
                }
                WorldEvent::MxLookup { domain, result: Err(e) } => {
                    (TRACE_DNS_FAIL, format!("{domain}: {e}"))
                }
                WorldEvent::Exchanger { mx, ip, what } => {
                    let category = match what {
                        AtExchanger::Connected => return None,
                        AtExchanger::ConnectFailed(ConnectFailure::Network(_)) => TRACE_NET_FAIL,
                        _ => TRACE_FAULT,
                    };
                    (category, format!("{mx} ({ip}): {what}"))
                }
                WorldEvent::Session { envelope, mx, outcome } => {
                    (TRACE_SMTP_OUTCOME, format!("{envelope} via {mx}: {outcome}"))
                }
                WorldEvent::FaultEdge => (TRACE_FAULT, "fault window boundary".to_owned()),
                WorldEvent::Crash { host, transition } => {
                    (TRACE_FAULT, format!("{host}: {transition}"))
                }
            };
            Some(format!("[{at}] {category}: {detail}"))
        })
    }

    /// The `--timeline` view: one track per message (its envelope) and
    /// per crashing host, each named `scope/...` when `scope` is not
    /// empty. An envelope's first attempt is its *emit* and each later
    /// one a *retry*; a delivery after a defer on the same track adds a
    /// *pass*. Both are read off the event order.
    pub fn timeline(&self, scope: &str) -> Timeline {
        let prefix = if scope.is_empty() { String::new() } else { format!("{scope}/") };
        let mut timeline = Timeline::new();
        // Per message track: attempts so far, and whether one was deferred.
        let mut seen: BTreeMap<String, (u32, bool)> = BTreeMap::new();
        let mut track = String::new();
        for &(at, ref event) in &self.events {
            match event {
                WorldEvent::Attempt(envelope) => {
                    track = format!("{prefix}{envelope}");
                    let attempts = &mut seen.entry(track.clone()).or_default().0;
                    *attempts += 1;
                    if *attempts == 1 {
                        timeline.record_event(TL_EMIT, at, &track, "first attempt".to_owned());
                    } else {
                        timeline.record_event(TL_RETRY, at, &track, format!("attempt {attempts}"));
                    }
                }
                WorldEvent::MxLookup { domain, result } => {
                    let detail = match result {
                        Ok(n) => format!("{domain}: {n} exchanger(s)"),
                        Err(e) => format!("{domain}: {e}"),
                    };
                    timeline.record_event(TL_DNS, at, &track, detail);
                }
                WorldEvent::Exchanger { mx, ip, what: AtExchanger::Connected } => {
                    timeline.record_event(TL_CONNECT, at, &track, format!("{mx} ({ip})"));
                }
                WorldEvent::Exchanger { what: what @ AtExchanger::CrashCut(_), .. } => {
                    timeline.record_event(TL_MTA_CRASH, at, &track, what.to_string());
                }
                WorldEvent::Session { outcome, .. } => {
                    let deferred = &mut seen.entry(track.clone()).or_default().1;
                    let name = if outcome.is_delivered() {
                        if *deferred {
                            let pass = "accepted after defer".to_owned();
                            timeline.record_event(TL_GREYLIST_PASS, at, &track, pass);
                        }
                        TL_DELIVER
                    } else if outcome.is_retryable() {
                        *deferred = true;
                        TL_GREYLIST_DEFER
                    } else {
                        TL_REJECT
                    };
                    timeline.record_event(name, at, &track, outcome.to_string());
                }
                WorldEvent::Crash { host, transition } => {
                    let name = match transition {
                        CrashTransition::Crashed { .. } => TL_MTA_CRASH,
                        CrashTransition::Restarted { .. } => TL_MTA_RESTART,
                    };
                    let host_track = format!("{prefix}{host}");
                    timeline.record_event(name, at, &host_track, transition.to_string());
                }
                WorldEvent::Exchanger { .. } | WorldEvent::FaultEdge => {}
            }
        }
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn the_oldest_event_is_dropped_and_counted() {
        let mut log = EventLog::enabled();
        log.record(SimTime::from_secs(1), || WorldEvent::Crash {
            host: "first.example".to_owned(),
            transition: CrashTransition::Crashed { entries_in_memory: 0 },
        });
        for _ in 0..EventLog::CAPACITY {
            log.record(SimTime::from_secs(2), || WorldEvent::FaultEdge);
        }
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.events.len(), EventLog::CAPACITY);
        assert!(log.events.iter().all(|e| *e == (SimTime::from_secs(2), WorldEvent::FaultEdge)));
    }

    #[test]
    fn a_disabled_log_never_builds_its_event() {
        let calls = Cell::new(0);
        let build = || {
            calls.set(calls.get() + 1);
            WorldEvent::FaultEdge
        };
        let mut off = EventLog::default();
        off.record(SimTime::ZERO, build);
        assert_eq!(calls.get(), 0, "a disabled log must not build its event");
        assert_eq!((off.events.len(), off.dropped()), (0, 0));

        let mut on = EventLog::enabled();
        on.record(SimTime::ZERO, build);
        assert_eq!(calls.get(), 1, "an enabled log builds its event once");
        assert_eq!(on.events.len(), 1);
    }

    #[test]
    fn a_fault_edge_renders_one_trace_line_and_no_track() {
        let mut log = EventLog::enabled();
        log.record(SimTime::from_secs(302), || WorldEvent::FaultEdge);
        assert_eq!(log.lines().collect::<Vec<_>>(), ["[t+5m02s] net.fault: fault window boundary"]);
        assert!(log.timeline("").is_empty());
    }
}
