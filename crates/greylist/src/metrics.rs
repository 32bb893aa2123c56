//! Metric name constants and collectors for the greylist crate.
//!
//! All `greylist.*` registry names live here (the O1 lint rule); the
//! decision path only bumps the plain fields of [`GreylistStats`].

use crate::policy::Greylist;
use crate::stats::GreylistStats;
use spamward_obs::Registry;

/// New triplets deferred on first contact.
pub const DEFERRED_NEW: &str = "greylist.deferred.new";
/// Retries deferred again because they arrived before the delay elapsed.
pub const DEFERRED_EARLY: &str = "greylist.deferred.early";
/// Expired pending triplets re-deferred from scratch.
pub const DEFERRED_RESTARTED: &str = "greylist.deferred.restarted";
/// All checks that ended in a 450.
pub const DEFERRED_TOTAL: &str = "greylist.deferred.total";
/// Retries that passed after out-waiting the delay.
pub const PASSED_AFTER_DELAY: &str = "greylist.passed.after_delay";
/// Hits on already-passed triplets.
pub const PASSED_KNOWN: &str = "greylist.passed.known";
/// Passes due to the client whitelist.
pub const PASSED_CLIENT_WHITELIST: &str = "greylist.passed.client_whitelist";
/// Passes due to the recipient whitelist.
pub const PASSED_RECIPIENT_WHITELIST: &str = "greylist.passed.recipient_whitelist";
/// Passes due to the client auto-whitelist.
pub const PASSED_AUTO_WHITELIST: &str = "greylist.passed.auto_whitelist";
/// All checks that passed.
pub const PASSED_TOTAL: &str = "greylist.passed.total";
/// Live triplet-store entries at collection time.
pub const STORE_SIZE: &str = "greylist.store.size";
/// Approximate resident bytes of key+entry data, comparable across
/// backends (compact-key satellite of the store refactor).
pub const STORE_BYTES: &str = "greylist.store.bytes";
/// Store requests the backend answered (remote backends; 0 in-process).
pub const BACKEND_OPS: &str = "greylist.backend.ops";
/// Store requests lost to an outage window (remote backends).
pub const BACKEND_UNAVAILABLE: &str = "greylist.backend.unavailable";
/// Total virtual-time lookup latency paid, in microseconds (remote
/// backends).
pub const BACKEND_LATENCY_US: &str = "greylist.backend.latency_us";
/// Distinct client networks among tracked keys — how coarse the active
/// key policy's view of the world is.
pub const POLICY_CLIENT_NETS: &str = "greylist.policy.client_nets";

/// Exports decision counters under the canonical `greylist.*` names.
pub fn collect_stats(stats: &GreylistStats, reg: &mut Registry) {
    reg.record_counter(DEFERRED_NEW, stats.greylisted_new);
    reg.record_counter(DEFERRED_EARLY, stats.greylisted_early);
    reg.record_counter(DEFERRED_RESTARTED, stats.greylisted_restarted);
    reg.record_counter(DEFERRED_TOTAL, stats.total_greylisted());
    reg.record_counter(PASSED_AFTER_DELAY, stats.passed_after_delay);
    reg.record_counter(PASSED_KNOWN, stats.passed_known);
    reg.record_counter(PASSED_CLIENT_WHITELIST, stats.passed_client_whitelist);
    reg.record_counter(PASSED_RECIPIENT_WHITELIST, stats.passed_recipient_whitelist);
    reg.record_counter(PASSED_AUTO_WHITELIST, stats.passed_auto_whitelist);
    reg.record_counter(PASSED_TOTAL, stats.total_passed());
}

/// Exports the full greylist snapshot: decision counters plus the store
/// size gauge.
pub fn collect(gl: &Greylist, reg: &mut Registry) {
    collect_stats(&gl.stats(), reg);
    reg.record_gauge(STORE_SIZE, gl.store().len() as i64);
}

/// Exports the backend/key-policy view: store bytes, remote-store traffic
/// and the key-policy network granularity.
///
/// Deliberately separate from [`collect`]: only backend-aware experiments
/// call this, so default worlds export byte-identical metric sets.
pub fn collect_backend(gl: &Greylist, reg: &mut Registry) {
    let store = gl.store();
    reg.record_gauge(STORE_BYTES, store.approx_bytes() as i64);
    let (ops, unavailable, latency_us) = match gl.remote() {
        Some(r) => (r.ops(), r.unavailable(), r.latency_us()),
        None => (0, 0, 0),
    };
    reg.record_counter(BACKEND_OPS, ops);
    reg.record_counter(BACKEND_UNAVAILABLE, unavailable);
    reg.record_counter(BACKEND_LATENCY_US, latency_us);
    let nets: std::collections::BTreeSet<u32> = store.iter().map(|(k, _)| k.client_net).collect();
    reg.record_gauge(POLICY_CLIENT_NETS, nets.len() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GreylistConfig;
    use spamward_sim::{SimDuration, SimTime};
    use spamward_smtp::ReversePath;
    use std::net::Ipv4Addr;

    #[test]
    fn collect_mirrors_stats_and_store() {
        let mut gl = Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
        );
        let client = Ipv4Addr::new(10, 0, 0, 1);
        let sender = ReversePath::Null;
        let rcpt = "u@victim.example".parse().unwrap();
        let _ = gl.check(SimTime::ZERO, client, &sender, &rcpt);
        let _ = gl.check(SimTime::from_secs(10), client, &sender, &rcpt);
        let _ = gl.check(SimTime::from_secs(600), client, &sender, &rcpt);

        let mut reg = Registry::new();
        collect(&gl, &mut reg);
        let stats = gl.stats();
        assert_eq!(reg.counter(DEFERRED_NEW), Some(stats.greylisted_new));
        assert_eq!(reg.counter(DEFERRED_TOTAL), Some(stats.total_greylisted()));
        assert_eq!(reg.counter(PASSED_AFTER_DELAY), Some(stats.passed_after_delay));
        assert_eq!(reg.counter(PASSED_TOTAL), Some(stats.total_passed()));
        assert_eq!(reg.gauge(STORE_SIZE), Some(gl.store().len() as i64));
        assert_eq!(
            reg.counter(DEFERRED_TOTAL).unwrap() + reg.counter(PASSED_TOTAL).unwrap(),
            stats.total()
        );
    }

    #[test]
    fn collect_backend_reports_bytes_and_remote_traffic() {
        use crate::backend::RemoteStore;
        let mut gl = Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
        )
        .with_remote(RemoteStore::new(SimDuration::from_millis(2)));
        let sender = ReversePath::Null;
        let rcpt = "u@victim.example".parse().unwrap();
        let _ = gl.check(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), &sender, &rcpt);
        let _ = gl.check(SimTime::from_secs(301), Ipv4Addr::new(10, 0, 0, 1), &sender, &rcpt);

        let mut reg = Registry::new();
        collect_backend(&gl, &mut reg);
        assert!(reg.gauge(STORE_BYTES).unwrap() > 0);
        assert_eq!(reg.counter(BACKEND_OPS), Some(2));
        assert_eq!(reg.counter(BACKEND_UNAVAILABLE), Some(0));
        assert_eq!(reg.counter(BACKEND_LATENCY_US), Some(4_000));
        assert_eq!(reg.gauge(POLICY_CLIENT_NETS), Some(1));
    }

    #[test]
    fn collect_backend_reports_an_empty_remote_store() {
        use crate::backend::RemoteStore;
        let gl = Greylist::new(GreylistConfig::default())
            .with_remote(RemoteStore::new(SimDuration::from_millis(2)));
        let mut reg = Registry::new();
        collect_backend(&gl, &mut reg);
        assert_eq!(reg.gauge(STORE_BYTES), Some(0));
    }
}
