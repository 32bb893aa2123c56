//! Property tests for the algebra the sharded experiments lean on.
//!
//! `--shards N` byte-invariance rests on two merge laws: [`Registry::merge`]
//! must be commutative and associative over same-kind metrics, and
//! [`TimeSeries::merge`] must be insensitive to the order per-shard series
//! are folded in. These properties exercise those laws over generated
//! operation soups instead of the single examples in the unit tests.
//!
//! The generated names are kind-disjoint on purpose (`prop.counter.*` vs.
//! `prop.gauge.*` vs. `prop.hist.*`, one shared bucket layout): recording a
//! name as two different kinds is a programming error — the registry
//! resolves it last-writer-wins — and the O2 lint keeps real metric names
//! unique, so the law is only claimed on the lint-clean domain.

use proptest::prelude::*;
use spamward_obs::{Histogram, Registry, TimeSeries};
use spamward_sim::{SimDuration, SimTime};

/// One shared bucket layout: histogram merge with mismatched bounds dumps
/// into overflow, so the algebra is claimed per-layout (as in real use,
/// where a metric name implies its bucket layout).
const BOUNDS: &[u64] = &[10, 100, 1_000];

/// Builds a registry from generated `(kind, name slot, value)` ops.
fn registry_from(ops: &[(u8, u8, u16)]) -> Registry {
    let mut reg = Registry::new();
    for (kind, slot, value) in ops {
        match kind {
            0 => reg.record_counter(format!("prop.counter.{slot}"), u64::from(*value)),
            1 => reg.record_gauge(format!("prop.gauge.{slot}"), i64::from(*value) - 300),
            _ => {
                let mut h = Histogram::new(BOUNDS);
                h.observe(u64::from(*value) * 7);
                reg.record_histogram(format!("prop.hist.{slot}"), h);
            }
        }
    }
    reg
}

/// Builds a time series from generated `(series slot, minute, value)` ops.
fn series_from(ops: &[(u8, u16, i16)]) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for (slot, minute, value) in ops {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(*minute) * 60);
        ts.record_point(&format!("prop.series.{slot}"), at, i64::from(*value));
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// a ∪ b == b ∪ a, down to the rendered bytes.
    #[test]
    fn registry_merge_is_commutative(
        a in proptest::collection::vec((0u8..3, 0u8..4, 0u16..600), 0..12),
        b in proptest::collection::vec((0u8..3, 0u8..4, 0u16..600), 0..12),
    ) {
        let (ra, rb) = (registry_from(&a), registry_from(&b));
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        prop_assert_eq!(ab.to_json(), ba.to_json());
        prop_assert_eq!(ab.to_text(), ba.to_text());
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c), down to the rendered bytes.
    #[test]
    fn registry_merge_is_associative(
        a in proptest::collection::vec((0u8..3, 0u8..4, 0u16..600), 0..10),
        b in proptest::collection::vec((0u8..3, 0u8..4, 0u16..600), 0..10),
        c in proptest::collection::vec((0u8..3, 0u8..4, 0u16..600), 0..10),
    ) {
        let (ra, rb, rc) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let mut left = ra.clone();
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb.clone();
        bc.merge(&rc);
        let mut right = ra.clone();
        right.merge(&bc);
        prop_assert_eq!(left.to_json(), right.to_json());
        prop_assert_eq!(left.to_csv(), right.to_csv());
    }

    /// Folding per-shard series in any order yields identical bytes — the
    /// law behind `--timeseries` shard-width invariance.
    #[test]
    fn timeseries_merge_is_order_insensitive(
        a in proptest::collection::vec((0u8..5, 0u16..30, -500i16..500), 0..16),
        b in proptest::collection::vec((0u8..5, 0u16..30, -500i16..500), 0..16),
        c in proptest::collection::vec((0u8..5, 0u16..30, -500i16..500), 0..16),
    ) {
        let (sa, sb, sc) = (series_from(&a), series_from(&b), series_from(&c));
        let mut abc = sa.clone();
        abc.merge(&sb);
        abc.merge(&sc);
        let mut cba = sc.clone();
        cba.merge(&sb);
        cba.merge(&sa);
        let mut bca = sb.clone();
        bca.merge(&sc);
        bca.merge(&sa);
        prop_assert_eq!(abc.to_csv(), cba.to_csv());
        prop_assert_eq!(abc.to_csv(), bca.to_csv());
        prop_assert_eq!(abc.to_json(), cba.to_json());
    }
}
