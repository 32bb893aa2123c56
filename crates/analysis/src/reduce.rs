//! Order-pinned floating-point reduction.
//!
//! f64 addition is not associative: `(a + b) + c` and `a + (b + c)` can
//! differ in the last bit, so any reduction whose operand order is
//! incidental (thread interleaving, map iteration, shard merge order)
//! breaks the byte-identical golden snapshot. Every f64 accumulation in
//! experiment and metrics code goes through [`ordered_sum`] — the one
//! place where the reduction order is pinned to the iterator's order —
//! and lint rule `C2` enforces the routing.
//!
//! When ROADMAP item 1 splits one world into N shards, shard results must
//! be collected into a deterministic sequence (seed order, cell order) and
//! reduced here; nothing else may fold floats.

/// Sums `values` as a left fold in iterator order.
///
/// Bit-identical to `Iterator::sum::<f64>()` over the same sequence (both
/// are `fold(0.0, +)`), so routing an existing sum through this helper
/// never changes reproduced numbers — it only makes the order a stated
/// contract instead of an accident.
pub fn ordered_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_iterator_sum_bit_for_bit() {
        // A sequence chosen so different association orders actually differ.
        let vals = [1e16, 1.0, -1e16, 0.1, 3.375, 2.5e-8, 7.0];
        let ours = ordered_sum(vals.iter().copied());
        let std = vals.iter().copied().sum::<f64>();
        assert_eq!(ours.to_bits(), std.to_bits());
    }

    #[test]
    fn order_matters_and_is_respected() {
        // 1e16 + 1.0 absorbs the 1.0, so these two orders genuinely differ
        // — the helper must follow iterator order, not re-associate.
        let a = [1e16, 1.0, 1.0, -1e16];
        let b = [1.0, 1.0, 1e16, -1e16];
        assert_eq!(ordered_sum(a.iter().copied()), 0.0);
        assert_eq!(ordered_sum(b.iter().copied()), 2.0);
    }
}
