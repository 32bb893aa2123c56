//! Connection latency models.

use spamward_sim::{DetRng, SimDuration};

/// How long a successful TCP handshake (and each subsequent round trip)
/// takes.
///
/// The paper's delay measurements are at second granularity, so latency
/// mostly matters for realism of sub-second detail and for the `Filtered`
/// port timeout; the default is a modest WAN profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Zero latency — useful in unit tests.
    Zero,
    /// A fixed round-trip time.
    Constant(SimDuration),
    /// Uniformly distributed between the two bounds.
    Uniform {
        /// Smallest possible round-trip time.
        lo: SimDuration,
        /// Largest possible round-trip time (exclusive).
        hi: SimDuration,
    },
}

impl Default for LatencyModel {
    /// A 20–180 ms WAN profile.
    fn default() -> Self {
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(20),
            hi: SimDuration::from_millis(180),
        }
    }
}

impl LatencyModel {
    /// Samples one round-trip time.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            LatencyModel::Zero => SimDuration::ZERO,
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                if hi <= lo {
                    return lo;
                }
                let span = (hi - lo).as_micros();
                lo + SimDuration::from_micros(rng.below(span.max(1)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_constant() {
        let mut rng = DetRng::seed(0);
        assert_eq!(LatencyModel::Zero.sample(&mut rng), SimDuration::ZERO);
        let d = SimDuration::from_millis(50);
        assert_eq!(LatencyModel::Constant(d).sample(&mut rng), d);
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        let m = LatencyModel::Uniform { lo, hi };
        let mut rng = DetRng::seed(1);
        for _ in 0..1_000 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s < hi, "sample {s} out of bounds");
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let lo = SimDuration::from_millis(10);
        let m = LatencyModel::Uniform { lo, hi: lo };
        let mut rng = DetRng::seed(1);
        assert_eq!(m.sample(&mut rng), lo);
    }
}
