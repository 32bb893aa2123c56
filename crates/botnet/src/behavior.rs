//! Bot retry behaviour against greylisting deferrals.

use spamward_sim::{DetRng, SimDuration};

/// A bot's reaction to a 4xx deferral.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryBehavior {
    /// Fire and forget: never retry; move on to the next victim. The
    /// assumption greylisting exploits.
    FireAndForget,
    /// Retry on a jittered ladder of delay windows.
    Scheduled(BotRetrySchedule),
}

impl RetryBehavior {
    /// The delay (since the *first* attempt) of retry `n` (1-based), with
    /// per-message jitter from `rng`; `None` when the bot has given up.
    pub fn nth_retry_delay(&self, n: u32, rng: &mut DetRng) -> Option<SimDuration> {
        match self {
            RetryBehavior::FireAndForget => None,
            RetryBehavior::Scheduled(schedule) => schedule.nth_retry_delay(n, rng),
        }
    }
}

/// A ladder of retry *windows*: retry `n` fires uniformly at random inside
/// window `n`.
///
/// Windows (rather than fixed offsets) are how Fig. 4 reads: the Kelihos
/// retransmissions cluster in *peaks* — 300–600 s, around 5 000 s, and
/// 80 000–90 000 s — rather than at sharp instants, because each bot
/// instance jitters independently.
#[derive(Debug, Clone, PartialEq)]
pub struct BotRetrySchedule {
    windows: Vec<(SimDuration, SimDuration)>,
}

impl BotRetrySchedule {
    /// Builds a schedule from `(lo, hi)` windows.
    ///
    /// # Panics
    ///
    /// Panics if a window is empty (`hi <= lo`) or the windows are not
    /// strictly increasing.
    pub fn from_windows(windows: Vec<(SimDuration, SimDuration)>) -> Self {
        let mut prev_hi = SimDuration::ZERO;
        for &(lo, hi) in &windows {
            assert!(lo < hi, "retry window must be non-empty: {lo}..{hi}");
            assert!(lo >= prev_hi, "retry windows must be increasing");
            prev_hi = hi;
        }
        BotRetrySchedule { windows }
    }

    /// The Kelihos ladder observed in §V-A: a first retry no earlier than
    /// ~300 s (which is why the 5 s and 300 s CDFs of Fig. 3 coincide), a
    /// second around 5 000 s, and a third in the 80 000–90 000 s band that
    /// finally clears even a 6-hour threshold (Fig. 4's red dots).
    pub fn kelihos() -> Self {
        BotRetrySchedule::from_windows(vec![
            (SimDuration::from_secs(300), SimDuration::from_secs(600)),
            (SimDuration::from_secs(4_500), SimDuration::from_secs(5_500)),
            (SimDuration::from_secs(80_000), SimDuration::from_secs(90_000)),
        ])
    }

    /// The delay of retry `n` (1-based), jittered within its window.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nth_retry_delay(&self, n: u32, rng: &mut DetRng) -> Option<SimDuration> {
        assert!(n >= 1, "retry indices are 1-based");
        let (lo, hi) = *self.windows.get((n - 1) as usize)?;
        let span = (hi - lo).as_micros();
        Some(lo + SimDuration::from_micros(rng.below(span.max(1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fire_and_forget_never_retries() {
        let mut rng = DetRng::seed(1);
        let b = RetryBehavior::FireAndForget;
        assert_eq!(b.nth_retry_delay(1, &mut rng), None);
    }

    #[test]
    fn kelihos_first_retry_never_before_300s() {
        let schedule = BotRetrySchedule::kelihos();
        let mut rng = DetRng::seed(7);
        for _ in 0..1_000 {
            let d = schedule.nth_retry_delay(1, &mut rng).unwrap();
            assert!(d >= SimDuration::from_secs(300), "retry at {d} < 300 s");
            assert!(d < SimDuration::from_secs(600));
        }
    }

    #[test]
    fn kelihos_three_peaks_then_gives_up() {
        let schedule = BotRetrySchedule::kelihos();
        let mut rng = DetRng::seed(9);
        let d2 = schedule.nth_retry_delay(2, &mut rng).unwrap();
        assert!(d2 >= SimDuration::from_secs(4_500) && d2 < SimDuration::from_secs(5_500));
        let d3 = schedule.nth_retry_delay(3, &mut rng).unwrap();
        assert!(d3 >= SimDuration::from_secs(80_000) && d3 < SimDuration::from_secs(90_000));
        assert_eq!(schedule.nth_retry_delay(4, &mut rng), None);
    }

    #[test]
    fn third_kelihos_retry_clears_six_hour_threshold() {
        // The crux of Fig. 4: 80 000 s > 21 600 s, so Kelihos eventually
        // delivers even against the paper's extreme threshold.
        let schedule = BotRetrySchedule::kelihos();
        let mut rng = DetRng::seed(3);
        let d3 = schedule.nth_retry_delay(3, &mut rng).unwrap();
        assert!(d3 > SimDuration::from_secs(21_600));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = BotRetrySchedule::from_windows(vec![(
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        )]);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn overlapping_windows_rejected() {
        let _ = BotRetrySchedule::from_windows(vec![
            (SimDuration::from_secs(10), SimDuration::from_secs(30)),
            (SimDuration::from_secs(20), SimDuration::from_secs(40)),
        ]);
    }

    proptest! {
        #[test]
        fn prop_retries_strictly_increase(seed in any::<u64>()) {
            let schedule = BotRetrySchedule::kelihos();
            let mut rng = DetRng::seed(seed);
            let d1 = schedule.nth_retry_delay(1, &mut rng).unwrap();
            let d2 = schedule.nth_retry_delay(2, &mut rng).unwrap();
            let d3 = schedule.nth_retry_delay(3, &mut rng).unwrap();
            prop_assert!(d1 < d2 && d2 < d3);
        }
    }
}
