//! Retry schedules of popular MTAs (paper Table IV).
//!
//! The paper extracted, from documentation, the default retransmission
//! times of the seven most popular MTA servers for the first ten hours,
//! plus the maximum time a message lives in the queue before being bounced.
//! Those schedules are reproduced here as executable values; the Table IV
//! bench renders them back out of this module.

use spamward_sim::SimDuration;
use std::fmt;

/// A retry schedule expressed as *cumulative* attempt times: the `n`-th
/// retry (1-based) happens `nth_retry_at(n)` after the message was queued.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrySchedule {
    /// Retries at `first`, `first + step`, `first + 2*step`, ...
    /// (sendmail's and exchange's regular ladders).
    Arithmetic {
        /// Time of the first retry.
        first: SimDuration,
        /// Spacing of subsequent retries.
        step: SimDuration,
    },
    /// Retries at `unit * n²` (qmail's quadratic backoff).
    Quadratic {
        /// The base unit (qmail: 400 seconds).
        unit: SimDuration,
    },
    /// An explicit ladder of attempt times, continued past the end by
    /// adding `tail_interval` per further retry (postfix, courier, and all
    /// the webmail providers of Table III).
    Explicit {
        /// The listed attempt times, strictly increasing.
        times: Vec<SimDuration>,
        /// Interval appended after the ladder runs out; `None` means the
        /// sender simply stops retrying after the last listed attempt
        /// (aol's observed give-up behaviour).
        tail_interval: Option<SimDuration>,
    },
    /// A ladder followed by geometric growth of the last interval
    /// (exim: ×1.5 per retry, capped).
    Geometric {
        /// The listed initial attempt times.
        times: Vec<SimDuration>,
        /// Growth factor applied to the last interval.
        factor: f64,
        /// Interval cap.
        cap: SimDuration,
    },
}

impl RetrySchedule {
    /// The time of the `n`-th retry after queueing (`n >= 1`), or `None`
    /// when the schedule has given up.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (attempt 0 is the initial delivery, always
    /// immediate).
    pub fn nth_retry_at(&self, n: u32) -> Option<SimDuration> {
        assert!(n >= 1, "retry indices are 1-based");
        match self {
            RetrySchedule::Arithmetic { first, step } => Some(*first + *step * u64::from(n - 1)),
            RetrySchedule::Quadratic { unit } => {
                Some(SimDuration::from_micros(unit.as_micros() * u64::from(n) * u64::from(n)))
            }
            RetrySchedule::Explicit { times, tail_interval } => {
                let idx = (n - 1) as usize;
                if idx < times.len() {
                    return Some(times[idx]);
                }
                let tail = (*tail_interval)?;
                let last = *times.last()?;
                Some(last + tail * (n as u64 - times.len() as u64))
            }
            RetrySchedule::Geometric { times, factor, cap } => {
                let idx = (n - 1) as usize;
                if idx < times.len() {
                    return Some(times[idx]);
                }
                // Continue from the last listed interval, growing by
                // `factor` per step, capped.
                let mut prev = *times.last()?;
                let len = times.len();
                let mut interval = if len >= 2 { times[len - 1] - times[len - 2] } else { prev };
                for _ in len..=idx {
                    interval = (interval * *factor).min(*cap);
                    prev += interval;
                }
                Some(prev)
            }
        }
    }

    /// All retry times within `horizon` (used to render Table IV's
    /// "first 10 hours" column).
    pub fn retries_within(&self, horizon: SimDuration) -> Vec<SimDuration> {
        let mut out = Vec::new();
        for n in 1..10_000 {
            match self.nth_retry_at(n) {
                Some(t) if t <= horizon => out.push(t),
                _ => break,
            }
        }
        out
    }
}

/// A named MTA: its retry schedule plus its queue lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct MtaProfile {
    /// Software name as in Table IV.
    pub name: String,
    /// The retry schedule.
    pub schedule: RetrySchedule,
    /// Messages older than this are bounced (Table IV "max queue time").
    pub max_queue_time: SimDuration,
}

impl fmt::Display for MtaProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (max queue {})", self.name, self.max_queue_time)
    }
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

impl MtaProfile {
    /// sendmail: retries every 10 minutes, 5-day queue life.
    pub fn sendmail() -> Self {
        MtaProfile {
            name: "sendmail".into(),
            schedule: RetrySchedule::Arithmetic { first: mins(10), step: mins(10) },
            max_queue_time: SimDuration::from_days(5),
        }
    }

    /// exim: 15-minute ladder to 2 h, then ×1.5 growth; 4-day queue life.
    pub fn exim() -> Self {
        MtaProfile {
            name: "exim".into(),
            schedule: RetrySchedule::Geometric {
                times: vec![
                    mins(15),
                    mins(30),
                    mins(45),
                    mins(60),
                    mins(75),
                    mins(90),
                    mins(105),
                    mins(120),
                    mins(180),
                    mins(270),
                    mins(405),
                    SimDuration::from_secs(607 * 60 + 30), // 607.5 min
                ],
                factor: 1.5,
                cap: SimDuration::from_hours(6),
            },
            max_queue_time: SimDuration::from_days(4),
        }
    }

    /// postfix: 5-minute steps to 30 min, then 15-minute steps; 5-day
    /// queue life.
    pub fn postfix() -> Self {
        let mut times: Vec<SimDuration> =
            vec![mins(5), mins(10), mins(15), mins(20), mins(25), mins(30)];
        let mut t = 45;
        while t <= 600 {
            times.push(mins(t));
            t += 15;
        }
        MtaProfile {
            name: "postfix".into(),
            schedule: RetrySchedule::Explicit { times, tail_interval: Some(mins(15)) },
            max_queue_time: SimDuration::from_days(5),
        }
    }

    /// qmail: quadratic backoff (400 s × n²); 7-day queue life.
    pub fn qmail() -> Self {
        MtaProfile {
            name: "qmail".into(),
            schedule: RetrySchedule::Quadratic { unit: SimDuration::from_secs(400) },
            max_queue_time: SimDuration::from_days(7),
        }
    }

    /// courier: triplets of closely-spaced retries with growing gaps;
    /// 7-day queue life.
    pub fn courier() -> Self {
        let listed: &[u64] = &[
            5, 10, 15, 30, 35, 40, 70, 75, 80, 140, 145, 150, 270, 275, 280, 400, 405, 410, 530,
            535, 540, 660, 665, 670,
        ];
        MtaProfile {
            name: "courier".into(),
            schedule: RetrySchedule::Explicit {
                times: listed.iter().map(|&m| mins(m)).collect(),
                tail_interval: Some(mins(130)),
            },
            max_queue_time: SimDuration::from_days(7),
        }
    }

    /// exchange: retries every 15 minutes; 2-day queue life (the only one
    /// below RFC-822's 4–5 day guidance, as the paper notes).
    pub fn exchange() -> Self {
        MtaProfile {
            name: "exchange".into(),
            schedule: RetrySchedule::Arithmetic { first: mins(15), step: mins(15) },
            max_queue_time: SimDuration::from_days(2),
        }
    }

    /// All six Table IV profiles, in the paper's row order.
    pub fn table_iv() -> Vec<MtaProfile> {
        vec![
            Self::sendmail(),
            Self::exim(),
            Self::postfix(),
            Self::qmail(),
            Self::courier(),
            Self::exchange(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sendmail_ladder_matches_table_iv() {
        let s = MtaProfile::sendmail().schedule;
        let first_hour: Vec<u64> =
            s.retries_within(SimDuration::from_hours(1)).iter().map(|d| d.as_secs() / 60).collect();
        assert_eq!(first_hour, vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(s.nth_retry_at(60), Some(SimDuration::from_mins(600)));
    }

    #[test]
    fn exchange_ladder_matches_table_iv() {
        let s = MtaProfile::exchange().schedule;
        let times: Vec<u64> =
            s.retries_within(SimDuration::from_mins(90)).iter().map(|d| d.as_secs() / 60).collect();
        assert_eq!(times, vec![15, 30, 45, 60, 75, 90]);
    }

    #[test]
    fn qmail_quadratic_matches_table_iv() {
        let s = MtaProfile::qmail().schedule;
        // Table IV row (minutes): 6.6, 26.6, 60, 106.6, 166.6, 240, ...
        let expected_secs =
            [400u64, 1_600, 3_600, 6_400, 10_000, 14_400, 19_600, 25_600, 32_400, 40_000];
        for (i, &exp) in expected_secs.iter().enumerate() {
            assert_eq!(s.nth_retry_at(i as u32 + 1), Some(SimDuration::from_secs(exp)));
        }
    }

    #[test]
    fn postfix_ladder_matches_table_iv() {
        let s = MtaProfile::postfix().schedule;
        let mins_seq: Vec<u64> = s
            .retries_within(SimDuration::from_mins(120))
            .iter()
            .map(|d| d.as_secs() / 60)
            .collect();
        assert_eq!(mins_seq, vec![5, 10, 15, 20, 25, 30, 45, 60, 75, 90, 105, 120]);
    }

    #[test]
    fn exim_geometric_growth() {
        let s = MtaProfile::exim().schedule;
        assert_eq!(s.nth_retry_at(9), Some(SimDuration::from_mins(180)));
        assert_eq!(s.nth_retry_at(10), Some(SimDuration::from_mins(270)));
        assert_eq!(s.nth_retry_at(11), Some(SimDuration::from_mins(405)));
        assert_eq!(s.nth_retry_at(12), Some(SimDuration::from_secs(607 * 60 + 30)));
        // Continuation grows ×1.5 but the *interval* caps at 6 h.
        let t12 = s.nth_retry_at(12).unwrap();
        let t13 = s.nth_retry_at(13).unwrap();
        assert!(t13 > t12);
        assert!(t13 - t12 <= SimDuration::from_hours(6));
    }

    #[test]
    fn courier_triplet_pattern() {
        let s = MtaProfile::courier().schedule;
        let m: Vec<u64> =
            s.retries_within(SimDuration::from_mins(80)).iter().map(|d| d.as_secs() / 60).collect();
        assert_eq!(m, vec![5, 10, 15, 30, 35, 40, 70, 75, 80]);
    }

    #[test]
    fn explicit_without_tail_gives_up() {
        let s = RetrySchedule::Explicit { times: vec![mins(5), mins(10)], tail_interval: None };
        assert_eq!(s.nth_retry_at(2), Some(mins(10)));
        assert_eq!(s.nth_retry_at(3), None);
        assert_eq!(s.retries_within(SimDuration::from_hours(10)).len(), 2);
    }

    #[test]
    fn exchange_queue_life_is_shortest() {
        let profiles = MtaProfile::table_iv();
        let exchange = profiles.iter().find(|p| p.name == "exchange").unwrap();
        for p in &profiles {
            assert!(p.max_queue_time >= exchange.max_queue_time);
        }
        assert_eq!(exchange.max_queue_time, SimDuration::from_days(2));
    }

    #[test]
    fn final_retry_within_queue_life() {
        for p in MtaProfile::table_iv() {
            let last = *p.schedule.retries_within(p.max_queue_time).last().unwrap();
            assert!(last <= p.max_queue_time, "{}: {last} beyond queue life", p.name);
            // Every Table IV MTA retries well past a 6-hour greylist.
            assert!(last > SimDuration::from_hours(6), "{}: gives up too early", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zeroth_retry_panics() {
        let _ = MtaProfile::sendmail().schedule.nth_retry_at(0);
    }

    #[test]
    fn zero_horizon_yields_no_retries_for_any_profile() {
        // No Table IV schedule retries at t = 0: the initial delivery is
        // attempt 0 and the first *retry* is always strictly later.
        for p in MtaProfile::table_iv() {
            assert!(
                p.schedule.retries_within(SimDuration::ZERO).is_empty(),
                "{}: a zero horizon must contain no retries",
                p.name
            );
        }
    }

    #[test]
    fn horizon_exactly_on_a_retry_instant_includes_it() {
        // retries_within is inclusive at the right edge: a horizon that
        // lands exactly on the n-th retry keeps that retry as its last
        // element, and shrinking the horizon by one microsecond drops it.
        for p in MtaProfile::table_iv() {
            let first = p.schedule.nth_retry_at(1).unwrap();
            assert_eq!(
                p.schedule.retries_within(first),
                vec![first],
                "{}: horizon == first retry must include exactly that retry",
                p.name
            );
            assert!(
                p.schedule.retries_within(first - SimDuration::from_micros(1)).is_empty(),
                "{}: horizon just below the first retry must exclude it",
                p.name
            );

            let fifth = p.schedule.nth_retry_at(5).unwrap();
            let within = p.schedule.retries_within(fifth);
            assert_eq!(within.len(), 5, "{}: five retries at-or-before the fifth", p.name);
            assert_eq!(within.last(), Some(&fifth), "{}: boundary retry included", p.name);
        }
    }

    proptest! {
        #[test]
        fn prop_schedules_strictly_increase(n in 1u32..200) {
            for p in MtaProfile::table_iv() {
                if let (Some(a), Some(b)) = (p.schedule.nth_retry_at(n), p.schedule.nth_retry_at(n + 1)) {
                    prop_assert!(b > a, "{} not increasing at retry {n}", p.name);
                }
            }
        }
    }
}
