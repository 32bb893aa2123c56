//! The ten providers and their observed retry ladders.

use spamward_mta::{IpSelection, MtaProfile, RetrySchedule, SendingMta};
use spamward_net::IpPool;
use spamward_sim::SimDuration;
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// The greylisting threshold the paper used for the webmail experiment
/// (360 minutes).
pub const GREYLIST_EXPERIMENT_THRESHOLD: SimDuration = SimDuration::from_mins(360);

/// One webmail provider's outbound behaviour, as measured in Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct WebmailProvider {
    /// Provider domain as listed ("gmail.com", ...), lent to the profile
    /// of every sender built from the provider.
    pub name: Cow<'static, str>,
    /// Number of distinct source addresses observed. 1 ⇒ the table's
    /// "same IP" checkmark.
    pub distinct_ips: usize,
    /// The observed retry ladder (delays of retries 1..n since the first
    /// attempt).
    pub schedule: RetrySchedule,
    /// Whether the provider delivered within the paper's 6-hour window.
    pub delivered_in_paper: bool,
    /// Attempt count the paper reports in the 6-hour window.
    pub attempts_in_paper: u32,
}

fn ms(minutes: u64, seconds: u64) -> SimDuration {
    SimDuration::from_secs(minutes * 60 + seconds)
}

fn ladder(times: &[(u64, u64)], tail: Option<SimDuration>) -> RetrySchedule {
    RetrySchedule::Explicit {
        times: times.iter().map(|&(m, s)| ms(m, s)).collect(),
        tail_interval: tail,
    }
}

impl WebmailProvider {
    /// Whether every attempt came from one source address.
    pub fn same_ip(&self) -> bool {
        self.distinct_ips == 1
    }

    /// gmail.com — 7 addresses, 9 attempts, ~×1.7 backoff, delivered.
    pub fn gmail() -> Self {
        WebmailProvider {
            name: "gmail.com".into(),
            distinct_ips: 7,
            schedule: ladder(
                &[(6, 2), (29, 2), (56, 36), (98, 44), (162, 3), (229, 44), (309, 5), (434, 46)],
                Some(SimDuration::from_mins(126)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 9,
        }
    }

    /// yahoo.co.uk — 1 address, 9 attempts, doubling backoff, delivered.
    pub fn yahoo() -> Self {
        WebmailProvider {
            name: "yahoo.co.uk".into(),
            distinct_ips: 1,
            schedule: ladder(
                &[(2, 7), (5, 39), (12, 58), (27, 16), (55, 13), (109, 35), (216, 47), (430, 36)],
                Some(SimDuration::from_mins(214)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 9,
        }
    }

    /// hotmail.com — 1 address, 94 attempts (every 4 minutes), delivered.
    pub fn hotmail() -> Self {
        WebmailProvider {
            name: "hotmail.com".into(),
            distinct_ips: 1,
            schedule: ladder(
                &[(1, 1), (2, 3), (3, 4), (5, 6), (8, 7), (12, 8), (16, 10)],
                Some(SimDuration::from_mins(4)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 94,
        }
    }

    /// qq.com — 2 addresses, 12 attempts, delivered.
    pub fn qq() -> Self {
        WebmailProvider {
            name: "qq.com".into(),
            distinct_ips: 2,
            schedule: ladder(
                &[
                    (5, 5),
                    (5, 11),
                    (5, 17),
                    (6, 19),
                    (8, 22),
                    (12, 25),
                    (20, 29),
                    (52, 31),
                    (84, 35),
                    (144, 42),
                    (204, 56),
                ],
                Some(SimDuration::from_mins(120)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 12,
        }
    }

    /// mail.ru — 7 addresses, 13 attempts, roughly linear, delivered.
    pub fn mail_ru() -> Self {
        WebmailProvider {
            name: "mail.ru".into(),
            distinct_ips: 7,
            schedule: ladder(
                &[
                    (1, 18),
                    (19, 15),
                    (49, 14),
                    (79, 49),
                    (113, 20),
                    (154, 18),
                    (187, 53),
                    (235, 20),
                    (271, 3),
                    (305, 50),
                    (340, 38),
                    (373, 45),
                ],
                Some(SimDuration::from_mins(34)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 13,
        }
    }

    /// yandex.com — 1 address, 28 attempts (every 15:30 after warm-up),
    /// delivered.
    pub fn yandex() -> Self {
        WebmailProvider {
            name: "yandex.com".into(),
            distinct_ips: 1,
            // The paper rounds the steady-state spacing to "every 15:30";
            // the exact value that reproduces both the 28-attempt count and
            // the 369:21 delivery is 15:25 (925 s).
            schedule: ladder(
                &[(1, 5), (2, 58), (6, 53), (14, 55), (30, 28), (45, 41), (61, 1)],
                Some(ms(15, 25)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 28,
        }
    }

    /// mail.com — 2 addresses, 10 attempts, delivered.
    pub fn mail_com() -> Self {
        WebmailProvider {
            name: "mail.com".into(),
            distinct_ips: 2,
            schedule: ladder(
                &[
                    (5, 2),
                    (12, 37),
                    (23, 59),
                    (41, 3),
                    (66, 38),
                    (105, 1),
                    (162, 35),
                    (248, 56),
                    (378, 28),
                ],
                Some(SimDuration::from_mins(130)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 10,
        }
    }

    /// gmx.com — 3 addresses, 10 attempts, delivered (same software family
    /// as mail.com, nearly identical ladder).
    pub fn gmx() -> Self {
        WebmailProvider {
            name: "gmx.com".into(),
            distinct_ips: 3,
            schedule: ladder(
                &[
                    (5, 1),
                    (12, 33),
                    (23, 50),
                    (40, 46),
                    (66, 9),
                    (104, 14),
                    (161, 22),
                    (247, 4),
                    (375, 36),
                ],
                Some(SimDuration::from_mins(128)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 10,
        }
    }

    /// aol.com — 1 address, 5 attempts, **gives up after ~31 minutes** and
    /// never delivers against a 6-hour threshold.
    pub fn aol() -> Self {
        WebmailProvider {
            name: "aol.com".into(),
            distinct_ips: 1,
            schedule: ladder(&[(5, 32), (11, 32), (21, 32), (31, 32)], None),
            delivered_in_paper: false,
            attempts_in_paper: 5,
        }
    }

    /// india.com — 1 address, 10 attempts, linear then 70-minute spacing,
    /// delivered.
    pub fn india() -> Self {
        WebmailProvider {
            name: "india.com".into(),
            distinct_ips: 1,
            schedule: ladder(
                &[
                    (6, 21),
                    (16, 21),
                    (36, 21),
                    (76, 21),
                    (146, 22),
                    (216, 21),
                    (286, 21),
                    (356, 21),
                    (426, 21),
                ],
                Some(SimDuration::from_mins(70)),
            ),
            delivered_in_paper: true,
            attempts_in_paper: 10,
        }
    }

    /// All ten providers, in Table III row order.
    pub fn table_iii() -> Vec<WebmailProvider> {
        vec![
            Self::gmail(),
            Self::yahoo(),
            Self::hotmail(),
            Self::qq(),
            Self::mail_ru(),
            Self::yandex(),
            Self::mail_com(),
            Self::gmx(),
            Self::aol(),
            Self::india(),
        ]
    }

    /// Builds the provider's outbound tier as a [`SendingMta`]: a
    /// round-robin pool of `distinct_ips` addresses *within one /24* (the
    /// configuration consistent with Table III — Postgrey keys on /24, and
    /// the measured delivery times show the address rotation did not reset
    /// the greylist clock), using the provider's ladder with an
    /// effectively unlimited queue life (the ladder itself encodes
    /// give-up).
    ///
    /// See [`WebmailProvider::build_sender_spread`] for the
    /// pool-across-subnets ablation.
    pub fn build_sender(&self, pool_base: Ipv4Addr, seed: u64) -> SendingMta {
        let mut pool = IpPool::new(pool_base);
        let ips = pool.take(self.distinct_ips);
        self.sender_from_ips(ips, seed)
    }

    /// The ablation variant of [`WebmailProvider::build_sender`]: every
    /// pool address in a *different* /24, so each attempt from a new
    /// address restarts its own greylist clock.
    pub fn build_sender_spread(&self, pool_base: Ipv4Addr, seed: u64) -> SendingMta {
        let mut pool = IpPool::new(pool_base);
        let mut ips = Vec::with_capacity(self.distinct_ips);
        for _ in 0..self.distinct_ips {
            let ip = pool.next_ip();
            ips.push(ip);
            // Jump to the next /24.
            pool = IpPool::new(Ipv4Addr::from((u32::from(ip) | 0xFF) + 2));
        }
        self.sender_from_ips(ips, seed)
    }

    fn sender_from_ips(&self, ips: Vec<Ipv4Addr>, seed: u64) -> SendingMta {
        let profile = MtaProfile {
            name: self.name.clone(),
            schedule: self.schedule.clone(),
            max_queue_time: SimDuration::from_days(14),
        };
        SendingMta::new(&["mta.", &*self.name].concat(), ips, profile)
            .with_ip_selection(if self.distinct_ips > 1 {
                IpSelection::RoundRobin
            } else {
                IpSelection::Fixed
            })
            .with_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_providers_in_order() {
        let all = WebmailProvider::table_iii();
        assert_eq!(all.len(), 10);
        let names: Vec<&str> = all.iter().map(|p| &*p.name).collect();
        assert_eq!(
            names,
            vec![
                "gmail.com",
                "yahoo.co.uk",
                "hotmail.com",
                "qq.com",
                "mail.ru",
                "yandex.com",
                "mail.com",
                "gmx.com",
                "aol.com",
                "india.com"
            ]
        );
    }

    #[test]
    fn same_ip_column_matches_paper() {
        // ✓ for yahoo, hotmail, yandex, aol, india; ✗ for the rest.
        let expect: &[(&str, bool)] = &[
            ("gmail.com", false),
            ("yahoo.co.uk", true),
            ("hotmail.com", true),
            ("qq.com", false),
            ("mail.ru", false),
            ("yandex.com", true),
            ("mail.com", false),
            ("gmx.com", false),
            ("aol.com", true),
            ("india.com", true),
        ];
        for (p, want) in expect {
            let provider = WebmailProvider::table_iii().into_iter().find(|x| x.name == *p).unwrap();
            assert_eq!(provider.same_ip(), *want, "{p}");
        }
    }

    #[test]
    fn aol_gives_up_after_31_minutes() {
        let aol = WebmailProvider::aol();
        assert_eq!(aol.schedule.nth_retry_at(4), Some(SimDuration::from_secs(31 * 60 + 32)));
        assert_eq!(aol.schedule.nth_retry_at(5), None);
        assert!(!aol.delivered_in_paper);
    }

    #[test]
    fn hotmail_attempt_count_matches() {
        // 1 initial + retries up to just past the 6 h threshold ⇒ 94.
        let hotmail = WebmailProvider::hotmail();
        let retries = hotmail.schedule.retries_within(SimDuration::from_secs(362 * 60 + 11));
        assert_eq!(1 + retries.len() as u32, 94);
    }

    #[test]
    fn yandex_attempt_count_matches() {
        let yandex = WebmailProvider::yandex();
        let retries = yandex.schedule.retries_within(SimDuration::from_secs(369 * 60 + 21));
        assert_eq!(1 + retries.len() as u32, 28);
    }

    #[test]
    fn delivering_providers_cross_the_threshold() {
        // A provider delivers iff its ladder ever reaches the 6 h
        // threshold before giving up. Only aol (no tail, last retry at
        // 31:32) fails this — exactly the paper's DELIVER column.
        for p in WebmailProvider::table_iii() {
            let crosses = p
                .schedule
                .retries_within(SimDuration::from_days(2))
                .iter()
                .any(|&d| d >= GREYLIST_EXPERIMENT_THRESHOLD);
            assert_eq!(
                crosses, p.delivered_in_paper,
                "{}: ladder crossing 6 h must equal the paper's DELIVER column",
                p.name
            );
        }
    }

    #[test]
    fn build_sender_variants() {
        let gmail = WebmailProvider::gmail();
        let sender = gmail.build_sender(Ipv4Addr::new(64, 233, 160, 1), 1);
        assert_eq!(sender.fqdn(), "mta.gmail.com");
        assert_eq!(sender.profile().name, "gmail.com");
        let spread = gmail.build_sender_spread(Ipv4Addr::new(64, 233, 160, 1), 1);
        assert_eq!(spread.profile().name, "gmail.com");
    }

    #[test]
    fn senders_borrow_the_provider_name() {
        for p in WebmailProvider::table_iii() {
            let sender = p.build_sender(Ipv4Addr::new(64, 233, 160, 1), 1);
            assert_eq!(sender.fqdn(), format!("mta.{}", p.name));
            assert!(matches!(sender.profile().name, Cow::Borrowed(_)), "{}: name copied", p.name);
        }
    }

    #[test]
    fn ladders_match_the_papers_literal_delay_strings() {
        // Guard against transcription typos: the exact DELAYS cells of
        // Table III, parsed with the shared min:sec parser, must equal the
        // leading schedule entries.
        let published: &[(&str, &[&str])] = &[
            (
                "gmail.com",
                &["6:02", "29:02", "56:36", "98:44", "162:03", "229:44", "309:05", "434:46"],
            ),
            (
                "yahoo.co.uk",
                &["2:07", "5:39", "12:58", "27:16", "55:13", "109:35", "216:47", "430:36"],
            ),
            ("hotmail.com", &["1:01", "2:03", "3:04", "5:06", "8:07", "12:08", "16:10"]),
            (
                "qq.com",
                &[
                    "5:05", "5:11", "5:17", "6:19", "8:22", "12:25", "20:29", "52:31", "84:35",
                    "144:42", "204:56",
                ],
            ),
            (
                "mail.ru",
                &[
                    "1:18", "19:15", "49:14", "79:49", "113:20", "154:18", "187:53", "235:20",
                    "271:03", "305:50", "340:38", "373:45",
                ],
            ),
            ("yandex.com", &["1:05", "2:58", "6:53", "14:55", "30:28", "45:41", "61:01"]),
            (
                "mail.com",
                &[
                    "5:02", "12:37", "23:59", "41:03", "66:38", "105:01", "162:35", "248:56",
                    "378:28",
                ],
            ),
            (
                "gmx.com",
                &[
                    "5:01", "12:33", "23:50", "40:46", "66:09", "104:14", "161:22", "247:04",
                    "375:36",
                ],
            ),
            ("aol.com", &["5:32", "11:32", "21:32", "31:32"]),
            (
                "india.com",
                &[
                    "6:21", "16:21", "36:21", "76:21", "146:22", "216:21", "286:21", "356:21",
                    "426:21",
                ],
            ),
        ];
        for (name, delays) in published {
            let provider =
                WebmailProvider::table_iii().into_iter().find(|p| p.name == *name).unwrap();
            for (i, cell) in delays.iter().enumerate() {
                let expected = spamward_analysis::parse_min_sec(cell)
                    .unwrap_or_else(|| panic!("{name}: bad cell {cell}"));
                let got = provider.schedule.nth_retry_at(i as u32 + 1).unwrap();
                assert_eq!(got, expected, "{name} retry {}: {got} != {cell}", i + 1);
            }
        }
    }

    #[test]
    fn ladders_strictly_increase() {
        for p in WebmailProvider::table_iii() {
            let retries = p.schedule.retries_within(SimDuration::from_mins(440));
            for w in retries.windows(2) {
                assert!(w[1] > w[0], "{}: ladder not increasing", p.name);
            }
        }
    }
}
