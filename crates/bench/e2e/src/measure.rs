//! Timing primitives: the wall-clock stopwatch, in-memory spans, the
//! time-bounded measuring loop and the percentile helper.
//!
//! Wall time is read only through [`spamward_sim::wall::WallClock`], the
//! workspace's one sanctioned host-clock boundary (lint rule D1). It
//! resolves to microseconds, so nothing here times a single short call:
//! batches are timed instead and divided by their size.

use crate::reference;
use spamward_obs::Registry;
use spamward_sim::wall::{Clock, WallClock};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from `[A-Za-z0-9_.-]`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `ns`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_owned(), value, unit }
    }
}

/// Microseconds since the stopwatch started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(WallClock);

impl Stopwatch {
    /// A stopwatch reading 0 now.
    pub fn new() -> Self {
        Stopwatch(WallClock::new())
    }

    /// Microseconds elapsed since [`Stopwatch::new`].
    pub fn now_us(&self) -> u64 {
        self.0.now().as_micros()
    }
}

/// Runs `f` and returns when it started and ended (µs).
pub fn timed(clock: Stopwatch, f: impl FnOnce()) -> (u64, u64) {
    let start = clock.now_us();
    f();
    (start, clock.now_us())
}

/// Index of an open span in its [`Spans`] log.
pub type SpanId = usize;

struct SpanRecord {
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    end_us: u64,
}

/// Spans recorded around the calls into each layer, kept in memory and
/// written out when the run ends. A disabled log records nothing and costs
/// one branch per span.
pub struct Spans {
    clock: Stopwatch,
    enabled: bool,
    run: String,
    records: Vec<SpanRecord>,
}

impl Spans {
    /// A span log for the run labelled `run`, reading `clock`.
    pub fn new(clock: Stopwatch, enabled: bool, run: &str) -> Self {
        Spans { clock, enabled, run: run.to_owned(), records: Vec::new() }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        Spans::new(Stopwatch::new(), false, "")
    }

    /// The clock spans are timed against.
    pub fn clock(&self) -> Stopwatch {
        self.clock
    }

    /// Opens a span named `name` under `parent`; `None` when disabled.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.clock.now_us();
        self.records.push(SpanRecord { parent, name: name.to_owned(), start_us: now, end_us: now });
        Some(self.records.len() - 1)
    }

    /// Closes a span [`Spans::open`] returned.
    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(record) = span.and_then(|id| self.records.get_mut(id)) {
            record.end_us = self.clock.now_us();
        }
    }

    /// Records a span already timed by the caller.
    pub fn push(&mut self, name: &str, parent: Option<SpanId>, (start_us, end_us): (u64, u64)) {
        if self.enabled {
            self.records.push(SpanRecord { parent, name: name.to_owned(), start_us, end_us });
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// One JSON object per line: `run`, `span`, `parent`, `name`,
    /// `start_us`, `end_us`.
    /// Run labels and span names are built from workload names, experiment
    /// ids and numbers, none of which needs JSON escaping.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\": \"{}\", \"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}}}\n",
                self.run, r.name, r.start_us, r.end_us
            ));
        }
        out
    }
}

/// What one unit of work did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Work units completed (reports, messages, domains or checks).
    pub work: u64,
    /// Microseconds of the calls the batch times: the whole batch, except
    /// that `greylist_churn` times its `check` calls only.
    pub timed_us: u64,
    /// Work units whose outputs failed a correctness check.
    pub failed: u64,
}

/// The program's own counters for a set of batches, plus the few work
/// counts the benchmark keeps itself because no registry holds them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Registries merged over every batch (counters and gauges sum).
    pub program: Registry,
    /// How many registries were merged, for averaging gauges.
    pub samples: u64,
    /// Store entries serialized by checkpoints.
    pub checkpoint_entries: u64,
    /// Store entries scanned by maintenance sweeps.
    pub sweep_entries: u64,
}

impl Tally {
    /// Folds one batch's registry in.
    pub fn add(&mut self, registry: &Registry) {
        self.program.merge(registry);
        self.samples += 1;
    }

    /// A counter's total, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.program.counter(name).unwrap_or(0)
    }

    /// A gauge's mean over the merged registries, 0 when absent.
    pub fn gauge_mean(&self, name: &str) -> f64 {
        match self.program.gauge(name) {
            Some(sum) if self.samples > 0 => sum as f64 / self.samples as f64,
            _ => 0.0,
        }
    }
}

/// A workload prepared for measuring: each call to [`Bench::batch`] runs
/// one timed unit of work and checks its outputs.
pub trait Bench {
    /// Runs one batch, recording spans under `parent`.
    fn batch(&mut self, spans: &mut Spans, parent: Option<SpanId>) -> Batch;

    /// Batches to run even when the time budget is already spent.
    fn min_batches(&self) -> usize {
        1
    }

    /// Checks made once after measuring.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The program's counters for the batches run so far.
    fn tally(&mut self) -> Tally;
}

/// What one measuring phase saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Timed µs of each batch.
    pub batch_us: Vec<f64>,
    /// Work units completed.
    pub work: u64,
    /// Work units that failed a check.
    pub failed: u64,
    /// Wall time of the batches (µs), without the reference runs.
    pub wall_us: u64,
    /// Wall time (µs) of the batches between two reference runs, in order.
    pub segment_us: Vec<u64>,
    /// Wall time (µs) of each run of the [`reference`] kernel: one before
    /// each segment and one after the last.
    pub reference_us: Vec<u64>,
}

impl Measured {
    /// Work units per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.work as f64 * 1e6 / self.wall_us.max(1) as f64
    }

    /// Work units per nominal second: each segment's wall time is scaled
    /// by [`nominal_s`] at the mean of the [`reference`] runs just before
    /// and just after it, so a host that slows down mid-phase slows the
    /// yardstick with it.
    pub fn nominal_throughput(&self) -> f64 {
        let seconds: f64 = self
            .segment_us
            .iter()
            .zip(self.reference_us.windows(2))
            .map(|(&seg, around)| nominal_s(seg, (around[0] + around[1]) as f64 / 2.0))
            .sum();
        self.work as f64 / seconds
    }
}

/// What one run of the [`reference`] kernel takes on the host the nominal
/// metrics are stated for (µs): about its time on one 2.1 GHz Xeon vCPU.
pub const NOMINAL_REFERENCE_US: f64 = 1_500.0;

/// `wall_us` of work done while the [`reference`] kernel took
/// `reference_us` a run, in seconds of a host that runs the kernel in
/// [`NOMINAL_REFERENCE_US`].
pub fn nominal_s(wall_us: u64, reference_us: f64) -> f64 {
    wall_us as f64 / reference_us.max(1.0) * NOMINAL_REFERENCE_US / 1e6
}

/// Runs the [`reference`] kernel `runs` times and returns each run's wall
/// time (µs).
pub fn time_reference(clock: Stopwatch, runs: usize) -> Vec<u64> {
    (0..runs)
        .map(|_| {
            let (from, to) = timed(clock, reference::run);
            to - from
        })
        .collect()
}

/// Batch time between two runs of the [`reference`] kernel; a run takes
/// about 1.5 ms, so it costs the phase about 1.5%.
const REFERENCE_EVERY_US: u64 = 100_000;

/// Runs batches for about `budget_us` of wall time, reference runs
/// included: it stops after the batch that ends nearest the budget, judged
/// by the mean batch so far, once at least [`Bench::min_batches`] ran. The
/// [`reference`] kernel runs before the first batch, then between batches
/// whenever [`REFERENCE_EVERY_US`] of batch time has passed since its last
/// run, and after the last batch. One span per batch goes under `parent`.
pub fn measure(
    bench: &mut dyn Bench,
    spans: &mut Spans,
    parent: Option<SpanId>,
    budget_us: u64,
) -> Measured {
    let clock = spans.clock();
    let start = clock.now_us();
    let mut m = Measured { reference_us: time_reference(clock, 1), ..Measured::default() };
    let mut segment_us = 0;
    loop {
        let batches = m.batch_us.len() as u64;
        let elapsed = clock.now_us() - start;
        if batches >= (bench.min_batches() as u64).max(1)
            && elapsed + m.wall_us / batches / 2 >= budget_us
        {
            break;
        }
        let span = spans.open("batch", parent);
        let mut b = Batch::default();
        let (from, to) = timed(clock, || b = bench.batch(spans, span));
        spans.close(span);
        m.batch_us.push(b.timed_us as f64);
        m.work += b.work;
        m.failed += b.failed;
        m.wall_us += to - from;
        segment_us += to - from;
        if segment_us >= REFERENCE_EVERY_US {
            m.segment_us.push(std::mem::take(&mut segment_us));
            m.reference_us.extend(time_reference(clock, 1));
        }
    }
    if segment_us > 0 {
        m.segment_us.push(segment_us);
        m.reference_us.extend(time_reference(clock, 1));
    }
    m
}

/// The `q` quantile of `samples` (0 for none), interpolating linearly
/// between the two nearest order statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A timing reported as its median and the highest percentile that still
/// has at least [`TAIL_SAMPLES`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile and its value, when `n` is large enough for one.
    pub tail: Option<(f64, f64)>,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

impl Percentiles {
    /// Summarizes `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS.iter().find_map(|&p| {
            let rank = nearest_rank(n, p)?;
            (n - rank >= TAIL_SAMPLES).then(|| (p, sorted[rank - 1]))
        });
        Percentiles { n, p50: median(&sorted), tail }
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Peak resident set size in MB (`VmHWM` from `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn percentiles_leave_ten_samples_beyond_the_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.n, 1000);
        assert_eq!(p.p50, 500.5);
        // p99.9 would leave one sample beyond it; p99 leaves exactly ten.
        assert_eq!(p.tail, Some((99.0, 990.0)));
        let beyond = samples.iter().filter(|&&s| s > 990.0).count();
        assert!(beyond >= TAIL_SAMPLES);
    }

    #[test]
    fn percentiles_pick_lower_tails_for_fewer_samples() {
        let samples: Vec<f64> = (1..=25).map(f64::from).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.n, 25);
        assert_eq!(p.p50, 13.0);
        assert_eq!(p.tail, Some((50.0, 13.0)));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(Percentiles::of(&few).tail, None, "no percentile has ten samples beyond");
    }

    #[test]
    fn spans_link_parents_and_close() {
        let mut spans = Spans::new(Stopwatch::new(), true, "unit/1");
        let root = spans.open("run", None);
        let child = spans.open("setup", root);
        spans.close(child);
        spans.close(root);
        let text = spans.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"span\": 0, \"parent\": null, \"name\": \"run\""));
        assert!(text.contains("\"span\": 1, \"parent\": 0, \"name\": \"setup\""));
        let mut off = Spans::new(Stopwatch::new(), false, "unit/1");
        assert_eq!(off.open("run", None), None);
        assert_eq!(off.len(), 0);
    }

    /// Batches of `work` units that take about `batch_us` each.
    struct Fixed {
        work: u64,
        batch_us: u64,
        min: usize,
    }

    impl Bench for Fixed {
        fn batch(&mut self, spans: &mut Spans, _parent: Option<SpanId>) -> Batch {
            let clock = spans.clock();
            let start = clock.now_us();
            while clock.now_us() - start < self.batch_us {}
            Batch { work: self.work, timed_us: clock.now_us() - start, failed: 0 }
        }

        fn min_batches(&self) -> usize {
            self.min
        }

        fn tally(&mut self) -> Tally {
            Tally::default()
        }
    }

    #[test]
    fn measuring_stops_near_the_budget_with_the_reference_around_each_segment() {
        let mut bench = Fixed { work: 10, batch_us: 30_000, min: 1 };
        let m = measure(&mut bench, &mut Spans::disabled(), None, 300_000);
        // Batches of 30 ms plus a few kernel runs: about nine batches.
        assert!((6..=10).contains(&m.batch_us.len()), "{} batches", m.batch_us.len());
        assert_eq!(m.work, 10 * m.batch_us.len() as u64);
        // Segments of four 30 ms batches (the first to pass 100 ms), the
        // last one whatever is left, each with a kernel run on either side.
        assert_eq!(m.segment_us.iter().sum::<u64>(), m.wall_us);
        assert_eq!(m.segment_us.len(), m.batch_us.len().div_ceil(4));
        assert_eq!(m.reference_us.len(), m.segment_us.len() + 1);
        assert!(m.throughput() > 0.0 && m.nominal_throughput() > 0.0);
        // A spent budget still runs the minimum.
        let mut bench = Fixed { work: 1, batch_us: 0, min: 3 };
        assert_eq!(measure(&mut bench, &mut Spans::disabled(), None, 0).batch_us.len(), 3);
    }

    #[test]
    fn nominal_throughput_scales_each_segment_by_the_kernel_runs_around_it() {
        // 10 work units in two 1 s segments; the kernel took 1 ms, then
        // 2 ms, then 2 ms, against a nominal 1.5 ms: the first second, at
        // a mean of 1.5 ms, counts as 1 nominal second, the second as 0.75.
        let m = Measured {
            work: 10,
            wall_us: 2_000_000,
            segment_us: vec![1_000_000, 1_000_000],
            reference_us: vec![1_000, 2_000, 2_000],
            ..Measured::default()
        };
        assert!((m.nominal_throughput() - 10.0 / 1.75).abs() < 1e-12);
        assert_eq!(m.throughput(), 5.0);
        assert_eq!(nominal_s(3_000_000, NOMINAL_REFERENCE_US), 3.0);
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
