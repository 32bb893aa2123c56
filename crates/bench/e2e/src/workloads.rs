//! The four workloads and their correctness checks.
//!
//! Every workload is serial — one thread, `workers: 1` / `shards: 1` — so
//! a two-core machine measures the program rather than the scheduler. Each
//! is a [`Bench`] whose batches the measuring loop repeats until the time
//! budget is spent; set-up (input generation plus one untimed warm-up) is
//! timed separately as `setup_s`.
//!
//! `deploy_10x` and `survey_300k` run worlds 10x the paper's size, one
//! world per batch, so whatever grows with one world — the greylist store,
//! the server log and its analysis, the per-domain results — is measured
//! at that size. Larger worlds would make batches of many seconds, between
//! which the reference kernel (see `reference.rs`) could no longer follow
//! the host's speed.

use crate::churn::Churn;
use crate::measure::{Batch, Bench, SpanId, Spans, Tally};
use spamward_core::experiments::deployment::{self, DeploymentConfig};
use spamward_core::experiments::nolisting_adoption::{self, AdoptionConfig};
use spamward_core::harness::{self, Experiment, HarnessConfig, Scale};
use spamward_obs::Registry;
use spamward_scanner::PopulationSpec;
use spamward_sim::DetRng;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every registry experiment but `variance`, at paper scale.
    PaperAll,
    /// Fig. 5 deployment replays of 20 000 messages, one seed each.
    Deploy,
    /// Fig. 2 streamed surveys of 300 000 domains, one seed each.
    Survey,
    /// A long RCPT-check stream into one greylist engine with the WAL on.
    Churn,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::PaperAll, Workload::Deploy, Workload::Survey, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper_all",
            Workload::Deploy => "deploy_10x",
            Workload::Survey => "survey_300k",
            Workload::Churn => "greylist_churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperAll => {
                "what researchers run (repro all): thin work across every layer, analysis and \
                 rendering included"
            }
            Workload::Deploy => {
                "the delivery hot path at 10x paper size: attempt_delivery, SMTP exchange, \
                 greylist check and one engine episode per message, 20k-message logs"
            }
            Workload::Survey => {
                "scanner, dns and net only, no mta/smtp/greylist/engine, over 300k streamed \
                 domains: the control for delivery-path changes"
            }
            Workload::Churn => {
                "the greylist layer under a working set of 500k clients with WAL appends, \
                 checkpoints and sweeps beside the checks"
            }
        }
    }

    /// What one unit of `throughput_per_s` is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::PaperAll => "reports",
            Workload::Deploy => "messages",
            Workload::Survey => "domains",
            Workload::Churn => "checks",
        }
    }
}

/// Domains per `survey_300k` survey: 10x the paper's Fig. 2 size.
pub const SURVEY_DOMAINS: usize = 300_000;

/// Prepares `workload` from `seed` (`None` keeps each experiment's paper
/// default) and runs its untimed warm-up. Fails when the warm-up's
/// outputs do not check out.
pub fn setup(workload: Workload, seed: Option<u64>, smoke: bool) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::PaperAll => Box::new(PaperAll::setup(seed, smoke)?),
        Workload::Deploy => Box::new(Replays::<Deploy>::setup(seed, smoke)?),
        Workload::Survey => Box::new(Replays::<Survey>::setup(seed, smoke)?),
        Workload::Churn => Box::new(Churn::setup(seed, smoke)?),
    })
}

/// The experiments `paper_all` runs: the registry minus `variance`, which
/// always fans out to four workers and so would measure the scheduler.
pub fn paper_experiments() -> Vec<&'static dyn Experiment> {
    harness::registry().iter().copied().filter(|e| e.id() != "variance").collect()
}

/// `repro all --json --metrics` at the default seeds, as checked in.
const GOLDEN: &str = include_str!("../../snapshots/repro-all.json");

/// `paper_all`: one batch runs every experiment once and renders its JSON,
/// each experiment under a span of its own.
struct PaperAll {
    config: HarnessConfig,
    experiments: Vec<&'static dyn Experiment>,
    /// The warm-up pass's JSON, which every later pass must repeat.
    reference: Vec<String>,
    tally: Tally,
}

impl PaperAll {
    fn setup(seed: Option<u64>, smoke: bool) -> Result<Self, String> {
        let scale = if smoke { Scale::Quick } else { Scale::Paper };
        let config = HarnessConfig { seed, scale, shards: 1, ..Default::default() };
        let experiments = paper_experiments();
        let mut reference = Vec::with_capacity(experiments.len());
        for exp in &experiments {
            let json = exp.run(&config).map_err(|e| format!("paper_all warm-up: {e}"))?.to_json();
            // The golden snapshot pins the default seeds at paper scale.
            if seed.is_none() && !smoke && !GOLDEN.contains(&json) {
                return Err(format!(
                    "paper_all: the {} report differs from crates/bench/snapshots/repro-all.json",
                    exp.id()
                ));
            }
            reference.push(json);
        }
        Ok(PaperAll { config, experiments, reference, tally: Tally::default() })
    }
}

impl Bench for PaperAll {
    fn batch(&mut self, spans: &mut Spans, parent: Option<SpanId>) -> Batch {
        let clock = spans.clock();
        let mut batch = Batch { work: self.experiments.len() as u64, ..Batch::default() };
        for (exp, reference) in self.experiments.iter().zip(&self.reference) {
            let span = spans.open(exp.id(), parent);
            let start = clock.now_us();
            let run = exp.run(&self.config).map(|report| (report.to_json(), report));
            batch.timed_us += clock.now_us() - start;
            spans.close(span);
            match run {
                Ok((json, report)) if &json == reference => self.tally.add(report.metrics()),
                _ => batch.failed += 1,
            }
        }
        batch
    }

    fn tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

/// A workload whose batches are independent runs of one experiment at
/// 10x its paper size, each on its own seed drawn from the workload seed.
trait Replay {
    /// What a run returns.
    type Outputs;
    /// Work units of one run at the paper's size: the warm-up's size, and
    /// the batch size at `--smoke`.
    const PAPER: usize;
    /// Work units per batch.
    const FULL: usize;
    /// Workload seed when `--seed` is not given: the experiment's own.
    fn default_seed() -> u64;
    /// Runs once at `size` on `seed`, exporting into `registry`.
    fn run(seed: u64, size: usize, registry: &mut Registry) -> Self::Outputs;
    /// Checks a batch's outputs against the paper.
    fn check(outputs: &Self::Outputs) -> Result<(), String>;
}

/// Seed of batch `batch` of a run seeded `seed`.
fn batch_seed(seed: u64, batch: u64) -> u64 {
    DetRng::seed(seed).fork_idx("e2e.batch", batch).next_u64()
}

/// Back-to-back runs of a [`Replay`]: batch `k` uses [`batch_seed`]`(seed,
/// k)`, so a seed fixes every world a run measures.
struct Replays<R: Replay> {
    seed: u64,
    size: usize,
    batches: u64,
    tally: Tally,
    replay: std::marker::PhantomData<R>,
}

impl<R: Replay> Replays<R> {
    /// Warms up with one paper-sized run on a seed no batch uses.
    fn setup(seed: Option<u64>, smoke: bool) -> Result<Self, String> {
        let seed = seed.unwrap_or_else(R::default_seed);
        let size = if smoke { R::PAPER } else { R::FULL };
        R::run(batch_seed(seed, u64::MAX), R::PAPER, &mut Registry::new());
        Ok(Replays { seed, size, batches: 0, tally: Tally::default(), replay: Default::default() })
    }
}

impl<R: Replay> Bench for Replays<R> {
    fn batch(&mut self, spans: &mut Spans, _parent: Option<SpanId>) -> Batch {
        let clock = spans.clock();
        let seed = batch_seed(self.seed, self.batches);
        self.batches += 1;
        let mut registry = Registry::new();
        let start = clock.now_us();
        let outputs = R::run(seed, self.size, &mut registry);
        let timed_us = clock.now_us() - start;
        self.tally.add(&registry);
        let work = self.size as u64;
        let failed = match R::check(&outputs) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("{msg}");
                work
            }
        };
        Batch { work, timed_us, failed }
    }

    fn tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

/// `deploy_10x`: one serial Fig. 5 replay per batch.
struct Deploy;

impl Replay for Deploy {
    type Outputs = deployment::DeploymentResult;
    const PAPER: usize = 2_000;
    const FULL: usize = 20_000;

    fn default_seed() -> u64 {
        DeploymentConfig::default().seed
    }

    fn run(seed: u64, size: usize, registry: &mut Registry) -> Self::Outputs {
        let config = DeploymentConfig { seed, messages: size, workers: 1, ..Default::default() };
        deployment::run_with_obs(&config, false, registry, &mut Vec::new())
    }

    /// The paper reports "about half" delivered within ten minutes. At
    /// 2 000 messages the two rates vary across seeds with sds of 0.012 and
    /// 0.005, far inside these bands, and less at 20 000.
    fn check(r: &Self::Outputs) -> Result<(), String> {
        if !(0.40..=0.60).contains(&r.within_10min) {
            return Err(format!("deploy: within_10min {} outside [0.40, 0.60]", r.within_10min));
        }
        if !(0.02..=0.12).contains(&r.abandonment_rate) {
            return Err(format!(
                "deploy: abandonment_rate {} outside [0.02, 0.12]",
                r.abandonment_rate
            ));
        }
        Ok(())
    }
}

/// `survey_300k`: one serial two-epoch Fig. 2 survey per batch.
struct Survey;

impl Replay for Survey {
    type Outputs = nolisting_adoption::AdoptionResult;
    const PAPER: usize = 30_000;
    const FULL: usize = SURVEY_DOMAINS;

    fn default_seed() -> u64 {
        AdoptionConfig::default().seed
    }

    fn run(seed: u64, size: usize, registry: &mut Registry) -> Self::Outputs {
        let config = AdoptionConfig {
            domains: size,
            seed,
            workers: 1,
            spec: PopulationSpec::fig2(size),
            ..AdoptionConfig::default()
        };
        nolisting_adoption::run_with_obs(&config, registry)
    }

    /// Across 83 seeds at 300 000 domains precision averaged 0.860 (sd
    /// 0.008, lowest 0.840) and recall 0.990 (sd 0.0025, lowest 0.982), so
    /// these bounds sit seven sds below.
    fn check(r: &Self::Outputs) -> Result<(), String> {
        let (precision, recall) = (r.accuracy.precision(), r.accuracy.recall());
        if precision < 0.80 || recall < 0.97 {
            return Err(format!(
                "survey: precision {precision} (needs >= 0.80), recall {recall} (needs >= 0.97)"
            ));
        }
        Ok(())
    }
}
