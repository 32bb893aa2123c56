//! The unified experiment harness: one trait, one registry, one report type.
//!
//! Every paper artifact (Tables I–IV, Figs. 2–5, the §VI summary) and every
//! extension experiment implements [`Experiment`] and is listed once in the
//! static [`REGISTRY`]. Consumers — the `repro` CLI, the criterion benches,
//! the [`crate::experiments::variance`] and
//! [`crate::experiments::summary`] meta-experiments, and the
//! integration tests — iterate the registry instead of naming modules, so a
//! new workload is a registry entry rather than a new dispatch arm.
//!
//! A run is a pure function of ([`HarnessConfig::seed`],
//! [`HarnessConfig::scale`]): the returned [`Report`] renders canonically to
//! text, CSV and JSON, and the bytes are pinned by `tests/determinism.rs`
//! and the CI golden-snapshot job.
//!
//! ```
//! use spamward_core::harness::{find, HarnessConfig, Scale};
//!
//! let exp = find("table2").unwrap();
//! let config = HarnessConfig { scale: Scale::Quick, ..Default::default() };
//! let report = exp.run(&config).unwrap();
//! assert!(report.scalar("greylisting blocked (% of botnet spam)").is_some());
//! ```

use spamward_analysis::json::{json_array, json_f64, json_string};
use spamward_analysis::{Series, Table};
use spamward_mta::MailWorld;
use spamward_obs::{Registry, TimeSeries, Timeline};
use spamward_sim::SimDuration;

use crate::experiments::{
    ablations, costs, dataset, deployment, dialects, efficacy, future_threats, kelihos, longterm,
    mta_schedules, nolisting_adoption, policy_backend, recovery, resilience, summary, variance,
    webmail,
};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's parameters — what `repro` reproduces by default.
    #[default]
    Paper,
    /// Reduced sizes for benches and tests; same code path, same
    /// determinism guarantees, seconds instead of minutes in debug builds.
    Quick,
}

/// The sampling cadence `repro --timeseries` selects: one telemetry
/// snapshot per virtual minute, matching the paper's per-minute scan and
/// retry granularities.
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Uniform knobs applied to every experiment.
///
/// `seed: None` means "the paper's default seed for this experiment"; a
/// `Some` seed overrides it uniformly (the fix for `--seed` silently being
/// dropped by some `repro` arms). Seedless experiments (Table I, Table IV,
/// dialects) ignore the override and say so via [`Experiment::seedable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarnessConfig {
    /// Seed override; `None` keeps each experiment's paper default.
    pub seed: Option<u64>,
    /// Run size.
    pub scale: Scale,
    /// Capture delivery traces (`repro --trace` / `--timeline`):
    /// experiments that drive a [`MailWorld`] enable its event record and
    /// render it into the report's trace lines, and table2 into its
    /// [`Report::timeline`] as well. Traces are diagnostics — they never
    /// enter the canonical text/CSV/JSON bytes (`repro --trace` routes the
    /// lines to stderr).
    pub trace: bool,
    /// Optional cap on discrete-event engine events *per world*: every
    /// world an experiment arms through its [`Obs`] stops once it has run
    /// this many, so a sharded run executes up to the cap once per shard
    /// world. `None` (the default) means unbounded. A run any of whose
    /// episodes was cut short fails with [`HarnessError::BudgetExhausted`].
    /// Runs that arm no world ignore it: the catalogues (table1, table4,
    /// dialects), the fig2 scan, ablations (whose six studies build their
    /// own worlds without it) and variance (whose per-seed fig2 and fig5
    /// runs drop it).
    pub event_budget: Option<u64>,
    /// Worker threads for the shard executor of sharded experiments
    /// (`repro --shards`). The *partition* of a sharded experiment is
    /// fixed per experiment, so this only selects how many shards run
    /// concurrently — output bytes are identical for every value. The
    /// `Default` of 0 means "the experiment's own width": fig2, table2
    /// and fig5 then run 4 shards at a time, policy_backend 1
    /// ([`HarnessConfig::shard_workers`]); experiments without a sharded
    /// path ignore it.
    pub shards: usize,
    /// Snapshot counters/gauges into [`Report::timeseries`] every this
    /// much virtual time (`repro --timeseries`; `None` = no sampler timer
    /// joins any episode). Only table2's worlds and the fig2 scan record
    /// samples. Like `trace`, it is diagnostics: it never enters the
    /// canonical text/CSV/JSON bytes, and the default-off state leaves
    /// the engine event stream untouched.
    pub sample_interval: Option<SimDuration>,
}

impl HarnessConfig {
    /// The effective seed given an experiment's paper default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// [`HarnessConfig::shards`] with the unset 0 read as 1 (serial).
    /// policy_backend uses this width as is; fig2, table2 and fig5 call it
    /// only when `shards` is set and otherwise keep their configs' 4.
    pub fn shard_workers(&self) -> usize {
        self.shards.max(1)
    }
}

/// A typed failure from an [`Experiment`] run.
///
/// The harness refuses to present a silently-truncated run as a result:
/// when an event budget cuts an episode short the whole run is an error,
/// not a report with quietly wrong numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The [`HarnessConfig::event_budget`] ran out mid-run: at least one
    /// engine episode ended [`spamward_sim::RunOutcome::BudgetExhausted`].
    BudgetExhausted {
        /// The experiment that was truncated.
        id: String,
        /// Episodes cut short by the budget.
        episodes_cut: u64,
        /// Engine events actually executed before exhaustion.
        events: u64,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::BudgetExhausted { id, episodes_cut, events } => write!(
                f,
                "experiment {id}: event budget exhausted after {events} engine events \
                 ({episodes_cut} episode(s) cut short) — results would be truncated"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Asserts that a run's engine episodes all completed (drained or
/// horizon-reached): returns
/// [`HarnessError::BudgetExhausted`] if the collected metrics show any
/// episode was cut off by the event budget. [`Experiment::run`] calls this
/// on every run's registry, turning silent truncation into a typed
/// harness error.
fn ensure_completed(id: &str, metrics: &Registry) -> Result<(), HarnessError> {
    let cut = metrics.counter("sim.engine.outcome.budget_exhausted").unwrap_or(0);
    if cut > 0 {
        return Err(HarnessError::BudgetExhausted {
            id: id.to_owned(),
            episodes_cut: cut,
            events: metrics.counter("sim.engine.events").unwrap_or(0),
        });
    }
    Ok(())
}

/// The observation context of one experiment run: the switches a run
/// reads and the sinks it fills.
///
/// The switches — [`HarnessConfig::trace`],
/// [`HarnessConfig::sample_interval`] and [`HarnessConfig::event_budget`]
/// — are copied once from the harness config; the sinks are the metric
/// registry and the three diagnostics a [`Report`] carries.
/// [`Experiment::run`] builds one per run and moves its sinks into the
/// report. A caller outside the registry passes `Obs::default()`
/// (tracing, sampling and the budget off) to a module's `run` and reads
/// the filled sinks afterwards.
#[derive(Debug, Default)]
pub struct Obs {
    trace: bool,
    sample_interval: Option<SimDuration>,
    event_budget: Option<u64>,
    /// The run's metrics: the canonical JSON's `metrics` section and the
    /// `repro --metrics` dump.
    pub registry: Registry,
    /// Rendered trace lines, in event order. This sink and the two below
    /// are diagnostics, never part of the canonical renderings (`repro
    /// --trace` prints the lines to stderr).
    pub trace_lines: Vec<String>,
    /// Sampled virtual-time series (`repro --timeseries`).
    pub timeseries: TimeSeries,
    /// Message-lifecycle tracks (`repro --timeline`).
    pub timeline: Timeline,
}

impl Obs {
    /// A context with `config`'s switches and empty sinks.
    pub(crate) fn new(config: &HarnessConfig) -> Self {
        Obs {
            trace: config.trace,
            sample_interval: config.sample_interval,
            event_budget: config.event_budget,
            ..Obs::default()
        }
    }

    /// Whether worlds record their events.
    pub(crate) fn trace(&self) -> bool {
        self.trace
    }

    /// The telemetry sampling interval, if sampling is on.
    pub(crate) fn sample_interval(&self) -> Option<SimDuration> {
        self.sample_interval
    }

    /// A context with these switches and empty sinks, for one shard or
    /// cell of a partitioned run; `absorb` folds it back.
    pub(crate) fn fork(&self) -> Obs {
        Obs {
            trace: self.trace,
            sample_interval: self.sample_interval,
            event_budget: self.event_budget,
            ..Obs::default()
        }
    }

    /// Folds a forked context's sinks into this one. Trace lines append in
    /// call order, so callers absorb in a fixed order; metrics and series
    /// add up, and timeline exports sort their events, so those bytes do
    /// not depend on the order.
    pub(crate) fn absorb(&mut self, child: Obs) {
        self.registry.merge(&child.registry);
        self.trace_lines.extend(child.trace_lines);
        self.timeseries.merge(&child.timeseries);
        self.timeline.merge(&child.timeline);
    }

    /// Arms a freshly built world: the event budget caps its engine
    /// events, and its event record is on when tracing is.
    pub(crate) fn arm(&self, mut world: MailWorld) -> MailWorld {
        world.event_budget = self.event_budget;
        if self.trace {
            world = world.with_tracing();
        }
        world
    }

    /// Folds a finished world into the sinks: its metrics, its trace lines
    /// and its sampled series (empty unless the world was built
    /// [`MailWorld::with_sampling`]).
    pub(crate) fn collect(&mut self, world: &MailWorld) {
        spamward_mta::metrics::collect_world(world, &mut self.registry);
        self.trace_lines.extend(world.events.lines());
        self.timeseries.merge(&world.samples);
    }
}

/// A named headline number a report exposes for machine consumption
/// (variance CIs, the summary roll-up, grep).
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// Stable name, e.g. `"abandonment (%)"`.
    pub name: String,
    /// The value; non-finite values render as `n/a` / JSON `null`.
    pub value: f64,
}

/// The typed result of one experiment run.
///
/// Tables carry the paper tables, series the figure curves, scalars the
/// headline numbers, and text any pre-rendered blocks (ASCII plots, prose)
/// that have no tabular shape. All three renderings are canonical: the same
/// config yields the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    id: String,
    title: String,
    paper_artifact: String,
    seed: Option<u64>,
    metrics: Registry,
    tables: Vec<Table>,
    series: Vec<Series>,
    scalars: Vec<Scalar>,
    text: Vec<String>,
    /// Diagnostics only — never part of the canonical renderings.
    trace_lines: Vec<String>,
    /// Sampled virtual-time series (diagnostics; `--timeseries` exports).
    timeseries: TimeSeries,
    /// Message-lifecycle events (diagnostics; `--timeline` exports
    /// Chrome trace JSON).
    timeline: Timeline,
}

impl Report {
    /// Starts an empty report for the given experiment identity.
    pub fn new(id: &str, title: &str, paper_artifact: &str) -> Self {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            paper_artifact: paper_artifact.to_owned(),
            seed: None,
            metrics: Registry::new(),
            tables: Vec::new(),
            series: Vec::new(),
            scalars: Vec::new(),
            text: Vec::new(),
            trace_lines: Vec::new(),
            timeseries: TimeSeries::new(),
            timeline: Timeline::new(),
        }
    }

    /// Records the seed the run used (omit for seedless experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Appends a table.
    pub fn push_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Appends a figure series.
    pub fn push_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Appends a named headline scalar.
    pub fn push_scalar(&mut self, name: &str, value: f64) -> &mut Self {
        self.scalars.push(Scalar { name: name.to_owned(), value });
        self
    }

    /// Appends a pre-rendered text block (ASCII plot, prose paragraph).
    pub fn push_text(&mut self, block: &str) -> &mut Self {
        self.text.push(block.to_owned());
        self
    }

    /// Moves a finished run's sinks into the report.
    fn attach(mut self, obs: Obs) -> Self {
        self.metrics = obs.registry;
        self.trace_lines = obs.trace_lines;
        self.timeseries = obs.timeseries;
        self.timeline = obs.timeline;
        self
    }

    /// The metric snapshot the run produced.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The captured trace lines, in event order.
    pub fn trace_lines(&self) -> &[String] {
        &self.trace_lines
    }

    /// The sampled virtual-time series (empty unless
    /// [`HarnessConfig::sample_interval`] was set). Diagnostics like
    /// trace lines: excluded from every canonical rendering.
    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The message-lifecycle timeline (empty unless
    /// [`HarnessConfig::trace`] was set and the experiment renders one).
    /// Diagnostics like trace lines: excluded from every canonical
    /// rendering.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The experiment id this report came from.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The seed recorded for the run, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The report's headline scalars.
    pub fn scalars(&self) -> &[Scalar] {
        &self.scalars
    }

    /// Looks up a headline scalar by exact name.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// Renders the human-readable form `repro` prints: a header line, the
    /// tables, the text blocks, then the scalar block. Metrics are omitted;
    /// [`Report::to_text_with_metrics`] appends the full dump (`repro
    /// --metrics`).
    pub fn to_text(&self) -> String {
        self.render_text(false)
    }

    /// [`Report::to_text`] plus the full metric dump as a trailing
    /// `-- metrics --` section (omitted when the registry is empty).
    pub fn to_text_with_metrics(&self) -> String {
        self.render_text(true)
    }

    fn render_text(&self, with_metrics: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!("[{}] {} ({})", self.id, self.title, self.paper_artifact));
        if let Some(seed) = self.seed {
            out.push_str(&format!(" [seed {seed}]"));
        }
        out.push('\n');
        for table in &self.tables {
            out.push_str(&table.to_string());
        }
        for block in &self.text {
            out.push_str(block);
            if !block.ends_with('\n') {
                out.push('\n');
            }
        }
        for s in &self.scalars {
            out.push_str(&format!("{}: {}\n", s.name, fmt_scalar(s.value)));
        }
        if with_metrics && !self.metrics.is_empty() {
            out.push_str("-- metrics --\n");
            out.push_str(&self.metrics.to_text());
        }
        out
    }

    /// Renders the machine-readable CSV form: each table as RFC-4180 rows,
    /// then all series in long format, then `scalar,value` rows — sections
    /// separated by blank lines. Metrics are omitted;
    /// [`Report::to_csv_with_metrics`] appends them (`repro --metrics`).
    pub fn to_csv(&self) -> String {
        self.render_csv(false)
    }

    /// [`Report::to_csv`] plus the full metric dump as a trailing
    /// `metric,kind,value` section (omitted when the registry is empty).
    pub fn to_csv_with_metrics(&self) -> String {
        self.render_csv(true)
    }

    fn render_csv(&self, with_metrics: bool) -> String {
        let mut sections: Vec<String> = Vec::new();
        for table in &self.tables {
            sections.push(table.to_csv());
        }
        if !self.series.is_empty() {
            sections.push(Series::to_csv(&self.series));
        }
        if !self.scalars.is_empty() {
            let mut block = String::from("scalar,value\n");
            for s in &self.scalars {
                block.push_str(&format!(
                    "{},{}\n",
                    spamward_analysis::json::csv_field(&s.name),
                    fmt_scalar(s.value)
                ));
            }
            sections.push(block);
        }
        if with_metrics && !self.metrics.is_empty() {
            sections.push(self.metrics.to_csv());
        }
        sections.join("\n")
    }

    /// Renders the canonical JSON object. Key order is fixed
    /// (`id`, `title`, `paper_artifact`, `seed`, `metrics`, `scalars`,
    /// `tables`, `series`, `text`); floats use shortest-roundtrip
    /// formatting. These bytes are what the CI golden snapshot pins.
    /// Trace lines are deliberately absent.
    pub fn to_json(&self) -> String {
        let seed = match self.seed {
            Some(s) => format!("{s}"),
            None => "null".to_owned(),
        };
        let metrics = self.metrics.to_json();
        let scalars = json_array(self.scalars.iter().map(|s| {
            format!("{{\"name\":{},\"value\":{}}}", json_string(&s.name), json_f64(s.value))
        }));
        let tables = json_array(self.tables.iter().map(Table::to_json));
        let series = json_array(self.series.iter().map(Series::to_json));
        let text = json_array(self.text.iter().map(|t| json_string(t)));
        format!(
            "{{\"id\":{},\"title\":{},\"paper_artifact\":{},\"seed\":{seed},\
             \"metrics\":{metrics},\"scalars\":{scalars},\"tables\":{tables},\
             \"series\":{series},\"text\":{text}}}",
            json_string(&self.id),
            json_string(&self.title),
            json_string(&self.paper_artifact),
        )
    }
}

/// Formats a scalar for text/CSV output: integers bare, fractions with at
/// most four decimals (trailing zeros trimmed), non-finite as `n/a`.
pub fn fmt_scalar(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{v:.0}")
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    }
}

/// One re-runnable experiment: a paper artifact or extension study.
///
/// Implementations are stateless unit structs; all state comes from the
/// [`HarnessConfig`]. `Sync` is required so the registry can be shared
/// across the `repro --jobs` worker pool.
pub trait Experiment: Sync {
    /// Stable CLI id (`repro <id>`), unique across the registry.
    fn id(&self) -> &'static str;
    /// One-line human title.
    fn title(&self) -> &'static str;
    /// Which paper artifact (or extension) this reproduces, e.g. `"Table II"`.
    fn paper_artifact(&self) -> &'static str;
    /// Whether [`HarnessConfig::seed`] affects the run. Defaults to `true`;
    /// deterministic catalogue experiments (Table I, Table IV, dialects)
    /// override to `false`.
    fn seedable(&self) -> bool {
        true
    }
    /// Runs the experiment against `obs` and returns its report. The
    /// harness keeps the report only if every engine episode completed, so
    /// building it must not panic on the partial results of a run the
    /// event budget cut short.
    fn observe(&self, config: &HarnessConfig, obs: &mut Obs) -> Result<Report, HarnessError>;

    /// Runs the experiment and returns its typed report, or a typed error
    /// when the run could not complete (the
    /// [`HarnessConfig::event_budget`] cut an engine episode short).
    fn run(&self, config: &HarnessConfig) -> Result<Report, HarnessError> {
        let mut obs = Obs::new(config);
        let report = self.observe(config, &mut obs)?;
        ensure_completed(self.id(), &obs.registry)?;
        Ok(report.attach(obs))
    }
}

/// Every experiment, in the order `repro all` runs and prints them.
///
/// This is the single source of truth: the CLI, the benches, the
/// completeness test and DESIGN.md's per-experiment index all derive from
/// this list.
pub static REGISTRY: [&dyn Experiment; 18] = [
    &dataset::Table1Experiment,
    &nolisting_adoption::AdoptionExperiment,
    &efficacy::EfficacyExperiment,
    &kelihos::Fig3Experiment,
    &kelihos::Fig4Experiment,
    &deployment::DeploymentExperiment,
    &webmail::WebmailExperiment,
    &mta_schedules::SchedulesExperiment,
    &summary::SummaryExperiment,
    &ablations::AblationsExperiment,
    &future_threats::FutureThreatsExperiment,
    &dialects::DialectsExperiment,
    &costs::CostsExperiment,
    &longterm::LongTermExperiment,
    &variance::VarianceExperiment,
    &resilience::ResilienceExperiment,
    &policy_backend::PolicyBackendExperiment,
    &recovery::RecoveryExperiment,
];

/// The full registry, in canonical order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    &REGISTRY
}

/// Looks up an experiment by its CLI id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().find(|e| e.id() == id).copied()
}

/// The `repro --list` text: one row per registry entry. Lives here so the
/// CLI and the DESIGN.md completeness test render the identical listing.
pub fn list_text() -> String {
    let mut table =
        Table::new(vec!["id", "artifact", "seeded", "title"]).with_title("Registered experiments");
    for exp in registry() {
        table.row(vec![
            exp.id().to_owned(),
            exp.paper_artifact().to_owned(),
            if exp.seedable() { "yes" } else { "no" }.to_owned(),
            exp.title().to_owned(),
        ]);
    }
    table.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let len = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), len, "duplicate experiment id in REGISTRY");
        for exp in registry() {
            let found = find(exp.id()).expect("registered id must resolve");
            assert_eq!(found.id(), exp.id());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn all_paper_artifacts_are_reachable() {
        for id in
            ["table1", "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "summary"]
        {
            assert!(find(id).is_some(), "paper artifact {id} missing from registry");
        }
    }

    #[test]
    fn report_renders_all_three_forms() {
        let mut table = Table::new(vec!["k", "v"]).with_title("T");
        table.row(vec!["a".into(), "1".into()]);
        let mut r = Report::new("demo", "Demo experiment", "Fig. 0").with_seed(7);
        r.push_table(table)
            .push_series(Series::new("curve", vec![(0.0, 0.5)]))
            .push_scalar("rate (%)", 56.69)
            .push_text("a plot\n");
        let mut obs = Obs::default();
        obs.registry.record_counter("demo.events", 3);
        obs.trace_lines.push("0.000000 [demo] hello".to_owned());
        obs.timeseries.record_point("obs.sample.demo", spamward_sim::SimTime::from_secs(60), 4);
        obs.timeline.record_event(
            "timeline.emit",
            spamward_sim::SimTime::ZERO,
            "demo-msg",
            String::new(),
        );
        let r = r.attach(obs);

        let text = r.to_text();
        assert!(text.starts_with("[demo] Demo experiment (Fig. 0) [seed 7]\n"));
        assert!(text.contains("== T =="));
        assert!(text.contains("a plot\n"));
        assert!(text.contains("rate (%): 56.69\n"));
        assert!(!text.contains("-- metrics --"), "plain text omits the metric dump");
        let text_full = r.to_text_with_metrics();
        assert!(text_full.starts_with(&text));
        assert!(text_full.ends_with("-- metrics --\ndemo.events 3\n"));

        let csv = r.to_csv();
        assert!(csv.contains("k,v\na,1\n"));
        assert!(csv.contains("series,x,y\ncurve,0,0.5\n"));
        assert!(csv.contains("scalar,value\nrate (%),56.69\n"));
        assert!(!csv.contains("metric,kind,value"), "plain CSV omits the metric dump");
        let csv_full = r.to_csv_with_metrics();
        assert!(csv_full.ends_with("metric,kind,value\ndemo.events,counter,3\n"));

        let json = r.to_json();
        assert!(json.starts_with("{\"id\":\"demo\",\"title\":\"Demo experiment\""));
        assert!(json.contains("\"seed\":7"));
        assert!(json
            .contains("\"metrics\":[{\"name\":\"demo.events\",\"kind\":\"counter\",\"value\":3}]"));
        assert!(json.contains("{\"name\":\"rate (%)\",\"value\":56.69}"));
        assert!(json.ends_with("\"text\":[\"a plot\\n\"]}"));

        // Trace lines are diagnostics: present on the report, absent from
        // every canonical rendering.
        assert_eq!(r.trace_lines(), ["0.000000 [demo] hello"]);
        for rendering in [&text, &csv, &json] {
            assert!(!rendering.contains("[demo] hello"));
        }

        // Telemetry carriage is diagnostics too: attachable, readable,
        // absent from every canonical rendering.
        assert_eq!(
            r.timeseries().get("obs.sample.demo", spamward_sim::SimTime::from_secs(60)),
            Some(4)
        );
        assert_eq!(r.timeline().len(), 1);
        for rendering in [r.to_text(), r.to_csv(), r.to_json()] {
            assert!(!rendering.contains("obs.sample.demo"));
            assert!(!rendering.contains("timeline.emit"));
        }
    }

    #[test]
    fn scalar_lookup_and_formatting() {
        let mut r = Report::new("x", "X", "none");
        r.push_scalar("n", 3.0).push_scalar("frac", 0.12345).push_scalar("bad", f64::NAN);
        assert_eq!(r.scalar("n"), Some(3.0));
        assert_eq!(r.scalar("missing"), None);
        assert_eq!(fmt_scalar(3.0), "3");
        assert_eq!(fmt_scalar(0.12345), "0.1235");
        assert_eq!(fmt_scalar(56.690000000000005), "56.69");
        assert_eq!(fmt_scalar(f64::NAN), "n/a");
        assert!(r.to_json().contains("{\"name\":\"bad\",\"value\":null}"));
    }

    #[test]
    fn seed_override_helper() {
        let default = HarnessConfig::default();
        assert_eq!(default.seed_or(42), 42);
        assert_eq!(default.scale, Scale::Paper);
        assert_eq!(default.event_budget, None);
        assert_eq!(default.shards, 0);
        assert!(!default.trace, "tracing is opt-in");
        assert_eq!(default.sample_interval, None, "sampling is opt-in");
        assert_eq!(default.shard_workers(), 1, "unset shards mean serial execution");
        assert_eq!(HarnessConfig { shards: 4, ..Default::default() }.shard_workers(), 4);
        let forced = HarnessConfig { seed: Some(9), scale: Scale::Quick, ..Default::default() };
        assert_eq!(forced.seed_or(42), 9);
    }

    #[test]
    fn ensure_completed_flags_budget_exhaustion() {
        let mut reg = Registry::new();
        assert_eq!(ensure_completed("fig5", &reg), Ok(()), "no engine metrics at all is fine");
        reg.record_counter("sim.engine.events", 120);
        reg.record_counter("sim.engine.outcome.budget_exhausted", 0);
        assert_eq!(ensure_completed("fig5", &reg), Ok(()));
        reg.record_counter("sim.engine.outcome.budget_exhausted", 3);
        let err = ensure_completed("fig5", &reg).unwrap_err();
        assert_eq!(
            err,
            HarnessError::BudgetExhausted { id: "fig5".into(), episodes_cut: 3, events: 120 }
        );
        assert!(err.to_string().contains("event budget exhausted"));
    }

    #[test]
    fn list_text_names_every_id() {
        let listing = list_text();
        for exp in registry() {
            assert!(listing.contains(exp.id()), "--list missing {}", exp.id());
        }
    }
}
