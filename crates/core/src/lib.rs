//! The `spamward` study: every experiment of *"Measuring the Role of
//! Greylisting and Nolisting in Fighting Spam"* (DSN 2016), re-runnable.
//!
//! Each paper artifact has one module under [`experiments`], exposing a
//! `Config` (seeded, with the paper's parameters as defaults), one `run`
//! function, and a typed `Result` holding what the run measured. The
//! module's registry entry renders that result into a [`harness::Report`],
//! the one rendering that `repro` prints and the golden snapshots pin.
//! The modules that drive mail worlds (and the Fig. 2 scan and the §VI
//! summary) take an [`harness::Obs`] beside their config: the
//! observation context whose switches arm each world (event budget,
//! tracing) and whose sinks collect its metrics and diagnostics:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::dataset`] | Table I — malware families & samples |
//! | [`experiments::nolisting_adoption`] | Fig. 2 — worldwide nolisting adoption |
//! | [`experiments::efficacy`] | Table II — per-family ✓/✗ matrix |
//! | [`experiments::kelihos`] | Fig. 3 (5 s / 300 s CDFs) and Fig. 4 (21 600 s long run) |
//! | [`experiments::deployment`] | Fig. 5 — benign delivery delay at a real deployment |
//! | [`experiments::webmail`] | Table III — webmail retries at a 6 h threshold |
//! | [`experiments::mta_schedules`] | Table IV — MTA retransmission schedules |
//! | [`experiments::summary`] | §VI headline — spam prevented by either technique |
//! | [`experiments::ablations`] | design-choice sweeps DESIGN.md calls out |
//!
//! Extension experiments with no direct paper artifact:
//!
//! | Module | Question it answers |
//! |---|---|
//! | [`experiments::dialects`] | can transcripts alone tell bots from MTAs (B@bel, §II)? |
//! | [`experiments::future_threats`] | which adaptations obsolete which defense (§VI outlook)? |
//! | [`experiments::costs`] | what do the defenses charge the system and the Internet (§VI)? |
//! | [`experiments::longterm`] | does effectiveness hold month over month (Sochor, §VII)? |
//! | [`experiments::variance`] | how seed-robust is every headline number? |
//!
//! All of the above are registered in the [`harness`] — an [`harness::Experiment`]
//! trait plus static registry — which is how the `repro` CLI, the criterion
//! benches and the meta-experiments reach them uniformly. A registry run
//! builds the context from its [`harness::HarnessConfig`], turns an
//! exhausted event budget into a typed error and moves the context's sinks
//! into the [`harness::Report`]:
//!
//! ```
//! use spamward_core::harness::{registry, HarnessConfig, Scale};
//!
//! let config = HarnessConfig { seed: Some(7), scale: Scale::Quick, ..Default::default() };
//! let report = registry()[2].run(&config).unwrap(); // table2
//! assert_eq!(report.id(), "table2");
//! ```
//!
//! ```
//! use spamward_core::experiments::efficacy;
//! use spamward_core::harness::Obs;
//!
//! let mut obs = Obs::default(); // no tracing, sampling or budget
//! let result = efficacy::run(&efficacy::EfficacyConfig::default(), &mut obs);
//! // Nolisting stops Kelihos; greylisting stops everything else.
//! assert!(result.family_row("Kelihos").unwrap().nolisting_blocked);
//! assert!(obs.registry.counter("greylist.deferred.total").unwrap() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod metrics;
