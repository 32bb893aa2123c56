//! Internet-wide scan simulation and the nolisting-detection pipeline.
//!
//! Fig. 2 of the paper comes from joining two `scans.io` datasets — a
//! DNS-ANY dump of 135 M domains and a full-IPv4 SMTP banner grab — and
//! classifying every domain's mail setup. The real datasets are gated; per
//! the substitution rule this crate rebuilds the *pipeline* against a
//! synthetic internet with known ground truth:
//!
//! * [`PopulationSpec`]/[`PopulationStream`] — domains with the Fig. 2
//!   topology mix (one MX 47.73%, multi-MX 45.97%, DNS misconfiguration
//!   5.78%, nolisting 0.52%), configurable host flakiness, and a popularity
//!   ranking for the Alexa cross-check, any one of which is synthesized
//!   from its index in O(1).
//! * [`DnsAnyScan`] — the DNS dataset: MX records without glue, whose A
//!   records the scan then resolves (the paper's "missing entries").
//! * [`BannerGrab`] — the SYN-scan dataset of listening port-25 hosts.
//! * [`NolistingDetector`] — the three-step classification plus the
//!   two-scans-months-apart cross-check, yielding [`Fig2Stats`] and (a
//!   luxury the paper didn't have) [`DetectorAccuracy`] against ground
//!   truth.
//! * [`scan_block`] — the whole pipeline run over a contiguous block of
//!   the stream in O(1) memory, each domain in one reused corner of the
//!   internet and named and hashed once, its MX entries collected and
//!   glue-patched once for every round (no DNS input depends on the
//!   epoch), adding to the [`ShardScanStats`] of the shard its name hashes
//!   to ([`BlockScan`]), with confusion counts for every prefix of the scan
//!   rounds. Blocks merge byte-stably whatever the split.
//!
//! The scan calls the same per-domain collect, glue-patch and round-verdict
//! functions that [`DnsAnyScan::collect`], [`DnsAnyScan::resolve_glue`] and
//! [`NolistingDetector::classify`] run over whole datasets; those stay for
//! callers holding whole-world datasets, and as the tests' oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod metrics;
mod pipeline;
mod population;
mod shard_scan;

pub use dataset::{BannerGrab, DnsAnyScan, MxRecordEntry};
pub use pipeline::{DetectorAccuracy, DomainClass, Fig2Stats, NolistingDetector, ScanRound};
pub use population::{
    DomainRecord, DomainTruth, HostSpec, PackedDomain, PopulationSpec, PopulationStream,
    StreamedDomain,
};
pub use shard_scan::{scan_block, BlockScan, ScanRoundStats, ShardScanStats};
