//! The Fig. 2 adoption survey, end to end.
//!
//! Streams a synthetic internet with the paper's topology mix, runs the
//! zmap-style DNS + banner scans twice, resolves the MX glue the DNS dump
//! lacks, applies the three-step nolisting detector with the double-scan
//! cross-check, and prints the resulting pie — plus the detector's
//! accuracy, which the paper could never know. The report is `repro fig2`.
//!
//! ```sh
//! cargo run --release --example nolisting_survey
//! ```

use spamward::core::experiments::nolisting_adoption::AdoptionConfig;
use spamward::core::harness::{find, HarnessConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let domains = AdoptionConfig::default().domains;
    println!("surveying a synthetic internet of {domains} domains (two scans, cross-checked)...\n");
    print!("{}", report("fig2")?);

    println!("\npaper's Fig. 2 for comparison: one MX 47.73%, no nolisting 45.97%,");
    println!("nolisting 0.52%, DNS misconfiguration 5.78% — and nolisting adopters");
    println!("included 1 domain in Alexa's top-15, 2 in the top-500, 2 in the top-1000.");
    Ok(())
}

/// The registry report `repro <id>` prints, at the paper's scale.
fn report(id: &str) -> Result<String, Box<dyn Error>> {
    let exp = find(id).ok_or_else(|| format!("unknown artifact {id:?}"))?;
    Ok(exp.run(&HarnessConfig::default())?.to_text())
}
