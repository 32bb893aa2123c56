//! The Fig. 2 adoption survey, end to end.
//!
//! Streams a synthetic internet with the paper's topology mix, runs the
//! zmap-style DNS + banner scans twice, resolves the MX glue the DNS dump
//! lacks, applies the three-step nolisting detector with the double-scan
//! cross-check, and prints the resulting pie — plus the detector's
//! accuracy, which the paper could never know.
//!
//! ```sh
//! cargo run --release --example nolisting_survey [domains]
//! ```

use spamward::core::experiments::nolisting_adoption::{run, AdoptionConfig};

fn main() {
    let domains: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30_000);

    println!("surveying a synthetic internet of {domains} domains (two scans, cross-checked)...\n");
    let config = AdoptionConfig { domains, ..Default::default() };
    let result = run(&config);
    print!("{result}");

    println!("\npaper's Fig. 2 for comparison: one MX 47.73%, no nolisting 45.97%,");
    println!("nolisting 0.52%, DNS misconfiguration 5.78% — and nolisting adopters");
    println!("included 1 domain in Alexa's top-15, 2 in the top-500, 2 in the top-1000.");
}
