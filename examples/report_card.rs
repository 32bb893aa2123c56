//! Report card: every registered experiment's headline scalars on one
//! screen.
//!
//! Walks the `spamward_core::harness` registry at `Quick` scale — the same
//! code path as the paper-scale `repro all`, just smaller populations — and
//! prints each experiment's identity plus its named headline numbers. A
//! ten-second sanity pass over the whole reproduction. For another seed,
//! `repro all --seed N --json` carries every scalar.
//!
//! ```sh
//! cargo run --release --example report_card
//! ```

use spamward::core::harness::{fmt_scalar, registry, HarnessConfig, Scale};

fn main() {
    let config = HarnessConfig { scale: Scale::Quick, ..Default::default() };

    for exp in registry() {
        let report = exp.run(&config).expect("unbudgeted run completes");
        print!("[{}] {} ({})", exp.id(), exp.title(), exp.paper_artifact());
        match report.seed() {
            Some(s) => println!(" [seed {s}]"),
            None => println!(),
        }
        for scalar in report.scalars().iter().take(6) {
            println!("    {}: {}", scalar.name, fmt_scalar(scalar.value));
        }
        let hidden = report.scalars().len().saturating_sub(6);
        if hidden > 0 {
            println!("    ... and {hidden} more (see `repro {} --json`)", exp.id());
        }
        println!();
    }
    println!("Full tables and figures: cargo run --release -p spamward-bench --bin repro -- all");
}
