//! The Fig. 5 deployment replay: what greylisting costs benign mail.
//!
//! Replays a campus-like inbound mix — the Table IV MTA fleet, the ten
//! Table III webmail tiers, and the notification scripts that retry hourly
//! or never — through a 300 s greylist, then analyzes the server's
//! anonymized log exactly as the paper analyzed the University of Milan's.
//! The report is `repro fig5`.
//!
//! ```sh
//! cargo run --release --example campus_deployment
//! ```

use spamward::core::experiments::deployment::DeploymentConfig;
use spamward::core::harness::{find, HarnessConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let messages = DeploymentConfig::default().messages;
    println!("replaying {messages} benign messages through a 300 s greylist...\n");
    print!("{}", report("fig5")?);

    println!("\nThe paper's reading: even at the default 5-minute threshold only about");
    println!("half of greylisted legitimate mail arrives within 10 minutes, and a tail");
    println!("drags past 50 — the cost side of the greylisting trade-off.");
    Ok(())
}

/// The registry report `repro <id>` prints, at the paper's scale.
fn report(id: &str) -> Result<String, Box<dyn Error>> {
    let exp = find(id).ok_or_else(|| format!("unknown artifact {id:?}"))?;
    Ok(exp.run(&HarnessConfig::default())?.to_text())
}
