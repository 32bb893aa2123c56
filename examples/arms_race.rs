//! The arms race: what happens when the malware adapts (§VI outlook).
//!
//! Runs today's lazy bots and tomorrow's hypothetical adaptations against
//! every defense configuration, then prints the survival matrix and the
//! dialect fingerprints defenders could fall back on: the `future` and
//! `dialects` reports, exactly as `repro future` and `repro dialects`
//! print them.
//!
//! ```sh
//! cargo run --release --example arms_race
//! ```

use spamward::core::harness::{find, HarnessConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("running the hypothetical-adaptation matrix...\n");
    print!("{}", report("future")?);

    println!("\nAnd if protocol-level defenses die, what's left? Behavioural fingerprints:");
    println!();
    print!("{}", report("dialects")?);

    println!("\nTakeaways:");
    println!(" * a bot that is simply *patient and polite* beats nolisting, greylisting,");
    println!("   their stack, AND the dialect classifier — the paper's warning that these");
    println!("   defenses work only 'until it is not worth paying the price anymore';");
    println!(" * the /24-keyed greylist default trades webmail friendliness for a");
    println!("   subnet-botnet hole; exact keying closes it at the webmail's expense;");
    println!(" * the Darkmailers already sit in the blind spot of dialect fingerprinting,");
    println!("   yet still die to greylisting — layered defenses cover each other.");
    Ok(())
}

/// The registry report `repro <id>` prints, at the paper's scale.
fn report(id: &str) -> Result<String, Box<dyn Error>> {
    let exp = find(id).ok_or_else(|| format!("unknown artifact {id:?}"))?;
    Ok(exp.run(&HarnessConfig::default())?.to_text())
}
