//! The arms race: what happens when the malware adapts (§VI outlook).
//!
//! Runs today's lazy bots and tomorrow's hypothetical adaptations against
//! every defense configuration, then prints the survival matrix and the
//! dialect fingerprints defenders could fall back on.
//!
//! ```sh
//! cargo run --release --example arms_race
//! ```

use spamward::core::experiments::{dialects, future_threats};
use spamward::core::harness::Obs;

fn main() {
    println!("running the hypothetical-adaptation matrix...\n");
    let config = future_threats::FutureThreatsConfig::default();
    let threats = future_threats::run(&config, &mut Obs::default());
    print!("{threats}");

    println!("\nAnd if protocol-level defenses die, what's left? Behavioural fingerprints:");
    println!();
    let fingerprints = dialects::run();
    print!("{fingerprints}");

    println!("\nTakeaways:");
    println!(" * a bot that is simply *patient and polite* beats nolisting, greylisting,");
    println!("   their stack, AND the dialect classifier — the paper's warning that these");
    println!("   defenses work only 'until it is not worth paying the price anymore';");
    println!(" * the /24-keyed greylist default trades webmail friendliness for a");
    println!("   subnet-botnet hole; exact keying closes it at the webmail's expense;");
    println!(" * the Darkmailers already sit in the blind spot of dialect fingerprinting,");
    println!("   yet still die to greylisting — layered defenses cover each other.");
}
