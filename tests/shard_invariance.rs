//! Shard-count invariance of the sharded experiments.
//!
//! The shard *partition* of fig2, table2 and fig5 is fixed per experiment;
//! `HarnessConfig::shards` (the CLI's `--shards`) only selects how many
//! shards run concurrently. These tests pin the consequence: every
//! rendering, metrics included, is byte-identical across executor widths,
//! and the per-shard metric set is always complete.

use spamward::core::harness::{self, HarnessConfig, Scale};

/// The experiments converted to the sharded execution path.
const SHARDED_IDS: [&str; 3] = ["fig2", "table2", "fig5"];

fn run(id: &str, seed: Option<u64>, shards: usize) -> harness::Report {
    let exp = harness::find(id).expect("sharded experiment is registered");
    let config = HarnessConfig { seed, scale: Scale::Quick, shards, ..Default::default() };
    exp.run(&config).expect("quick-scale run completes")
}

#[test]
fn sharded_experiments_are_shard_count_invariant() {
    for id in SHARDED_IDS {
        for seed in [None, Some(7), Some(2026)] {
            let serial = run(id, seed, 1);
            // 3 divides neither the 8 shards nor fig2's 8 blocks.
            for width in [3, 4] {
                let wide = run(id, seed, width);
                assert_eq!(
                    serial.to_json(),
                    wide.to_json(),
                    "{id} seed {seed:?}: JSON bytes must not depend on --shards {width}"
                );
                assert_eq!(
                    serial.to_text_with_metrics(),
                    wide.to_text_with_metrics(),
                    "{id} seed {seed:?}: text+metrics bytes must not depend on --shards {width}"
                );
            }
        }
    }
}

#[test]
fn sharded_runs_record_every_fixed_shard() {
    for id in SHARDED_IDS {
        let report = run(id, None, 2);
        let mut total = 0;
        for shard in 0..8u32 {
            let name = format!("sim.engine.shard.{shard}.events");
            total += report
                .metrics()
                .counter(&name)
                .unwrap_or_else(|| panic!("{id} is missing the {name} counter"));
        }
        assert!(total > 0, "{id}: aggregate shard event count should be nonzero");
    }
}
