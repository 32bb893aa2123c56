//! Reproducibility: every experiment is a pure function of its seed.
//!
//! The whole point of replacing the paper's physical testbed with a
//! simulator is that runs can be repeated bit-for-bit; these tests pin
//! that property at the highest level, across crate boundaries.

use spamward::core::experiments::{
    ablations, costs, deployment, efficacy, future_threats, kelihos, nolisting_adoption, webmail,
};
use spamward::core::harness::{self, HarnessConfig, Scale};
use spamward::core::run_seeds;
use spamward::scanner::DomainClass;

#[test]
fn efficacy_is_deterministic() {
    let cfg = efficacy::EfficacyConfig { recipients: 4, ..Default::default() };
    assert_eq!(efficacy::run(&cfg), efficacy::run(&cfg));
}

#[test]
fn kelihos_runs_are_deterministic() {
    let cfg = kelihos::KelihosConfig { recipients: 30, ..Default::default() };
    let a = kelihos::run(&cfg);
    let b = kelihos::run(&cfg);
    assert_eq!(a.fast.cdf, b.fast.cdf);
    assert_eq!(a.extreme.attempts.len(), b.extreme.attempts.len());
    assert_eq!(a.fig3_ks_distance, b.fig3_ks_distance);
    for (x, y) in a.extreme.attempts.iter().zip(b.extreme.attempts.iter()) {
        assert_eq!(x.delay_secs, y.delay_secs);
        assert_eq!(x.delivered, y.delivered);
    }
}

#[test]
fn adoption_survey_is_deterministic_and_seed_sensitive() {
    let cfg = nolisting_adoption::AdoptionConfig { domains: 2_000, ..Default::default() };
    let a = nolisting_adoption::run(&cfg);
    let b = nolisting_adoption::run(&cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.top_k, b.top_k);

    let other_seed = nolisting_adoption::AdoptionConfig { seed: 999, ..cfg };
    let c = nolisting_adoption::run(&other_seed);
    // Different seed → different population → (almost surely) different
    // counts somewhere.
    assert_ne!(
        (a.stats.counts.clone(), a.top_k.clone()),
        (c.stats.counts.clone(), c.top_k.clone()),
        "seed change had no observable effect"
    );
}

/// Ablation 4's exact `(false positives, false negatives)` per number of
/// cross-checked scan rounds, pinned across seeds, population sizes and
/// round counts so any change to the scan pipeline that moves a single
/// verdict shows here.
#[test]
fn scan_rounds_ablation_rows_are_pinned() {
    let rows = |seed: u64, domains: usize, rounds: usize| -> Vec<(usize, usize)> {
        let points = ablations::scan_rounds_ablation(seed, domains, rounds);
        for (n, p) in points.iter().enumerate() {
            assert_eq!(p.rounds, n + 1, "rows are ordered by rounds cross-checked");
        }
        points.iter().map(|p| (p.false_positives, p.false_negatives)).collect()
    };
    assert_eq!(rows(2015, 4_000, 3), [(99, 1), (27, 2), (9, 3)]);
    assert_eq!(rows(1, 4_000, 3), [(99, 2), (25, 2), (8, 2)]);
    assert_eq!(rows(7, 4_000, 3), [(109, 2), (31, 2), (14, 2)]);
    assert_eq!(rows(424_242, 4_000, 3), [(99, 0), (30, 2), (13, 2)]);
    // The Quick-scale population.
    assert_eq!(rows(2015, 2_000, 3), [(63, 0), (16, 0), (7, 1)]);
    // More rounds extend the same prefix.
    assert_eq!(rows(2015, 4_000, 5), [(99, 1), (27, 2), (9, 3), (0, 4), (0, 4)]);
    // No rounds, no rows.
    assert!(rows(2015, 4_000, 0).is_empty());
    assert!(rows(3, 100, 0).is_empty());
}

#[test]
fn webmail_table_is_deterministic() {
    let cfg = webmail::WebmailConfig::default();
    assert_eq!(webmail::run(&cfg), webmail::run(&cfg));
}

#[test]
fn deployment_replay_is_deterministic() {
    let cfg = deployment::DeploymentConfig { messages: 120, ..Default::default() };
    let a = deployment::run(&cfg);
    let b = deployment::run(&cfg);
    assert_eq!(a.cdf, b.cdf);
    assert_eq!(a.within_10min, b.within_10min);
}

#[test]
fn extension_experiments_are_deterministic() {
    let ft = future_threats::FutureThreatsConfig { recipients: 3, ..Default::default() };
    assert_eq!(future_threats::run(&ft), future_threats::run(&ft));
    let cc = costs::CostsConfig { messages: 40, ..Default::default() };
    assert_eq!(costs::run(&cc), costs::run(&cc));
}

#[test]
fn parallel_seed_runner_is_order_independent() {
    // Running the same experiment under the crossbeam fan-out must give
    // the same per-seed results as serial execution.
    let seeds: Vec<u64> = (0..6).collect();
    let serial = run_seeds(&seeds, 1, |seed| {
        let cfg = nolisting_adoption::AdoptionConfig { domains: 800, seed, ..Default::default() };
        nolisting_adoption::run(&cfg).stats.pct(DomainClass::Nolisting)
    });
    let parallel = run_seeds(&seeds, 4, |seed| {
        let cfg = nolisting_adoption::AdoptionConfig { domains: 800, seed, ..Default::default() };
        nolisting_adoption::run(&cfg).stats.pct(DomainClass::Nolisting)
    });
    assert_eq!(serial, parallel);
}

/// Every registered experiment's canonical report must be byte-stable
/// under a fixed seed: same config in, same text/CSV/JSON bytes out. This
/// is the harness-level pin the CI golden snapshot builds on.
#[test]
fn every_registered_report_is_byte_stable() {
    let config = HarnessConfig { seed: Some(77), scale: Scale::Quick, ..Default::default() };
    for exp in harness::registry() {
        let a = exp.run(&config).unwrap();
        let b = exp.run(&config).unwrap();
        assert_eq!(a.to_text(), b.to_text(), "{}: text bytes differ across runs", exp.id());
        assert_eq!(a.to_csv(), b.to_csv(), "{}: CSV bytes differ across runs", exp.id());
        assert_eq!(a.to_json(), b.to_json(), "{}: JSON bytes differ across runs", exp.id());
    }
}

/// `repro all --jobs N` must be byte-identical to the serial run: each
/// report renders independently and results come back in registry order
/// regardless of worker count.
#[test]
fn parallel_registry_run_matches_serial_bytes() {
    let config = HarnessConfig { seed: None, scale: Scale::Quick, ..Default::default() };
    let indices: Vec<u64> = (0..harness::registry().len() as u64).collect();
    let render = |i: u64| harness::registry()[i as usize].run(&config).unwrap().to_json();
    let serial = run_seeds(&indices, 1, render);
    let parallel = run_seeds(&indices, 4, render);
    assert_eq!(serial, parallel, "worker count changed the rendered bytes");
}

/// The exact composition `repro all --json --metrics` prints — every
/// registered report rendered to canonical JSON (metrics embedded) and
/// joined into one array — must be byte-identical across two runs with the
/// same seed AND between a serial and a four-worker run. This is the
/// CI golden-snapshot contract.
#[test]
fn repro_all_json_metrics_composition_is_byte_identical() {
    let config = HarnessConfig { seed: Some(42), scale: Scale::Quick, ..Default::default() };
    let compose = |jobs: usize| -> String {
        let indices: Vec<u64> = (0..harness::registry().len() as u64).collect();
        let runs = run_seeds(&indices, jobs, |i| {
            harness::registry()[i as usize].run(&config).unwrap().to_json()
        });
        let bodies: Vec<String> = runs.into_iter().map(|r| r.output).collect();
        format!("[{}]\n", bodies.join(","))
    };
    let first = compose(1);
    let second = compose(1);
    assert_eq!(first, second, "same seed must give byte-identical output across runs");
    let parallel = compose(4);
    assert_eq!(first, parallel, "--jobs 4 must not change a single byte");
    // The contract includes the metrics: every report in the array embeds
    // a populated metrics section.
    assert_eq!(
        first.matches("\"metrics\":[{").count(),
        harness::registry().len(),
        "every report must embed a non-empty metrics section"
    );
}

/// `ActorSim`'s wake-up queue is the only execution substrate: every world-driven
/// experiment must report engine activity through the `sim.engine.*`
/// metrics (proving deliveries went through scheduled engine events, not a
/// manual loop), and the engine-driven report bytes must be seed-stable.
#[test]
fn world_driven_experiments_run_on_the_engine() {
    let config = HarnessConfig { seed: Some(5), scale: Scale::Quick, ..Default::default() };
    for id in ["table2", "table3", "fig3", "fig4", "fig5", "costs", "longterm", "future"] {
        let exp = harness::find(id).expect("registered");
        let a = exp.run(&config).unwrap();
        let events = a.metrics().counter("sim.engine.events").unwrap_or(0);
        assert!(events > 0, "{id}: no engine events recorded — not running on ActorSim?");
        let b = exp.run(&config).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "{id}: engine-driven bytes differ across runs");
    }
}

/// A compiled fault plan is part of the reproducibility contract: the
/// same (profile, seed) must yield identical window timelines whether
/// plans are compiled serially or across the crossbeam pool — this is
/// what lets serial and `--jobs N` runs see the same fault sequence.
#[test]
fn fault_plans_compile_identically_serial_and_parallel() {
    use spamward::net::{FaultPlan, FaultProfile};
    let seeds: Vec<u64> = (0..6).collect();
    let compile_all = |jobs: usize| {
        run_seeds(&seeds, jobs, |seed| {
            FaultProfile::catalog()
                .iter()
                .map(|p| format!("{:?}", FaultPlan::compile(p, seed)))
                .collect::<Vec<String>>()
        })
    };
    let serial = compile_all(1);
    let parallel = compile_all(4);
    assert_eq!(serial, parallel, "worker count changed a compiled fault plan");
    // And the plans are seed-sensitive: the chaos is seeded, not fixed.
    assert_ne!(serial[0].output, serial[1].output, "seed change had no effect on any plan");
}

/// The resilience sweep drives every fault profile — including
/// `all_faults`, where outages, link loss, DNS failures, SMTP aborts and
/// greylist-store downtime all overlap — and must complete without a
/// panic at any seed, byte-stable between serial and parallel execution.
#[test]
fn resilience_sweep_survives_all_faults_at_any_seed() {
    let exp = harness::find("resilience").expect("registered");
    for seed in [1, 2, 3] {
        let config = HarnessConfig { seed: Some(seed), scale: Scale::Quick, ..Default::default() };
        let render = |_: u64| exp.run(&config).unwrap().to_json();
        let serial = run_seeds(&[0], 1, render);
        let parallel = run_seeds(&[0, 1], 4, |_| exp.run(&config).unwrap().to_json());
        assert_eq!(serial[0].output, parallel[0].output, "seed {seed}: parallel bytes differ");
        let report = exp.run(&config).unwrap();
        for counter in
            ["net.fault.link_dropped", "mta.breaker.trips", "greylist.degraded.fail_open"]
        {
            assert!(
                report.metrics().counter(counter).unwrap_or(0) > 0,
                "seed {seed}: {counter} not exercised"
            );
        }
    }
}

/// The seed-7 delivery story, byte for byte: a reworded, dropped or
/// reordered trace line shows up as a diff here.
const SEED_7_STORY: &str = "\
[t+6s] dns.mx: foo.net: 2 exchanger(s)
[t+6s] smtp.outcome: [203.0.113.9] <a@relay.example> -> u@foo.net via smtp1.foo.net: \
deferred with 450 at rcpt-to
[t+6m16s] dns.mx: foo.net: 2 exchanger(s)
[t+6m16s] smtp.outcome: [203.0.113.9] <a@relay.example> -> u@foo.net via smtp1.foo.net: \
delivered to 1 rcpt(s) (0 deferred, 0 rejected)
[t+12m02s] dns.mx: foo.net: 2 exchanger(s)
[t+12m02s] net.fail: smtp.foo.net (192.0.2.1): connection refused
[t+12m02s] smtp.outcome: [203.0.113.9] <a@relay.example> -> u@foo.net via smtp1.foo.net: \
delivered to 1 rcpt(s) (0 deferred, 0 rejected)
[t+17m41s] dns.mx: foo.net: 2 exchanger(s)
[t+17m41s] net.fail: smtp.foo.net (192.0.2.1): connection refused
[t+17m41s] smtp.outcome: [203.0.113.9] <a@relay.example> -> u@foo.net via smtp1.foo.net: \
delivered to 1 rcpt(s) (0 deferred, 0 rejected)
";

/// Re-running the same traced scenario with the same seed must replay the
/// *exact* same event trace — not just the same aggregate numbers. This
/// pins the rendered trace (timestamps, categories, details) byte for
/// byte, so any nondeterminism that sneaks into the event loop shows up
/// as a diff here even when it does not move a statistic.
#[test]
fn event_trace_is_byte_identical_across_same_seed_runs() {
    let a = traced_delivery_story(7);
    let b = traced_delivery_story(7);
    assert!(!a.is_empty(), "the scenario must actually produce events");
    assert_eq!(a, b, "same seed must replay a byte-identical event trace");
    assert_eq!(a, SEED_7_STORY, "the seed-7 trace drifted from its recorded bytes");

    let c = traced_delivery_story(8);
    assert_ne!(a, c, "seed change had no observable effect on the trace");
}

/// A greylist + nolisting delivery story with tracing on: the primary MX
/// is dead (port 25 closed), the secondary greylists, senders pick MX
/// order at random and retry past the greylist delay at seed-derived
/// times. Returns the whole trace rendered to one string.
#[allow(clippy::unwrap_used)] // test helper; literals are known-good
fn traced_delivery_story(seed: u64) -> String {
    use spamward::mta::MxStrategy;
    use spamward::net::{PortState, SMTP_PORT};
    use spamward::prelude::*;
    use spamward::smtp::EmailAddress;
    use std::net::Ipv4Addr;

    let mut world = MailWorld::new(seed).with_tracing();
    let dead = Ipv4Addr::new(192, 0, 2, 1);
    let live = Ipv4Addr::new(192, 0, 2, 2);
    world.network.host("smtp.foo.net").ip(dead).port(SMTP_PORT, PortState::Closed).build();
    world.install_server(
        ReceivingMta::new("smtp1.foo.net", live)
            .with_greylist(Greylist::new(GreylistConfig::default())),
    );
    world.dns.publish(Zone::nolisting("foo.net".parse().unwrap(), dead, live));

    let envelope = Envelope::builder()
        .client_ip(Ipv4Addr::new(203, 0, 113, 9))
        .helo("client.example")
        .mail_from("a@relay.example".parse::<EmailAddress>().unwrap())
        .rcpt("u@foo.net".parse().unwrap())
        .build();
    let message = Message::builder().header("Subject", "s").body("b").build();
    let dialect = Dialect::compliant_mta("relay.example");
    let mut rng = DetRng::seed(seed).fork("trace-regression");

    // First pass gets greylisted; the retries land past the 300 s delay.
    let mut at = SimTime::from_secs(rng.below(60));
    for _ in 0..4 {
        world.attempt_delivery(
            at,
            &dialect,
            MxStrategy::AllRandom,
            &"foo.net".parse().unwrap(),
            envelope.clone(),
            message.clone(),
        );
        at += SimDuration::from_secs(300 + rng.below(120));
    }

    let mut story = String::new();
    for line in world.events.lines() {
        story.push_str(&line);
        story.push('\n');
    }
    story
}
