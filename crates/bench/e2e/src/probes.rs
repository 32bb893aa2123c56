//! Per-layer probes for the traced run.
//!
//! Each probe times batches of calls into one layer's public function,
//! fed with inputs the workloads' own generators make from the seed, and
//! reports the median cost per call (or per entry, line or record) over
//! the batches. [`layer_metrics`] then multiplies those costs by the calls
//! a workload made — read from the program's own registry — to split the
//! workload's wall time across the layers. Layers are timed from outside;
//! spans inside the program are left to in-program tracing.

use crate::churn::{ChurnConfig, ChurnInputs, ChurnStream};
use crate::measure::{median, timed, Measured, Metric, SpanId, Spans, Stopwatch, Tally};
use crate::workloads::{paper_experiments, Workload, SURVEY_DOMAINS};
use spamward_analysis::log::GreylistLogAnalysis;
use spamward_core::experiments::deployment::{DeploymentConfig, DEPLOYMENT_DOMAIN};
use spamward_core::experiments::nolisting_adoption::{AdoptionConfig, ADOPTION_SHARDS};
use spamward_core::experiments::worlds::{self, VICTIM_MX_IP};
use spamward_core::harness::{HarnessConfig, Scale};
use spamward_dns::metrics::{AUTHORITY_SERVED, CACHE_HIT, CACHE_MISS, QUERY_MX};
use spamward_dns::{Authority, DomainName, NameTable, RecordData, RecordType, Zone};
use spamward_greylist::metrics::{DEFERRED_TOTAL, PASSED_TOTAL, STORE_BYTES, STORE_SIZE};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::metrics::{ENGINE_EVENTS, RECV_LOG_ENTRIES, SEND_ATTEMPTS};
use spamward_mta::{MailWorld, MtaProfile, MxStrategy, SendingMta};
use spamward_net::metrics::{CONNECT_ATTEMPTED, CONNECT_ESTABLISHED};
use spamward_net::{indexed_ip, Network, SMTP_PORT};
use spamward_scanner::metrics::CLASSIFIED;
use spamward_scanner::{
    BannerGrab, DnsAnyScan, HostSpec, NolistingDetector, PopulationSpec, PopulationStream,
    ScanRound, StreamedDomain,
};
use spamward_sim::{Actor, ActorSim, ShardPlan, SimDuration, SimTime, Wake};
use spamward_smtp::metrics::COMMANDS;
use spamward_smtp::{
    exchange, AcceptAll, ClientSession, Dialect, EmailAddress, Envelope, Message, ReversePath,
    ServerSession,
};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Batches per probe (the median is taken over these).
const BATCHES: usize = 11;
/// Calls per probe batch.
const CALLS: usize = 1_000;
/// Timed runs of each experiment for `layer.core.run.*`.
const PASSES: usize = 3;
/// Base of the probe clients' addresses.
const CLIENT_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 1);
/// The survey's two scan epochs.
const EPOCHS: [u64; 2] = [0, 1];

/// Runs every probe, returning one metric per probed cost.
///
/// `seed` feeds each probe's input generator (`None`: each workload's
/// default); `smoke` shrinks every batch for tests.
pub fn run(
    seed: Option<u64>,
    smoke: bool,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Result<Vec<Metric>, String> {
    let (batches, calls, passes) = if smoke { (3, 20, 1) } else { (BATCHES, CALLS, PASSES) };
    let mut p = Prober { spans, parent, batches, calls, out: Vec::new() };
    mail_probes(&mut p, seed.unwrap_or(DeploymentConfig::default().seed))?;
    engine_probe(&mut p);
    greylist_probes(&mut p, seed.unwrap_or(11))?;
    survey_probes(&mut p, seed.unwrap_or(AdoptionConfig::default().seed));
    core_probes(&mut p, seed, smoke, passes)?;
    // What attempt_delivery spends outside the layers probed separately.
    let parts: f64 = [
        "layer.dns.resolve_mx.ns",
        "layer.dns.resolve_ptr.ns",
        "layer.net.connect_at.ns",
        "layer.smtp.exchange.ns",
        "layer.greylist.check.ns",
    ]
    .iter()
    .map(|name| p.value(name))
    .sum();
    let attempt_self = p.value("layer.mta.attempt_delivery.ns") - parts;
    p.out.push(Metric::new("layer.mta.attempt_self.ns", attempt_self, "ns"));
    Ok(p.out)
}

/// The result of timing one probe batch: the timed interval (µs) and how
/// many units (calls, entries, lines or records) it covered.
type Timing = ((u64, u64), u64);

struct Prober<'a> {
    spans: &'a mut Spans,
    parent: Option<SpanId>,
    batches: usize,
    calls: usize,
    out: Vec<Metric>,
}

impl Prober<'_> {
    /// Runs `batch(b, clock)` for each batch `b`: it prepares its inputs,
    /// times its calls with [`timed`] and returns that [`Timing`]. Records
    /// one span per batch and returns the median ns per unit.
    fn time(&mut self, name: &str, mut batch: impl FnMut(usize, Stopwatch) -> Timing) -> f64 {
        let clock = self.spans.clock();
        let mut samples = Vec::with_capacity(self.batches);
        for b in 0..self.batches {
            let (interval, units) = batch(b, clock);
            self.spans.push(name, self.parent, interval);
            samples.push((interval.1 - interval.0) as f64 * 1e3 / units.max(1) as f64);
        }
        median(&samples)
    }

    /// Times batches of `scale` x [`Prober::calls`] calls each:
    /// `batch(range, clock)` prepares the calls numbered `range`, times them
    /// with [`timed`] and returns that interval. Records the median ns per
    /// call. Cheap calls get a larger `scale`, so that no timed batch is
    /// short enough for the microsecond clock to round it.
    fn per_call(
        &mut self,
        name: &str,
        scale: usize,
        mut batch: impl FnMut(Range<usize>, Stopwatch) -> (u64, u64),
    ) {
        let n = self.calls * scale;
        let ns = self.time(name, |b, clock| (batch(b * n..(b + 1) * n, clock), n as u64));
        self.out.push(Metric::new(name, ns, "ns"));
    }

    /// [`Prober::time`], recorded as a metric in ns.
    fn ns(&mut self, name: &str, batch: impl FnMut(usize, Stopwatch) -> Timing) {
        let ns = self.time(name, batch);
        self.out.push(Metric::new(name, ns, "ns"));
    }

    fn value(&self, name: &str) -> f64 {
        self.out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }
}

/// The Fig. 5 campus server behind a 300 s greylist, as `deploy_10x`
/// builds one per shard.
fn deploy_world(seed: u64) -> MailWorld {
    let greylist = Greylist::new(
        GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
    );
    worlds::greylist_world_at(seed, DEPLOYMENT_DOMAIN, "mail.cs-dept.example", greylist)
}

fn client_ip(i: usize) -> Ipv4Addr {
    indexed_ip(CLIENT_BASE, i as u64)
}

/// The delivery path: drain, attempt_delivery and the dns, net and smtp
/// calls it makes, plus the server log it leaves behind.
fn mail_probes(p: &mut Prober, seed: u64) -> Result<(), String> {
    let total = p.batches * p.calls;
    let bad = |e: &dyn std::fmt::Display| format!("probe inputs: {e}");
    let domain: DomainName = DEPLOYMENT_DOMAIN.parse().map_err(|e| bad(&e))?;
    let rcpt: EmailAddress = format!("staff0@{DEPLOYMENT_DOMAIN}").parse().map_err(|e| bad(&e))?;
    let senders: Vec<ReversePath> = (0..total)
        .map(|i| format!("user{i}@relay{i}.example").parse().map(ReversePath::Address))
        .collect::<Result<_, _>>()
        .map_err(|e| bad(&e))?;
    let envelopes: Vec<Envelope> = (0..total)
        .map(|i| {
            let builder = Envelope::builder().client_ip(client_ip(i));
            builder.mail_from(senders[i].clone()).rcpt(rcpt.clone()).try_build()
        })
        .collect::<Result<_, _>>()
        .map_err(|e| bad(&e))?;
    let message = Message::builder().header("Subject", "probe").body("benign mail body").build();
    let dialect = Dialect::compliant_mta("relay.example");

    // One fresh sender per call: defer, retry on schedule, deliver.
    let mut world = deploy_world(seed);
    p.per_call("layer.mta.drain.ns", 1, |range, clock| {
        let batch: Vec<(SimTime, SendingMta)> = range
            .map(|i| {
                let at = SimTime::from_secs(60 * i as u64);
                let relay = format!("relay{i}.example");
                let mut sender = SendingMta::new(&relay, vec![client_ip(i)], MtaProfile::postfix());
                let rcpts = vec![rcpt.clone()];
                sender.submit(domain.clone(), senders[i].clone(), rcpts, message.clone(), at);
                (at, sender)
            })
            .collect();
        timed(clock, || {
            for (at, mut sender) in batch {
                let _ = black_box(sender.drain(at, &mut world));
            }
        })
    });
    let server = world.server(VICTIM_MX_IP).ok_or("probe world lost its server")?;
    let entries = server.log().len() as u64;
    p.ns("layer.mta.log_text.ns_per_entry", |_, clock| {
        (timed(clock, || drop(black_box(server.log_text()))), entries)
    });
    let text = server.log_text();
    let lines = text.lines().count() as u64;
    p.ns("layer.analysis.log_analysis.ns_per_line", |_, clock| {
        let interval = timed(clock, || {
            let _ = black_box(GreylistLogAnalysis::from_lines(text.lines()));
        });
        (interval, lines)
    });

    // Pairs of calls per triplet: first contact (deferred), then the retry
    // ten minutes later (delivered), as in the replay.
    let mut world = deploy_world(seed);
    p.per_call("layer.mta.attempt_delivery.ns", 1, |range, clock| {
        let batch: Vec<(SimTime, Envelope, Message)> = range
            .map(|i| {
                let at = SimTime::from_secs(60 * (i / 2) as u64 + 600 * (i % 2) as u64);
                (at, envelopes[i / 2].clone(), message.clone())
            })
            .collect();
        timed(clock, || {
            for (at, envelope, message) in batch {
                let strategy = MxStrategy::RfcCompliant;
                let _ = black_box(
                    world.attempt_delivery(at, &dialect, strategy, &domain, envelope, message),
                );
            }
        })
    });
    p.per_call("layer.dns.resolve_mx.ns", 10, |range, clock| {
        let (resolver, dns) = (&mut world.resolver, &mut world.dns);
        timed(clock, || {
            for i in range {
                let now = SimTime::from_secs(60 * i as u64);
                let _ = black_box(resolver.resolve_mx(dns, &domain, now));
            }
        })
    });
    p.per_call("layer.dns.resolve_ptr.ns", 1_000, |range, clock| {
        timed(clock, || {
            for i in range {
                let _ = black_box(world.dns.resolve_ptr(client_ip(i)));
            }
        })
    });
    p.per_call("layer.net.connect_at.ns", 100, |range, clock| {
        timed(clock, || {
            for i in range {
                let now = SimTime::from_secs(60 * i as u64);
                let _ = black_box(world.network.connect_at(VICTIM_MX_IP, SMTP_PORT, 0, now));
            }
        })
    });
    p.per_call("layer.smtp.exchange.ns", 1, |range, clock| {
        let batch: Vec<(ClientSession, ServerSession)> = range
            .map(|i| {
                let client =
                    ClientSession::new(dialect.clone(), envelopes[i].clone(), message.clone());
                (client, ServerSession::new("mail.cs-dept.example", client_ip(i)))
            })
            .collect();
        timed(clock, || {
            for (mut client, mut server) in batch {
                let _ =
                    black_box(exchange(&mut client, &mut server, &mut AcceptAll, SimTime::ZERO));
            }
        })
    });
    Ok(())
}

/// An actor that wakes once a virtual second until its count runs out —
/// engine dispatch with no work behind it.
struct Countdown(u64);

impl Actor<u64> for Countdown {
    fn name(&self) -> &str {
        "e2e.countdown"
    }

    fn wake(&mut self, _now: SimTime, state: &mut u64) -> Wake {
        *state += 1;
        if self.0 == 0 {
            return Wake::Idle;
        }
        self.0 -= 1;
        Wake::In(SimDuration::from_secs(1))
    }
}

fn engine_probe(p: &mut Prober) {
    p.per_call("layer.sim.event.ns", 100, |range, clock| {
        let mut sim = ActorSim::new(0u64);
        sim.add_actor(Countdown(range.len() as u64 - 1), SimTime::ZERO);
        timed(clock, || {
            let _ = black_box(sim.run());
        })
    });
}

/// Greylist checks per probe batch, as a multiple of [`Prober::calls`].
const CHECK_SCALE: usize = 10;
/// Maintenance sweeps per probe batch.
const SWEEPS: u64 = 100;

/// The greylist engine on a small `greylist_churn` stream, with and
/// without the WAL, then its checkpoint, recovery and sweep paths.
fn greylist_probes(p: &mut Prober, seed: u64) -> Result<(), String> {
    let config = ChurnConfig::SMALL;
    let inputs = ChurnInputs::generate(seed, &config)?;
    let mut stream = ChurnStream::default();
    let checks: Vec<_> =
        (0..p.batches * p.calls * CHECK_SCALE).map(|_| stream.next(&inputs, config.tick)).collect();
    let end = stream.now(config.tick);
    let mut durable = config.engine().with_wal();
    for (name, engine) in [
        ("layer.greylist.check.ns", &mut config.engine()),
        ("layer.greylist.check_wal.ns", &mut durable),
    ] {
        p.per_call(name, CHECK_SCALE, |range, clock| {
            timed(clock, || {
                for c in &checks[range] {
                    let (sender, rcpt) = inputs.envelope(c.slot);
                    let _ = black_box(engine.check(c.now, c.ip, sender, rcpt));
                }
            })
        });
    }
    p.per_call("layer.greylist.key_for.ns", CHECK_SCALE, |range, clock| {
        timed(clock, || {
            for c in &checks[range] {
                let (sender, rcpt) = inputs.envelope(c.slot);
                let _ = black_box(durable.key_for(c.ip, sender, rcpt));
            }
        })
    });
    let entries = durable.store().len() as u64;
    p.ns("layer.greylist.snapshot.ns_per_entry", |_, clock| {
        (timed(clock, || drop(black_box(durable.snapshot()))), entries)
    });
    let wal = durable.wal().ok_or("probe engine lost its WAL")?;
    let (wal, records) = (wal.text().to_owned(), wal.records());
    p.ns("layer.greylist.replay_wal.ns_per_record", |_, clock| {
        let mut fresh = config.engine();
        let interval = timed(clock, || {
            let _ = black_box(fresh.replay_wal(&wal));
        });
        (interval, records)
    });
    // Sweep once first, so the timed sweeps all scan the same live store.
    durable.maintain(end);
    let entries = durable.store().len() as u64;
    p.ns("layer.greylist.maintain.ns_per_entry", |_, clock| {
        let interval = timed(clock, || {
            for _ in 0..SWEEPS {
                let _ = black_box(durable.maintain(end));
            }
        });
        (interval, entries * SWEEPS)
    });
    Ok(())
}

/// The survey's per-domain DNS work (as `scan_shard` does it): publish the
/// domain's zone, then per epoch collect its MX entries and patch glue.
fn dns_rounds(name: &DomainName, zone: Zone) -> Vec<DnsAnyScan> {
    let mut dns = Authority::new();
    dns.publish(zone);
    EPOCHS
        .iter()
        .map(|_| {
            let mut scan = DnsAnyScan::collect(&mut dns, [name]);
            for e in scan.mx.values_mut().flatten() {
                if e.ip.is_none() {
                    let answers = dns.query_ro(&e.exchange, RecordType::A).answers;
                    e.ip = answers.iter().find_map(|r| match r.data {
                        RecordData::A(ip) => Some(ip),
                        _ => None,
                    });
                }
            }
            scan
        })
        .collect()
}

/// A domain's mail hosts as their own small network.
fn host_network(seed: u64, hosts: Vec<HostSpec>) -> Network {
    let mut net = Network::new(seed);
    for h in hosts {
        net.host(&h.name).ip(h.ip).port(SMTP_PORT, h.smtp).availability(h.availability).build();
    }
    net
}

/// Both scan rounds of one domain, ready to classify.
fn scan_rounds(seed: u64, domain: StreamedDomain) -> (DomainName, Vec<ScanRound>) {
    let name = domain.record.name.clone();
    let net = host_network(seed, domain.hosts);
    let rounds = dns_rounds(&name, domain.zone)
        .into_iter()
        .zip(EPOCHS)
        .map(|(dns, epoch)| ScanRound { dns, banner: BannerGrab::collect(&net, epoch) })
        .collect();
    (name, rounds)
}

/// The survey pipeline's stages, per domain of the `survey_300k` stream.
fn survey_probes(p: &mut Prober, seed: u64) {
    let stream = PopulationStream::new(PopulationSpec::fig2(SURVEY_DOMAINS), seed);
    let plan = ShardPlan::new(seed, ADOPTION_SHARDS);
    let n = stream.len() as u64;
    // Domain indices spread over the whole population.
    let index = |i: usize| (i as u64 * 7_919) % n;
    let expanded = |range: Range<usize>| -> Vec<StreamedDomain> {
        range.map(|i| stream.expand(&stream.packed(index(i)), &mut NameTable::new(0))).collect()
    };

    p.per_call("layer.scanner.owns.ns", 100, |range, clock| {
        timed(clock, || {
            for i in range.map(index) {
                let shard = (i % u64::from(ADOPTION_SHARDS)) as u32;
                let _ = black_box(plan.owns(shard, &stream.name_of(i)));
            }
        })
    });
    p.per_call("layer.scanner.packed.ns", 100, |range, clock| {
        timed(clock, || {
            for i in range.map(index) {
                let _ = black_box(stream.packed(i));
            }
        })
    });
    // Like the scan, each domain interns its name into a table of its own.
    p.per_call("layer.scanner.expand.ns", 10, |range, clock| {
        let packed: Vec<_> = range.map(|i| stream.packed(index(i))).collect();
        timed(clock, || {
            for record in &packed {
                let _ = black_box(stream.expand(record, &mut NameTable::new(0)));
            }
        })
    });
    p.per_call("layer.dns.publish_collect.ns", 1, |range, clock| {
        let domains = expanded(range);
        timed(clock, || {
            for d in domains {
                let _ = black_box(dns_rounds(&d.record.name, d.zone));
            }
        })
    });
    p.per_call("layer.net.host_build.ns", 1, |range, clock| {
        let domains = expanded(range);
        timed(clock, || {
            for d in domains {
                let _ = black_box(host_network(seed, d.hosts));
            }
        })
    });
    p.per_call("layer.net.banner_grab.ns", 1, |range, clock| {
        let nets: Vec<Network> =
            expanded(range).into_iter().map(|d| host_network(seed, d.hosts)).collect();
        timed(clock, || {
            for net in &nets {
                for epoch in EPOCHS {
                    let _ = black_box(BannerGrab::collect(net, epoch));
                }
            }
        })
    });
    p.per_call("layer.scanner.classify.ns", 1, |range, clock| {
        let domains: Vec<_> = expanded(range).into_iter().map(|d| scan_rounds(seed, d)).collect();
        timed(clock, || {
            for (name, rounds) in &domains {
                for round in rounds {
                    let single = std::slice::from_ref(round);
                    let _ = black_box(NolistingDetector::classify(single, name));
                }
                let _ = black_box(NolistingDetector::classify(rounds, name));
            }
        })
    });
}

/// Wall time a repeated timing must cover before it is divided by its
/// repetitions: long enough that the microsecond clock does not round it.
const MIN_TIMED_US: u64 = 2_000;
/// JSON renderings of every report per `render_json` probe batch.
const RENDERS: u64 = 10;

/// Every `paper_all` experiment, timed whole (repeated until the timing
/// covers [`MIN_TIMED_US`]), and the JSON rendering of their reports.
fn core_probes(
    p: &mut Prober,
    seed: Option<u64>,
    smoke: bool,
    passes: usize,
) -> Result<(), String> {
    let scale = if smoke { Scale::Quick } else { Scale::Paper };
    let config = HarnessConfig { seed, scale, shards: 1, ..Default::default() };
    let experiments = paper_experiments();
    let clock = p.spans.clock();
    let mut run_ms = vec![Vec::new(); experiments.len()];
    let mut reports = Vec::new();
    for _ in 0..passes {
        reports.clear();
        for (exp, samples) in experiments.iter().zip(&mut run_ms) {
            let start = clock.now_us();
            let mut runs = 0;
            let report = loop {
                let report = exp.run(&config).map_err(|e| e.to_string())?;
                runs += 1;
                if clock.now_us() - start >= MIN_TIMED_US {
                    break report;
                }
            };
            let interval = (start, clock.now_us());
            p.spans.push(exp.id(), p.parent, interval);
            samples.push((interval.1 - interval.0) as f64 / 1e3 / f64::from(runs));
            reports.push(report);
        }
    }
    for (exp, samples) in experiments.iter().zip(&run_ms) {
        p.out.push(Metric::new(&format!("layer.core.run.{}.ms", exp.id()), median(samples), "ms"));
    }
    let renders = reports.len() as u64 * RENDERS;
    let ns = p.time("layer.analysis.render_json.ms", |_, clock| {
        let interval = timed(clock, || {
            for _ in 0..RENDERS {
                reports.iter().for_each(|r| drop(black_box(r.to_json())));
            }
        });
        (interval, renders)
    });
    p.out.push(Metric::new("layer.analysis.render_json.ms", ns / 1e6, "ms"));
    Ok(())
}

/// How many calls a workload made into a layer, from what it tallied.
type Calls = fn(Workload, &Tally, &Measured) -> u64;

/// Greylist checks, whichever way the engine was configured.
fn checks(t: &Tally) -> u64 {
    t.counter(DEFERRED_TOTAL) + t.counter(PASSED_TOTAL)
}

/// The layers whose costs add up to a workload's time, disjoint from one
/// another: the layer, the unit of its cost metric, and its call count. A count is 0
/// on a workload that does not call the layer on its measured path.
const LEAVES: [(&str, &str, Calls); 20] = [
    ("layer.sim.event", "ns", |_, t, _| t.counter(ENGINE_EVENTS)),
    ("layer.mta.attempt_self", "ns", |_, t, _| t.counter(SEND_ATTEMPTS)),
    ("layer.mta.log_text", "ns_per_entry", |w, t, _| {
        if w == Workload::Deploy {
            t.counter(RECV_LOG_ENTRIES)
        } else {
            0
        }
    }),
    ("layer.dns.resolve_mx", "ns", |_, t, _| t.counter(QUERY_MX)),
    // Every authority query that is not a resolver cache miss is a PTR.
    ("layer.dns.resolve_ptr", "ns", |_, t, _| {
        t.counter(AUTHORITY_SERVED).saturating_sub(t.counter(CACHE_MISS))
    }),
    ("layer.dns.publish_collect", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.net.connect_at", "ns", |_, t, _| t.counter(CONNECT_ATTEMPTED)),
    ("layer.net.host_build", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.net.banner_grab", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.smtp.exchange", "ns", |_, t, _| t.counter(CONNECT_ESTABLISHED)),
    ("layer.greylist.check", "ns", |w, t, _| if w == Workload::Churn { 0 } else { checks(t) }),
    ("layer.greylist.check_wal", "ns", |w, t, _| if w == Workload::Churn { checks(t) } else { 0 }),
    ("layer.greylist.snapshot", "ns_per_entry", |_, t, _| t.checkpoint_entries),
    ("layer.greylist.maintain", "ns_per_entry", |_, t, _| t.sweep_entries),
    ("layer.scanner.owns", "ns", |_, t, _| t.counter(CLASSIFIED) * u64::from(ADOPTION_SHARDS)),
    ("layer.scanner.packed", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.scanner.expand", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.scanner.classify", "ns", |_, t, _| t.counter(CLASSIFIED)),
    ("layer.analysis.log_analysis", "ns_per_line", |w, t, _| {
        if w == Workload::Deploy {
            t.counter(RECV_LOG_ENTRIES)
        } else {
            0
        }
    }),
    (
        "layer.analysis.render_json",
        "ms",
        |w, _, m| {
            if w == Workload::PaperAll {
                m.work
            } else {
                0
            }
        },
    ),
];

/// `probes` plus, per leaf layer, its calls and its share of the measured
/// wall time (calls x cost / wall), the ratios the registry gives, and the
/// share no probed layer accounts for.
pub fn layer_metrics(w: Workload, probes: &[Metric], t: &Tally, m: &Measured) -> Vec<Metric> {
    let cost_ns = |name: &str| {
        probes.iter().find(|p| p.name == name).map_or(0.0, |p| match p.unit {
            "ms" => p.value * 1e6,
            _ => p.value,
        })
    };
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let mut out = probes.to_vec();
    let wall_ns = m.wall_us.max(1) as f64 * 1e3;
    let mut shares = Vec::with_capacity(LEAVES.len());
    for (layer, cost, calls) in LEAVES {
        let n = calls(w, t, m);
        let share = n as f64 * cost_ns(&format!("{layer}.{cost}")) / wall_ns;
        shares.push(share);
        out.push(Metric::new(&format!("{layer}.calls"), n as f64, "count"));
        out.push(Metric::new(&format!("{layer}.share"), share, "ratio"));
    }
    let (hits, misses) = (t.counter(CACHE_HIT), t.counter(CACHE_MISS));
    let classified = t.counter(CLASSIFIED);
    out.extend([
        Metric::new("layer.dns.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        Metric::new(
            "layer.smtp.commands_per_session",
            ratio(t.counter(COMMANDS), t.counter(CONNECT_ESTABLISHED)),
            "count",
        ),
        Metric::new(
            "layer.scanner.owned_ratio",
            ratio(classified, classified * u64::from(ADOPTION_SHARDS)),
            "ratio",
        ),
        Metric::new("layer.greylist.store_entries", t.gauge_mean(STORE_SIZE), "count"),
        Metric::new("layer.greylist.store_bytes", t.gauge_mean(STORE_BYTES), "bytes"),
        Metric::new("layer.unattributed.share", 1.0 - shares.iter().sum::<f64>(), "ratio"),
    ]);
    out
}
