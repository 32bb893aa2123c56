//! The `greylist_churn` workload: a long stream of RCPT checks into one
//! [`Greylist`] with the write-ahead log on, with the periodic store
//! maintenance and checkpoints a durable deployment runs inline between
//! deliveries.
//!
//! Clients occupy fixed slots, visited in rounds over one seeded
//! permutation, one check per virtual tick. Each slot has a class:
//!
//! * compliant — first contact in round 0 (deferred), passes after the
//!   delay in round 1, is a known triplet from round 2 on;
//! * early retrier — like compliant, but retries once more on the very
//!   next tick of round 0 and is deferred again;
//! * fire-and-forget — a new client address every round, so a new triplet
//!   that is deferred once and never seen again; those pending entries age
//!   out and the sweeps drop them.
//!
//! The stream is in virtual-time order by construction, so every decision
//! is known in advance and checked. All addresses are built in set-up.

use crate::measure::{Batch, Bench, SpanId, Spans, Tally};
use spamward_greylist::metrics::{DEFERRED_NEW, DEFERRED_RESTARTED};
use spamward_greylist::{Decision, Greylist, GreylistConfig, PassReason, TripletStore};
use spamward_obs::Registry;
use spamward_sim::{DetRng, SimDuration, SimTime};
use spamward_smtp::{EmailAddress, ReversePath};
use std::net::Ipv4Addr;

/// Sizes and cadences of one churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Client slots.
    pub clients: u32,
    /// Distinct recipients (slot `s` writes to recipient `s % recipients`).
    pub recipients: u32,
    /// Virtual time between two checks.
    pub tick: SimDuration,
    /// Checks per timed batch.
    pub batch: usize,
    /// Batches between two maintenance sweeps.
    pub maintain_every: u64,
    /// Batches between two checkpoints (snapshot, then WAL truncation).
    pub checkpoint_every: u64,
}

/// Bits of a client address that hold the slot; the rest hold the
/// address generation (0 for a slot's fixed address).
const SLOT_BITS: u32 = 19;
/// The address generation the post-run probes use: one no round reaches.
const PROBE_GENERATION: u32 = (1 << (32 - SLOT_BITS)) - 1;
/// Probe triplets compared between the live and the recovered engine.
const PROBES: usize = 1_000;
/// The greylisting delay (Postgrey's default, the paper's 300 s).
const DELAY: SimDuration = SimDuration::from_secs(300);

impl ChurnConfig {
    /// 500k clients and 64 recipients at 100 checks per virtual second,
    /// timed in batches of 1 000: a sweep every 1 800 and a checkpoint
    /// every 7 200 virtual seconds.
    pub const FULL: ChurnConfig = ChurnConfig {
        clients: 500_000,
        recipients: 64,
        tick: SimDuration::from_millis(10),
        batch: 1_000,
        maintain_every: 180,
        checkpoint_every: 720,
    };

    /// 2 000 clients for `--smoke` runs and the per-layer probes; the tick
    /// is stretched so a round still outlasts the greylisting delay.
    pub const SMALL: ChurnConfig = ChurnConfig {
        clients: 2_000,
        recipients: 64,
        tick: SimDuration::from_secs(1),
        batch: 100,
        maintain_every: 5,
        checkpoint_every: 20,
    };

    /// A fresh engine: Postgrey defaults without the auto-whitelist (so
    /// every check reaches the store), the WAL off, and pending entries
    /// living three rounds so abandoned triplets age out.
    pub fn engine(&self) -> Greylist {
        let mut store = TripletStore::new();
        store.pending_lifetime = self.tick * (3 * u64::from(self.clients));
        Greylist::new(GreylistConfig::with_delay(DELAY).without_auto_whitelist()).with_store(store)
    }

    /// Batches covering the first three rounds (first contacts, delayed
    /// passes, known triplets), rounded up.
    fn min_batches(&self) -> usize {
        let clients = self.clients as usize;
        let checks = clients + clients / 4 + 2 * clients;
        checks.div_ceil(self.batch)
    }
}

/// How a client behaves towards the greylist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Retries after the delay, then keeps sending.
    Compliant,
    /// Retries once before the delay, then behaves as compliant.
    EarlyRetrier,
    /// Sends once from a new address every round.
    FireAndForget,
}

/// The decision a check must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A 450: first contact, or a retry before the delay elapsed.
    Defer,
    /// A pass because the delay elapsed.
    PassDelay,
    /// A pass of an already-passed triplet.
    PassKnown,
}

impl Expect {
    fn matches(self, decision: Decision) -> bool {
        match self {
            Expect::Defer => !decision.is_pass(),
            Expect::PassDelay => decision == Decision::Pass(PassReason::DelayElapsed),
            Expect::PassKnown => decision == Decision::Pass(PassReason::TripletKnown),
        }
    }
}

/// Every address and class the stream draws on, built before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnInputs {
    senders: Vec<ReversePath>,
    recipients: Vec<EmailAddress>,
    classes: Vec<Class>,
    order: Vec<u32>,
}

impl ChurnInputs {
    /// Generates the inputs of `config` from `seed`.
    pub fn generate(seed: u64, config: &ChurnConfig) -> Result<Self, String> {
        if config.clients == 0 || config.clients > 1 << SLOT_BITS || config.recipients == 0 {
            return Err(format!("churn: unsupported sizes {config:?}"));
        }
        let parse = |text: String| -> Result<EmailAddress, String> {
            text.parse().map_err(|e| format!("churn: bad address {text:?}: {e}"))
        };
        let senders = (0..config.clients)
            .map(|s| {
                parse(format!("client{s}@sender{}.example", s % 4096)).map(ReversePath::Address)
            })
            .collect::<Result<_, _>>()?;
        let recipients = (0..config.recipients)
            .map(|r| parse(format!("user{r}@churn.example")))
            .collect::<Result<_, _>>()?;
        let mut rng = DetRng::seed(seed).fork("churn.class");
        let classes = (0..config.clients)
            .map(|_| match rng.unit_f64() {
                x if x < 0.60 => Class::Compliant,
                x if x < 0.85 => Class::EarlyRetrier,
                _ => Class::FireAndForget,
            })
            .collect();
        let mut order: Vec<u32> = (0..config.clients).collect();
        DetRng::seed(seed).fork("churn.order").shuffle(&mut order);
        Ok(ChurnInputs { senders, recipients, classes, order })
    }

    /// The envelope sender and recipient of `slot`.
    pub fn envelope(&self, slot: u32) -> (&ReversePath, &EmailAddress) {
        let s = slot as usize;
        (&self.senders[s], &self.recipients[s % self.recipients.len()])
    }
}

/// Client address of `slot` in address generation `generation`. Slots
/// sharing a /24 differ in sender; generations never share a /24.
pub fn client_ip(slot: u32, generation: u32) -> Ipv4Addr {
    Ipv4Addr::from((generation << SLOT_BITS) | slot)
}

/// One check of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// The client slot (selects sender and recipient).
    pub slot: u32,
    /// The client address.
    pub ip: Ipv4Addr,
    /// Virtual time of the check.
    pub now: SimTime,
    /// The decision it must get.
    pub expect: Expect,
}

/// Position in the round-robin stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnStream {
    round: u32,
    pos: usize,
    early_again: bool,
    ticks: u64,
    first_contacts: u64,
}

impl ChurnStream {
    /// The next check, in virtual-time order.
    pub fn next(&mut self, inputs: &ChurnInputs, tick: SimDuration) -> Check {
        if self.pos == inputs.order.len() {
            self.round += 1;
            self.pos = 0;
        }
        let slot = inputs.order[self.pos];
        let (generation, expect) = if self.early_again {
            self.early_again = false;
            (0, Expect::Defer)
        } else {
            match (inputs.classes[slot as usize], self.round) {
                (Class::FireAndForget, round) => {
                    self.first_contacts += 1;
                    (round + 1, Expect::Defer)
                }
                (class, 0) => {
                    self.first_contacts += 1;
                    self.early_again = class == Class::EarlyRetrier;
                    (0, Expect::Defer)
                }
                (_, 1) => (0, Expect::PassDelay),
                _ => (0, Expect::PassKnown),
            }
        };
        if !self.early_again {
            self.pos += 1;
        }
        let now = self.now(tick);
        self.ticks += 1;
        Check { slot, ip: client_ip(slot, generation), now, expect }
    }

    /// Virtual time of the next check.
    pub fn now(&self, tick: SimDuration) -> SimTime {
        SimTime::ZERO + tick * self.ticks
    }

    /// Distinct triplets contacted so far.
    pub fn first_contacts(&self) -> u64 {
        self.first_contacts
    }
}

/// `greylist_churn`: one batch is [`ChurnConfig::batch`] timed checks,
/// followed by whatever sweep or checkpoint falls due.
pub struct Churn {
    config: ChurnConfig,
    inputs: ChurnInputs,
    stream: ChurnStream,
    engine: Greylist,
    buffer: Vec<Check>,
    decisions: Vec<Decision>,
    batches: u64,
    last_checkpoint: Option<String>,
    checkpoint_entries: u64,
    sweep_entries: u64,
}

impl Churn {
    /// Builds every input from `seed` (default 11).
    pub fn setup(seed: Option<u64>, smoke: bool) -> Result<Self, String> {
        let config = if smoke { ChurnConfig::SMALL } else { ChurnConfig::FULL };
        Ok(Churn {
            config,
            inputs: ChurnInputs::generate(seed.unwrap_or(11), &config)?,
            stream: ChurnStream::default(),
            engine: config.engine().with_wal(),
            buffer: Vec::with_capacity(config.batch),
            decisions: Vec::with_capacity(config.batch),
            batches: 0,
            last_checkpoint: None,
            checkpoint_entries: 0,
            sweep_entries: 0,
        })
    }

    fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        spamward_greylist::metrics::collect(&self.engine, &mut registry);
        spamward_greylist::metrics::collect_backend(&self.engine, &mut registry);
        registry
    }
}

impl Bench for Churn {
    fn batch(&mut self, spans: &mut Spans, _parent: Option<SpanId>) -> Batch {
        self.buffer.clear();
        for _ in 0..self.config.batch {
            self.buffer.push(self.stream.next(&self.inputs, self.config.tick));
        }
        self.decisions.clear();
        let clock = spans.clock();
        let start = clock.now_us();
        for c in &self.buffer {
            let (sender, rcpt) = self.inputs.envelope(c.slot);
            self.decisions.push(self.engine.check(c.now, c.ip, sender, rcpt));
        }
        let timed_us = clock.now_us() - start;
        let failed =
            self.buffer.iter().zip(&self.decisions).filter(|(c, &d)| !c.expect.matches(d)).count();

        self.batches += 1;
        let now = self.stream.now(self.config.tick);
        if self.batches.is_multiple_of(self.config.maintain_every) {
            self.sweep_entries += self.engine.store().len() as u64;
            self.engine.maintain(now);
        }
        if self.batches.is_multiple_of(self.config.checkpoint_every) {
            self.checkpoint_entries += self.engine.store().len() as u64;
            self.last_checkpoint = Some(self.engine.snapshot());
            self.engine.clear_wal();
        }
        Batch { work: self.buffer.len() as u64, timed_us, failed: failed as u64 }
    }

    fn min_batches(&self) -> usize {
        self.config.min_batches()
    }

    /// Every first contact was deferred as new, and an engine recovered
    /// from the last checkpoint plus the WAL tail holds as many entries as
    /// the live one and decides the same on [`PROBES`] probe triplets.
    fn verify(&mut self) -> Result<(), String> {
        let registry = self.registry();
        let new = registry.counter(DEFERRED_NEW).unwrap_or(0);
        let restarted = registry.counter(DEFERRED_RESTARTED).unwrap_or(0);
        if new != self.stream.first_contacts() || restarted != 0 {
            return Err(format!(
                "churn: {new} first-contact defers ({restarted} restarted) for {} distinct triplets",
                self.stream.first_contacts()
            ));
        }
        let mut recovered = self.config.engine();
        if let Some(text) = &self.last_checkpoint {
            recovered.restore(text).map_err(|e| format!("churn: restore failed: {e}"))?;
        }
        let wal = self.engine.wal().ok_or("churn: the WAL is off")?;
        recovered.replay_wal(wal.text()).map_err(|e| format!("churn: WAL replay failed: {e}"))?;
        let (live, restored) = (self.engine.store().len(), recovered.store().len());
        if live != restored {
            return Err(format!("churn: recovered store holds {restored} entries, live {live}"));
        }
        let now = self.stream.now(self.config.tick) + SimDuration::from_secs(1);
        let order = &self.inputs.order;
        for k in 0..PROBES {
            let slot = order[k * 7_919 % order.len()];
            let ip = client_ip(slot, if k % 2 == 0 { 0 } else { PROBE_GENERATION });
            let (sender, rcpt) = self.inputs.envelope(slot);
            let (a, b) =
                (self.engine.check(now, ip, sender, rcpt), recovered.check(now, ip, sender, rcpt));
            if a != b {
                return Err(format!("churn: probe {k} decided {a:?} live but {b:?} recovered"));
            }
        }
        Ok(())
    }

    fn tally(&mut self) -> Tally {
        let mut tally = Tally::default();
        tally.add(&self.registry());
        tally.checkpoint_entries = self.checkpoint_entries;
        tally.sweep_entries = self.sweep_entries;
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(seed: u64, n: usize) -> Vec<Check> {
        let config = ChurnConfig::SMALL;
        let inputs = ChurnInputs::generate(seed, &config).unwrap();
        let mut stream = ChurnStream::default();
        (0..n).map(|_| stream.next(&inputs, config.tick)).collect()
    }

    #[test]
    fn inputs_are_pure_in_the_seed() {
        let config = ChurnConfig::SMALL;
        let a = ChurnInputs::generate(7, &config).unwrap();
        assert_eq!(a, ChurnInputs::generate(7, &config).unwrap());
        assert_ne!(a, ChurnInputs::generate(8, &config).unwrap());
        assert_eq!(prefix(7, 5_000), prefix(7, 5_000));
        assert_ne!(prefix(7, 5_000), prefix(8, 5_000));
    }

    #[test]
    fn stream_is_in_virtual_time_order_and_covers_every_decision() {
        let checks = prefix(3, 7_000);
        assert!(checks.windows(2).all(|w| w[0].now < w[1].now));
        for expect in [Expect::Defer, Expect::PassDelay, Expect::PassKnown] {
            assert!(checks.iter().any(|c| c.expect == expect), "{expect:?} never drawn");
        }
    }

    #[test]
    fn fire_and_forget_clients_change_network_every_round() {
        let a = client_ip(5, 1);
        let b = client_ip(5, 2);
        assert_ne!(u32::from(a) >> 8, u32::from(b) >> 8);
        assert_eq!(client_ip(5, 0), Ipv4Addr::from(5));
    }
}
