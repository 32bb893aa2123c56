//! Event-driven episodes over a [`MailWorld`].
//!
//! [`WorldSim`] is the bridge between the mail world and the engine: it
//! runs one *episode* of an [`ActorSim`] over the caller's world, borrowed
//! — the caller's drivers (a sending MTA, a webmail outbound tier built by
//! `spamward_webmail`, or a botnet delivery chain), also borrowed, run as
//! self-rescheduling timers that call [`MailWorld::attempt_delivery`] from
//! inside engine events — and folds the episode's [`EngineStats`] into
//! [`MailWorld::engine_stats`] afterwards.
//!
//! Beside the drivers, every episode runs the timers the *world* was
//! configured with, so no caller has to remember them: the window edges
//! of the fault plan installed with [`MailWorld::install_faults`] and, in
//! horizon-bounded episodes, the telemetry sampler
//! ([`MailWorld::with_sampling`]), the greylist-store sweep
//! ([`MailWorld::with_store_maintenance`]) and the durability checkpoint
//! ([`MailWorld::with_checkpointing`]). They register after the drivers,
//! in that order.
//!
//! Episodes are sequential by design: the world's shared latency RNG
//! means results depend on the exact global order of delivery attempts,
//! so one set of drivers owns the world at a time and the experiment
//! composes episodes in its own order. Within an episode, same-instant
//! events run FIFO in the order they were scheduled — first wake-ups in
//! registration order, so a driver's first wake-up runs before a world
//! tick due at the same instant — and the engine's determinism guarantee
//! applies unchanged.
//!
//! [`MailWorld::event_budget`] (when set) is a *cumulative* cap: each
//! episode runs with whatever budget previous episodes left over, and a
//! truncated episode surfaces as
//! [`RunOutcome::BudgetExhausted`] in the returned outcome and the
//! world's outcome tally.
//!
//! [`EngineStats`]: spamward_sim::EngineStats

use crate::metrics::{ACTOR_CHECKPOINT, ACTOR_OBS_SAMPLE, ACTOR_STORE_MAINTAIN, TRACE_FAULT};
use crate::world::MailWorld;
use spamward_sim::{Actor, ActorSim, RunOutcome, SampleClock, SimDuration, SimTime, Wake};

/// Runs engine episodes against a [`MailWorld`].
pub struct WorldSim;

impl WorldSim {
    /// Runs `driver` to completion (queue drained, `horizon` passed, or
    /// event budget exhausted) as one engine episode over `world`.
    ///
    /// The driver's first wake-up fires at `first_wake`; every subsequent
    /// one is whatever [`Wake`] the driver returns. The driver keeps
    /// whatever results it accumulated. Returns the episode's
    /// [`RunOutcome`] and the final virtual clock.
    pub fn episode<D: Actor<MailWorld>>(
        world: &mut MailWorld,
        driver: &mut D,
        first_wake: SimTime,
        horizon: Option<SimTime>,
    ) -> (RunOutcome, SimTime) {
        WorldSim::episode_with(world, [(driver, first_wake)], horizon)
    }

    /// Runs several drivers of one type as a single engine episode.
    ///
    /// This is the multi-driver form of [`WorldSim::episode`]: every
    /// `(driver, first_wake)` pair is registered before the engine starts,
    /// then the world's own timers (see the [module docs](self)), so
    /// same-instant wake-ups interleave in registration order (the
    /// engine's FIFO guarantee). The fault timeline thereby fires its
    /// window edges in the same event stream as the delivery attempts they
    /// perturb — which is what makes serial and `--jobs N` runs see
    /// identical fault sequences.
    ///
    /// Each episode gets a fresh engine whose clock starts at zero: a
    /// clock kept across episodes would clamp a later episode's first
    /// wake-ups to the earlier episode's end (botnet chains restart at the
    /// campaign start). Only the engine's queue and counter storage carry
    /// over: the world lends it to the engine and takes it back, emptied
    /// at the start of the next episode. Returns the episode outcome and
    /// the final virtual clock.
    pub fn episode_with<'d, D: Actor<MailWorld> + 'd>(
        world: &mut MailWorld,
        drivers: impl IntoIterator<Item = (&'d mut D, SimTime)>,
        horizon: Option<SimTime>,
    ) -> (RunOutcome, SimTime) {
        let remaining = world.event_budget.map(|t| t.saturating_sub(world.engine_stats.events));
        let buffers = std::mem::take(&mut world.engine_buffers);
        let mut sim = ActorSim::with_buffers(&mut *world, buffers);
        if let Some(h) = horizon {
            sim = sim.with_horizon(h);
        }
        if let Some(budget) = remaining {
            sim = sim.with_event_budget(budget);
        }
        let mut first_driver: Option<SimTime> = None;
        for (driver, first_wake) in drivers {
            first_driver = Some(first_driver.map_or(first_wake, |at| at.min(first_wake)));
            sim.add_actor(Cast::Driver(driver), first_wake);
        }
        for (timer, first_wake) in WorldTimer::for_episode(sim.state(), first_driver, horizon) {
            sim.add_actor(Cast::Timer(timer), first_wake);
        }
        let outcome = sim.run();
        let end = sim.now();
        // The engine borrows the world, so the world's accounting comes
        // out of it for the fold and goes back in.
        let mut stats = std::mem::take(&mut sim.state_mut().engine_stats);
        sim.fold_stats_into(&mut stats);
        sim.state_mut().engine_stats = stats;
        world.engine_buffers = sim.into_buffers();
        (outcome, end)
    }
}

/// What a world timer does on each tick.
type Tick = fn(&mut MailWorld, SimTime);

/// When a world timer fires.
enum Schedule {
    /// At every window edge of the world's installed fault plan.
    FaultEdges,
    /// Every interval of the clock, up to the episode horizon.
    Every(SampleClock),
}

/// One of the world's own timers: a named tick on a schedule. Ticks are
/// ordinary engine events, ordered (FIFO at equal instants) against the
/// delivery attempts they observe or perturb and counted under `name`.
struct WorldTimer {
    name: &'static str,
    tick: Tick,
    schedule: Schedule,
}

impl WorldTimer {
    /// The world's timers for one episode with their first wake-ups, in
    /// registration order: fault edges, sampler, store maintenance,
    /// checkpoint.
    ///
    /// Fault edges run in every episode on a world with an installed plan.
    /// The periodic timers join only horizon-bounded episodes of a world
    /// that opted in: an unbounded episode has no last tick, and a world
    /// that never asked for them must run the exact same event stream as
    /// before (golden bytes depend on it). Their ticks land at
    /// `first + k·interval`, `first` being the earliest of the drivers'
    /// first wake-up (`first_driver`) and the first fault edge.
    fn for_episode(
        world: &MailWorld,
        first_driver: Option<SimTime>,
        horizon: Option<SimTime>,
    ) -> Vec<(WorldTimer, SimTime)> {
        let first_edge = world.fault_edges().first().copied();
        let mut timers = Vec::new();
        if let Some(at) = first_edge {
            let faults = WorldTimer {
                name: TRACE_FAULT,
                tick: MailWorld::note_fault_boundary,
                schedule: Schedule::FaultEdges,
            };
            timers.push((faults, at));
        }
        let Some(horizon) = horizon else { return timers };
        let first = first_driver.into_iter().chain(first_edge).min().unwrap_or(SimTime::ZERO);
        let periodic: [(&'static str, Option<SimDuration>, Tick); 3] = [
            (ACTOR_OBS_SAMPLE, world.sample_interval(), MailWorld::sample_telemetry),
            (ACTOR_STORE_MAINTAIN, world.maintenance_interval(), MailWorld::maintain_stores),
            (ACTOR_CHECKPOINT, world.checkpoint_interval(), MailWorld::checkpoint_stores),
        ];
        for (name, interval, tick) in periodic {
            let Some(interval) = interval else { continue };
            let clock = SampleClock::new(interval, horizon);
            if let Some(at) = clock.next_after(first) {
                timers.push((WorldTimer { name, tick, schedule: Schedule::Every(clock) }, at));
            }
        }
        timers
    }

    fn wake(&mut self, now: SimTime, world: &mut MailWorld) -> Wake {
        (self.tick)(world, now);
        let next = match &self.schedule {
            Schedule::FaultEdges => {
                // Edges are sorted and deduplicated; the next wake-up is
                // the first one strictly after this tick.
                let edges = world.fault_edges();
                edges.get(edges.partition_point(|&edge| edge <= now)).copied()
            }
            Schedule::Every(clock) => clock.next_after(now),
        };
        next.map_or(Wake::Idle, Wake::At)
    }
}

/// An episode's cast: [`ActorSim`] runs actors of one type, so the
/// caller's borrowed drivers and the world's timers share the episode
/// through this enum.
enum Cast<'d, D> {
    Driver(&'d mut D),
    Timer(WorldTimer),
}

impl<D: Actor<MailWorld>> Actor<&mut MailWorld> for Cast<'_, D> {
    fn name(&self) -> &str {
        match self {
            Cast::Driver(driver) => driver.name(),
            Cast::Timer(timer) => timer.name,
        }
    }

    fn wake(&mut self, now: SimTime, world: &mut &mut MailWorld) -> Wake {
        match self {
            Cast::Driver(driver) => driver.wake(now, world),
            Cast::Timer(timer) => timer.wake(now, world),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive::ReceivingMta;
    use crate::schedule::MtaProfile;
    use crate::send::SendingMta;
    use spamward_dns::Zone;
    use spamward_net::{FaultPlan, FaultProfile};
    use spamward_smtp::{Message, ReversePath};
    use std::net::Ipv4Addr;

    fn seeded_world() -> (MailWorld, Ipv4Addr) {
        let mut world = MailWorld::new(31);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        world.install_server(ReceivingMta::new("mail.foo.net", mx));
        world.dns.publish(Zone::single_mx("foo.net".parse().unwrap(), mx));
        (world, mx)
    }

    fn one_message_mta_at(at: SimTime) -> SendingMta {
        let mut mta = SendingMta::new(
            "relay.example",
            vec![Ipv4Addr::new(198, 51, 100, 1)],
            MtaProfile::postfix(),
        );
        mta.submit(
            "foo.net".parse().unwrap(),
            ReversePath::Address("a@relay.example".parse().unwrap()),
            vec!["u@foo.net".parse().unwrap()],
            Message::builder().body("x").build(),
            at,
        );
        mta
    }

    fn one_message_mta() -> SendingMta {
        one_message_mta_at(SimTime::ZERO)
    }

    #[test]
    fn drain_on_a_faulted_world_fires_every_plan_edge() {
        let (mut world, mx) = seeded_world();
        let plan = FaultPlan::compile(&FaultProfile::dns_degraded(), 7);
        world.install_faults(&plan);
        let n_boundaries = plan.boundaries().len() as u64;
        assert!(n_boundaries > 0);
        let mut mta = one_message_mta();
        mta.drain(SimTime::ZERO, &mut world);
        assert_eq!(mta.queue()[0].status, crate::send::OutboundStatus::Delivered);
        assert_eq!(world.server(mx).unwrap().mailbox().len(), 1);
        assert_eq!(
            world.fault_boundaries(),
            n_boundaries,
            "every window edge must surface as an engine event"
        );
        assert_eq!(world.engine_stats.actor_events["net.fault"], vec![n_boundaries]);
        assert!(world.engine_stats.actor_events.contains_key("mta.send"));
    }

    #[test]
    fn same_instant_driver_wake_runs_before_the_fault_edge() {
        // A crash window on a host the world does not serve: its edges are
        // engine events, but no delivery is affected.
        let edge = SimTime::from_secs(120);
        let plan = FaultPlan::compile(
            &FaultProfile::crash_restart("elsewhere.example", edge, SimDuration::from_secs(60)),
            7,
        );
        assert_eq!(plan.boundaries()[0], edge);
        let (world, _) = seeded_world();
        let mut world = world.with_tracing();
        world.install_faults(&plan);
        let mut mta = one_message_mta_at(edge);
        mta.drain(SimTime::ZERO, &mut world);
        let lines: Vec<String> = world.events.lines().collect();
        let at_edge = |needle: &str| {
            lines
                .iter()
                .position(|l| l.starts_with(&format!("[{edge}]")) && l.contains(needle))
                .unwrap_or_else(|| panic!("no {needle:?} line at the edge: {lines:?}"))
        };
        assert!(
            at_edge("smtp.outcome") < at_edge("fault window boundary"),
            "the driver registered first, so it runs first: {lines:?}"
        );
    }

    #[test]
    fn sampling_world_gets_a_sampler_in_every_bounded_episode() {
        let (mut world, _) = seeded_world();
        world = world.with_sampling(SimDuration::from_secs(60));
        let horizon = SimTime::from_secs(300);
        WorldSim::episode(&mut world, &mut one_message_mta(), SimTime::ZERO, Some(horizon));
        // Ticks land at 60, 120, ..., 300 s of virtual time.
        assert!(world.engine_stats.actor_events.contains_key("obs.sample"));
        assert_eq!(
            world.samples.get(crate::metrics::SAMPLE_RECV_ACCEPTED, SimTime::from_secs(60)),
            Some(1),
            "first tick sees the already-delivered message"
        );
        assert_eq!(world.samples.get(crate::metrics::SAMPLE_RECV_ACCEPTED, horizon), Some(1));

        // Without a horizon no sampler joins (nothing would bound it) and
        // the episode still drains normally.
        let (mut quiet, _) = seeded_world();
        quiet = quiet.with_sampling(SimDuration::from_secs(60));
        let (outcome, _) =
            WorldSim::episode(&mut quiet, &mut one_message_mta(), SimTime::ZERO, None);
        assert_eq!(outcome, RunOutcome::Drained);
        assert!(quiet.samples.is_empty());
        assert!(!quiet.engine_stats.actor_events.contains_key("obs.sample"));
    }

    #[test]
    fn maintenance_world_sweeps_stores_on_schedule() {
        use spamward_greylist::{Greylist, GreylistConfig};

        let mut world = MailWorld::new(31);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        world.install_server(ReceivingMta::new("mail.foo.net", mx).with_greylist(Greylist::new(
            GreylistConfig::with_delay(SimDuration::from_secs(300)).without_auto_whitelist(),
        )));
        world.dns.publish(Zone::single_mx("foo.net".parse().unwrap(), mx));
        world = world.with_store_maintenance(SimDuration::from_secs(120));
        let horizon = SimTime::from_secs(600);
        WorldSim::episode(&mut world, &mut one_message_mta(), SimTime::ZERO, Some(horizon));
        assert!(world.engine_stats.actor_events.contains_key("greylist.maintain"));
        // The 120 s tick sees the deferred first contact still pending.
        assert_eq!(
            world.samples.get(crate::metrics::SAMPLE_STORE_SIZE, SimTime::from_secs(120)),
            Some(1)
        );
        assert!(world
            .samples
            .get(crate::metrics::SAMPLE_STORE_BYTES, SimTime::from_secs(120))
            .is_some_and(|b| b > 0));
        // Worlds that never opted in keep the exact prior event stream.
        let (mut plain, _) = seeded_world();
        WorldSim::episode(&mut plain, &mut one_message_mta(), SimTime::ZERO, Some(horizon));
        assert!(!plain.engine_stats.actor_events.contains_key("greylist.maintain"));
    }

    #[test]
    fn unsampled_worlds_run_the_exact_prior_event_stream() {
        let (mut world, _) = seeded_world();
        WorldSim::episode(
            &mut world,
            &mut one_message_mta(),
            SimTime::ZERO,
            Some(SimTime::from_secs(300)),
        );
        assert!(world.samples.is_empty());
        assert!(!world.engine_stats.actor_events.contains_key("obs.sample"));
    }

    /// A greylisting server with snapshot-plus-WAL durability that crashes
    /// at 120 s and restarts 60 s later.
    fn crashing_durable_world() -> (MailWorld, Ipv4Addr, FaultPlan) {
        use spamward_greylist::{DurabilityMode, Greylist, GreylistConfig};

        let mut world = MailWorld::new(31);
        let mx = Ipv4Addr::new(192, 0, 2, 10);
        world.install_server(
            ReceivingMta::new("mail.foo.net", mx)
                .with_greylist(Greylist::new(
                    GreylistConfig::with_delay(SimDuration::from_secs(300))
                        .without_auto_whitelist(),
                ))
                .with_durability(DurabilityMode::SnapshotPlusWal),
        );
        world.dns.publish(Zone::single_mx("foo.net".parse().unwrap(), mx));
        let plan = FaultPlan::compile(
            &FaultProfile::crash_restart(
                "mail.foo.net",
                SimTime::from_secs(120),
                SimDuration::from_secs(60),
            ),
            7,
        );
        world.install_faults(&plan);
        (world, mx, plan)
    }

    #[test]
    fn two_driver_episode_engine_stats_are_pinned() {
        use spamward_sim::{EngineStats, OutcomeTally};

        let (world, _, _) = crashing_durable_world();
        let mut world = world
            .with_sampling(SimDuration::from_secs(60))
            .with_store_maintenance(SimDuration::from_secs(120))
            .with_checkpointing(SimDuration::from_secs(60));
        let late = SimTime::from_secs(90);
        let (mut early_mta, mut late_mta) = (one_message_mta(), one_message_mta_at(late));
        let drivers = [(&mut early_mta, SimTime::ZERO), (&mut late_mta, late)];
        let (outcome, end) =
            WorldSim::episode_with(&mut world, drivers, Some(SimTime::from_secs(900)));
        assert_eq!((outcome, end), (RunOutcome::Drained, SimTime::from_secs(900)));
        let expect = EngineStats {
            events: 44,
            queue_high_water: 6,
            actor_events: [
                ("greylist.checkpoint", vec![15]),
                ("greylist.maintain", vec![7]),
                ("mta.send", vec![3, 2]),
                ("net.fault", vec![2]),
                ("obs.sample", vec![15]),
            ]
            .into_iter()
            .map(|(name, counts)| (name.to_owned(), counts))
            .collect(),
            outcomes: OutcomeTally { drained: 1, ..OutcomeTally::default() },
        };
        assert_eq!(world.engine_stats, expect);
    }

    #[test]
    fn crash_restart_fires_through_the_engine_and_recovers_per_durability() {
        let (world, mx, plan) = crashing_durable_world();
        let mut world = world.with_checkpointing(SimDuration::from_secs(60));

        let mut mta = one_message_mta();
        WorldSim::episode(&mut world, &mut mta, SimTime::ZERO, Some(SimTime::from_secs(900)));
        // t0: greylisted first contact. 60 s: checkpoint (1 entry).
        // 120 s: crash. 180 s: restart, checkpoint restored. 300 s: the
        // postfix retry passes the 300 s delay against the *recovered*
        // triplet — durable state means the crash cost no extra delay.
        assert_eq!(mta.queue()[0].status, crate::send::OutboundStatus::Delivered);
        assert_eq!(world.server(mx).unwrap().mailbox().len(), 1);
        let crash = world.server(mx).unwrap().crash_stats();
        assert_eq!((crash.crashes, crash.restarts), (1, 1));
        assert_eq!(crash.entries_restored, 1);
        assert_eq!(crash.entries_lost, 0);
        assert!(crash.checkpoints >= 2, "periodic ticks plus the restart re-baseline");
        // Both crash edges fired as engine events, and the checkpointer
        // ran as a world timer.
        assert_eq!(world.fault_boundaries(), plan.boundaries().len() as u64);
        assert!(world.engine_stats.actor_events.contains_key("greylist.checkpoint"));
        assert!(world.engine_stats.actor_events.contains_key("net.fault"));
        // Worlds that never opted in keep the exact prior event stream.
        let (mut plain, _) = seeded_world();
        WorldSim::episode(
            &mut plain,
            &mut one_message_mta(),
            SimTime::ZERO,
            Some(SimTime::from_secs(300)),
        );
        assert!(!plain.engine_stats.actor_events.contains_key("greylist.checkpoint"));
    }

    /// An actor that wakes `left` times, `every` apart, and touches
    /// nothing.
    struct Tick {
        left: u32,
        every: SimDuration,
    }

    impl Actor<MailWorld> for Tick {
        fn name(&self) -> &str {
            "tick"
        }

        fn wake(&mut self, _: SimTime, _: &mut MailWorld) -> Wake {
            self.left -= 1;
            if self.left == 0 {
                Wake::Idle
            } else {
                Wake::In(self.every)
            }
        }
    }

    proptest::proptest! {
        /// Episodes on one world that lends its engine buffers from one
        /// episode to the next account exactly as episodes on fresh
        /// buffers do, including after episodes cut at their horizon or
        /// by the world's event budget with wake-ups still queued.
        #[test]
        fn prop_reused_engine_buffers_match_fresh_ones(
            episodes in proptest::collection::vec(
                ((1u32..5, 1u32..8), 1u64..90, 0u64..200, 0u64..400),
                1..8,
            ),
            budget in 0u64..160,
        ) {
            let run = |fresh: bool| {
                let mut world = MailWorld::new(5);
                world.event_budget = (budget > 0).then_some(budget);
                let mut ends = Vec::new();
                for &((tickers, wakes), every, first, horizon) in &episodes {
                    if fresh {
                        world.engine_buffers = spamward_sim::EngineBuffers::default();
                    }
                    let mut ticks: Vec<Tick> = (0..tickers)
                        .map(|d| Tick { left: wakes + d, every: SimDuration::from_secs(every) })
                        .collect();
                    let first = SimTime::from_secs(first);
                    let horizon = (horizon < 300).then(|| SimTime::from_secs(horizon));
                    let cast = ticks.iter_mut().map(|tick| (tick, first));
                    ends.push(WorldSim::episode_with(&mut world, cast, horizon));
                }
                (ends, world.engine_stats)
            };
            proptest::prop_assert_eq!(run(false), run(true));
        }
    }

    #[test]
    fn empty_plan_adds_no_fault_timer() {
        let (mut world, _) = seeded_world();
        world.install_faults(&FaultPlan::compile(&FaultProfile::none(), 7));
        let mut mta = one_message_mta();
        mta.drain(SimTime::ZERO, &mut world);
        assert_eq!(mta.queue()[0].status, crate::send::OutboundStatus::Delivered);
        assert_eq!(world.fault_boundaries(), 0);
        assert!(!world.engine_stats.actor_events.contains_key("net.fault"));
    }
}
