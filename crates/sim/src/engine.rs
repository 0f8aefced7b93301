//! The slotted simulation engine: one slot kernel behind every entry point.
//!
//! [`Simulation::run`] and its variants, and every replication of a
//! [`crate::ReplicationBatch`], run the same kernel. Its state is built so
//! the compiler can keep it in registers: each sensor is a [`Lane`] of
//! plain integers (battery level and statistics in milli-units), a
//! one-sensor run holds its lane in a fixed-size local rather than on the
//! heap, each recharge process is classified once per run so the
//! closed-form kinds run inline, and configuration branches (outages,
//! round-robin ownership, the event cursor) are hoisted out of the slot
//! loop.

use evcap_core::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable, SlotAssignment};
use evcap_dist::SlotPmf;
use evcap_energy::{Battery, ConsumptionModel, Energy, RechargeKind, RechargeProcess};
use evcap_obs::{timing, NullObserver, Observer, SlotOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::events::EventSchedule;
use crate::metrics::{BatterySample, SensorStats, SimReport, TraceRecord};
use crate::outage::OutagePlan;
use crate::{Result, SimError};

/// Factory producing one recharge process per sensor index.
pub type RechargeFactory<'f> = dyn FnMut(usize) -> Box<dyn RechargeProcess> + 'f;

/// Where the per-slot activation probability comes from.
///
/// Stationary policies compile to a [`PolicyTable`] once per run
/// ([`TableProb`]): the hot loop pays one bounds check and an array load
/// instead of a virtual call into the policy object. Policies that
/// condition on more than the renewal state fall back to dynamic dispatch
/// ([`DynProb`]). The kernel is monomorphized over the source, so the table
/// path carries no dispatch residue.
pub(crate) trait ProbSource {
    fn probability(&self, ctx: &DecisionContext) -> f64;
}

pub(crate) struct TableProb<'p>(pub &'p PolicyTable);

impl ProbSource for TableProb<'_> {
    #[inline]
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.0.probability(ctx.state)
    }
}

pub(crate) struct DynProb<'p>(pub &'p dyn ActivationPolicy);

impl ProbSource for DynProb<'_> {
    #[inline]
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.0.probability(ctx)
    }
}

/// The activation coin: no RNG draw at the boundary probabilities, exactly
/// one `f64` draw strictly inside `(0, 1)`.
#[inline(always)]
fn coin_wants(p: f64, rng: &mut SmallRng) -> bool {
    p > 0.0 && (p >= 1.0 || rng.random::<f64>() < p)
}

/// [`Battery::fill_fraction`] on a raw level.
#[inline(always)]
fn fill_fraction(level: i64, capacity: i64) -> f64 {
    if capacity == 0 {
        1.0
    } else {
        level as f64 / capacity as f64
    }
}

/// How the sensors share the monitoring work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coordination {
    /// Exactly one sensor (per the assignment) is in charge of each slot —
    /// the paper's Section V schemes. Captures are broadcast, so all sensors
    /// share the partial-information state.
    Rotating(SlotAssignment),
    /// No coordination: every sensor decides every slot from its *own*
    /// observation history (the paper's "work independently without any
    /// coordination or information exchange" strawman). Redundant
    /// activations duplicate effort.
    Independent,
}

/// Builder-style configuration of a simulation run.
///
/// Defaults follow the paper's Section VI setup: `δ1 = 1`, `δ2 = 6`,
/// `K = 1000` with a half-full initial battery, one sensor, round-robin slot
/// assignment, no outages, and a `10^6`-slot horizon.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    pub(crate) pmf: &'a SlotPmf,
    pub(crate) slots: u64,
    pub(crate) seed: u64,
    pub(crate) consumption: ConsumptionModel,
    pub(crate) sensors: usize,
    pub(crate) battery_capacity: Energy,
    pub(crate) initial_level: Option<Energy>,
    pub(crate) coordination: Coordination,
    pub(crate) outages: OutagePlan,
    pub(crate) trace_slots: usize,
    pub(crate) battery_sample_every: Option<u64>,
    pub(crate) warmup_slots: u64,
}

impl<'a> Simulation<'a> {
    /// Starts a builder for the given event process.
    pub fn builder(pmf: &'a SlotPmf) -> Self {
        Self {
            pmf,
            slots: 1_000_000,
            seed: 0,
            consumption: ConsumptionModel::paper_defaults(),
            sensors: 1,
            battery_capacity: Energy::from_units(1000.0),
            initial_level: None,
            coordination: Coordination::Rotating(SlotAssignment::RoundRobin),
            outages: OutagePlan::none(),
            trace_slots: 0,
            battery_sample_every: None,
            warmup_slots: 0,
        }
    }

    /// Sets the simulated horizon in slots.
    #[must_use]
    pub fn slots(mut self, slots: u64) -> Self {
        self.slots = slots;
        self
    }

    /// Seeds both the decision RNG and the event schedule.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the consumption model (`δ1`, `δ2`).
    #[must_use]
    pub fn consumption(mut self, consumption: ConsumptionModel) -> Self {
        self.consumption = consumption;
        self
    }

    /// Sets the number of collaborating sensors.
    #[must_use]
    pub fn sensors(mut self, sensors: usize) -> Self {
        self.sensors = sensors;
        self
    }

    /// Sets every sensor's battery capacity `K`.
    #[must_use]
    pub fn battery(mut self, capacity: Energy) -> Self {
        self.battery_capacity = capacity;
        self
    }

    /// Overrides the initial battery level (default: half of `K`, the
    /// paper's convention).
    #[must_use]
    pub fn initial_level(mut self, level: Energy) -> Self {
        self.initial_level = Some(level);
        self
    }

    /// Sets the multi-sensor slot assignment scheme (rotating coordination).
    #[must_use]
    pub fn assignment(mut self, assignment: SlotAssignment) -> Self {
        self.coordination = Coordination::Rotating(assignment);
        self
    }

    /// Switches to fully uncoordinated operation: every sensor decides every
    /// slot from its own observations.
    #[must_use]
    pub fn independent(mut self) -> Self {
        self.coordination = Coordination::Independent;
        self
    }

    /// Injects sensor outages.
    #[must_use]
    pub fn outages(mut self, plan: OutagePlan) -> Self {
        self.outages = plan;
        self
    }

    /// Discards the first `n` slots from the QoM statistics: events that
    /// occur during warm-up are neither counted nor credited (the sensors
    /// still run — states evolve and energy flows — so the measured portion
    /// starts from a realistic mid-deployment condition). `run` rejects a
    /// warm-up that swallows the whole horizon.
    #[must_use]
    pub fn warmup_slots(mut self, n: u64) -> Self {
        self.warmup_slots = n;
        self
    }

    /// Records a [`TraceRecord`] for each of the first `n` slots (for the
    /// sensor in charge; in independent mode, for sensor 0).
    #[must_use]
    pub fn trace_slots(mut self, n: usize) -> Self {
        self.trace_slots = n;
        self
    }

    /// Samples every sensor's battery level every `every` slots into
    /// [`SimReport::battery_trace`].
    #[must_use]
    pub fn record_battery_every(mut self, every: u64) -> Self {
        self.battery_sample_every = Some(every.max(1));
        self
    }

    /// Samples an event schedule and runs the policy on it.
    ///
    /// `make_recharge` is called once per sensor index to build its recharge
    /// process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid configuration (zero slots, zero
    /// sensors, battery/energy validation failures).
    pub fn run(
        &self,
        policy: &dyn ActivationPolicy,
        make_recharge: &mut RechargeFactory<'_>,
    ) -> Result<SimReport> {
        self.run_observed(policy, make_recharge, &mut NullObserver)
    }

    /// Like [`Simulation::run`], but reports slot-level progress into an
    /// [`Observer`]. The engine is monomorphized over the observer type, so
    /// `run` (which passes [`NullObserver`]) pays nothing for the hooks.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`].
    pub fn run_observed<O: Observer>(
        &self,
        policy: &dyn ActivationPolicy,
        make_recharge: &mut RechargeFactory<'_>,
        observer: &mut O,
    ) -> Result<SimReport> {
        let schedule = EventSchedule::generate(self.pmf, self.slots, self.seed)?;
        self.run_on_observed(&schedule, policy, make_recharge, observer)
    }

    /// Runs the policy on a pre-sampled event schedule (so multiple policies
    /// can be compared on identical events).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleTooShort`] if the schedule does not cover
    /// the configured horizon, plus the configuration errors of
    /// [`Simulation::run`].
    pub fn run_on(
        &self,
        schedule: &EventSchedule,
        policy: &dyn ActivationPolicy,
        make_recharge: &mut RechargeFactory<'_>,
    ) -> Result<SimReport> {
        self.run_on_observed(schedule, policy, make_recharge, &mut NullObserver)
    }

    /// Like [`Simulation::run_on`], but with an [`Observer`] attached.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run_on`].
    pub fn run_on_observed<O: Observer>(
        &self,
        schedule: &EventSchedule,
        policy: &dyn ActivationPolicy,
        make_recharge: &mut RechargeFactory<'_>,
        observer: &mut O,
    ) -> Result<SimReport> {
        // Stationary policies precompile to a flat probability table; the
        // `table()` contract guarantees bit-identical probabilities, so both
        // paths produce byte-identical reports for the same seed.
        let info = policy.info_model();
        let table = policy.table();
        let _span = timing::span("sim.run");
        match &table {
            Some(table) => self.kernel(
                self.seed,
                schedule,
                info,
                &TableProb(table),
                make_recharge,
                observer,
            ),
            None => self.kernel(
                self.seed,
                schedule,
                info,
                &DynProb(policy),
                make_recharge,
                observer,
            ),
        }
    }

    /// Validates the configuration against `schedule`, builds the lanes,
    /// and runs the slot loop for one seed — the single entry into the
    /// kernel, shared by every `run*` method and every batch replication.
    /// Validation errors come in a fixed order: zero slots, no sensors, a
    /// short schedule, a warm-up covering the horizon, then the battery.
    /// Never inlined, so single runs and batch replications execute the
    /// same machine code.
    #[inline(never)]
    pub(crate) fn kernel<P: ProbSource, O: Observer>(
        &self,
        seed: u64,
        schedule: &EventSchedule,
        info: InfoModel,
        prob: &P,
        make_recharge: &mut RechargeFactory<'_>,
        observer: &mut O,
    ) -> Result<SimReport> {
        if self.slots == 0 {
            return Err(SimError::ZeroSlots);
        }
        if self.sensors == 0 {
            return Err(SimError::NoSensors);
        }
        if schedule.slots() < self.slots {
            return Err(SimError::ScheduleTooShort {
                schedule_slots: schedule.slots(),
                needed: self.slots,
            });
        }
        if self.warmup_slots >= self.slots {
            return Err(SimError::ZeroSlots);
        }
        let battery = match self.initial_level {
            Some(level) => Battery::new(self.battery_capacity, level)?,
            None => Battery::half_full(self.battery_capacity)?,
        };
        let lane = Lane {
            level: battery.level().as_millis(),
            ..Lane::default()
        };
        let run = Run {
            sim: self,
            seed,
            events: schedule.event_slots(),
            info,
            prob,
            initial: lane.level,
        };
        let report = if self.sensors == 1 {
            run.slot_loop([lane], [Harvest::classify(make_recharge(0))], observer)
        } else {
            let harvests = (0..self.sensors)
                .map(|s| Harvest::classify(make_recharge(s)))
                .collect::<Vec<_>>();
            run.slot_loop(vec![lane; self.sensors], harvests, observer)
        };
        timing::add_count("sim.slots", self.slots);
        Ok(report)
    }
}

/// One sensor's battery and statistics as plain integers (energy in
/// milli-units), mirroring [`Battery`] and [`SensorStats`] exactly.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    level: i64,
    consumed: i64,
    recharged: i64,
    overflow: i64,
    activations: u64,
    captures: u64,
    forced_idle: u64,
    outage_slots: u64,
    own_last_capture: u64,
    /// Whether the sensor activated this slot (independent coordination).
    active: bool,
}

impl Lane {
    /// [`Battery::recharge`] plus the recharge statistics, in [`Energy`]'s
    /// saturating arithmetic. Returns the overflow.
    #[inline(always)]
    fn absorb(&mut self, amount: i64, capacity: i64) -> i64 {
        let absorbed = amount.min(capacity.saturating_sub(self.level));
        self.level = self.level.saturating_add(absorbed);
        let overflow = amount.saturating_sub(absorbed);
        self.recharged = self
            .recharged
            .saturating_add(amount.saturating_sub(overflow));
        if overflow != 0 {
            self.overflow = self.overflow.saturating_add(overflow);
        }
        overflow
    }

    /// Pays the capture cost `δ2` ([`Battery::try_consume`]) and credits
    /// the capture.
    #[inline(always)]
    fn capture(&mut self, t: u64, d2: i64, measured: bool) {
        let paid = self.level >= d2;
        debug_assert!(paid, "activation threshold guarantees δ1 + δ2");
        if paid {
            self.level -= d2;
        }
        self.consumed = self.consumed.saturating_add(d2);
        self.captures += u64::from(measured);
        self.own_last_capture = t;
    }

    fn stats(&self, initial: i64) -> SensorStats {
        SensorStats {
            activations: self.activations,
            captures: self.captures,
            forced_idle: self.forced_idle,
            outage_slots: self.outage_slots,
            consumed: Energy::from_millis(self.consumed),
            recharged: Energy::from_millis(self.recharged),
            overflow: Energy::from_millis(self.overflow),
            initial_level: Energy::from_millis(initial),
            final_level: Energy::from_millis(self.level),
        }
    }
}

/// Where a run keeps its lanes: a one-sensor run in a fixed-size local the
/// compiler can promote to registers, a fleet in a vector. [`Lanes::at`]
/// maps a sensor index to its lane; the single lane answers 0 without
/// looking, so every access to it has a constant index.
trait Lanes: AsRef<[Lane]> + AsMut<[Lane]> {
    fn at(sensor: usize) -> usize;
}

impl Lanes for [Lane; 1] {
    #[inline(always)]
    fn at(_sensor: usize) -> usize {
        0
    }
}

impl Lanes for Vec<Lane> {
    #[inline(always)]
    fn at(sensor: usize) -> usize {
        sensor
    }
}

/// A sensor's recharge process, classified once per run from
/// [`RechargeProcess::kind`]. The closed-form kinds deliver inline in the
/// slot loop (the kind contract makes their deliveries and RNG draws those
/// of `next`); only [`RechargeKind::Other`] keeps the boxed `next` call.
enum Harvest {
    Bernoulli {
        q: f64,
        c: i64,
    },
    Constant {
        rate: i64,
    },
    Periodic {
        amount: i64,
        period: u32,
        phase: u32,
    },
    Uniform {
        lo: i64,
        hi: i64,
    },
    Other(Box<dyn RechargeProcess>),
}

impl Harvest {
    fn classify(process: Box<dyn RechargeProcess>) -> Self {
        match process.kind() {
            RechargeKind::Bernoulli { q, c } => Harvest::Bernoulli {
                q,
                c: c.as_millis(),
            },
            RechargeKind::Constant { rate } => Harvest::Constant {
                rate: rate.as_millis(),
            },
            RechargeKind::Periodic {
                amount,
                period,
                phase,
            } => Harvest::Periodic {
                amount: amount.as_millis(),
                period,
                phase,
            },
            RechargeKind::Uniform { lo, hi } => Harvest::Uniform {
                lo: lo.as_millis(),
                hi: hi.as_millis(),
            },
            RechargeKind::Other => Harvest::Other(process),
        }
    }

    /// The next slot's delivery in milli-units.
    #[inline(always)]
    fn next(&mut self, rng: &mut SmallRng) -> i64 {
        match self {
            Harvest::Bernoulli { q, c } => {
                // One f64 per slot, hit or miss. The hit selects the
                // amount without a branch: at `q` near 1/2 a branch would
                // mispredict every other slot.
                let hit = rng.random::<f64>() < *q;
                std::hint::select_unpredictable(hit, *c, 0)
            }
            Harvest::Constant { rate } => *rate,
            Harvest::Periodic {
                amount,
                period,
                phase,
            } => {
                *phase += 1;
                if *phase == *period {
                    *phase = 0;
                    *amount
                } else {
                    0
                }
            }
            Harvest::Uniform { lo, hi } => rng.random_range(*lo..=*hi),
            Harvest::Other(process) => {
                // The trait object draws from a copy of the stream, so the
                // kernel's own generator never has its address taken and
                // can stay in registers.
                let mut stream = rng.clone();
                let amount = process.next(&mut stream);
                *rng = stream;
                amount.as_millis()
            }
        }
    }
}

/// One seed's run: the configuration and everything the slot loop reads.
struct Run<'r, P> {
    sim: &'r Simulation<'r>,
    seed: u64,
    events: &'r [u64],
    info: InfoModel,
    prob: &'r P,
    initial: i64,
}

impl<P: ProbSource> Run<'_, P> {
    /// The slot loop. Per slot, in the paper's order: every sensor
    /// recharges (in sensor order, drawing from the one RNG stream), the
    /// deciding sensor(s) act (the activation coin draws after the
    /// recharges), then the pre-sampled event, if any, arrives. Observer
    /// hooks fire in the order the [`Observer`] docs list.
    #[inline(always)]
    fn slot_loop<L: Lanes, H: AsMut<[Harvest]>, O: Observer>(
        &self,
        mut lanes: L,
        mut harvests: H,
        observer: &mut O,
    ) -> SimReport {
        let sim = self.sim;
        let sensors = sim.sensors;
        let capacity = sim.battery_capacity.as_millis();
        let threshold = sim.consumption.activation_threshold().as_millis();
        let d1 = sim.consumption.sensing_cost().as_millis();
        let d2 = sim.consumption.capture_cost().as_millis();
        let has_outages = !sim.outages.is_empty();
        let wants_levels = observer.wants_battery_levels();
        let mut levels = Vec::with_capacity(if wants_levels { sensors } else { 0 });
        let mut trace = Vec::with_capacity(sim.trace_slots.min(4096));
        let mut battery_trace = Vec::new();

        let mut rng = SmallRng::seed_from_u64(self.seed);
        // The schedule is sorted and `t` only moves forward, so the event
        // test is one comparison against the next event's slot.
        let mut upcoming = self.events.iter().copied();
        let mut next_event = upcoming.next().unwrap_or(u64::MAX);
        // Round-robin ownership advances with a counter instead of a
        // per-slot modulo.
        let mut round_robin = 0usize;

        // The paper anchors the process with an event at slot 0; all
        // information states start there.
        let mut last_event = 0u64; // full-information renewal point
        let mut shared_last_capture = 0u64; // broadcast PI renewal point
        let mut events = 0u64;
        let mut captures = 0u64;
        let mut age_sum = 0u64;
        let mut peak_age = 0u64;

        for t in 1..=sim.slots {
            // 1. Recharge every sensor (harvesting continues through
            //    outages, as a supercapacitor's would).
            for (s, (lane, harvest)) in lanes
                .as_mut()
                .iter_mut()
                .zip(harvests.as_mut().iter_mut())
                .enumerate()
            {
                let overflow = lane.absorb(harvest.next(&mut rng), capacity);
                if overflow > 0 {
                    observer.on_recharge_overflow(t, s, Energy::from_millis(overflow).as_units());
                }
            }

            // 2. The deciding sensor(s) act.
            let measured = t > sim.warmup_slots;
            let tracing = (t as usize) <= sim.trace_slots;
            let mut outcome = SlotOutcome {
                slot: t,
                owner: 0,
                state: 0,
                wanted: false,
                active: false,
                event: false,
                captured: false,
                measured,
            };
            let mut record = None;
            let decide =
                |lane: &mut Lane, s: usize, state: usize, rng: &mut SmallRng, observer: &mut O| {
                    let battery_fraction = fill_fraction(lane.level, capacity);
                    let p = self.prob.probability(&DecisionContext {
                        slot: t,
                        state,
                        battery_fraction,
                    });
                    debug_assert!((0.0..=1.0).contains(&p), "policy returned {p}");
                    let wanted = coin_wants(p, rng);
                    let feasible = lane.level >= threshold;
                    if wanted && !feasible {
                        lane.forced_idle += 1;
                        observer.on_forced_idle(t, s, battery_fraction);
                    }
                    let active = wanted && feasible;
                    if active {
                        // The threshold `δ1 + δ2` covers `δ1`.
                        lane.level -= d1;
                        lane.consumed = lane.consumed.saturating_add(d1);
                        lane.activations += 1;
                    }
                    (wanted, active)
                };
            match sim.coordination {
                Coordination::Rotating(assignment) => {
                    let owner = match assignment {
                        SlotAssignment::RoundRobin => {
                            let owner = round_robin;
                            round_robin += 1;
                            if round_robin == sensors {
                                round_robin = 0;
                            }
                            owner
                        }
                        other => other.owner(t, sensors),
                    };
                    outcome.owner = owner;
                    let lane = &mut lanes.as_mut()[L::at(owner)];
                    if has_outages && sim.outages.is_down(owner, t) {
                        lane.outage_slots += 1;
                        observer.on_outage(t, owner);
                        if tracing {
                            record = Some(TraceRecord {
                                slot: t,
                                owner,
                                state: 0,
                                wanted_active: false,
                                active: false,
                                event: false,
                                captured: false,
                            });
                        }
                    } else {
                        let since = match self.info {
                            InfoModel::Full => last_event,
                            InfoModel::Partial => shared_last_capture,
                        };
                        let state = (t - since) as usize;
                        let (wanted, active) = decide(lane, owner, state, &mut rng, observer);
                        outcome.state = state;
                        outcome.wanted = wanted;
                        outcome.active = active;
                        if tracing {
                            record = Some(TraceRecord {
                                slot: t,
                                owner,
                                state,
                                wanted_active: wanted,
                                active,
                                event: false,
                                captured: false,
                            });
                        }
                    }
                }
                Coordination::Independent => {
                    for (s, lane) in lanes.as_mut().iter_mut().enumerate() {
                        lane.active = false;
                        if has_outages && sim.outages.is_down(s, t) {
                            lane.outage_slots += 1;
                            observer.on_outage(t, s);
                            continue;
                        }
                        let since = match self.info {
                            InfoModel::Full => last_event,
                            InfoModel::Partial => lane.own_last_capture,
                        };
                        let state = (t - since) as usize;
                        let (wanted, active) = decide(lane, s, state, &mut rng, observer);
                        lane.active = active;
                        outcome.wanted |= wanted;
                        if active && !outcome.active {
                            // Report the lowest-indexed activating sensor.
                            outcome.owner = s;
                            outcome.state = state;
                            outcome.active = true;
                        }
                        if s == 0 && tracing {
                            record = Some(TraceRecord {
                                slot: t,
                                owner: 0,
                                state,
                                wanted_active: wanted,
                                active,
                                event: false,
                                captured: false,
                            });
                        }
                    }
                }
            }

            // 3. The event (if any) arrives after the decisions; every
            //    active sensor captures it.
            let event = t == next_event;
            if event {
                next_event = upcoming.next().unwrap_or(u64::MAX);
                events += u64::from(measured);
                if outcome.active {
                    match sim.coordination {
                        Coordination::Rotating(_) => {
                            lanes.as_mut()[L::at(outcome.owner)].capture(t, d2, measured);
                        }
                        Coordination::Independent => {
                            for lane in lanes.as_mut().iter_mut().filter(|lane| lane.active) {
                                lane.capture(t, d2, measured);
                            }
                        }
                    }
                    if measured {
                        captures += 1;
                        // Gap since the previous fleet-wide capture (the
                        // paper's renewal-cycle length), measured before
                        // the update; the lowest-indexed capturer reports.
                        observer.on_capture(t, outcome.owner, t - shared_last_capture);
                    }
                    shared_last_capture = t;
                } else if measured {
                    observer.on_miss(t);
                }
                last_event = t;
                outcome.event = true;
                outcome.captured = outcome.active;
            }

            // 4. Age of information once the slot resolves: slots since the
            //    last fleet-wide capture (0 in a capture slot).
            if measured {
                let age = t - shared_last_capture;
                age_sum += age;
                peak_age = peak_age.max(age);
            }

            if let Some(mut record) = record {
                record.event = event;
                record.captured = event && record.active && outcome.captured;
                trace.push(record);
            }
            if let Some(every) = sim.battery_sample_every {
                if t % every == 0 {
                    let mut sample = Vec::with_capacity(sensors);
                    for lane in lanes.as_ref() {
                        sample.push(Energy::from_millis(lane.level));
                    }
                    battery_trace.push(BatterySample {
                        slot: t,
                        levels: sample,
                    });
                }
            }
            if wants_levels {
                levels.clear();
                for lane in lanes.as_ref() {
                    levels.push(fill_fraction(lane.level, capacity));
                }
                observer.on_battery_levels(t, &levels);
            }
            observer.on_slot(&outcome);
        }

        let mut stats = Vec::with_capacity(sensors);
        for lane in lanes.as_ref() {
            stats.push(lane.stats(self.initial));
        }
        SimReport {
            slots: sim.slots,
            events,
            captures,
            sensors: stats,
            measured_slots: sim.slots - sim.warmup_slots,
            age_sum,
            peak_age,
            trace,
            battery_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outage::OutageWindow;
    use evcap_core::{AggressivePolicy, PeriodicPolicy};
    use evcap_dist::{Discretizer, Weibull};
    use evcap_energy::{BernoulliRecharge, ConstantRecharge};

    fn weibull_pmf() -> SlotPmf {
        Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap()
    }

    fn bernoulli(q: f64, c: f64) -> impl FnMut(usize) -> Box<dyn RechargeProcess> {
        move |_| Box::new(BernoulliRecharge::new(q, Energy::from_units(c)).unwrap())
    }

    #[test]
    fn aggressive_with_abundant_energy_captures_everything() {
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(50_000)
            .seed(3)
            .run(&AggressivePolicy::new(), &mut |_| {
                Box::new(ConstantRecharge::new(Energy::from_units(10.0)).unwrap())
            })
            .unwrap();
        assert_eq!(report.captures, report.events);
        assert_eq!(report.qom(), 1.0);
        assert_eq!(report.total_forced_idle(), 0);
    }

    #[test]
    fn energy_conservation_holds_exactly() {
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(100_000)
            .seed(5)
            .sensors(3)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        for (i, s) in report.sensors.iter().enumerate() {
            assert!(s.conserves_energy(), "sensor {i}: {s:?}");
        }
    }

    #[test]
    fn starved_sensor_is_forced_idle() {
        let pmf = weibull_pmf();
        // Zero recharge and a near-empty battery: after a few activations
        // the sensor is pinned below the threshold.
        let report = Simulation::builder(&pmf)
            .slots(10_000)
            .seed(7)
            .battery(Energy::from_units(10.0))
            .run(&AggressivePolicy::new(), &mut |_| {
                Box::new(ConstantRecharge::new(Energy::ZERO).unwrap())
            })
            .unwrap();
        assert!(report.total_forced_idle() > 9_000);
        assert!(report.total_activations() < 10);
    }

    #[test]
    fn discharge_rate_tracks_recharge_rate_for_aggressive() {
        // The aggressive policy spends everything that arrives (modulo the
        // battery's final content), so its discharge rate ≈ e.
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(200_000)
            .seed(11)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert!(
            (report.discharge_rate() - 0.5).abs() < 0.02,
            "{}",
            report.discharge_rate()
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(20_000).seed(13);
        let a = sim
            .clone()
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        let b = sim
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_schedule_compares_policies_on_same_events() {
        let pmf = weibull_pmf();
        let schedule = EventSchedule::generate(&pmf, 20_000, 17).unwrap();
        let sim = Simulation::builder(&pmf).slots(20_000).seed(17);
        let agg = sim
            .clone()
            .run_on(
                &schedule,
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0),
            )
            .unwrap();
        let per = PeriodicPolicy::new(3, 30).unwrap();
        let perr = sim
            .run_on(&schedule, &per, &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(agg.events, perr.events);
    }

    #[test]
    fn round_robin_splits_load_across_sensors() {
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(90_000)
            .seed(19)
            .sensors(3)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        // Every sensor gets a third of the slots; with identical recharge,
        // activations should be closely balanced.
        assert!(report.load_balance() > 0.95, "{}", report.load_balance());
    }

    #[test]
    fn trace_records_first_slots() {
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(1_000)
            .seed(23)
            .trace_slots(50)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(report.trace.len(), 50);
        assert_eq!(report.trace[0].slot, 1);
        // Captured implies event and active.
        for r in &report.trace {
            if r.captured {
                assert!(r.event && r.active);
            }
        }
    }

    #[test]
    fn configuration_errors() {
        let pmf = weibull_pmf();
        assert!(matches!(
            Simulation::builder(&pmf)
                .slots(0)
                .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0)),
            Err(SimError::ZeroSlots)
        ));
        assert!(matches!(
            Simulation::builder(&pmf)
                .sensors(0)
                .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0)),
            Err(SimError::NoSensors)
        ));
        let short = EventSchedule::from_slots(vec![1], 10);
        assert!(matches!(
            Simulation::builder(&pmf).slots(100).run_on(
                &short,
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0)
            ),
            Err(SimError::ScheduleTooShort { .. })
        ));
    }

    #[test]
    fn periodic_policy_duty_cycle_is_respected() {
        let pmf = weibull_pmf();
        let per = PeriodicPolicy::new(3, 30).unwrap();
        let report = Simulation::builder(&pmf)
            .slots(300_000)
            .seed(29)
            .run(&per, &mut |_| {
                Box::new(ConstantRecharge::new(Energy::from_units(10.0)).unwrap())
            })
            .unwrap();
        let duty = report.total_activations() as f64 / report.slots as f64;
        assert!((duty - 0.1).abs() < 1e-3, "{duty}");
    }

    #[test]
    fn independent_sensors_duplicate_effort() {
        // Uncoordinated aggressive sensors with abundant energy all fire in
        // every slot: per-sensor captures are each equal to the event count,
        // but the union QoM counts each event once.
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(30_000)
            .seed(31)
            .sensors(3)
            .independent()
            .run(&AggressivePolicy::new(), &mut |_| {
                Box::new(ConstantRecharge::new(Energy::from_units(10.0)).unwrap())
            })
            .unwrap();
        assert_eq!(report.qom(), 1.0);
        for s in &report.sensors {
            assert_eq!(s.captures, report.events, "{s:?}");
        }
        // Total energy burned is ~3× the single-sensor cost: pure waste.
        let per_sensor: Vec<u64> = report.sensors.iter().map(|s| s.activations).collect();
        assert!(per_sensor.iter().all(|&a| a == report.slots));
    }

    #[test]
    fn outage_blocks_decisions_but_not_recharge() {
        let pmf = weibull_pmf();
        let plan = OutagePlan::from_windows(vec![OutageWindow {
            sensor: 0,
            from: 1,
            to: 10_000,
        }]);
        let report = Simulation::builder(&pmf)
            .slots(10_000)
            .seed(37)
            .outages(plan)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        let s = &report.sensors[0];
        assert_eq!(s.outage_slots, 10_000);
        assert_eq!(s.activations, 0);
        assert_eq!(report.captures, 0);
        // Harvesting continued: the battery filled up (modulo overflow).
        assert!(s.recharged > Energy::ZERO);
        assert!(s.conserves_energy());
    }

    #[test]
    fn partial_outage_degrades_gracefully() {
        let pmf = weibull_pmf();
        let clean = Simulation::builder(&pmf)
            .slots(100_000)
            .seed(41)
            .sensors(2)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        let plan = OutagePlan::from_windows(vec![OutageWindow {
            sensor: 1,
            from: 20_000,
            to: 40_000,
        }]);
        let degraded = Simulation::builder(&pmf)
            .slots(100_000)
            .seed(41)
            .sensors(2)
            .outages(plan)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert!(degraded.qom() < clean.qom());
        assert!(
            degraded.qom() > 0.5 * clean.qom(),
            "degrades, not collapses"
        );
    }

    #[test]
    fn warmup_excludes_early_events_from_qom() {
        let pmf = weibull_pmf();
        let schedule = EventSchedule::generate(&pmf, 60_000, 47).unwrap();
        let full = Simulation::builder(&pmf)
            .slots(60_000)
            .seed(47)
            .run_on(
                &schedule,
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0),
            )
            .unwrap();
        let warmed = Simulation::builder(&pmf)
            .slots(60_000)
            .seed(47)
            .warmup_slots(30_000)
            .run_on(
                &schedule,
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0),
            )
            .unwrap();
        assert!(warmed.events < full.events);
        // Roughly half the events fall after warm-up.
        let ratio = warmed.events as f64 / full.events as f64;
        assert!((ratio - 0.5).abs() < 0.05, "{ratio}");
        // Energy accounting still covers the whole run and conserves.
        for s in &warmed.sensors {
            assert!(s.conserves_energy());
        }
        // A warm-up at least as long as the horizon is rejected.
        assert!(Simulation::builder(&pmf)
            .slots(100)
            .warmup_slots(100)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .is_err());
    }

    #[test]
    fn stationary_schedule_runs_unchanged() {
        let pmf = weibull_pmf();
        let schedule = EventSchedule::generate_stationary(&pmf, 50_000, 49).unwrap();
        let report = Simulation::builder(&pmf)
            .slots(50_000)
            .seed(49)
            .run_on(
                &schedule,
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0),
            )
            .unwrap();
        assert_eq!(report.events, schedule.count());
    }

    #[test]
    fn observer_sees_the_same_run_as_the_report() {
        use evcap_obs::{ObsConfig, ObsSuite};
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(30_000).seed(53).sensors(2);
        let plain = sim
            .clone()
            .run(&AggressivePolicy::new(), &mut bernoulli(0.3, 1.0))
            .unwrap();
        let mut suite = ObsSuite::new(ObsConfig {
            qom_window: 1_000,
            ..ObsConfig::default()
        });
        let observed = sim
            .run_observed(
                &AggressivePolicy::new(),
                &mut bernoulli(0.3, 1.0),
                &mut suite,
            )
            .unwrap();
        suite.seal();

        // Attaching an observer must not perturb the simulation.
        assert_eq!(plain, observed);

        // The suite's counters agree with the report.
        let c = suite.counters();
        assert_eq!(c.slots, observed.slots);
        assert_eq!(c.events, observed.events);
        assert_eq!(c.captures, observed.captures);
        assert_eq!(c.misses, observed.events - observed.captures);

        // The convergence series covers the horizon and sums to the totals.
        let windows = suite.convergence().series();
        assert_eq!(windows.len(), 30);
        let last = windows.last().unwrap();
        assert_eq!(last.cumulative_events, observed.events);
        assert_eq!(last.cumulative_captures, observed.captures);

        // Gap samples: one per fleet-wide capture, gaps spanning the run.
        assert_eq!(suite.gaps().samples(), observed.captures);
        // Battery histogram sampled on its period.
        assert!(suite.battery().histogram().samples() > 0);
    }

    #[test]
    fn observer_counts_forced_idle_and_overflow() {
        use evcap_obs::{ObsConfig, ObsSuite};
        let pmf = weibull_pmf();

        // A starved aggressive sensor is forced idle most slots; the observer
        // must agree exactly with the report.
        let mut suite = ObsSuite::new(ObsConfig::default());
        let report = Simulation::builder(&pmf)
            .slots(20_000)
            .seed(59)
            .battery(Energy::from_units(8.0))
            .run_observed(
                &AggressivePolicy::new(),
                &mut |_| Box::new(ConstantRecharge::new(Energy::from_units(0.25)).unwrap()),
                &mut suite,
            )
            .unwrap();
        suite.seal();
        assert_eq!(suite.streaks().total(), report.total_forced_idle());
        assert!(suite.streaks().total() > 0);

        // A lazy duty cycle with generous harvesting pins the battery at
        // capacity: recharge overflows, and the observer sums the losses.
        let mut suite = ObsSuite::new(ObsConfig::default());
        let per = PeriodicPolicy::new(1, 50).unwrap();
        let report = Simulation::builder(&pmf)
            .slots(20_000)
            .seed(59)
            .battery(Energy::from_units(20.0))
            .run_observed(
                &per,
                &mut |_| Box::new(ConstantRecharge::new(Energy::from_units(1.0)).unwrap()),
                &mut suite,
            )
            .unwrap();
        suite.seal();
        let report_overflow: f64 = report.sensors.iter().map(|s| s.overflow.as_units()).sum();
        assert!(report_overflow > 0.0);
        assert!((suite.counters().overflow_lost_units - report_overflow).abs() < 1e-9);
    }

    #[test]
    fn energy_conserves_with_observer_and_outages() {
        use evcap_obs::{ObsConfig, ObsSuite};
        let pmf = weibull_pmf();
        let plan = OutagePlan::from_windows(vec![
            OutageWindow {
                sensor: 0,
                from: 5_000,
                to: 15_000,
            },
            OutageWindow {
                sensor: 1,
                from: 30_000,
                to: 35_000,
            },
        ]);
        let mut suite = ObsSuite::new(ObsConfig::default());
        let report = Simulation::builder(&pmf)
            .slots(50_000)
            .seed(61)
            .sensors(3)
            .outages(plan)
            .run_observed(
                &AggressivePolicy::new(),
                &mut bernoulli(0.5, 1.0),
                &mut suite,
            )
            .unwrap();
        suite.seal();
        for (i, s) in report.sensors.iter().enumerate() {
            assert!(s.conserves_energy(), "sensor {i}: {s:?}");
        }
        // Rotating coordination: only slots the down sensor *owned* count,
        // so roughly a third of each window lands in the statistics.
        let outage_total: u64 = report.sensors.iter().map(|s| s.outage_slots).sum();
        assert_eq!(suite.counters().outage_slots, outage_total);
        assert!(
            outage_total > 4_000 && outage_total < 6_000,
            "{outage_total}"
        );
    }

    #[test]
    fn independent_mode_reports_slot_outcomes() {
        use evcap_obs::{Observer, SlotOutcome};
        #[derive(Default)]
        struct Collect {
            active_slots: u64,
            owners: Vec<usize>,
        }
        impl Observer for Collect {
            fn on_slot(&mut self, o: &SlotOutcome) {
                if o.active {
                    self.active_slots += 1;
                    self.owners.push(o.owner);
                }
            }
        }
        let pmf = weibull_pmf();
        let mut collect = Collect::default();
        let report = Simulation::builder(&pmf)
            .slots(5_000)
            .seed(67)
            .sensors(3)
            .independent()
            .run_observed(
                &AggressivePolicy::new(),
                &mut |_| Box::new(ConstantRecharge::new(Energy::from_units(10.0)).unwrap()),
                &mut collect,
            )
            .unwrap();
        // Aggressive + abundant energy: every sensor activates every slot, so
        // every slot is active and the reported owner is sensor 0.
        assert_eq!(collect.active_slots, report.slots);
        assert!(collect.owners.iter().all(|&o| o == 0));
    }

    #[test]
    fn table_path_is_bit_identical_to_dyn_dispatch() {
        use evcap_core::{ClusteringPolicy, EnergyBudget, GreedyPolicy};
        // Wrapper that hides the inner policy's table, forcing the engine
        // down the virtual-dispatch path; the outputs must still match the
        // table-driven run byte for byte.
        struct NoTable<'p>(&'p dyn ActivationPolicy);
        impl ActivationPolicy for NoTable<'_> {
            fn probability(&self, ctx: &DecisionContext) -> f64 {
                self.0.probability(ctx)
            }
            fn info_model(&self) -> InfoModel {
                self.0.info_model()
            }
            fn label(&self) -> String {
                self.0.label()
            }
        }

        let pmf = weibull_pmf();
        let greedy = GreedyPolicy::optimize(
            &pmf,
            EnergyBudget::per_slot(0.5),
            &ConsumptionModel::paper_defaults(),
        )
        .unwrap();
        let clustering = ClusteringPolicy::new(20, 45, 80, 0.5, 0.5, 1.0).unwrap();
        for policy in [&greedy as &dyn ActivationPolicy, &clustering] {
            assert!(policy.table().is_some());
            let sim = Simulation::builder(&pmf).slots(60_000).seed(71).sensors(2);
            let fast = sim.clone().run(policy, &mut bernoulli(0.4, 1.0)).unwrap();
            let slow = sim.run(&NoTable(policy), &mut bernoulli(0.4, 1.0)).unwrap();
            assert_eq!(fast, slow, "{}", policy.label());
        }
    }

    #[test]
    fn battery_trace_sampling() {
        let pmf = weibull_pmf();
        let report = Simulation::builder(&pmf)
            .slots(1_000)
            .seed(43)
            .sensors(2)
            .record_battery_every(100)
            .run(&AggressivePolicy::new(), &mut bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(report.battery_trace.len(), 10);
        for sample in &report.battery_trace {
            assert_eq!(sample.levels.len(), 2);
            assert_eq!(sample.slot % 100, 0);
            for &level in &sample.levels {
                assert!(level >= Energy::ZERO);
                assert!(level <= Energy::from_units(1000.0));
            }
        }
    }
}
