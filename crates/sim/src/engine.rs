//! The slotted simulation engine: one slot kernel behind every entry point.
//!
//! [`Simulation::run`] and its variants, and every replication of a
//! [`crate::ReplicationBatch`], run the same kernel. It walks the event
//! schedule one stretch of slots at a time ([`Run::slot_loop`]): between
//! two events only recharges and decisions happen, so the event test,
//! the warm-up test and the age bookkeeping move to the stretch's last
//! slot, where the ages sum in closed form. Its state is built so the
//! compiler can keep it in registers: each sensor is a [`Lane`] of plain
//! integers whose arithmetic is exact without saturating, a one-sensor
//! run holds its lane by value and compiles its loop for its own recharge
//! kind, and configuration branches (outages, round-robin ownership) are
//! hoisted out of the slot loop. Inside a stretch, a run without observer
//! hooks or outages walks its policy table's quiet and hot runs in bulk
//! ([`Run::runs`]).

use std::ops::Range;

use evcap_core::{
    ActivationPolicy, DecisionContext, InfoModel, PolicyTable, SlotAssignment, SlotClass,
};
use evcap_dist::SlotPmf;
use evcap_energy::{Battery, ConsumptionModel, Energy, RechargeKind, RechargeProcess};
use evcap_obs::{timing, NullObserver, Observer, SlotOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

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

    /// The table whose runs the slot loop may walk in bulk: none for a
    /// policy that reads the slot context.
    fn table(&self) -> Option<&PolicyTable>;
}

pub(crate) struct TableProb<'p>(pub &'p PolicyTable);

impl ProbSource for TableProb<'_> {
    #[inline]
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.0.probability(ctx.state)
    }

    #[inline]
    fn table(&self) -> Option<&PolicyTable> {
        Some(self.0)
    }
}

pub(crate) struct DynProb<'p>(pub &'p dyn ActivationPolicy);

impl ProbSource for DynProb<'_> {
    #[inline]
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.0.probability(ctx)
    }

    #[inline]
    fn table(&self) -> Option<&PolicyTable> {
        None
    }
}

/// The activation coin: no RNG draw at the boundary probabilities, exactly
/// one `f64` draw strictly inside `(0, 1)`. [`SlotClass::of`] classifies
/// by the same comparisons.
#[inline(always)]
fn coin_wants(p: f64, rng: &mut SmallRng) -> bool {
    p > 0.0 && (p >= 1.0 || rng.random::<f64>() < p)
}

/// The integer form of `random::<f64>() < q`: the draw is `m·2^-53` for
/// `m = next_u64() >> 11`, and both it and `q·2^53` are exact, so `u < q`
/// exactly when `m < ⌈q·2^53⌉`. A `q` outside `[0, 1]`, or NaN, saturates
/// to never (0) or always (at least `2^53`), as the float comparison does.
fn bernoulli_threshold(q: f64) -> u64 {
    (q * (1u64 << 53) as f64).ceil() as u64
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
        let initial = battery.level().as_millis();
        let run = Run {
            sim: self,
            seed,
            events: schedule.event_slots(),
            info,
            prob,
            initial,
            capacity: self.battery_capacity.as_millis(),
            threshold: self.consumption.activation_threshold().as_millis(),
            d1: self.consumption.sensing_cost().as_millis(),
            d2: self.consumption.capture_cost().as_millis(),
        };
        let lane = Lane {
            level: initial,
            ..Lane::default()
        };
        let report = if self.sensors == 1 {
            match Harvest::classify(make_recharge(0)) {
                Harvest::Bernoulli(harvest) => run.slot_loop(Sensor::new(lane, harvest), observer),
                Harvest::Constant(harvest) => run.slot_loop(Sensor::new(lane, harvest), observer),
                Harvest::Periodic(harvest) => run.slot_loop(Sensor::new(lane, harvest), observer),
                Harvest::Uniform(harvest) => run.slot_loop(Sensor::new(lane, harvest), observer),
                Harvest::Opaque(harvest) => run.slot_loop(Sensor::new(lane, harvest), observer),
            }
        } else {
            let fleet: Vec<Sensor<Harvest>> = (0..self.sensors)
                .map(|s| Sensor::new(lane, Harvest::classify(make_recharge(s))))
                .collect();
            // The paper's fleets recharge by Bernoulli: give them their own
            // loop, as a one-sensor run gets one per kind.
            if fleet
                .iter()
                .all(|s| matches!(s.harvest, Harvest::Bernoulli(_)))
            {
                let fleet: Vec<Sensor<Bernoulli>> = fleet
                    .into_iter()
                    .filter_map(|s| match s.harvest {
                        Harvest::Bernoulli(harvest) => Some(Sensor::new(s.lane, harvest)),
                        _ => None,
                    })
                    .collect();
                run.slot_loop(fleet, observer)
            } else {
                run.slot_loop(fleet, observer)
            }
        };
        timing::add_count("sim.slots", self.slots);
        Ok(report)
    }
}

/// One sensor's battery and statistics as plain integers (energy in
/// milli-units), reproducing [`Battery`] and [`SensorStats`] exactly.
///
/// Plain arithmetic is exact here, without `Energy`'s saturating steps:
///
/// - The level starts in `[0, K]` ([`Battery`] validates it). A
///   closed-form recharge delivers a non-negative amount and absorbs at
///   most the headroom `K − level` ([`Lane::absorb`]); a decision spends
///   `δ1` only at `level ≥ δ1 + δ2`; a capture spends `δ2` only when the
///   level covers it. So the level never leaves `[0, K]` and no operation
///   on it can overflow.
/// - The energy totals sum non-negative terms (costs, absorbed amounts,
///   overflows), and a saturating running sum of non-negative terms equals
///   `min(exact sum, i64::MAX)`. So [`Lane::stats`] computes each total
///   exactly in `i128` and clamps once, and none is summed slot by slot:
///   the costs follow from the counts (`δ1` per activation, `δ2` per
///   capture), the absorbed total from the level (`level = initial +
///   absorbed − spent`, exactly), and the overflow from what the process
///   delivered ([`Deliver::totals`]). With fewer than `2^62` slots, none
///   of these `i128` values can overflow.
/// - Only an opaque process ([`RechargeKind::Other`]) may deliver a
///   negative amount, which can take the level below zero and the absorbed
///   total back down from its limit. It keeps `Energy`'s saturating steps
///   and sums its own totals ([`Opaque`]).
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    level: i64,
    activations: u64,
    /// Captures made, warm-up included: each one charged `δ2`.
    charged: u64,
    /// Charged captures the level could not cover (possible only when
    /// `δ1 + δ2` saturates `i64`).
    unpaid: u64,
    /// Captures credited to the statistics (past warm-up).
    captures: u64,
    forced_idle: u64,
    outage_slots: u64,
    own_last_capture: u64,
    /// Whether the sensor activated this slot (independent coordination).
    active: bool,
}

/// An exact `i128` total clamped into `Energy`'s range: the value a
/// saturating `i64` sum of the same non-negative terms holds.
fn clamped(total: i128) -> Energy {
    Energy::from_millis(total.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
}

impl Lane {
    /// [`Battery::recharge`] of a non-negative amount; returns the
    /// overflow.
    #[inline(always)]
    fn absorb(&mut self, amount: i64, capacity: i64) -> i64 {
        debug_assert!(amount >= 0 && (0..=capacity).contains(&self.level));
        let absorbed = amount.min(capacity - self.level);
        self.level += absorbed;
        amount - absorbed
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
        self.charged += 1;
        self.unpaid += u64::from(!paid);
        self.captures += u64::from(measured);
        self.own_last_capture = t;
    }

    /// The lane's statistics at the end of the run, recharged by `harvest`.
    fn stats(&self, run: &Run<'_, impl ProbSource>, harvest: &impl Deliver) -> SensorStats {
        let cost = |count: u64, each: i64| i128::from(count) * i128::from(each);
        let consumed = cost(self.activations, run.d1) + cost(self.charged, run.d2);
        let spent = consumed - cost(self.unpaid, run.d2);
        let balance = i128::from(self.level) - i128::from(run.initial) + spent;
        let (recharged, overflow) = harvest.totals(run.sim.slots, balance);
        SensorStats {
            activations: self.activations,
            captures: self.captures,
            forced_idle: self.forced_idle,
            outage_slots: self.outage_slots,
            consumed: clamped(consumed),
            recharged: clamped(recharged),
            overflow: clamped(overflow),
            initial_level: Energy::from_millis(run.initial),
            final_level: Energy::from_millis(self.level),
        }
    }
}

/// How a lane's recharge is delivered. The slot loop is monomorphized over
/// it: a one-sensor run compiles its loop for its own process's kind, a
/// fleet of Bernoulli processes for that kind, and any other fleet
/// dispatches per lane through [`Harvest`].
///
/// Each closed kind states its delivery once, as [`Deliver::draw`]; a
/// slot's recharge absorbs a draw, and a closed kind's quiet run (nothing
/// spends) absorbs the sum of its draws once, or a closed form of it. With
/// nothing spent the level only rises, so for deliveries `a_i ≥ 0`
/// clamping at `K` slot by slot equals `min(K, level + Σ a_i)`. The sum
/// saturates instead of wrapping, and `K − level ≤ i64::MAX`, so the clamp
/// stays exact.
trait Deliver {
    /// The next slot's delivery in milli-units, drawing what the process's
    /// own `next` would draw.
    fn draw(&mut self, rng: &mut SmallRng) -> i64;

    /// Delivers the next slot's recharge into `lane`; returns the overflow
    /// in milli-units.
    #[inline(always)]
    fn recharge(&mut self, lane: &mut Lane, capacity: i64, rng: &mut SmallRng) -> i64 {
        lane.absorb(self.draw(rng), capacity)
    }

    /// Delivers `n` slots' recharge into `lane`, which spends nothing
    /// meanwhile: slot by slot, unless the kind absorbs them at once.
    #[inline(always)]
    fn quiet(&mut self, lane: &mut Lane, n: u64, capacity: i64, rng: &mut SmallRng) {
        for _ in 0..n {
            self.recharge(lane, capacity, rng);
        }
    }

    /// One slot of a fleet's quiet run: the delivery joins `pending`, which
    /// the lane absorbs once the run ends.
    #[inline(always)]
    fn accrue(&mut self, _lane: &mut Lane, pending: &mut i64, _capacity: i64, rng: &mut SmallRng) {
        *pending = pending.saturating_add(self.draw(rng));
    }

    /// The exact `(absorbed, overflow)` totals after `slots` slots, for a
    /// lane whose level balance (final − initial + spent) is `balance`.
    fn totals(&self, slots: u64, balance: i128) -> (i128, i128);
}

/// The saturating sum of the next `n` draws.
#[inline(always)]
fn summed(harvest: &mut impl Deliver, n: u64, rng: &mut SmallRng) -> i64 {
    let mut sum = 0i64;
    for _ in 0..n {
        sum = sum.saturating_add(harvest.draw(rng));
    }
    sum
}

/// A count as a saturating multiplier: `c·n` then clamps exactly as a
/// saturating sum of `n` non-negative `c` would.
fn times(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// A closed-form process's totals: what the level's balance says it
/// absorbed, and the rest of what it delivered as overflow.
fn closed_form_totals(delivered: i128, balance: i128) -> (i128, i128) {
    (balance, delivered - balance)
}

/// `c` milli-units with probability `q` per slot, drawn against the
/// integer threshold `⌈q·2^53⌉` ([`bernoulli_threshold`]).
struct Bernoulli {
    threshold: u64,
    c: i64,
    hits: u64,
}

impl Bernoulli {
    #[inline(always)]
    fn hit(&self, rng: &mut SmallRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

impl Deliver for Bernoulli {
    #[inline(always)]
    fn draw(&mut self, rng: &mut SmallRng) -> i64 {
        // One draw per slot, hit or miss. The hit selects the amount
        // without a branch: at `q` near 1/2 a branch would mispredict
        // every other slot.
        let hit = self.hit(rng);
        self.hits += u64::from(hit);
        std::hint::select_unpredictable(hit, self.c, 0)
    }

    #[inline(always)]
    fn quiet(&mut self, lane: &mut Lane, n: u64, capacity: i64, rng: &mut SmallRng) {
        let mut hits = 0u64;
        for _ in 0..n {
            hits += u64::from(self.hit(rng));
        }
        self.hits += hits;
        lane.absorb(self.c.saturating_mul(times(hits)), capacity);
    }

    fn totals(&self, _slots: u64, balance: i128) -> (i128, i128) {
        let delivered = i128::from(self.c) * i128::from(self.hits);
        closed_form_totals(delivered, balance)
    }
}

/// `rate` milli-units every slot.
struct Constant {
    rate: i64,
}

impl Deliver for Constant {
    #[inline(always)]
    fn draw(&mut self, _rng: &mut SmallRng) -> i64 {
        self.rate
    }

    #[inline(always)]
    fn quiet(&mut self, lane: &mut Lane, n: u64, capacity: i64, _rng: &mut SmallRng) {
        lane.absorb(self.rate.saturating_mul(times(n)), capacity);
    }

    fn totals(&self, slots: u64, balance: i128) -> (i128, i128) {
        closed_form_totals(i128::from(self.rate) * i128::from(slots), balance)
    }
}

/// `amount` milli-units at the end of every `period` slots.
struct Periodic {
    amount: i64,
    period: u32,
    phase: u32,
    lumps: u64,
}

impl Deliver for Periodic {
    #[inline(always)]
    fn draw(&mut self, _rng: &mut SmallRng) -> i64 {
        self.phase += 1;
        if self.phase == self.period {
            self.phase = 0;
            self.lumps += 1;
            self.amount
        } else {
            0
        }
    }

    #[inline(always)]
    fn quiet(&mut self, lane: &mut Lane, n: u64, capacity: i64, rng: &mut SmallRng) {
        // `n` slots from a phase inside the period complete `(phase + n) /
        // period` lumps. A kind whose phase is not inside its period
        // (`RechargeKind` is public) steps slot by slot instead.
        let sum = if self.phase < self.period {
            let period = u64::from(self.period);
            let reached = u64::from(self.phase) + n;
            let lumps = reached / period;
            // The remainder is below the `u32` period.
            self.phase = (reached % period) as u32;
            self.lumps += lumps;
            self.amount.saturating_mul(times(lumps))
        } else {
            summed(self, n, rng)
        };
        lane.absorb(sum, capacity);
    }

    fn totals(&self, _slots: u64, balance: i128) -> (i128, i128) {
        let delivered = i128::from(self.amount) * i128::from(self.lumps);
        closed_form_totals(delivered, balance)
    }
}

/// Uniform on `[lo, hi]` milli-units.
struct Uniform {
    lo: i64,
    hi: i64,
    drawn: i128,
}

impl Deliver for Uniform {
    #[inline(always)]
    fn draw(&mut self, rng: &mut SmallRng) -> i64 {
        let amount = rng.random_range(self.lo..=self.hi);
        self.drawn += i128::from(amount);
        amount
    }

    #[inline(always)]
    fn quiet(&mut self, lane: &mut Lane, n: u64, capacity: i64, rng: &mut SmallRng) {
        let sum = summed(self, n, rng);
        lane.absorb(sum, capacity);
    }

    fn totals(&self, _slots: u64, balance: i128) -> (i128, i128) {
        closed_form_totals(self.drawn, balance)
    }
}

/// A process without a closed form: the boxed `next` call, absorbed in
/// `Energy`'s saturating arithmetic step by step, with its own totals. Its
/// deliveries may be negative and its lane may sit below zero, so it never
/// goes through [`Lane::absorb`]: its quiet runs, too, go slot by slot.
struct Opaque {
    process: Box<dyn RechargeProcess>,
    /// The absorbed total, saturating at each step like `Energy`'s sums.
    recharged: i64,
    /// The overflow total, exact (overflows are never negative).
    overflow: i128,
}

impl Deliver for Opaque {
    #[inline(always)]
    fn draw(&mut self, rng: &mut SmallRng) -> i64 {
        // The trait object draws from a copy of the stream, so the
        // kernel's own generator never has its address taken and can stay
        // in registers.
        let mut stream = rng.clone();
        let amount = self.process.next(&mut stream).as_millis();
        *rng = stream;
        amount
    }

    #[inline(always)]
    fn recharge(&mut self, lane: &mut Lane, capacity: i64, rng: &mut SmallRng) -> i64 {
        let amount = self.draw(rng);
        let absorbed = amount.min(capacity.saturating_sub(lane.level));
        lane.level = lane.level.saturating_add(absorbed);
        let overflow = amount.saturating_sub(absorbed);
        self.recharged = self
            .recharged
            .saturating_add(amount.saturating_sub(overflow));
        self.overflow += i128::from(overflow);
        overflow
    }

    #[inline(always)]
    fn accrue(&mut self, lane: &mut Lane, _pending: &mut i64, capacity: i64, rng: &mut SmallRng) {
        self.recharge(lane, capacity, rng);
    }

    fn totals(&self, _slots: u64, _balance: i128) -> (i128, i128) {
        (i128::from(self.recharged), self.overflow)
    }
}

/// A sensor's recharge process, classified once per run from
/// [`RechargeProcess::kind`]. The closed-form kinds deliver inline in the
/// slot loop (the kind contract makes their deliveries and RNG draws those
/// of `next`); [`RechargeKind::Other`], and any kind whose parameters could
/// deliver a negative amount, keeps the boxed `next` call.
enum Harvest {
    Bernoulli(Bernoulli),
    Constant(Constant),
    Periodic(Periodic),
    Uniform(Uniform),
    Opaque(Opaque),
}

impl Harvest {
    fn classify(process: Box<dyn RechargeProcess>) -> Self {
        match process.kind() {
            RechargeKind::Bernoulli { q, c } if c >= Energy::ZERO => {
                Harvest::Bernoulli(Bernoulli {
                    threshold: bernoulli_threshold(q),
                    c: c.as_millis(),
                    hits: 0,
                })
            }
            RechargeKind::Constant { rate } if rate >= Energy::ZERO => {
                Harvest::Constant(Constant {
                    rate: rate.as_millis(),
                })
            }
            RechargeKind::Periodic {
                amount,
                period,
                phase,
            } if amount >= Energy::ZERO => Harvest::Periodic(Periodic {
                amount: amount.as_millis(),
                period,
                phase,
                lumps: 0,
            }),
            RechargeKind::Uniform { lo, hi } if lo >= Energy::ZERO => Harvest::Uniform(Uniform {
                lo: lo.as_millis(),
                hi: hi.as_millis(),
                drawn: 0,
            }),
            _ => Harvest::Opaque(Opaque {
                process,
                recharged: 0,
                overflow: 0,
            }),
        }
    }
}

impl Deliver for Harvest {
    #[inline(always)]
    fn draw(&mut self, rng: &mut SmallRng) -> i64 {
        match self {
            Harvest::Bernoulli(h) => h.draw(rng),
            Harvest::Constant(h) => h.draw(rng),
            Harvest::Periodic(h) => h.draw(rng),
            Harvest::Uniform(h) => h.draw(rng),
            Harvest::Opaque(h) => h.draw(rng),
        }
    }

    #[inline(always)]
    fn recharge(&mut self, lane: &mut Lane, capacity: i64, rng: &mut SmallRng) -> i64 {
        match self {
            Harvest::Bernoulli(h) => h.recharge(lane, capacity, rng),
            Harvest::Constant(h) => h.recharge(lane, capacity, rng),
            Harvest::Periodic(h) => h.recharge(lane, capacity, rng),
            Harvest::Uniform(h) => h.recharge(lane, capacity, rng),
            Harvest::Opaque(h) => h.recharge(lane, capacity, rng),
        }
    }

    #[inline(always)]
    fn accrue(&mut self, lane: &mut Lane, pending: &mut i64, capacity: i64, rng: &mut SmallRng) {
        match self {
            Harvest::Bernoulli(h) => h.accrue(lane, pending, capacity, rng),
            Harvest::Constant(h) => h.accrue(lane, pending, capacity, rng),
            Harvest::Periodic(h) => h.accrue(lane, pending, capacity, rng),
            Harvest::Uniform(h) => h.accrue(lane, pending, capacity, rng),
            Harvest::Opaque(h) => h.accrue(lane, pending, capacity, rng),
        }
    }

    fn totals(&self, slots: u64, balance: i128) -> (i128, i128) {
        match self {
            Harvest::Bernoulli(h) => h.totals(slots, balance),
            Harvest::Constant(h) => h.totals(slots, balance),
            Harvest::Periodic(h) => h.totals(slots, balance),
            Harvest::Uniform(h) => h.totals(slots, balance),
            Harvest::Opaque(h) => h.totals(slots, balance),
        }
    }
}

/// One sensor: its lane, its recharge, and the delivery of a fleet's quiet
/// run that the lane has yet to absorb.
struct Sensor<D> {
    lane: Lane,
    harvest: D,
    pending: i64,
}

impl<D> Sensor<D> {
    fn new(lane: Lane, harvest: D) -> Self {
        Self {
            lane,
            harvest,
            pending: 0,
        }
    }
}

/// Where a run keeps its sensors: a one-sensor run holds its [`Sensor`]
/// by value, a fleet keeps a vector. The single sensor answers every
/// access without looking at the index, so the compiler can promote its
/// lane to registers.
trait Sensors {
    type Harvest: Deliver;

    /// How many sensors there are.
    fn count(&self) -> usize;

    /// Sensor `s`'s lane and recharge.
    fn sensor(&mut self, s: usize) -> (&mut Lane, &mut Self::Harvest);

    /// Sensor `s`'s lane.
    fn lane(&self, s: usize) -> &Lane;

    /// `n` slots in which no sensor spends: every sensor recharges, slot by
    /// slot in sensor order from the one stream, and absorbs once.
    fn quiet(&mut self, n: u64, capacity: i64, rng: &mut SmallRng);
}

impl<D: Deliver> Sensors for Sensor<D> {
    type Harvest = D;

    #[inline(always)]
    fn count(&self) -> usize {
        1
    }

    #[inline(always)]
    fn sensor(&mut self, _s: usize) -> (&mut Lane, &mut D) {
        (&mut self.lane, &mut self.harvest)
    }

    #[inline(always)]
    fn lane(&self, _s: usize) -> &Lane {
        &self.lane
    }

    #[inline(always)]
    fn quiet(&mut self, n: u64, capacity: i64, rng: &mut SmallRng) {
        self.harvest.quiet(&mut self.lane, n, capacity, rng);
    }
}

impl<D: Deliver> Sensors for Vec<Sensor<D>> {
    type Harvest = D;

    #[inline(always)]
    fn count(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn sensor(&mut self, s: usize) -> (&mut Lane, &mut D) {
        let sensor = &mut self[s];
        (&mut sensor.lane, &mut sensor.harvest)
    }

    #[inline(always)]
    fn lane(&self, s: usize) -> &Lane {
        &self[s].lane
    }

    #[inline(always)]
    fn quiet(&mut self, n: u64, capacity: i64, rng: &mut SmallRng) {
        for _ in 0..n {
            for sensor in self.iter_mut() {
                let Sensor {
                    lane,
                    harvest,
                    pending,
                } = sensor;
                harvest.accrue(lane, pending, capacity, rng);
            }
        }
        for sensor in self.iter_mut() {
            // An opaque lane accrues nothing: it recharged slot by slot.
            let pending = std::mem::take(&mut sensor.pending);
            if pending > 0 {
                sensor.lane.absorb(pending, capacity);
            }
        }
    }
}

/// One seed's run: the configuration and everything the slot loop reads,
/// energies in milli-units.
struct Run<'r, P> {
    sim: &'r Simulation<'r>,
    seed: u64,
    events: &'r [u64],
    info: InfoModel,
    prob: &'r P,
    initial: i64,
    capacity: i64,
    /// The activation threshold `δ1 + δ2`.
    threshold: i64,
    d1: i64,
    d2: i64,
}

/// What the slot loop carries from slot to slot besides the sensors.
struct Walk {
    rng: SmallRng,
    /// The next round-robin owner: ownership advances with a counter
    /// instead of a per-slot modulo.
    round_robin: usize,
    /// The full-information renewal point: the last event.
    last_event: u64,
    /// The partial-information renewal point: the last fleet-wide capture
    /// (broadcast to every sensor).
    last_capture: u64,
}

/// `Σ_{k=0}^{n-1} k = n(n − 1)/2` for `n ≥ 1`, halving the even factor
/// first so the product only overflows when the sum itself does.
#[inline(always)]
fn triangle(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        n / 2 * (n - 1)
    } else {
        (n - 1) / 2 * n
    }
}

impl<P: ProbSource> Run<'_, P> {
    /// The slot loop, walked one stretch of slots at a time.
    ///
    /// A stretch ends at the next slot that needs more than a recharge and
    /// a decision: an event, a battery sample, a traced slot, or the
    /// horizon. Inside it no capture can happen, so every information
    /// state `t − since` is a counter and the age of information rises by
    /// one per slot. The slots before the last only recharge and decide:
    /// run by run over the policy table ([`Run::runs`]) when the table,
    /// the observer and the outage plan allow, else slot by slot through
    /// [`Run::slot`] and the per-slot hooks. The last one also settles the
    /// event, its statistics, and the stretch's ages (a run of consecutive
    /// integers, summed in closed form). The warm-up only bounds that sum
    /// and decides whether the closing event counts.
    ///
    /// Per slot, in the paper's order: every sensor recharges, the deciding
    /// sensor(s) act, then the pre-sampled event, if any, arrives. Observer
    /// hooks fire in the order the [`Observer`] docs list.
    #[inline(always)]
    fn slot_loop<S: Sensors, O: Observer>(&self, mut sensors: S, observer: &mut O) -> SimReport {
        let sim = self.sim;
        let horizon = sim.slots;
        let warmup = sim.warmup_slots;
        let trace_end = u64::try_from(sim.trace_slots).unwrap_or(u64::MAX);
        let mut levels = Vec::with_capacity(if observer.wants_battery_levels() {
            sim.sensors
        } else {
            0
        });
        let mut trace = Vec::with_capacity(sim.trace_slots.min(4096));
        let mut battery_trace = Vec::new();
        // Runs skip the per-slot hooks and outage checks, so only a run
        // that needs neither takes them.
        let runs = self
            .prob
            .table()
            .filter(|_| !observer.wants_every_slot() && sim.outages.is_empty());

        // The paper anchors the process with an event at slot 0; all
        // information states start there.
        let mut walk = Walk {
            rng: SmallRng::seed_from_u64(self.seed),
            round_robin: 0,
            last_event: 0,
            last_capture: 0,
        };
        // The schedule is strictly increasing from slot 1, so the next
        // event is never behind the stretch being walked.
        let mut upcoming = self.events.iter().copied();
        let mut next_event = upcoming.next().unwrap_or(u64::MAX);
        let sample_every = sim.battery_sample_every.unwrap_or(u64::MAX);
        let mut next_sample = sample_every;
        let mut events = 0u64;
        let mut captures = 0u64;
        let mut age_sum = 0u64;
        let mut peak_age = 0u64;

        let mut first = 1u64;
        loop {
            let tracing = first <= trace_end;
            let last = if tracing {
                first
            } else {
                next_event.min(next_sample).min(horizon)
            };
            debug_assert!(first <= last && last <= horizon);
            match runs {
                Some(table) => self.runs(first..last, table, &mut sensors, &mut walk, observer),
                None => {
                    for t in first..last {
                        let (outcome, _) = self.slot(t, &mut sensors, &mut walk, false, observer);
                        self.close_slot(&outcome, &sensors, &mut levels, observer);
                    }
                }
            }
            let (mut outcome, record) = self.slot(last, &mut sensors, &mut walk, tracing, observer);

            // 3. The event (if any) arrives after the last slot's
            //    decisions; every active sensor captures it.
            let capture_before = walk.last_capture;
            if last == next_event {
                next_event = upcoming.next().unwrap_or(u64::MAX);
                let measured = last > warmup;
                events += u64::from(measured);
                if outcome.active {
                    match sim.coordination {
                        Coordination::Rotating(_) => {
                            let (lane, _) = sensors.sensor(outcome.owner);
                            lane.capture(last, self.d2, measured);
                        }
                        Coordination::Independent => {
                            for s in 0..sensors.count() {
                                let (lane, _) = sensors.sensor(s);
                                if lane.active {
                                    lane.capture(last, self.d2, measured);
                                }
                            }
                        }
                    }
                    if measured {
                        captures += 1;
                        // Gap since the previous fleet-wide capture (the
                        // paper's renewal-cycle length), measured before
                        // the update; the lowest-indexed capturer reports.
                        observer.on_capture(last, outcome.owner, last - capture_before);
                    }
                    walk.last_capture = last;
                } else if measured {
                    observer.on_miss(last);
                }
                walk.last_event = last;
                outcome.event = true;
                outcome.captured = outcome.active;
            }

            // 4. Age of information once each slot resolves: slots since
            //    the last fleet-wide capture, which only the closing event
            //    can move (to 0 in a capture slot). Over the measured part
            //    of the stretch the ages are consecutive integers.
            let aged_from = first.max(warmup + 1);
            let aged_to = if outcome.captured { last - 1 } else { last };
            if aged_from <= aged_to {
                let n = aged_to - aged_from + 1;
                age_sum += n * (aged_from - capture_before) + triangle(n);
                peak_age = peak_age.max(aged_to - capture_before);
            }

            if let Some(mut record) = record {
                record.event = outcome.event;
                record.captured = outcome.event && record.active && outcome.captured;
                trace.push(record);
            }
            if last == next_sample {
                next_sample = next_sample.saturating_add(sample_every);
                let mut sample = Vec::with_capacity(sim.sensors);
                for s in 0..sensors.count() {
                    sample.push(Energy::from_millis(sensors.lane(s).level));
                }
                battery_trace.push(BatterySample {
                    slot: last,
                    levels: sample,
                });
            }
            self.close_slot(&outcome, &sensors, &mut levels, observer);
            if last == horizon {
                break;
            }
            first = last + 1;
        }

        let mut stats = Vec::with_capacity(sim.sensors);
        for s in 0..sensors.count() {
            let (lane, harvest) = sensors.sensor(s);
            stats.push(lane.stats(self, harvest));
        }
        SimReport {
            slots: horizon,
            events,
            captures,
            sensors: stats,
            measured_slots: horizon - warmup,
            age_sum,
            peak_age,
            trace,
            battery_trace,
        }
    }

    /// Slots `range` of a stretch, run by run over `table`'s classes
    /// ([`PolicyTable::run`]); the information states rise by one per
    /// slot, so a class holds for its run's length. The coin draws nothing
    /// at `p ≤ 0` or `p ≥ 1`, so the stream carries only the recharges'
    /// draws there, in the same order:
    ///
    /// - a quiet run only recharges, in bulk ([`Sensors::quiet`]);
    /// - a hot run recharges and spends `δ1` wherever the level allows,
    ///   with no table lookup and no coin;
    /// - mixed slots recharge and decide through [`Run::slot`].
    #[inline(always)]
    fn runs<S: Sensors, O: Observer>(
        &self,
        range: Range<u64>,
        table: &PolicyTable,
        sensors: &mut S,
        walk: &mut Walk,
        observer: &mut O,
    ) {
        let mut t = range.start;
        while t < range.end {
            let (class, len) = self.run_at(t, table, sensors, walk);
            let end = t + len.min(range.end - t);
            match class {
                SlotClass::Quiet => {
                    sensors.quiet(end - t, self.capacity, &mut walk.rng);
                    // Round-robin ownership passes the slots nobody acted in.
                    if let Coordination::Rotating(SlotAssignment::RoundRobin) =
                        self.sim.coordination
                    {
                        let count = self.sim.sensors as u64;
                        let passed = (end - t) % count;
                        walk.round_robin = ((walk.round_robin as u64 + passed) % count) as usize;
                    }
                }
                SlotClass::Hot => {
                    for t in t..end {
                        self.recharge(t, sensors, &mut walk.rng, observer);
                        match self.sim.coordination {
                            Coordination::Rotating(assignment) => {
                                let owner = self.owner(t, assignment, walk);
                                let (lane, _) = sensors.sensor(owner);
                                self.act(lane, true);
                            }
                            Coordination::Independent => {
                                for s in 0..sensors.count() {
                                    let (lane, _) = sensors.sensor(s);
                                    self.act(lane, true);
                                }
                            }
                        }
                    }
                }
                SlotClass::Mixed => {
                    for t in t..end {
                        self.slot(t, sensors, walk, false, observer);
                    }
                }
            }
            t = end;
        }
    }

    /// The class of slot `t` and how many slots from `t` on keep it: the
    /// deciding sensors' common class, mixed where they differ, over the
    /// shortest of their runs. Only an independent fleet under partial
    /// information decides from more than one state.
    #[inline(always)]
    fn run_at<S: Sensors>(
        &self,
        t: u64,
        table: &PolicyTable,
        sensors: &S,
        walk: &Walk,
    ) -> (SlotClass, u64) {
        let state = |since: u64| (t - since) as usize;
        match (self.sim.coordination, self.info) {
            (Coordination::Independent, InfoModel::Partial) => {
                let (mut class, mut len) = table.run(state(sensors.lane(0).own_last_capture));
                for s in 1..sensors.count() {
                    let (other, other_len) = table.run(state(sensors.lane(s).own_last_capture));
                    if other != class {
                        class = SlotClass::Mixed;
                    }
                    len = len.min(other_len);
                }
                (class, len)
            }
            (_, InfoModel::Full) => table.run(state(walk.last_event)),
            (Coordination::Rotating(_), InfoModel::Partial) => table.run(state(walk.last_capture)),
        }
    }

    /// Every sensor recharges, in sensor order from the one RNG stream
    /// (harvesting continues through outages, as a supercapacitor's would).
    #[inline(always)]
    fn recharge<S: Sensors, O: Observer>(
        &self,
        t: u64,
        sensors: &mut S,
        rng: &mut SmallRng,
        observer: &mut O,
    ) {
        for s in 0..sensors.count() {
            let (lane, harvest) = sensors.sensor(s);
            let overflow = harvest.recharge(lane, self.capacity, rng);
            if overflow > 0 {
                let lost = Energy::from_millis(overflow).as_units();
                observer.on_recharge_overflow(t, s, lost);
            }
        }
    }

    /// The sensor in charge of slot `t` under `assignment`: round-robin
    /// ownership advances a counter instead of taking a per-slot modulo.
    #[inline(always)]
    fn owner(&self, t: u64, assignment: SlotAssignment, walk: &mut Walk) -> usize {
        match assignment {
            SlotAssignment::RoundRobin => {
                let owner = walk.round_robin;
                walk.round_robin += 1;
                if walk.round_robin == self.sim.sensors {
                    walk.round_robin = 0;
                }
                owner
            }
            other => other.owner(t, self.sim.sensors),
        }
    }

    /// One slot's first two phases: every sensor recharges (in sensor
    /// order, drawing from the one RNG stream), then the deciding
    /// sensor(s) act (the activation coin draws after the recharges).
    /// Returns the slot's outcome without its event, and its trace record
    /// when `tracing`.
    #[inline(always)]
    fn slot<S: Sensors, O: Observer>(
        &self,
        t: u64,
        sensors: &mut S,
        walk: &mut Walk,
        tracing: bool,
        observer: &mut O,
    ) -> (SlotOutcome, Option<TraceRecord>) {
        let sim = self.sim;
        let mut outcome = SlotOutcome {
            slot: t,
            owner: 0,
            state: 0,
            wanted: false,
            active: false,
            event: false,
            captured: false,
            measured: t > sim.warmup_slots,
        };
        let mut record = None;

        // 1. Recharge every sensor.
        self.recharge(t, sensors, &mut walk.rng, observer);

        // 2. The deciding sensor(s) act.
        let has_outages = !sim.outages.is_empty();
        match sim.coordination {
            Coordination::Rotating(assignment) => {
                let owner = self.owner(t, assignment, walk);
                outcome.owner = owner;
                let (lane, _) = sensors.sensor(owner);
                if has_outages && sim.outages.is_down(owner, t) {
                    lane.outage_slots += 1;
                    observer.on_outage(t, owner);
                } else {
                    let since = match self.info {
                        InfoModel::Full => walk.last_event,
                        InfoModel::Partial => walk.last_capture,
                    };
                    let state = (t - since) as usize;
                    let (wanted, active) =
                        self.decide(lane, t, owner, state, &mut walk.rng, observer);
                    outcome.state = state;
                    outcome.wanted = wanted;
                    outcome.active = active;
                }
                if tracing {
                    record = Some(TraceRecord {
                        slot: t,
                        owner,
                        state: outcome.state,
                        wanted_active: outcome.wanted,
                        active: outcome.active,
                        event: false,
                        captured: false,
                    });
                }
            }
            Coordination::Independent => {
                for s in 0..sensors.count() {
                    let (lane, _) = sensors.sensor(s);
                    lane.active = false;
                    if has_outages && sim.outages.is_down(s, t) {
                        lane.outage_slots += 1;
                        observer.on_outage(t, s);
                        continue;
                    }
                    let since = match self.info {
                        InfoModel::Full => walk.last_event,
                        InfoModel::Partial => lane.own_last_capture,
                    };
                    let state = (t - since) as usize;
                    let (wanted, active) = self.decide(lane, t, s, state, &mut walk.rng, observer);
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
        (outcome, record)
    }

    /// Sensor `s` decides in slot `t` from information state `state`:
    /// returns whether its policy wanted to activate and whether it did.
    #[inline(always)]
    fn decide<O: Observer>(
        &self,
        lane: &mut Lane,
        t: u64,
        s: usize,
        state: usize,
        rng: &mut SmallRng,
        observer: &mut O,
    ) -> (bool, bool) {
        let battery_fraction = fill_fraction(lane.level, self.capacity);
        let p = self.prob.probability(&DecisionContext {
            slot: t,
            state,
            battery_fraction,
        });
        debug_assert!((0.0..=1.0).contains(&p), "policy returned {p}");
        let wanted = coin_wants(p, rng);
        if wanted && lane.level < self.threshold {
            observer.on_forced_idle(t, s, battery_fraction);
        }
        (wanted, self.act(lane, wanted))
    }

    /// A sensor acts on its wish: it activates, spending `δ1`, when it
    /// wants to and holds the threshold `δ1 + δ2` (which covers `δ1`); a
    /// wish it cannot afford is a forced idle. Returns whether it
    /// activated.
    #[inline(always)]
    fn act(&self, lane: &mut Lane, wanted: bool) -> bool {
        let feasible = lane.level >= self.threshold;
        lane.forced_idle += u64::from(wanted && !feasible);
        let active = wanted && feasible;
        lane.level -= std::hint::select_unpredictable(active, self.d1, 0);
        lane.activations += u64::from(active);
        active
    }

    /// The observer hooks that close slot `outcome.slot`.
    #[inline(always)]
    fn close_slot<S: Sensors, O: Observer>(
        &self,
        outcome: &SlotOutcome,
        sensors: &S,
        levels: &mut Vec<f64>,
        observer: &mut O,
    ) {
        if observer.wants_battery_levels() {
            levels.clear();
            for s in 0..sensors.count() {
                levels.push(fill_fraction(sensors.lane(s).level, self.capacity));
            }
            observer.on_battery_levels(outcome.slot, levels);
        }
        observer.on_slot(outcome);
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
            idle: Vec<(usize, usize)>,
        }
        impl Observer for Collect {
            fn on_slot(&mut self, o: &SlotOutcome) {
                if o.active {
                    self.active_slots += 1;
                    self.owners.push(o.owner);
                } else {
                    self.idle.push((o.owner, o.state));
                }
            }
        }
        let pmf = weibull_pmf();
        let run = |units: f64, collect: &mut Collect| {
            Simulation::builder(&pmf)
                .slots(5_000)
                .seed(67)
                .sensors(3)
                .independent()
                .run_observed(
                    &AggressivePolicy::new(),
                    &mut |_| Box::new(ConstantRecharge::new(Energy::from_units(units)).unwrap()),
                    collect,
                )
                .unwrap()
        };
        let mut collect = Collect::default();
        let report = run(10.0, &mut collect);
        // Aggressive + abundant energy: every sensor activates every slot, so
        // every slot is active and the reported owner is sensor 0.
        assert_eq!(collect.active_slots, report.slots);
        assert!(collect.owners.iter().all(|&o| o == 0));
        // Scarce energy leaves slots where no sensor can activate; each
        // reports owner 0 and state 0, whatever state the sensors were in.
        let mut collect = Collect::default();
        let report = run(0.05, &mut collect);
        assert!(!collect.idle.is_empty() && collect.active_slots > 0);
        assert_eq!(
            collect.active_slots + collect.idle.len() as u64,
            report.slots
        );
        assert!(collect.idle.iter().all(|&slot| slot == (0, 0)));
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
    fn bernoulli_threshold_matches_the_float_draw() {
        /// Yields one fixed word, so `random::<f64>()` reads `m·2^-53`.
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                (self.0 >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let top = 1u64 << 53;
        let qs = [
            0.0,
            -0.0,
            f64::from_bits(1),
            1.0 / top as f64,
            0.5 / top as f64,
            1.5 / top as f64,
            0.1,
            0.5,
            1.0 / 3.0,
            1.0 - 1.0 / top as f64,
            1.0,
            1.5,
            -0.25,
            f64::NAN,
        ];
        for q in qs {
            let threshold = bernoulli_threshold(q);
            for m in [threshold.wrapping_sub(1), threshold, 0, top - 1] {
                if m >= top {
                    continue;
                }
                // The low 11 bits never reach the draw.
                for low in [0, 0x7ff] {
                    let float = Fixed(m << 11 | low).random::<f64>() < q;
                    assert_eq!(m < threshold, float, "q = {q:e}, m = {m}");
                }
            }
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
