//! Batched Monte Carlo replication of one scenario across many seeds.
//!
//! A single `10^6`-slot run gives one sample of the QoM; confidence
//! intervals need many independent seeds. [`ReplicationBatch`] makes that
//! fan-out a first-class primitive instead of a caller-side loop:
//!
//! * the policy's activation coefficients are compiled to a flat
//!   [`PolicyTable`] **once per batch** (stationary policies), and the
//!   scenario's event sampler (alias tables over the inter-arrival pmf) is
//!   built **once per batch** and shared read-only across replications;
//! * replications fan out over [`crate::parallel::parallel_map_with`]
//!   worker threads; each replication samples its event schedule just
//!   before it runs and drops it afterwards, and runs the same slot kernel
//!   as [`Simulation::run`];
//! * results reduce into a [`BatchReport`] in **seed order**, so the output
//!   is bit-identical no matter how many threads ran the batch — and each
//!   per-seed [`SimReport`] is bit-identical to a standalone
//!   [`Simulation::run`] with that seed.
//!
//! Seed `i` is `base + i·0x9E37_79B9_7F4A_7C15` (the 64-bit golden-ratio
//! stride, odd, hence a permutation of the seed space). Seed 0 *is* the
//! base seed, so a one-replication batch reproduces today's single runs
//! exactly.
//!
//! Timing: `sim.batch` spans the whole batch and `sim.batch.run` each
//! replication's kernel run, so the `sim.batch.run` total is the workers'
//! summed engine time; [`ReplicationBatch::phase_timing`] additionally
//! times schedule generation.
//!
//! # Example
//!
//! ```
//! use evcap_core::AggressivePolicy;
//! use evcap_dist::{Discretizer, Weibull};
//! use evcap_energy::{BernoulliRecharge, Energy};
//! use evcap_sim::{ReplicationBatch, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pmf = Discretizer::new().discretize(&Weibull::new(40.0, 3.0)?)?;
//! let sim = Simulation::builder(&pmf).slots(20_000).seed(7);
//! let batch = ReplicationBatch::new(sim, 8)?;
//! let report = batch.run(&AggressivePolicy::new(), &|_| {
//!     Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).expect("valid"))
//! })?;
//! assert_eq!(report.replications(), 8);
//! let (lo, hi) = report.qom.ci95();
//! assert!(lo <= report.qom.mean && report.qom.mean <= hi);
//! # Ok(())
//! # }
//! ```

use evcap_core::{ActivationPolicy, InfoModel, PolicyTable};
use evcap_dist::SlotSampler;
use evcap_energy::RechargeProcess;
use evcap_obs::timing::{self, Stopwatch};
use evcap_obs::NullObserver;

use crate::engine::{DynProb, Simulation, TableProb};
use crate::events::EventSchedule;
use crate::metrics::SimReport;
use crate::parallel::parallel_map_with;
use crate::stats::Summary;
use crate::{Result, SimError};

/// Thread-safe factory producing one recharge process per sensor index.
///
/// The batched runner calls it from worker threads (sensor by sensor,
/// replication by replication), so unlike the single-run
/// [`crate::RechargeFactory`] it must be `Fn + Sync` rather than `FnMut`.
pub type SyncRechargeFactory<'f> = dyn Fn(usize) -> Box<dyn RechargeProcess> + Sync + 'f;

/// The golden-ratio seed stride: odd, so seeds never collide, and seed 0 is
/// the base seed itself.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// N independent replications of one configured scenario.
///
/// Built from a [`Simulation`] (whose `seed` becomes the batch's base seed)
/// and a replication count. See the module-level docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct ReplicationBatch<'a> {
    sim: Simulation<'a>,
    replications: usize,
    threads: Option<usize>,
    table: Option<PolicyTable>,
    phased: bool,
}

impl<'a> ReplicationBatch<'a> {
    /// Wraps a configured simulation into a batch of `replications` seeds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroReplications`] for an empty batch.
    pub fn new(sim: Simulation<'a>, replications: usize) -> Result<Self> {
        if replications == 0 {
            return Err(SimError::ZeroReplications);
        }
        Ok(Self {
            sim,
            replications,
            threads: None,
            table: None,
            phased: false,
        })
    }

    /// Supplies a pre-solved activation table (e.g. from an
    /// `evcap_spec::SolvedPolicy` artifact), skipping the per-batch
    /// `policy.table()` compilation. The table must belong to the policy
    /// passed to [`ReplicationBatch::run`]; passing `None` keeps the
    /// default per-batch compilation.
    #[must_use]
    pub fn precompiled(mut self, table: Option<PolicyTable>) -> Self {
        self.table = table;
        self
    }

    /// Pins the worker-thread count, bypassing the machine default and the
    /// `EVCAP_THREADS` override. The result is identical either way; this
    /// only controls parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Times each replication's schedule generation as a
    /// `sim.batch.phase.generate` sample, on top of the usual `sim.batch`
    /// and `sim.batch.run` spans. Results are bit-identical either way.
    #[must_use]
    pub fn phase_timing(mut self, enabled: bool) -> Self {
        self.phased = enabled;
        self
    }

    /// The number of replications in the batch.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The derived per-replication seeds, in reduction order. Seed 0 is the
    /// base seed of the wrapped simulation.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.replications as u64)
            .map(|i| self.sim.seed.wrapping_add(i.wrapping_mul(SEED_STRIDE)))
            .collect()
    }

    /// Runs every replication (each with its own sampled event schedule)
    /// and reduces into a [`BatchReport`].
    ///
    /// # Errors
    ///
    /// The first failing replication's [`SimError`], in seed order
    /// (configuration errors are seed-independent, so every replication
    /// fails identically).
    pub fn run(
        &self,
        policy: &(dyn ActivationPolicy + Sync),
        make_recharge: &SyncRechargeFactory<'_>,
    ) -> Result<BatchReport> {
        // Shared, immutable per-batch precomputation: the alias-table event
        // sampler and the policy's flat activation table. Worker threads
        // only ever read them.
        let sampler = SlotSampler::new(self.sim.pmf)?;
        let mean_gap = self.sim.pmf.mean();
        let compiled = self.compile(policy);
        let _span = timing::span("sim.batch");
        let results = parallel_map_with(self.seeds(), self.threads, |seed| {
            let mut gen_watch = self.phased.then(Stopwatch::new);
            if let Some(w) = gen_watch.as_mut() {
                // deepcheck:allow(panic-path): `w.start()` is Stopwatch::start; the edge to Server::start is a method-name alias
                w.start();
            }
            let schedule =
                EventSchedule::generate_shared(&sampler, mean_gap, self.sim.slots, seed)?;
            if let Some(w) = gen_watch {
                w.record("sim.batch.phase.generate");
            }
            self.replicate(seed, &schedule, &compiled, make_recharge)
        });
        self.reduce(results)
    }

    /// Runs every replication on one **shared** pre-sampled event schedule
    /// (decision RNG streams still differ by seed) — the common-random-
    /// numbers mode the figure runners use for A/B policy comparisons.
    ///
    /// # Errors
    ///
    /// As [`ReplicationBatch::run`], plus [`SimError::ScheduleTooShort`].
    pub fn run_on(
        &self,
        schedule: &EventSchedule,
        policy: &(dyn ActivationPolicy + Sync),
        make_recharge: &SyncRechargeFactory<'_>,
    ) -> Result<BatchReport> {
        let compiled = self.compile(policy);
        let _span = timing::span("sim.batch");
        let results = parallel_map_with(self.seeds(), self.threads, |seed| {
            self.replicate(seed, schedule, &compiled, make_recharge)
        });
        self.reduce(results)
    }

    /// Uses the caller-supplied precompiled table when one was attached,
    /// otherwise compiles the policy's own table once for the batch.
    fn compile<'p>(&self, policy: &'p (dyn ActivationPolicy + Sync)) -> Compiled<'p> {
        let mut compiled = Compiled::of(policy);
        if let Some(table) = &self.table {
            compiled.table = Some(table.clone());
        }
        compiled
    }

    /// Runs one replication through the slot kernel with the batch's
    /// shared compiled policy.
    fn replicate(
        &self,
        seed: u64,
        schedule: &EventSchedule,
        compiled: &Compiled<'_>,
        make_recharge: &SyncRechargeFactory<'_>,
    ) -> Result<SimReport> {
        let mut make = |s: usize| make_recharge(s);
        let _span = timing::span("sim.batch.run");
        match &compiled.table {
            Some(table) => self.sim.kernel(
                seed,
                schedule,
                compiled.info,
                &TableProb(table),
                &mut make,
                &mut NullObserver,
            ),
            None => self.sim.kernel(
                seed,
                schedule,
                compiled.info,
                &DynProb(compiled.policy),
                &mut make,
                &mut NullObserver,
            ),
        }
    }

    /// Surfaces the first error in seed order (for the seed-independent
    /// configuration errors, the error every replication hit) and folds
    /// the per-seed reports sequentially in seed order: f64 accumulation
    /// order is fixed, so the report is bit-identical for any worker-thread
    /// count.
    fn reduce(&self, results: Vec<Result<SimReport>>) -> Result<BatchReport> {
        let reports = results.into_iter().collect::<Result<Vec<_>>>()?;
        let qom: Vec<f64> = reports.iter().map(SimReport::qom).collect();
        let discharge: Vec<f64> = reports.iter().map(SimReport::discharge_rate).collect();
        let mean_age_values: Vec<f64> = reports.iter().map(SimReport::mean_age).collect();
        let peak_age = reports.iter().map(|r| r.peak_age).max().unwrap_or(0);
        let mut events = 0u64;
        let mut captures = 0u64;
        let mut activations = 0u64;
        let mut forced_idle = 0u64;
        let mut final_units = 0.0f64;
        let mut sensor_count = 0usize;
        for report in &reports {
            events += report.events;
            captures += report.captures;
            activations += report.total_activations();
            forced_idle += report.total_forced_idle();
            for sensor in &report.sensors {
                final_units += sensor.final_level.as_units();
                sensor_count += 1;
            }
        }
        let capacity = self.sim.battery_capacity.as_units();
        let mean_final_fill = if capacity > 0.0 && sensor_count > 0 {
            final_units / (sensor_count as f64 * capacity)
        } else {
            0.0
        };
        let measured_slots = reports.len() as u64 * (self.sim.slots - self.sim.warmup_slots);
        let mean_capture_gap = if captures > 0 {
            Some(measured_slots as f64 / captures as f64)
        } else {
            None
        };
        Ok(BatchReport {
            slots: self.sim.slots,
            seeds: self.seeds(),
            qom: Summary::from_values(&qom),
            discharge: Summary::from_values(&discharge),
            events,
            captures,
            activations,
            forced_idle,
            mean_final_fill,
            mean_capture_gap,
            mean_age: Summary::from_values(&mean_age_values),
            peak_age,
            reports,
        })
    }
}

/// Per-batch compilation of the policy: info model hoisted, activation
/// table (when stationary) built exactly once and shared by every
/// replication.
struct Compiled<'p> {
    policy: &'p (dyn ActivationPolicy + Sync),
    info: InfoModel,
    table: Option<PolicyTable>,
}

impl<'p> Compiled<'p> {
    fn of(policy: &'p (dyn ActivationPolicy + Sync)) -> Self {
        Self {
            policy,
            info: policy.info_model(),
            table: policy.table(),
        }
    }
}

/// The deterministic reduction of a [`ReplicationBatch`].
///
/// Per-replication [`SimReport`]s are kept (in seed order) alongside the
/// cross-replication summaries, so callers can drill into any seed.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Slots simulated per replication.
    pub slots: u64,
    /// The per-replication seeds, aligned with `reports`.
    pub seeds: Vec<u64>,
    /// Every replication's full report, in seed order.
    pub reports: Vec<SimReport>,
    /// Mean / sample std-dev / CI of the per-replication QoM.
    pub qom: Summary,
    /// Mean / sample std-dev / CI of the per-replication discharge rate.
    pub discharge: Summary,
    /// Pooled event count across replications (post-warm-up).
    pub events: u64,
    /// Pooled capture count across replications (post-warm-up).
    pub captures: u64,
    /// Pooled activation count across replications.
    pub activations: u64,
    /// Pooled forced-idle count across replications.
    pub forced_idle: u64,
    /// Mean final battery fill fraction across replications and sensors.
    pub mean_final_fill: f64,
    /// Pooled mean slots between fleet-wide captures (post-warm-up), or
    /// `None` if nothing was captured.
    pub mean_capture_gap: Option<f64>,
    /// Mean / sample std-dev / CI of the per-replication mean age of
    /// information ([`SimReport::mean_age`]).
    pub mean_age: Summary,
    /// Largest age of information observed in any replication's measured
    /// window.
    pub peak_age: u64,
}

impl BatchReport {
    /// Number of replications reduced into this report.
    pub fn replications(&self) -> usize {
        self.reports.len()
    }

    /// The pooled QoM `Σ captures / Σ events` (weights replications by
    /// their event counts, unlike `qom.mean`).
    pub fn pooled_qom(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.captures as f64 / self.events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_core::AggressivePolicy;
    use evcap_dist::{Discretizer, SlotPmf, Weibull};
    use evcap_energy::{BernoulliRecharge, Energy};

    fn weibull_pmf() -> SlotPmf {
        Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap()
    }

    fn bernoulli(q: f64, c: f64) -> impl Fn(usize) -> Box<dyn RechargeProcess> + Sync {
        move |_| Box::new(BernoulliRecharge::new(q, Energy::from_units(c)).unwrap())
    }

    #[test]
    fn zero_replications_rejected() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(1_000);
        assert!(matches!(
            ReplicationBatch::new(sim, 0),
            Err(SimError::ZeroReplications)
        ));
    }

    #[test]
    fn seed_zero_is_the_base_seed() {
        let pmf = weibull_pmf();
        let batch = ReplicationBatch::new(Simulation::builder(&pmf).seed(123), 3).unwrap();
        let seeds = batch.seeds();
        assert_eq!(seeds[0], 123);
        assert_eq!(seeds.len(), 3);
        let mut dedup = seeds.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "seeds must differ");
    }

    #[test]
    fn single_replication_batch_matches_single_run() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(20_000).seed(9);
        let single = sim
            .clone()
            .run(&AggressivePolicy::new(), &mut |_: usize| {
                Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap())
                    as Box<dyn RechargeProcess>
            })
            .unwrap();
        let batch = ReplicationBatch::new(sim, 1).unwrap();
        let report = batch
            .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(report.reports[0], single);
        assert_eq!(report.qom.mean, single.qom());
        assert_eq!(report.qom.std_dev, 0.0);
    }

    #[test]
    fn every_seed_matches_standalone_run() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(15_000).seed(77).sensors(2);
        let batch = ReplicationBatch::new(sim.clone(), 5).unwrap();
        let report = batch
            .run(&AggressivePolicy::new(), &bernoulli(0.4, 1.0))
            .unwrap();
        for (i, seed) in batch.seeds().into_iter().enumerate() {
            let standalone = sim
                .clone()
                .seed(seed)
                .run(&AggressivePolicy::new(), &mut |_: usize| {
                    Box::new(BernoulliRecharge::new(0.4, Energy::from_units(1.0)).unwrap())
                        as Box<dyn RechargeProcess>
                })
                .unwrap();
            assert_eq!(report.reports[i], standalone, "replication {i}");
        }
    }

    #[test]
    fn reduction_is_invariant_under_thread_count() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(10_000).seed(5);
        let reference = ReplicationBatch::new(sim.clone(), 7)
            .unwrap()
            .threads(1)
            .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        for threads in [2, 3, 8] {
            let report = ReplicationBatch::new(sim.clone(), 7)
                .unwrap()
                .threads(threads)
                .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
                .unwrap();
            assert_eq!(report, reference, "threads = {threads}");
        }
    }

    #[test]
    fn phase_timing_mode_is_bit_identical() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(10_000).seed(15).sensors(2);
        let plain = ReplicationBatch::new(sim.clone(), 3)
            .unwrap()
            .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        let phased = ReplicationBatch::new(sim, 3)
            .unwrap()
            .phase_timing(true)
            .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(plain, phased);
    }

    #[test]
    fn shared_schedule_mode_holds_events_fixed() {
        let pmf = weibull_pmf();
        let schedule = EventSchedule::generate(&pmf, 12_000, 3).unwrap();
        let sim = Simulation::builder(&pmf).slots(12_000).seed(3);
        let report = ReplicationBatch::new(sim, 4)
            .unwrap()
            .run_on(&schedule, &AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        for rep in &report.reports {
            assert_eq!(rep.events, report.reports[0].events);
        }
        // Decision RNG streams still differ, so the runs are not clones.
        assert_eq!(report.replications(), 4);
    }

    #[test]
    fn pooled_statistics_add_up() {
        let pmf = weibull_pmf();
        let sim = Simulation::builder(&pmf).slots(8_000).seed(21);
        let report = ReplicationBatch::new(sim, 3)
            .unwrap()
            .run(&AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap();
        let events: u64 = report.reports.iter().map(|r| r.events).sum();
        let captures: u64 = report.reports.iter().map(|r| r.captures).sum();
        assert_eq!(report.events, events);
        assert_eq!(report.captures, captures);
        assert!(report.pooled_qom() > 0.0 && report.pooled_qom() <= 1.0);
        assert!(report.mean_final_fill >= 0.0 && report.mean_final_fill <= 1.0);
        let gap = report.mean_capture_gap.expect("captures happened");
        assert!(gap >= 1.0, "{gap}");
    }

    #[test]
    fn precompiled_table_matches_default_compilation() {
        use evcap_core::ClusteringPolicy;
        let pmf = weibull_pmf();
        let policy = ClusteringPolicy::new(20, 40, 60, 0.5, 1.0, 0.25).unwrap();
        let sim = Simulation::builder(&pmf).slots(12_000).seed(11);
        let default = ReplicationBatch::new(sim.clone(), 3)
            .unwrap()
            .run(&policy, &bernoulli(0.5, 1.0))
            .unwrap();
        let pre = ReplicationBatch::new(sim, 3)
            .unwrap()
            .precompiled(policy.table())
            .run(&policy, &bernoulli(0.5, 1.0))
            .unwrap();
        assert_eq!(pre, default);
    }

    #[test]
    fn first_error_in_seed_order_is_returned() {
        let pmf = weibull_pmf();
        // A schedule shorter than the horizon fails inside every
        // replication; the batch must surface it as an error, not panic.
        let short = EventSchedule::from_slots(vec![1], 10);
        let sim = Simulation::builder(&pmf).slots(100).seed(1);
        let err = ReplicationBatch::new(sim, 3)
            .unwrap()
            .run_on(&short, &AggressivePolicy::new(), &bernoulli(0.5, 1.0))
            .unwrap_err();
        assert!(matches!(err, SimError::ScheduleTooShort { .. }));
    }
}
