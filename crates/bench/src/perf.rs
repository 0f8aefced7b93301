//! Slots/sec throughput recording for the figure runners.
//!
//! The simulation engine already instruments itself through `evcap-obs`
//! (the `sim.run` span per single run, the `sim.batch.run` span per batch
//! replication, and the shared `sim.slots` counter), so the bench harness does
//! not time anything by hand: it enables the global timing registry around
//! a runner, drains the registry afterwards, and derives throughput from
//! what the engine reported. Because spans aggregate across threads, the
//! engine-span total is *CPU-seconds of simulation*, not wall time — the
//! derived rate is per-core throughput and is stable under `parallel_map`
//! fan-out.
//!
//! Reports go to stderr (stdout carries the figure tables, which tests
//! scrape) and, when `EVCAP_PERF_LOG` names a file, are appended to it as
//! JSONL `throughput` records compatible with `evcap trace`.

use std::time::Instant;

use evcap_obs::{timing, JsonObject, JsonlSink};

/// Throughput of one runner invocation, as reported by the engine's own
/// instrumentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Total slots simulated (the `sim.slots` counter).
    pub slots: u64,
    /// CPU-seconds spent inside the engine loop (the `sim.run` and
    /// `sim.batch.run` spans, summed across simulations and threads —
    /// *not* wall time).
    pub cpu_seconds: f64,
    /// Wall-clock seconds of the whole runner, including optimization.
    pub wall_seconds: f64,
    /// Number of engine entries: `sim.run` single runs plus
    /// `sim.batch.run` batch replications.
    pub runs: u64,
}

impl Throughput {
    /// Per-core engine throughput in slots per second (CPU-time based, so
    /// it is stable under `parallel_map` fan-out).
    pub fn slots_per_second(&self) -> f64 {
        if self.cpu_seconds > 0.0 {
            self.slots as f64 / self.cpu_seconds
        } else {
            0.0
        }
    }

    /// Aggregate throughput in slots per wall-clock second — the number
    /// that actually improves when a batch fans out across threads.
    pub fn wall_slots_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.slots as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The JSONL record appended to `EVCAP_PERF_LOG`.
    pub fn record(&self, label: &str) -> JsonObject {
        let mut obj = JsonObject::with_type("throughput");
        obj.field_str("label", label);
        obj.field_u64("slots", self.slots);
        obj.field_u64("runs", self.runs);
        obj.field_f64("cpu_seconds", self.cpu_seconds);
        obj.field_f64("wall_seconds", self.wall_seconds);
        obj.field_f64("slots_per_second", self.slots_per_second());
        obj.field_f64("wall_slots_per_second", self.wall_slots_per_second());
        obj
    }
}

/// Runs `f` with the observability timing registry enabled and returns its
/// result together with the engine-reported throughput.
///
/// The registry is global: the caller should not nest `measured` calls, and
/// concurrent simulations all fold into the same totals (by design — see
/// the module docs). Returns `None` for the throughput if `f` never entered
/// the engine.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Option<Throughput>) {
    timing::set_enabled(true);
    timing::reset();
    let wall = Instant::now(); // tidy:allow(instant-now): the perf harness is itself the timing authority
    let result = f();
    let wall_seconds = wall.elapsed().as_secs_f64();
    let spans = timing::drain_spans();
    let counters = timing::drain_counters();
    // Single runs report `sim.run`; batch replications report
    // `sim.batch.run`. Both feed the shared `sim.slots` counter, so mixed
    // workloads sum cleanly.
    let (mut total_ns, mut runs) = (0u128, 0u64);
    for (name, stats) in &spans {
        if *name == "sim.run" || *name == "sim.batch.run" {
            total_ns += stats.total_ns;
            runs += stats.count;
        }
    }
    let slots = counters
        .iter()
        .find(|(name, _)| *name == "sim.slots")
        .map_or(0, |&(_, n)| n);
    let throughput = (runs > 0).then(|| Throughput {
        slots,
        cpu_seconds: total_ns as f64 / 1e9,
        wall_seconds,
        runs,
    });
    (result, throughput)
}

/// Wraps a figure runner: measures it, prints the throughput line on
/// stderr, appends to `EVCAP_PERF_LOG` if set, and returns the runner's
/// output for the caller to print.
pub fn with_throughput<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let (result, throughput) = measured(f);
    if let Some(t) = throughput {
        eprintln!( // tidy:allow(print): perf reports go to stderr by design (stdout carries figure tables)
            "# perf {label}: {} slots in {} runs, cpu {:.2} s, {:.2} M slots/sec/core, wall {:.2} s",
            t.slots,
            t.runs,
            t.cpu_seconds,
            t.slots_per_second() / 1e6,
            t.wall_seconds,
        );
        if let Ok(path) = std::env::var("EVCAP_PERF_LOG") {
            if let Err(err) = append_record(&path, t.record(label)) {
                eprintln!("# perf {label}: cannot append to {path}: {err}"); // tidy:allow(print): perf reports go to stderr by design
            }
        }
    } else {
        eprintln!("# perf {label}: no simulation ran, wall only"); // tidy:allow(print): perf reports go to stderr by design
    }
    result
}

/// Request-latency percentiles for a load-generation run, computed exactly
/// from the recorded per-request samples (unlike the server's bucketed
/// [`evcap_obs::LatencyHistogram`], the loadgen holds every sample in
/// memory, so its percentiles are order statistics, not bucket bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Successful requests.
    pub count: u64,
    /// Failed requests (connect/parse/non-2xx).
    pub errors: u64,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes per-request samples (nanoseconds). Sorts in place.
    pub fn from_samples_ns(samples: &mut [u64], errors: u64, wall_seconds: f64) -> Self {
        samples.sort_unstable();
        let count = samples.len() as u64;
        let pick = |q: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            // The ceil-rank order statistic: the smallest sample ≥ q of the
            // distribution, matching the loadgen convention of textbooks.
            let rank = ((q * count as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1] as f64 / 1e3
        };
        let mean_us = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|&ns| ns as f64).sum::<f64>() / count as f64 / 1e3
        };
        Self {
            count,
            errors,
            wall_seconds,
            mean_us,
            p50_us: pick(0.50),
            p90_us: pick(0.90),
            p99_us: pick(0.99),
            max_us: samples.last().map_or(0.0, |&ns| ns as f64 / 1e3),
        }
    }

    /// Successful requests per wall-clock second.
    pub fn requests_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.count as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The JSONL record appended to `EVCAP_PERF_LOG` (`type: "loadgen"`).
    pub fn record(&self, label: &str) -> JsonObject {
        let mut obj = JsonObject::with_type("loadgen");
        obj.field_str("label", label);
        obj.field_u64("requests", self.count);
        obj.field_u64("errors", self.errors);
        obj.field_f64("wall_seconds", self.wall_seconds);
        obj.field_f64("requests_per_second", self.requests_per_second());
        obj.field_f64("mean_us", self.mean_us);
        obj.field_f64("p50_us", self.p50_us);
        obj.field_f64("p90_us", self.p90_us);
        obj.field_f64("p99_us", self.p99_us);
        obj.field_f64("max_us", self.max_us);
        obj
    }
}

/// Reports a loadgen run the same way `with_throughput` reports figure
/// runners: one line on stderr plus an `EVCAP_PERF_LOG` append when set.
pub fn report_loadgen(label: &str, summary: &LatencySummary) {
    eprintln!( // tidy:allow(print): perf reports go to stderr by design (stdout carries figure tables)
        "# perf {label}: {} requests ({} errors) in {:.2} s, {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs",
        summary.count,
        summary.errors,
        summary.wall_seconds,
        summary.requests_per_second(),
        summary.p50_us,
        summary.p99_us,
    );
    if let Ok(path) = std::env::var("EVCAP_PERF_LOG") {
        if let Err(err) = append_record(&path, summary.record(label)) {
            eprintln!("# perf {label}: cannot append to {path}: {err}"); // tidy:allow(print): perf reports go to stderr by design
        }
    }
}

fn append_record(path: &str, record: JsonObject) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    sink.write(record)?;
    sink.finish().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{weibull_pmf, Scale};
    use evcap_core::AggressivePolicy;
    use evcap_energy::{BernoulliRecharge, Energy};
    use evcap_sim::Simulation;

    fn simulate(slots: u64) {
        Simulation::builder(&weibull_pmf())
            .slots(slots)
            .seed(Scale::quick().seed)
            .run(&AggressivePolicy::new(), &mut |_| {
                Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).expect("static"))
            })
            .expect("valid simulation");
    }

    /// The timing registry is process-global, so tests that enable and
    /// drain it serialize here.
    fn measured_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn measured_reports_engine_counters() {
        let _guard = measured_lock();
        let ((), t) = measured(|| simulate(10_000));
        let t = t.expect("one simulation ran");
        assert_eq!(t.slots, 10_000);
        assert_eq!(t.runs, 1);
        assert!(t.cpu_seconds > 0.0);
        assert!(t.wall_seconds >= t.cpu_seconds * 0.5, "wall covers the run");
        assert!(t.slots_per_second() > 0.0);
        assert!(t.wall_slots_per_second() > 0.0);
    }

    #[test]
    fn measured_reports_batched_engine_counters() {
        use evcap_sim::ReplicationBatch;
        let _guard = measured_lock();
        let pmf = weibull_pmf();
        let ((), t) = measured(|| {
            let sim = Simulation::builder(&pmf).slots(4_000).seed(3);
            ReplicationBatch::new(sim, 5)
                .unwrap()
                .threads(2)
                .run(&AggressivePolicy::new(), &|_| {
                    Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).expect("static"))
                })
                .expect("valid batch");
        });
        let t = t.expect("the batch engine reported spans");
        assert_eq!(t.slots, 5 * 4_000, "counter covers every replication");
        assert!(
            t.runs >= 1 && t.runs <= 5,
            "one span per replication: {}",
            t.runs
        );
        assert!(t.cpu_seconds > 0.0);
        assert!(t.slots_per_second() > 0.0);
    }

    #[test]
    fn measured_without_simulation_is_none() {
        let _guard = measured_lock();
        let (value, t) = measured(|| 7);
        assert_eq!(value, 7);
        assert!(t.is_none());
    }

    #[test]
    fn latency_summary_percentiles_are_order_statistics() {
        // 1..=100 µs in nanoseconds, shuffled order.
        let mut ns: Vec<u64> = (1..=100u64).rev().map(|us| us * 1_000).collect();
        let s = LatencySummary::from_samples_ns(&mut ns, 2, 0.5);
        assert_eq!(s.count, 100);
        assert_eq!(s.errors, 2);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p90_us, 90.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        assert_eq!(s.requests_per_second(), 200.0);

        let s = LatencySummary::from_samples_ns(&mut [], 0, 0.0);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.requests_per_second(), 0.0);
    }

    #[test]
    fn loadgen_record_round_trips_through_the_parser() {
        let mut ns = vec![1_000u64, 2_000, 3_000];
        let s = LatencySummary::from_samples_ns(&mut ns, 1, 0.25);
        let line = s.record("smoke").finish();
        let value = evcap_obs::parse_line(&line).expect("valid JSON");
        assert_eq!(
            value.get("type").and_then(evcap_obs::JsonValue::as_str),
            Some("loadgen")
        );
        assert_eq!(
            value.get("requests").and_then(evcap_obs::JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            value.get("p99_us").and_then(evcap_obs::JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let _guard = measured_lock();
        let ((), t) = measured(|| simulate(5_000));
        let line = t.expect("ran").record("unit-test").finish();
        let value = evcap_obs::parse_line(&line).expect("valid JSON");
        assert_eq!(
            value.get("type").and_then(evcap_obs::JsonValue::as_str),
            Some("throughput")
        );
        assert_eq!(
            value.get("slots").and_then(evcap_obs::JsonValue::as_f64),
            Some(5_000.0)
        );
        assert!(value
            .get("slots_per_second")
            .and_then(evcap_obs::JsonValue::as_f64)
            .is_some_and(|rate| rate > 0.0));
    }
}
