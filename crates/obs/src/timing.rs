//! Monotonic-clock timing spans and global counters for hot paths.
//!
//! Spans are *globally gated*: when disabled (the default) entering a span
//! is one relaxed atomic load and drop is free, so permanently instrumented
//! hot paths (LP solves, clustering searches, whole simulation runs) cost
//! nothing in production. Enable collection with [`set_enabled`], run the
//! workload, then [`drain_spans`] the aggregated per-name statistics.
//!
//! Spans aggregate under a `&'static str` name — count, total, min, max —
//! rather than recording individual samples, so memory stays bounded no
//! matter how hot the instrumented path is. Counters ([`add_count`]) share
//! the same gate and registry discipline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::jsonl::JsonObject;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<BTreeMap<&'static str, SpanStats>> = Mutex::new(BTreeMap::new());
static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total time across spans, nanoseconds.
    pub total_ns: u128,
    /// Shortest span, nanoseconds.
    pub min_ns: u128,
    /// Longest span, nanoseconds.
    pub max_ns: u128,
}

impl SpanStats {
    /// Mean span duration in nanoseconds; 0.0 with no spans.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn merge_sample(&mut self, ns: u128) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }
}

/// Turns span/counter collection on or off (off by default).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An RAII timing span: construct via [`span`], drop to record.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    trace: Option<crate::trace::SpanToken>,
    cancelled: bool,
}

impl SpanGuard {
    /// Disarms the guard (records nothing on drop; an active trace still
    /// unwinds its span stack so later spans keep correct parents).
    pub fn cancel(mut self) {
        self.start = None;
        self.cancelled = true;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_sample(self.name, start.elapsed());
        }
        if let Some(token) = self.trace.take() {
            crate::trace::exit(self.name, token, !self.cancelled);
        }
    }
}

/// Starts a timing span. When both aggregate collection and request
/// tracing are off this is two relaxed atomic loads and the returned
/// guard is inert. An active [`crate::trace`] context on this thread
/// additionally records the span as a tree event, independent of the
/// aggregate gate.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let trace = if crate::trace::maybe_active() {
        crate::trace::enter(name)
    } else {
        None
    };
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
        trace,
        cancelled: false,
    }
}

/// A manual accumulating stopwatch for phase timing inside hot loops.
///
/// [`span`] records one sample per guard drop, taking the registry lock
/// each time — fine once per run, ruinous once per slot. A `Stopwatch`
/// instead accumulates many `start`/`stop` intervals locally and touches
/// the registry exactly once, in [`Stopwatch::record`]. Like spans it is
/// armed by the global gate at construction: when collection is off,
/// `start`/`stop` are a branch on a local bool and `record` is a no-op,
/// so permanently instrumented loops cost almost nothing disabled.
///
/// The replication batch uses one to time each replication's schedule
/// generation when phase timing is on.
#[derive(Debug)]
pub struct Stopwatch {
    armed: bool,
    started: Option<Instant>,
    total: Duration,
}

impl Stopwatch {
    /// Creates a stopwatch, armed only if collection is currently enabled.
    pub fn new() -> Self {
        Self {
            armed: enabled(),
            started: None,
            total: Duration::ZERO,
        }
    }

    /// Starts (or restarts) an interval. No-op when unarmed.
    #[inline]
    pub fn start(&mut self) {
        if self.armed {
            self.started = Some(Instant::now());
        }
    }

    /// Ends the current interval, adding it to the running total. No-op
    /// when unarmed or when no interval is open.
    #[inline]
    pub fn stop(&mut self) {
        if let Some(started) = self.started.take() {
            self.total += started.elapsed();
        }
    }

    /// Records the accumulated total as one sample under `name` (closing
    /// any open interval first) and consumes the stopwatch.
    pub fn record(mut self, name: &'static str) {
        self.stop();
        if self.armed {
            record_sample(name, self.total);
        }
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Records one explicit duration sample under `name` (gated like spans).
pub fn record_sample(name: &'static str, elapsed: Duration) {
    if !enabled() {
        return;
    }
    let mut spans = SPANS.lock().unwrap_or_else(PoisonError::into_inner);
    spans
        .entry(name)
        .or_default()
        .merge_sample(elapsed.as_nanos());
}

/// Adds `n` to the named counter (gated like spans).
pub fn add_count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    let mut counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    *counters.entry(name).or_insert(0) += n;
}

/// Returns and clears all aggregated spans.
pub fn drain_spans() -> Vec<(&'static str, SpanStats)> {
    let mut spans = SPANS.lock().unwrap_or_else(PoisonError::into_inner);
    std::mem::take(&mut *spans).into_iter().collect()
}

/// Returns and clears all counters.
pub fn drain_counters() -> Vec<(&'static str, u64)> {
    let mut counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    std::mem::take(&mut *counters).into_iter().collect()
}

/// Clears all recorded spans and counters without returning them.
pub fn reset() {
    drop(drain_spans());
    drop(drain_counters());
}

/// Serializes one span as a JSONL record.
pub fn span_record(name: &str, stats: &SpanStats) -> JsonObject {
    let mut obj = JsonObject::with_type("span");
    obj.field_str("name", name);
    obj.field_u64("count", stats.count);
    obj.field_f64("total_ms", stats.total_ns as f64 / 1e6);
    obj.field_f64("mean_us", stats.mean_ns() / 1e3);
    obj.field_f64("min_us", stats.min_ns as f64 / 1e3);
    obj.field_f64("max_us", stats.max_ns as f64 / 1e3);
    obj
}

/// Serializes one counter as a JSONL record.
pub fn counter_record(name: &str, value: u64) -> JsonObject {
    let mut obj = JsonObject::with_type("counter");
    obj.field_str("name", name);
    obj.field_u64("value", value);
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard, OnceLock};

    /// The registries are global, so tests touching them serialize here.
    fn registry_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<TestMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = registry_lock();
        set_enabled(false);
        reset();
        {
            let _span = span("test.disabled");
        }
        add_count("test.disabled.counter", 5);
        assert!(drain_spans().is_empty());
        assert!(drain_counters().is_empty());
    }

    #[test]
    fn enabled_spans_aggregate() {
        let _guard = registry_lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _span = span("test.enabled");
        }
        record_sample("test.enabled", Duration::from_micros(50));
        let spans = drain_spans();
        set_enabled(false);
        let (name, stats) = spans
            .iter()
            .find(|(n, _)| *n == "test.enabled")
            .expect("span recorded");
        assert_eq!(*name, "test.enabled");
        assert_eq!(stats.count, 4);
        assert!(stats.total_ns >= 50_000);
        assert!(stats.min_ns <= stats.max_ns);
        assert!(stats.mean_ns() > 0.0);
    }

    #[test]
    fn cancel_suppresses_recording() {
        let _guard = registry_lock();
        set_enabled(true);
        reset();
        span("test.cancelled").cancel();
        let spans = drain_spans();
        set_enabled(false);
        assert!(spans.iter().all(|(n, _)| *n != "test.cancelled"));
    }

    #[test]
    fn stopwatch_accumulates_into_one_sample() {
        let _guard = registry_lock();
        set_enabled(true);
        reset();
        let mut watch = Stopwatch::new();
        for _ in 0..5 {
            watch.start();
            std::hint::black_box(0u64);
            watch.stop();
        }
        // An open interval at record time is closed, not lost.
        watch.start();
        watch.record("test.stopwatch");
        let spans = drain_spans();
        set_enabled(false);
        let (_, stats) = spans
            .iter()
            .find(|(n, _)| *n == "test.stopwatch")
            .expect("stopwatch recorded");
        assert_eq!(stats.count, 1, "many intervals, one sample");
    }

    #[test]
    fn disarmed_stopwatch_records_nothing() {
        let _guard = registry_lock();
        set_enabled(false);
        reset();
        let mut watch = Stopwatch::new();
        watch.start();
        watch.stop();
        watch.record("test.stopwatch.disarmed");
        // Arming afterwards must not resurrect it.
        set_enabled(true);
        let spans = drain_spans();
        set_enabled(false);
        assert!(spans.iter().all(|(n, _)| *n != "test.stopwatch.disarmed"));
    }

    #[test]
    fn counters_accumulate() {
        let _guard = registry_lock();
        set_enabled(true);
        reset();
        add_count("test.counter", 2);
        add_count("test.counter", 3);
        let counters = drain_counters();
        set_enabled(false);
        assert!(counters.contains(&("test.counter", 5)));
    }

    #[test]
    fn record_shapes() {
        let stats = SpanStats {
            count: 2,
            total_ns: 3_000_000,
            min_ns: 1_000_000,
            max_ns: 2_000_000,
        };
        let line = span_record("lp.solve", &stats).finish();
        assert!(line.contains("\"type\":\"span\""));
        assert!(line.contains("\"name\":\"lp.solve\""));
        assert!(line.contains("\"total_ms\":3"));
        let line = counter_record("sim.slots", 7).finish();
        assert!(line.contains("\"type\":\"counter\""));
        assert!(line.contains("\"value\":7"));
    }
}
