//! Per-request trace context: span trees keyed by a `TraceId`.
//!
//! The aggregated registries in [`crate::timing`] answer "how long do LP
//! solves take overall"; this module answers "what happened inside *this*
//! request". A server thread opens a trace with [`start`], which installs a
//! thread-local context. Every [`crate::timing::span`] entered while the
//! context is active additionally records a [`SpanEvent`] carrying the
//! trace id, its own span id, and the id of the span that was live when it
//! started — enough to reconstruct the full tree offline (`evcap trace
//! --tree`). [`TraceGuard::finish`] returns the collected events and tears
//! the context down.
//!
//! Trace ids are 16 lowercase hex characters. Generated ids come from a
//! splitmix64 sequence over a process-global counter — the same mixer the
//! simulator uses for seed derivation — so they are unique within a
//! process without touching the wall clock (the `xtask deepcheck` clock rule
//! stays intact). Callers may supply an external id instead (e.g. an
//! `X-Request-Id` header) via [`start`].
//!
//! Cost discipline: when no trace is active anywhere, the hook inside
//! `timing::span` is a single relaxed atomic load. While some thread is
//! tracing, non-tracing threads additionally pay one thread-local check.
//! The context itself is recycled across requests on the same thread: the
//! id string and the span/event buffers keep their capacity, so a warmed
//! serve worker runs the whole trace lifecycle without allocating
//! ([`TraceGuard::finish_into`] swaps buffers with a caller-owned record
//! instead of handing out a fresh `Vec`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::jsonl::JsonObject;

/// Span id assigned to the request root; children of the root carry it as
/// their `parent_id`.
pub const ROOT_SPAN_ID: u64 = 1;

/// Number of traces currently active across all threads. Zero means the
/// per-span hook can bail after one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Monotonic input to the splitmix64 id generator.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Recycled across traces: `active` flips per request, the buffers
    // keep their capacity. Lazy (non-const) init because `Instant` has no
    // const constructor.
    static CTX: RefCell<Ctx> = RefCell::new(Ctx {
        active: false,
        trace_id: String::new(),
        start: Instant::now(), // placeholder; start() re-stamps it
        next_span: ROOT_SPAN_ID,
        stack: Vec::new(),
        events: Vec::new(),
    });
}

struct Ctx {
    active: bool,
    trace_id: String,
    start: Instant,
    next_span: u64,
    stack: Vec<u64>,
    events: Vec<SpanEvent>,
}

/// One completed span (or instantaneous mark) inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`spec.solve`, `clustering.search`, ...).
    pub name: &'static str,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The id of the enclosing span ([`ROOT_SPAN_ID`] for top-level spans).
    pub parent_id: u64,
    /// Offset from the trace start, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Optional annotation (cache outcome label, ...); empty when unused.
    pub label: &'static str,
}

/// Everything collected for one finished trace.
#[derive(Debug, Clone, Default)]
pub struct TraceRecord {
    /// The trace id (external or generated).
    pub trace_id: String,
    /// Completed spans in completion order.
    pub events: Vec<SpanEvent>,
    /// Total wall time from [`start`] to [`TraceGuard::finish`], ns.
    pub total_ns: u64,
}

/// RAII handle for an active trace on the current thread.
///
/// Dropping without [`finish`](TraceGuard::finish) discards the events but
/// still tears the context down, so a panicking request cannot leak a
/// context into the next request served by the same thread.
#[derive(Debug)]
pub struct TraceGuard {
    finished: bool,
}

const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generates a fresh 16-hex-char trace id (no wall-clock entropy).
pub fn next_trace_id() -> String {
    let mut buf = [0u8; 16];
    next_trace_id_into(&mut buf).to_owned()
}

/// Allocation-free variant of [`next_trace_id`]: hex-encodes the next id
/// into `buf` and returns it as `&str`. The serve hot loop uses this so an
/// untraced-by-the-client request costs no heap allocation for its id.
pub fn next_trace_id_into(buf: &mut [u8; 16]) -> &str {
    let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(n);
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[((id >> ((15 - i) * 4)) & 0xf) as usize];
    }
    std::str::from_utf8(buf).unwrap_or("0000000000000000")
}

/// Opens a trace with the given id on the current thread.
///
/// If a trace is already active on this thread it is discarded first (a
/// server thread never nests requests, so this only matters after a
/// panic-and-recover path).
pub fn start(trace_id: &str) -> TraceGuard {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if !ctx.active {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        ctx.active = true;
        ctx.trace_id.clear();
        ctx.trace_id.push_str(trace_id);
        ctx.start = Instant::now();
        ctx.next_span = ROOT_SPAN_ID;
        ctx.stack.clear();
        ctx.stack.push(ROOT_SPAN_ID);
        ctx.events.clear();
    });
    TraceGuard { finished: false }
}

impl TraceGuard {
    /// Closes the trace and returns everything collected.
    pub fn finish(self) -> TraceRecord {
        let mut record = TraceRecord::default();
        self.finish_into(&mut record);
        record
    }

    /// Closes the trace, filling `out` in place. Returns `true` when a
    /// trace was actually active (and `out` is valid), `false` otherwise.
    ///
    /// The event buffer is *swapped* with `out.events` rather than moved,
    /// so a caller that reuses the same `TraceRecord` across requests
    /// keeps both buffers' capacity — the serve hot loop collects a full
    /// span tree without allocating.
    pub fn finish_into(mut self, out: &mut TraceRecord) -> bool {
        self.finished = true;
        CTX.with(|cell| {
            let mut ctx = cell.borrow_mut();
            if !ctx.active {
                out.events.clear();
                return false;
            }
            ctx.active = false;
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            out.total_ns = duration_ns(ctx.start.elapsed());
            out.trace_id.clear();
            out.trace_id.push_str(&ctx.trace_id);
            std::mem::swap(&mut out.events, &mut ctx.events);
            // The swapped-in buffer may hold a previous request's events;
            // clear now so a dropped (never-restarted) context can't leak
            // them into a later trace.
            ctx.events.clear();
            true
        })
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.finished {
            deactivate();
        }
    }
}

fn deactivate() {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if ctx.active {
            ctx.active = false;
            ctx.events.clear();
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// True when *some* thread has an active trace. One relaxed load; the
/// fast-path gate for the `timing::span` hook.
#[inline]
pub fn maybe_active() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// A token returned by `enter`; pass it back to `exit` when the span
/// completes.
#[derive(Debug)]
pub struct SpanToken {
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
}

/// Registers a span start against the current thread's trace, if any.
pub(crate) fn enter(_name: &'static str) -> Option<SpanToken> {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if !ctx.active {
            return None;
        }
        ctx.next_span += 1;
        let span_id = ctx.next_span;
        let parent_id = *ctx.stack.last().unwrap_or(&ROOT_SPAN_ID);
        ctx.stack.push(span_id);
        Some(SpanToken {
            span_id,
            parent_id,
            start_ns: duration_ns(ctx.start.elapsed()),
        })
    })
}

/// Completes a span started with [`enter`]. `record` is false when the
/// guard was cancelled: the stack still unwinds but no event is kept.
pub(crate) fn exit(name: &'static str, token: SpanToken, record: bool) {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if !ctx.active {
            return;
        }
        // Unwind to (and including) this span. Tolerates skipped exits so
        // a leaked guard cannot corrupt parentage for the rest of the
        // request.
        while let Some(top) = ctx.stack.pop() {
            if top == token.span_id {
                break;
            }
        }
        if record {
            let end_ns = duration_ns(ctx.start.elapsed());
            ctx.events.push(SpanEvent {
                name,
                span_id: token.span_id,
                parent_id: token.parent_id,
                start_ns: token.start_ns,
                dur_ns: end_ns.saturating_sub(token.start_ns),
                label: "",
            });
        }
    });
}

/// Records an instantaneous annotation (e.g. a cache outcome) as a
/// zero-duration child of the currently open span. No-op without an
/// active trace on this thread.
pub fn mark(name: &'static str, label: &'static str) {
    if !maybe_active() {
        return;
    }
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if !ctx.active {
            return;
        }
        ctx.next_span += 1;
        let span_id = ctx.next_span;
        let parent_id = *ctx.stack.last().unwrap_or(&ROOT_SPAN_ID);
        let at = duration_ns(ctx.start.elapsed());
        ctx.events.push(SpanEvent {
            name,
            span_id,
            parent_id,
            start_ns: at,
            dur_ns: 0,
            label,
        });
    });
}

/// Serializes one trace event as a JSONL record (micros, like the other
/// obs records).
pub fn event_record(trace_id: &str, event: &SpanEvent) -> JsonObject {
    let mut obj = JsonObject::with_type("trace_span");
    obj.field_str("trace_id", trace_id);
    obj.field_u64("span_id", event.span_id);
    obj.field_u64("parent_id", event.parent_id);
    obj.field_str("name", event.name);
    if !event.label.is_empty() {
        obj.field_str("label", event.label);
    }
    obj.field_f64("start_us", event.start_ns as f64 / 1e3);
    obj.field_f64("dur_us", event.dur_ns as f64 / 1e3);
    obj
}

/// Serializes the request root as a JSONL record so the span tree has an
/// explicit single root (span id [`ROOT_SPAN_ID`], no parent).
pub fn root_record(trace_id: &str, name: &str, total_ns: u64) -> JsonObject {
    let mut obj = JsonObject::with_type("trace_span");
    obj.field_str("trace_id", trace_id);
    obj.field_u64("span_id", ROOT_SPAN_ID);
    obj.field_u64("parent_id", 0);
    obj.field_str("name", name);
    obj.field_f64("start_us", 0.0);
    obj.field_f64("dur_us", total_ns as f64 / 1e3);
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;

    #[test]
    fn generated_ids_are_hex_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let guard = start("t-nest");
        {
            let _outer = timing::span("test.outer");
            {
                let _inner = timing::span("test.inner");
            }
            mark("test.mark", "hit");
        }
        let rec = guard.finish();
        assert_eq!(rec.trace_id, "t-nest");
        let inner = rec
            .events
            .iter()
            .find(|e| e.name == "test.inner")
            .expect("inner recorded");
        let outer = rec
            .events
            .iter()
            .find(|e| e.name == "test.outer")
            .expect("outer recorded");
        let mark = rec
            .events
            .iter()
            .find(|e| e.name == "test.mark")
            .expect("mark recorded");
        assert_eq!(outer.parent_id, ROOT_SPAN_ID);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(mark.parent_id, outer.span_id);
        assert_eq!(mark.label, "hit");
        assert_eq!(mark.dur_ns, 0);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn cancel_unwinds_without_recording() {
        let guard = start("t-cancel");
        {
            let outer = timing::span("test.c_outer");
            outer.cancel();
            let _sibling = timing::span("test.c_sib");
        }
        let rec = guard.finish();
        assert!(rec.events.iter().all(|e| e.name != "test.c_outer"));
        let sib = rec
            .events
            .iter()
            .find(|e| e.name == "test.c_sib")
            .expect("sibling recorded");
        // The cancelled span unwound, so the sibling hangs off the root.
        assert_eq!(sib.parent_id, ROOT_SPAN_ID);
    }

    #[test]
    fn no_context_means_no_events_and_drop_tears_down() {
        {
            let _span = timing::span("test.untraced");
        }
        let guard = start("t-drop");
        assert!(maybe_active());
        drop(guard);
        let rec = start("t-after").finish();
        assert!(rec.events.is_empty());
    }

    #[test]
    fn finish_into_reuses_buffers_across_traces() {
        let mut rec = TraceRecord::default();

        let guard = start("t-reuse-1");
        {
            let _span = timing::span("test.reuse");
        }
        assert!(guard.finish_into(&mut rec));
        assert_eq!(rec.trace_id, "t-reuse-1");
        assert_eq!(rec.events.len(), 1);

        // Second trace into the same record: old events must not leak.
        let guard = start("t-reuse-2");
        mark("test.reuse_mark", "hit");
        assert!(guard.finish_into(&mut rec));
        assert_eq!(rec.trace_id, "t-reuse-2");
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].name, "test.reuse_mark");

        // No active trace: finish_into reports false and clears the record.
        let guard = TraceGuard { finished: false };
        assert!(!guard.finish_into(&mut rec));
        assert!(rec.events.is_empty());
    }

    #[test]
    fn records_have_expected_shape() {
        let event = SpanEvent {
            name: "spec.solve",
            span_id: 2,
            parent_id: 1,
            start_ns: 1500,
            dur_ns: 2500,
            label: "",
        };
        let line = event_record("abc123", &event).finish();
        assert!(line.contains("\"type\":\"trace_span\""));
        assert!(line.contains("\"trace_id\":\"abc123\""));
        assert!(line.contains("\"parent_id\":1"));
        assert!(!line.contains("\"label\""));
        let root = root_record("abc123", "POST /v1/solve", 4_000).finish();
        assert!(root.contains("\"span_id\":1"));
        assert!(root.contains("\"parent_id\":0"));
        assert!(root.contains("\"dur_us\":4"));
    }
}
