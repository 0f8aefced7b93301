//! Proves the hot-path satellite: after a request body is parsed, looking
//! up its cache identities allocates nothing. `canonical_key()` builds a
//! fresh `String`; the scenario layer therefore computes it exactly once
//! at parse time and every later use borrows.
//!
//! This lives in its own test binary because it installs a counting
//! global allocator (and so must not share a process with tests that
//! measure anything else).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use evcap_serve::scenario::{SimulateScenario, SolveScenario};

/// Counts every heap allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn cache_key_lookups_allocate_nothing_after_parse() {
    let solve = SolveScenario::from_body(br#"{"dist":"weibull:40,3","e":0.2}"#).unwrap();
    let sim = SimulateScenario::from_body(
        br#"{"dist":"weibull:40,3","e":0.2,"slots":5000,"seed":7}"#,
        1_000_000,
    )
    .unwrap();

    let before = allocations();
    for _ in 0..100 {
        std::hint::black_box(solve.cache_key());
        std::hint::black_box(solve.artifact_key());
        std::hint::black_box(sim.cache_key());
        std::hint::black_box(sim.artifact_key());
    }
    assert_eq!(
        allocations() - before,
        0,
        "cache-key lookups on the serve hit path must borrow, not rebuild"
    );

    // The borrowed keys are stable (same bytes, same address) across
    // calls — precomputed once at parse time.
    assert_eq!(solve.cache_key().as_ptr(), solve.cache_key().as_ptr());
    assert_eq!(solve.cache_key(), solve.scenario.canonical_key());
    assert_eq!(sim.artifact_key(), sim.scenario.canonical_key());
}
