//! Sharded LRU cache with single-flight coalescing.
//!
//! The server's hot path: scenario solves are pure functions of their
//! canonical key, so every `/v1/solve` goes through [`ShardedCache`].
//! Keys hash to one of `S` independently locked shards (contention scales
//! down with `S`), and each shard is an [`Lru`] — a slab-backed doubly
//! linked list + hash map, O(1) for get/insert/evict.
//!
//! **Single-flight:** when a key misses, the first requester (the *leader*)
//! inserts an in-flight marker and computes outside the shard lock; every
//! concurrent requester for the same key finds the marker and blocks on its
//! condvar instead of redundantly re-running the expensive solve. N
//! concurrent requests for one unsolved scenario trigger exactly one
//! compute. Failed computes are not cached: the leader removes its marker
//! so the next request retries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::metrics::Outcome;

const NIL: usize = usize::MAX;

struct Node<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used map with O(1) operations: `HashMap` for lookup,
/// slab-allocated doubly linked list for recency order.
pub struct Lru<V> {
    map: HashMap<String, usize>,
    nodes: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<V> Lru<V> {
    /// Creates an LRU holding at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            map: HashMap::with_capacity(cap.min(4096)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn node(&self, i: usize) -> &Node<V> {
        // deepcheck:allow(panic-path): slab slots reachable through map/list links are live by construction; a dead index is a corrupted Lru, not request input
        self.nodes[i].as_ref().expect("live node") // deepcheck:allow(serve-unwrap): intrusive-list liveness invariant, not request input
    }

    fn node_mut(&mut self, i: usize) -> &mut Node<V> {
        // deepcheck:allow(panic-path): slab slots reachable through map/list links are live by construction; a dead index is a corrupted Lru, not request input
        self.nodes[i].as_mut().expect("live node") // deepcheck:allow(serve-unwrap): intrusive-list liveness invariant, not request input
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head == NIL {
            self.tail = i;
        } else {
            self.node_mut(old_head).prev = i;
        }
        self.head = i;
    }

    /// Looks up `key` and marks it most recently used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.node(i).value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.map.get(key).map(|&i| &self.node(i).value)
    }

    /// Inserts or replaces `key`, marking it most recently used. When the
    /// insert grows the map past capacity, the least-recently-used entry is
    /// evicted and returned.
    pub fn insert(&mut self, key: String, value: V) -> Option<(String, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.node_mut(i).value = value;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let evicted = if self.map.len() >= self.cap {
            let t = self.tail;
            self.unlink(t);
            // deepcheck:allow(panic-path): the tail of a non-empty list is a live slab slot; a dead index is a corrupted Lru, not request input
            let node = self.nodes[t].take().expect("tail is live"); // deepcheck:allow(serve-unwrap): intrusive-list liveness invariant, not request input
            self.free.push(t);
            self.map.remove(&node.key);
            Some((node.key, node.value))
        } else {
            None
        };
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                // deepcheck:allow(panic-path): indices on the free list were pushed by take()/evict and stay in bounds
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        let i = self.map.remove(key)?;
        self.unlink(i);
        // deepcheck:allow(panic-path): slab slots reachable through the map are live by construction; a dead index is a corrupted Lru, not request input
        let node = self.nodes[i].take().expect("live node"); // deepcheck:allow(serve-unwrap): intrusive-list liveness invariant, not request input
        self.free.push(i);
        Some(node.value)
    }

    /// Keys in most-recently-used-first order (for tests and diagnostics).
    pub fn keys_mru(&self) -> Vec<&str> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            let n = self.node(i);
            out.push(n.key.as_str());
            i = n.next;
        }
        out
    }
}

/// How a [`ShardedCache::get_or_compute`] request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetch<V, E> {
    /// The key was already cached.
    Hit(V),
    /// This request ran the compute (it was the single flight's leader).
    Computed(V),
    /// Another request was already computing; this one waited for it.
    Coalesced(V),
    /// The compute failed (leader and waiters all observe the error).
    Failed(E),
    /// A waiter gave up after the coalescing timeout.
    TimedOut,
}

impl<V, E> Fetch<V, E> {
    /// How the request was satisfied, as the server counts and tags it.
    pub fn outcome(&self) -> Outcome {
        match self {
            Fetch::Hit(_) => Outcome::Hit,
            Fetch::Computed(_) => Outcome::Miss,
            Fetch::Coalesced(_) => Outcome::Coalesced,
            Fetch::Failed(_) => Outcome::Failed,
            Fetch::TimedOut => Outcome::Timeout,
        }
    }

    /// The cache-disposition label used in response headers and logs.
    pub fn label(&self) -> &'static str {
        self.outcome().label()
    }
}

struct Flight<V, E> {
    slot: Mutex<Option<Result<V, E>>>,
    cv: Condvar,
}

enum Entry<V, E> {
    InFlight(Arc<Flight<V, E>>),
    Ready(V),
}

/// Monotonic counters describing cache behavior since startup.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    failures: AtomicU64,
    timeouts: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered from a Ready entry.
    pub hits: u64,
    /// Requests that ran the compute.
    pub misses: u64,
    /// Requests that waited on another request's compute.
    pub coalesced: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Failed computes.
    pub failures: u64,
    /// Waiters that hit the coalescing timeout.
    pub timeouts: u64,
}

impl CacheStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    fn merge(&mut self, other: &StatsSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.failures += other.failures;
        self.timeouts += other.timeouts;
    }
}

/// A point-in-time view of one shard: its counters plus occupancy, for
/// per-shard gauge exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSnapshot {
    /// The shard's counters since startup.
    pub stats: StatsSnapshot,
    /// Entries currently held (in-flight markers included).
    pub occupancy: usize,
    /// The shard's configured capacity.
    pub capacity: usize,
}

/// One independently locked shard: an LRU of ready/in-flight entries plus
/// its own counters (so exposition can show per-shard skew).
struct Shard<V, E> {
    lru: Mutex<Lru<Entry<V, E>>>,
    stats: CacheStats,
}

/// A sharded, single-flight LRU cache. `V` is the cached value (cloned out
/// on every hit — use something cheap to clone, like `Arc<str>` or a small
/// `String`); `E` is the compute error type.
pub struct ShardedCache<V, E = String> {
    shards: Box<[Shard<V, E>]>,
}

impl<V: Clone, E: Clone> ShardedCache<V, E> {
    /// Creates a cache with `capacity` total entries spread over `shards`
    /// independently locked shards (both forced ≥ 1; per-shard capacity is
    /// `ceil(capacity / shards)`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    lru: Mutex::new(Lru::new(per_shard)),
                    stats: CacheStats::default(),
                })
                .collect(),
        }
    }

    fn shard_of(&self, key: &str) -> &Shard<V, E> {
        // FNV-1a: stable across runs (unlike RandomState), trivially fast.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // deepcheck:allow(panic-path): the index is reduced modulo shards.len(), in bounds by construction
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Total entries across shards (in-flight markers included).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lru.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters since startup, aggregated across shards.
    pub fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in self.shards.iter() {
            total.merge(&shard.stats.snapshot());
        }
        total
    }

    /// Per-shard counters and occupancy, in shard-index order.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|shard| {
                let lru = shard.lru.lock().unwrap_or_else(PoisonError::into_inner);
                ShardSnapshot {
                    stats: shard.stats.snapshot(),
                    occupancy: lru.len(),
                    capacity: lru.capacity(),
                }
            })
            .collect()
    }

    /// Returns the cached value for `key`, or computes it exactly once no
    /// matter how many threads ask concurrently.
    ///
    /// The leader runs `compute` with no lock held; concurrent requests for
    /// the same key block (up to `wait_timeout`) on the in-flight result.
    /// Successful values are inserted (possibly evicting the LRU tail);
    /// failures are returned to everyone currently waiting but not cached.
    pub fn get_or_compute(
        &self,
        key: &str,
        wait_timeout: Duration,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Fetch<V, E> {
        let shard = self.shard_of(key);
        let flight: Arc<Flight<V, E>>;
        let leader: bool;
        {
            // Locks ride through poisoning: the compute runs outside the
            // lock, so a poisoned shard means a sibling panicked in pure
            // bookkeeping — recovering the guard beats bricking the cache
            // for every later request.
            let mut lru = shard.lru.lock().unwrap_or_else(PoisonError::into_inner);
            match lru.get(key) {
                Some(Entry::Ready(v)) => {
                    let v = v.clone();
                    shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Fetch::Hit(v);
                }
                Some(Entry::InFlight(f)) => {
                    flight = Arc::clone(f);
                    leader = false;
                }
                None => {
                    flight = Arc::new(Flight {
                        slot: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    if lru
                        .insert(key.to_owned(), Entry::InFlight(Arc::clone(&flight)))
                        .is_some()
                    {
                        shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    leader = true;
                }
            }
        }

        if leader {
            let result = compute();
            {
                let mut lru = shard.lru.lock().unwrap_or_else(PoisonError::into_inner);
                match &result {
                    Ok(v) => {
                        if lru
                            .insert(key.to_owned(), Entry::Ready(v.clone()))
                            .is_some()
                        {
                            shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        // Drop our marker so the next request retries — but
                        // only if it is still ours: under heavy eviction a
                        // later leader may already have re-inserted a new
                        // flight for this key.
                        let ours = matches!(
                            lru.peek(key),
                            Some(Entry::InFlight(f)) if Arc::ptr_eq(f, &flight)
                        );
                        if ours {
                            lru.remove(key);
                        }
                    }
                }
            }
            let mut slot = flight.slot.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Some(result.clone());
            drop(slot);
            flight.cv.notify_all();
            shard.stats.misses.fetch_add(1, Ordering::Relaxed);
            return match result {
                Ok(v) => Fetch::Computed(v),
                Err(e) => {
                    shard.stats.failures.fetch_add(1, Ordering::Relaxed);
                    Fetch::Failed(e)
                }
            };
        }

        // Waiter: block on the leader's result.
        shard.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        let guard = flight.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let (guard, _timeout) = flight
            .cv
            .wait_timeout_while(guard, wait_timeout, |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        // `wait_timeout_while` returns either because the slot filled or
        // because the wait timed out with it still empty — so an empty slot
        // here *is* the timeout, no separate flag check needed.
        match guard.as_ref() {
            None => {
                shard.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                Fetch::TimedOut
            }
            Some(Ok(v)) => Fetch::Coalesced(v.clone()),
            Some(Err(e)) => {
                shard.stats.failures.fetch_add(1, Ordering::Relaxed);
                Fetch::Failed(e.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn lru_get_touches_and_insert_evicts_in_order() {
        let mut lru = Lru::new(3);
        assert!(lru.is_empty());
        assert_eq!(lru.capacity(), 3);
        for k in ["a", "b", "c"] {
            assert!(lru.insert(k.into(), k.to_uppercase()).is_none());
        }
        assert_eq!(lru.keys_mru(), vec!["c", "b", "a"]);
        // Touch `a`; `b` becomes the LRU and is evicted next.
        assert_eq!(lru.get("a"), Some(&"A".to_string()));
        assert_eq!(lru.keys_mru(), vec!["a", "c", "b"]);
        let (ek, ev) = lru.insert("d".into(), "D".into()).expect("evicts");
        assert_eq!((ek.as_str(), ev.as_str()), ("b", "B"));
        assert_eq!(lru.keys_mru(), vec!["d", "a", "c"]);
        assert_eq!(lru.len(), 3);
        // peek does not touch.
        assert_eq!(lru.peek("c"), Some(&"C".to_string()));
        assert_eq!(lru.keys_mru(), vec!["d", "a", "c"]);
        // Replace touches but never evicts.
        assert!(lru.insert("c".into(), "C2".into()).is_none());
        assert_eq!(lru.keys_mru(), vec!["c", "d", "a"]);
        assert_eq!(lru.get("c"), Some(&"C2".to_string()));
    }

    #[test]
    fn lru_remove_and_slab_reuse() {
        let mut lru = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.remove("a"), Some(1));
        assert_eq!(lru.remove("a"), None);
        assert_eq!(lru.len(), 1);
        lru.insert("c".into(), 3); // reuses the freed slab slot
        lru.insert("d".into(), 4); // evicts b
        assert_eq!(lru.keys_mru(), vec!["d", "c"]);
        assert_eq!(lru.peek("b"), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert!(lru.insert("a".into(), 1).is_none());
        let evicted = lru.insert("b".into(), 2).expect("capacity 1 evicts");
        assert_eq!(evicted.0, "a");
    }

    #[test]
    fn cache_hit_miss_accounting() {
        let cache: ShardedCache<String> = ShardedCache::new(8, 2);
        let to = Duration::from_secs(1);
        let f = cache.get_or_compute("k", to, || Ok("v".to_string()));
        assert!(matches!(f, Fetch::Computed(ref v) if v == "v"));
        assert_eq!(f.label(), "miss");
        let f = cache.get_or_compute("k", to, || panic!("must not recompute"));
        assert!(matches!(f, Fetch::Hit(ref v) if v == "v"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_computes_are_not_cached() {
        let cache: ShardedCache<String> = ShardedCache::new(8, 1);
        let to = Duration::from_secs(1);
        let f = cache.get_or_compute("k", to, || Err("boom".to_string()));
        assert!(matches!(f, Fetch::Failed(ref e) if e == "boom"));
        assert!(cache.is_empty(), "error entries must not linger");
        // The next request retries and can succeed.
        let f = cache.get_or_compute("k", to, || Ok("v".to_string()));
        assert!(matches!(f, Fetch::Computed(_)));
        assert_eq!(cache.stats().failures, 1);
    }

    #[test]
    fn single_flight_coalesces_concurrent_requests_to_one_compute() {
        // M threads rendezvous, then all request the same unsolved key. The
        // leader's compute blocks until every thread has issued its request,
        // so all non-leaders must take the coalescing path: exactly one
        // compute runs, everyone gets the value.
        const M: usize = 8;
        let cache: ShardedCache<String> = ShardedCache::new(64, 4);
        let computes = AtomicUsize::new(0);
        let entered = Barrier::new(M);
        let release = Barrier::new(2); // leader + the release thread
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..M)
                .map(|_| {
                    scope.spawn(|| {
                        entered.wait();
                        cache.get_or_compute("scenario", Duration::from_secs(30), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            release.wait(); // hold the flight open
                            Ok("solved".to_string())
                        })
                    })
                })
                .collect();
            // Release the leader once all M requests are in flight: M-1 of
            // them are waiters by then (coalesced counter ticks up), or at
            // minimum have passed the barrier and are queued on the shard.
            while cache.stats().coalesced < (M - 1) as u64 {
                std::thread::yield_now();
            }
            release.wait();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
            let leaders = results
                .iter()
                .filter(|f| matches!(f, Fetch::Computed(_)))
                .count();
            let waiters = results
                .iter()
                .filter(|f| matches!(f, Fetch::Coalesced(_)))
                .count();
            assert_eq!(leaders, 1);
            assert_eq!(waiters, M - 1);
            for f in &results {
                match f {
                    Fetch::Computed(v) | Fetch::Coalesced(v) => assert_eq!(v, "solved"),
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.coalesced, (M - 1) as u64);
    }

    #[test]
    fn waiters_observe_leader_failure() {
        let cache: ShardedCache<String> = ShardedCache::new(8, 1);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                cache.get_or_compute("k", Duration::from_secs(10), || {
                    release.wait();
                    // Fail only once the waiter has reached the flight, so
                    // it deterministically observes the error.
                    while cache.stats().coalesced < 1 {
                        std::thread::yield_now();
                    }
                    Err("nope".to_string())
                })
            });
            let waiter = scope.spawn(|| {
                release.wait();
                cache.get_or_compute("k", Duration::from_secs(10), || {
                    panic!("waiter must not compute")
                })
            });
            assert!(matches!(leader.join().unwrap(), Fetch::Failed(_)));
            assert!(matches!(waiter.join().unwrap(), Fetch::Failed(_)));
        });
        assert!(cache.is_empty());
    }

    #[test]
    fn waiter_times_out_when_leader_is_slow() {
        let cache: ShardedCache<String> = ShardedCache::new(8, 1);
        let hold = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                cache.get_or_compute("k", Duration::from_secs(10), || {
                    hold.wait(); // waiter is about to request
                                 // Stay in flight until the waiter has given up.
                    while cache.stats().timeouts < 1 {
                        std::thread::yield_now();
                    }
                    Ok("slow".to_string())
                })
            });
            let waiter = scope.spawn(|| {
                hold.wait();
                cache.get_or_compute("k", Duration::from_millis(10), || {
                    panic!("waiter must not compute")
                })
            });
            assert!(matches!(waiter.join().unwrap(), Fetch::TimedOut));
            assert!(matches!(leader.join().unwrap(), Fetch::Computed(_)));
        });
        assert_eq!(cache.stats().timeouts, 1);
        // The slow value still landed in the cache for later requests.
        assert!(matches!(
            cache.get_or_compute("k", Duration::from_secs(1), || panic!("cached")),
            Fetch::Hit(ref v) if v == "slow"
        ));
    }

    #[test]
    fn shard_snapshots_sum_to_the_aggregate() {
        let cache: ShardedCache<u32> = ShardedCache::new(16, 4);
        let to = Duration::from_secs(1);
        for i in 0..10 {
            let key = format!("k{i}");
            cache.get_or_compute(&key, to, || Ok::<_, String>(i));
            cache.get_or_compute(&key, to, || panic!("cached"));
        }
        let shards = cache.shard_snapshots();
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.capacity == 4));
        let hits: u64 = shards.iter().map(|s| s.stats.hits).sum();
        let misses: u64 = shards.iter().map(|s| s.stats.misses).sum();
        let occupancy: usize = shards.iter().map(|s| s.occupancy).sum();
        let total = cache.stats();
        assert_eq!(hits, total.hits);
        assert_eq!(misses, total.misses);
        assert_eq!((hits, misses), (10, 10));
        assert_eq!(occupancy, cache.len());
    }

    #[test]
    fn eviction_is_per_shard_and_counted() {
        // One shard capacity 2: inserting 3 distinct keys evicts the oldest.
        let cache: ShardedCache<u32> = ShardedCache::new(2, 1);
        let to = Duration::from_secs(1);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            cache.get_or_compute(k, to, || Ok::<_, String>(i as u32));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // `a` was evicted: requesting it recomputes.
        let f = cache.get_or_compute("a", to, || Ok::<_, String>(99));
        assert!(matches!(f, Fetch::Computed(99)));
    }
}
