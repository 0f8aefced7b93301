//! Policy-as-a-service: the paper's optimizers behind an HTTP API.
//!
//! `evcap-serve` turns the offline toolchain into a daemon: `POST
//! /v1/solve` returns an activation policy (FI greedy or PI clustering)
//! with its analytic QoM, `POST /v1/simulate` runs a bounded seeded
//! simulation, `GET /healthz` and `GET /metrics` cover operations. The
//! crate is std-only — the HTTP server ([`server`]), client ([`client`]),
//! and JSON layer (via `evcap-obs`) use nothing outside the workspace.
//!
//! The hot path is the [`cache`] module, used in two tiers. Responses are
//! cached in a sharded LRU keyed by the *canonicalized* scenario (see
//! [`scenario`] and `evcap_spec::canonical_dist`), and in front of the
//! compute sits a second sharded cache of `evcap_spec::SolvedPolicy`
//! artifacts keyed by `Scenario::canonical_key()` — so `/v1/simulate`
//! requests varying only in slots/seed/replications, and `/v1/solve` for
//! the same scenario, share one clustering/LP solve. Both tiers collapse
//! concurrent requests for the same uncached key into a single
//! computation ("single-flight" coalescing) — N clients asking for the
//! same Weibull policy cost one LP solve, not N.

// `forbid` would reject the signal shim's module-level `allow`, so the
// crate denies and the shim alone opts out (deepcheck checks the pairing).
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod prometheus;
pub mod scenario;
pub mod server;
#[allow(unsafe_code)] // the signal(2) FFI shim
pub mod signal;

pub use cache::{Fetch, Lru, ShardSnapshot, ShardedCache, StatsSnapshot};
pub use client::{Conn, Response};
pub use scenario::{ApiError, SimulateScenario, SolveScenario};
pub use server::{RecentRequest, ServeConfig, Server, StopFlag};
