//! In-tree repo tooling, following the cargo-xtask pattern.
//!
//! One analyzer, [`deepcheck`], std-only so the workspace stays
//! offline-buildable. It is built from a real Rust lexer ([`lexer`]), an
//! item/impl/fn extractor ([`syntax`]) and an approximate call graph
//! ([`callgraph`]), and runs two kinds of rules over every source file:
//! token rules for repo conventions the compiler cannot see (construction
//! sites, clocks, threads, prints, JSON, unsafe, crate roots, certified
//! store loads), and reachability proofs a line scan cannot make
//! (panic-free serve request paths, cycle-free lock orders,
//! allocation-free hot paths). Findings are waived inline with
//! `// deepcheck:allow(rule): why`, and a waiver no rule consults is
//! itself a finding, so waivers cannot rot.
//!
//! Run as `cargo run -p xtask -- deepcheck`; `--self-test` runs the
//! fixture corpus proving every rule can fire.
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod deepcheck;
pub mod files;
pub mod lexer;
pub mod syntax;
