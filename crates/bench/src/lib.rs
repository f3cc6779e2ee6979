//! Experiment binaries and micro-benchmarks regenerating the ComDML
//! paper's tables, plus the machine-readable `BENCH_*.json` records the CI
//! perf gate compares. Sweep-shaped experiments (Table II/III, Fig. 3, the
//! extended comparison) are `comdml-exp` presets instead; EXPERIMENTS.md
//! maps every table and figure to its command and compares paper against
//! measured results.
//!
//! This is a leaf crate: nothing in the workspace depends on it. A bin
//! simulates a single round with `comdml_core::EventRound` (or one
//! `RoundEngine::run_round` call) and every multi-round run with the one
//! harness loop, `comdml_core::FleetSim`. CSVs go through
//! `comdml_exp::Report`.
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod json;

pub use json::{BenchEntry, BenchRecord};
