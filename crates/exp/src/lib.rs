//! `comdml-exp` — declarative scenario specs and the parallel sweep engine.
//!
//! The paper's headline results (Tables II/III: time-to-accuracy against
//! FedAvg, AllReduce-DML, BrainTorrent and Gossip Learning under profile
//! churn, participation sampling, sparse topologies and dropouts) are grids
//! of scenario × method × seed runs. This crate makes those grids a
//! first-class object:
//!
//! * [`ScenarioSpec`] / [`SweepSpec`] — a declarative model naming one
//!   experimental condition (world, topology, membership churn,
//!   aggregation, sampling, budget) and a whole grid, with builder-style
//!   construction, named presets ([`presets`]) for the paper's tables, and
//!   a dependency-free JSON file format that parse/render round-trips.
//! * [`SweepRunner`] — expands the grid into a job matrix and executes it
//!   on a `std::thread` worker pool stealing from a shared queue, with
//!   deterministic per-job seeding: the assembled report is byte-identical
//!   whatever the worker count. Jobs are **round-driven**: each simulated
//!   round's realized efficiency/participation/disruptions advance a
//!   [`comdml_core::LearningModel`], and jobs stop early the round the
//!   realized accuracy trajectory reaches the scenario's target.
//! * [`SweepReport`] — per-cell mean/p50/p95 time-to-target, realized
//!   accuracy and reached-target counts, speedup-vs-FedAvg, emitted as
//!   `BENCH_sweep_*.json` + CSV and paper-style stdout tables.
//! * [`CurveAggregate`] ([`curves`] module) — trajectory-level
//!   aggregation: per-round mean/p10/p90 accuracy bands per cell, aligned
//!   on the scenario's shared round grid, emitted as
//!   `BENCH_curves_*.json` + CSV + a dependency-free SVG panel per
//!   scenario, so convergence figures come straight out of a sweep.
//! * [`Shard`] / [`PartialReport`] / [`merge`] ([`shard`] module) — the
//!   job matrix deterministically partitioned across processes or hosts
//!   (`exp_sweep --shard i/n`), with partial reports that byte-merge
//!   (`sweep_merge`) into exactly the single-process report.
//!
//! Three binaries front the engine: `exp_sweep <spec.json>` runs any spec
//! file (or `@table2`-style preset) — whole or as one shard —
//! `sweep_merge` fuses partial reports, and `paper_tables` regenerates
//! the Table II/III grids from one command.
//!
//! This crate is the experiment layer of the `comdml-rs` workspace — see
//! the crate map in the repository README for how the pieces fit.
//!
//! # Example
//!
//! ```
//! use comdml_exp::{Method, ScenarioSpec, SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::new("doc")
//!     .seeds(1, 2)
//!     .method(Method::ComDml)
//!     .method(Method::FedAvg)
//!     .scenario(ScenarioSpec::new("tiny").agents(6).rounds(3));
//! let report = SweepRunner::new().progress(false).run(&spec).unwrap();
//! assert_eq!(report.jobs.len(), 4);
//! assert!(report.cells.iter().all(|c| c.mean_time_s > 0.0));
//! ```

pub mod cli;
pub mod curves;
pub mod farm;
pub mod presets;
mod report;
mod runner;
pub mod shard;
mod spec;

pub use curves::{CurveAggregate, CurvePoint};
pub use farm::{run_worker, Coordinator, FarmConfig, FarmStatus, WorkerOptions, WorkerSummary};
pub use report::{Report, SweepCell, SweepReport};
pub use runner::{run_job, JobResult, JobSource, JobSpec, SweepRunner};
pub use shard::{merge, PartialReport, Shard};
pub use spec::{Method, MethodParams, ScenarioSpec, SeedRange, SweepSpec};

/// Formats seconds rounded to whole numbers with thousands separators,
/// matching the paper tables' style (`-1,234` for negatives).
pub fn fmt_s(v: f64) -> String {
    let n = v.round() as i64;
    let digits = n.unsigned_abs().to_string();
    let mut out = String::new();
    if n < 0 {
        out.push('-');
    }
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_s_inserts_separators() {
        assert_eq!(fmt_s(1234567.2), "1,234,567");
        assert_eq!(fmt_s(999.4), "999");
        assert_eq!(fmt_s(-999.0), "-999");
        assert_eq!(fmt_s(-123456.0), "-123,456");
    }
}
