//! Fleet-scale stress test of the event-driven round engine: a 10,000-agent
//! heterogeneous world simulating 100 full ComDML rounds per aggregation
//! mode, wall-clock timed.
//!
//! This exercises the two scalability changes of the event-engine refactor:
//!
//! * `PairingScheduler` runs on sorted per-class candidate lists, grouped
//!   into CPU×link bins searched in lower-bound order, with O(1)
//!   paired-membership checks (no linear `contains` scans), and
//! * the round executes as typed events on a shared clock, so the same code
//!   path drives synchronous, semi-synchronous and asynchronous aggregation.
//!
//! Rounds run through the one harness loop, `FleetSim`, on a static fleet
//! (no arrivals or departures), so stragglers' semi-sync/async spill
//! carries into the next round exactly as in every other fleet run.
//!
//! A fourth mode, `semi_sync_lognormal`, draws every agent's CPU from a
//! lognormal (μ 0.3, σ 0.6) instead of the paper's 5-point grid — the
//! continuous heterogeneity `cpu_dist` turns on, where every agent is its
//! own profile class and pairing runs on bounded CPU×link bins. It runs
//! 20 rounds instead of 100: pairing dominates its rounds (about 0.2 s
//! each on a 2-core box, against about 6 ms on the grid), and 20 keep the
//! perf-gate job short.
//!
//! Results land in `target/experiments/scalability_10k.csv`, with the
//! machine-readable `target/experiments/BENCH_scalability.json` feeding the
//! CI perf-regression gate (see `ci/bench-baselines/`).
//!
//! ```sh
//! cargo run --release -p comdml-bench --bin scalability_10k
//! ```

use std::time::Instant;

use comdml_bench::{BenchEntry, BenchRecord};
use comdml_core::{AggregationMode, ComDmlConfig, FleetSim};
use comdml_exp::Report;
use comdml_simnet::{DistributionConfig, FleetConfig};

const AGENTS: usize = 10_000;
const ROUNDS: usize = 100;
/// Rounds of the continuous-CPU mode (see the module docs).
const LOGNORMAL_ROUNDS: usize = 20;

fn main() {
    // Phase attribution for the bench record (pairing vs. event loop vs.
    // aggregation); spans only observe, so sim totals stay bit-identical.
    comdml_obs::set_metrics_enabled(true);
    // 500 samples per agent keeps per-round work realistic (5 batches per
    // agent) without the dataset itself dominating setup time.
    let fleet = FleetConfig::new(AGENTS, 42).samples_per_agent(500).batch_size(100);
    let world = fleet.clone().build().world().summary();
    println!(
        "world: {} agents, mean {:.2} CPUs, density {:.2}\n",
        AGENTS, world.mean_cpus, world.density
    );

    let mut report = Report::new(
        "scalability_10k",
        &["mode", "agents", "rounds", "sim_total_s", "mean_offloads", "wall_clock_s"],
    );
    let mut record = BenchRecord::new("scalability", AGENTS, ROUNDS);

    let semi_sync = AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX };
    let lognormal = fleet.clone().cpu_dist(DistributionConfig::LogNormal { mu: 0.3, sigma: 0.6 });
    for (name, mode, fleet, rounds) in [
        ("synchronous", AggregationMode::Synchronous, &fleet, ROUNDS),
        ("semi_sync_q80", semi_sync, &fleet, ROUNDS),
        ("asynchronous", AggregationMode::Asynchronous, &fleet, ROUNDS),
        ("semi_sync_lognormal", semi_sync, &lognormal, LOGNORMAL_ROUNDS),
    ] {
        let mut sim = FleetSim::new(
            fleet.clone(),
            ComDmlConfig {
                churn: None,
                aggregation: mode,
                // Profiling every one of the 57 ResNet-56 cuts per candidate is
                // pointless at fleet scale; six representative cuts keep the
                // schedule quality while bounding estimator work.
                candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
                ..ComDmlConfig::default()
            },
        );
        comdml_obs::metrics().reset();
        let start = Instant::now();
        let mut offloads = 0usize;
        for _ in 0..rounds {
            sim.step();
            offloads += sim.engine().last_report().expect("round just ran").outcome.num_offloads;
        }
        let wall = start.elapsed().as_secs_f64();
        let run = sim.report();
        let (sim_total, events) = (run.total_sim_s, run.events_processed);
        let phases = comdml_obs::metrics().snapshot().phase_totals();
        println!(
            "{name:<19} {rounds:>3} rounds of {AGENTS} agents: sim {sim_total:>12.1}s, \
             {:.0} offloads/round, wall clock {wall:.2}s",
            offloads as f64 / rounds as f64
        );
        report.row(&[
            name.to_string(),
            AGENTS.to_string(),
            rounds.to_string(),
            format!("{sim_total:.3}"),
            format!("{:.1}", offloads as f64 / rounds as f64),
            format!("{wall:.3}"),
        ]);
        record.push(BenchEntry {
            mode: name.to_string(),
            wall_ms: wall * 1e3,
            events_processed: events,
            peak_agents: AGENTS,
            sim_total_s: sim_total,
            rounds,
            phases,
        });
    }

    match report.write_default() {
        Ok(path) => println!("\nreport written to {}", path.display()),
        Err(e) => comdml_obs::error!("scalability_10k", "failed to write report: {e}"),
    }
    match record.write_default() {
        Ok(path) => println!("bench record written to {}", path.display()),
        Err(e) => comdml_obs::error!("scalability_10k", "failed to write bench record: {e}"),
    }
}
