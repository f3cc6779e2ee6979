//! Regenerates **Table I**: 2-agent decentralized training with varying
//! layer offloading on CIFAR-10 / ResNet-56 to 90% accuracy.
//!
//! Setting 1: 2 CPUs + 0.25 CPUs over a 50 Mbps link.
//! Setting 2: 2 CPUs + 1 CPU over a 100 Mbps link.
//!
//! Columns per setting: fast-agent train time, communication time, combined
//! idle time and total training time (seconds), each totalled over the
//! rounds needed to reach the target accuracy.

use comdml_collective::AllReduceAlgorithm;
use comdml_core::{EventRound, LearningCurve, Pairing, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_exp::fmt_s;
use comdml_simnet::{Adjacency, AgentId, AgentProfile, AgentState, World};

/// One right-aligned table row.
fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
}

struct Setting {
    name: &'static str,
    slow_cpus: f64,
    fast_cpus: f64,
    link_mbps: f64,
}

fn world_for(setting: &Setting) -> World {
    // Two agents split CIFAR-10's 50k samples evenly, batch 100.
    let agents = vec![
        AgentState::new(
            AgentId(0),
            AgentProfile::new(setting.slow_cpus, setting.link_mbps),
            25_000,
            100,
        ),
        AgentState::new(
            AgentId(1),
            AgentProfile::new(setting.fast_cpus, setting.link_mbps),
            25_000,
            100,
        ),
    ];
    let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
    World::from_parts(agents, adj, 0)
}

fn main() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let estimator = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let rounds = LearningCurve::cifar10(true).rounds_to(0.90, 1.0) as f64;

    let settings = [
        Setting {
            name: "1st Setting (2 / 0.25 CPU, 50 Mbps)",
            slow_cpus: 0.25,
            fast_cpus: 2.0,
            link_mbps: 50.0,
        },
        Setting {
            name: "2nd Setting (2 / 1 CPU, 100 Mbps)",
            slow_cpus: 1.0,
            fast_cpus: 2.0,
            link_mbps: 100.0,
        },
    ];
    let offloads = [0usize, 1, 10, 19, 28, 37, 46, 55];
    let widths = [8usize, 10, 10, 10, 10];

    println!(
        "Table I — 2-agent training with varying layer offloading (ResNet-56, CIFAR-10 to 90%)"
    );
    println!("(times in simulated seconds over {rounds} rounds)\n");
    for setting in &settings {
        let world = world_for(setting);
        println!("{}", setting.name);
        println!(
            "{}",
            row(&["Layers", "Train", "Comm.", "Idle", "Total"].map(String::from), &widths)
        );
        let mut best = (f64::INFINITY, 0usize);
        for &m in &offloads {
            let pairings = if m == 0 {
                vec![
                    Pairing { slow: AgentId(0), fast: None, offload: 0, est_time_s: 0.0 },
                    Pairing { slow: AgentId(1), fast: None, offload: 0, est_time_s: 0.0 },
                ]
            } else {
                vec![Pairing {
                    slow: AgentId(0),
                    fast: Some(AgentId(1)),
                    offload: m,
                    est_time_s: 0.0,
                }]
            };
            let outcome = EventRound::new(
                &world,
                &pairings,
                &estimator,
                &cal,
                AllReduceAlgorithm::HalvingDoubling,
            )
            .run()
            .outcome;
            let fast_train =
                outcome.agent_stats.iter().find(|s| s.id == AgentId(1)).map_or(0.0, |s| s.train_s);
            let comm = outcome.total_comm_s();
            let idle = outcome.total_idle_s();
            let total = outcome.round_s();
            if total < best.0 {
                best = (total, m);
            }
            println!(
                "{}",
                row(
                    &[
                        m.to_string(),
                        fmt_s(fast_train * rounds),
                        fmt_s(comm * rounds),
                        fmt_s(idle * rounds),
                        fmt_s(total * rounds),
                    ],
                    &widths
                )
            );
        }
        let no_offload = {
            let pairings = vec![
                Pairing { slow: AgentId(0), fast: None, offload: 0, est_time_s: 0.0 },
                Pairing { slow: AgentId(1), fast: None, offload: 0, est_time_s: 0.0 },
            ];
            EventRound::new(
                &world,
                &pairings,
                &estimator,
                &cal,
                AllReduceAlgorithm::HalvingDoubling,
            )
            .run()
            .outcome
            .round_s()
        };
        println!(
            "  -> optimum at {} layers: {:.0}% reduction vs no offloading\n",
            best.1,
            (1.0 - best.0 / no_offload) * 100.0
        );
    }
}
