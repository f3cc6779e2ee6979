//! Baseline methods the paper compares ComDML against (§V-A "Baselines").
//!
//! * [`FedAvg`] — classic server-coordinated federated averaging \[1\]. Every
//!   agent trains the full model locally; the central server collects and
//!   redistributes models, so the round is gated by the slowest agent *and*
//!   the server's aggregate bandwidth.
//! * [`AllReduceDml`] — server-less: independent local training followed by
//!   decentralized AllReduce aggregation \[34\].
//! * [`BrainTorrent`] — peer-to-peer with a rotating aggregator \[10\]: one
//!   agent per round gathers all models over its own link and sends back the
//!   average.
//! * [`GossipLearning`] — each agent exchanges models with a single random
//!   neighbour per round \[11\]; no global barrier, but mixing is partial so
//!   more rounds are needed for the same accuracy.
//!
//! None of these balance workload: a 0.2-CPU straggler trains the entire
//! model every round, which is precisely the bottleneck ComDML removes.
//! All engines implement [`comdml_core::RoundEngine`], so
//! [`comdml_core::FleetSim`] drives them — and ComDML — by the same
//! membership, churn and sampling rules. Nothing inside a baseline round
//! interleaves, so each prices its round in closed form: the slowest
//! participant's task time plus the aggregation for the barrier methods,
//! the mean pace for gossip.
//!
//! # Example
//!
//! ```
//! use comdml_baselines::{BaselineConfig, FedAvg};
//! use comdml_core::{ComDmlConfig, FleetSim};
//! use comdml_simnet::FleetConfig;
//!
//! let fedavg = FedAvg::new(BaselineConfig::default());
//! let fleet = FleetConfig::new(10, 1).build();
//! let mut sim = FleetSim::with_engine(fleet, ComDmlConfig::default(), fedavg);
//! let report = sim.run(3);
//! assert!(report.total_sim_s > 0.0);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod allreduce_dml;
mod braintorrent;
mod common;
mod drop_stragglers;
mod fedavg;
mod fedprox;
mod gossip;
mod split_learning;
mod tier;

pub use allreduce_dml::AllReduceDml;
pub use braintorrent::BrainTorrent;
pub use common::BaselineConfig;
pub use drop_stragglers::DropStragglers;
pub use fedavg::FedAvg;
pub use fedprox::FedProx;
pub use gossip::GossipLearning;
pub use split_learning::ClassicSplitLearning;
pub use tier::TierBased;
