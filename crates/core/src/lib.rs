//! ComDML — the paper's primary contribution.
//!
//! This crate implements Algorithm 1 of *"Communication-Efficient Training
//! Workload Balancing for Decentralized Multi-Agent Learning"* (ICDCS 2024):
//!
//! 1. **Split-model profiling** — each agent knows, for every candidate
//!    split `m`, the relative slow/fast-side training times and the
//!    intermediate data size (delegated to `comdml-cost`).
//! 2. **Training-time estimation** ([`TrainingTimeEstimator`]) — the
//!    `AgentTrainingTime` function: `τ̂ᵢⱼᵐ = max(Ñᵢ/pᵢᵐ, τ̂ⱼ + Ñᵢνₘ/cᵢⱼ +
//!    Ñᵢ/pⱼᵐ)`, minimized over `m`.
//! 3. **Decentralized pairing** ([`PairingScheduler`]) — agents pair
//!    greedily in descending order of solo training time, each slow agent
//!    choosing the partner and split that minimize its estimated time.
//! 4. **Round execution** ([`EventRound`]) — the one round entry point:
//!    a per-batch pipeline simulation of paired local-loss split training,
//!    plus AllReduce aggregation cost, on a discrete-event clock private to
//!    this crate (the baselines price their barriers in closed form).
//!    `EventRound::new(..).run().outcome` is the synchronous round.
//! 5. **Multi-round runs** ([`FleetSim`]) — the one round loop. It owns
//!    membership, profile churn, participation sampling and the clock, and
//!    drives [`ComDml`] or any baseline through the [`RoundEngine`] trait,
//!    so every method is charged by the same rules.
//!
//! The crate is the simulator only: it depends on the cost model, the
//! simulated network, the collective cost formulas and `comdml-obs`. The
//! same protocol with *real* gradient descent is `comdml_nn::RealSplitFleet`.
//!
//! # Example
//!
//! ```
//! use comdml_core::{ComDml, ComDmlConfig, RoundEngine, RoundPlan};
//! use comdml_simnet::{AgentId, WorldConfig};
//!
//! let world = WorldConfig::heterogeneous(10, 42).build();
//! let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
//! let mut comdml = ComDml::new(ComDmlConfig::default());
//! let round = comdml.run_round(RoundPlan::new(0, &world, &ids));
//! assert!(round.progress.round_s > 0.0);
//! assert!(comdml.last_report().unwrap().outcome.num_offloads > 0);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod clock;
mod comdml;
mod estimator;
mod event_round;
mod fleet;
mod learning_curve;
mod learning_model;
mod round;
mod scheduler;

pub use comdml::{ChurnPolicy, ComDml, ComDmlConfig, EngineRound, RoundEngine, RoundPlan};
pub use estimator::{
    EstimateMemo, FnvBuildHasher, FnvHasher, SplitDecision, TrainingTimeEstimator,
};
pub use event_round::{
    AggregationMode, Disruption, EventGranularity, EventRound, EventRoundReport,
};
pub use fleet::{FleetReport, FleetRoundSummary, FleetSim};
pub use learning_curve::{staleness_weight, LearningCurve};
pub use learning_model::{sampling_penalty, LearningModel, RoundProgress};
pub use round::{AgentRoundStats, PairRoundSim, RoundOutcome};
pub use scheduler::{Pairing, PairingOrder, PairingScheduler};
