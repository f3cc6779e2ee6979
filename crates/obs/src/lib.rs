//! Dependency-free observability for the `comdml-rs` workspace: leveled
//! structured logging, a process-wide metrics registry, RAII phase spans
//! and a JSONL trace sink.
//!
//! ComDML's whole argument is about *where time goes in a round* —
//! straggler wait, offload transfer, helper compute — so this crate gives
//! every layer a shared way to attribute it:
//!
//! * **Logging** — [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros behind
//!   the `COMDML_LOG` env filter (default `warn`, per-target overrides:
//!   `COMDML_LOG=warn,farm=debug`). See [`set_log_filter`].
//! * **Metrics** — [`metrics()`](metrics) is a process-wide
//!   [`MetricsRegistry`] of counters, gauges and fixed-bucket
//!   [`Histogram`]s with p50/p90/p99. The gated helpers ([`counter_add`],
//!   [`gauge_set`], [`gauge_max`], [`observe_ms`]) no-op unless enabled.
//! * **Spans** — [`phase("fleet.pairing")`](phase) times a scope into the
//!   `phase.*` histogram namespace; [`MetricsSnapshot::phase_totals`]
//!   turns a snapshot into the per-phase rows `BenchEntry` carries.
//! * **Tracing** — `COMDML_TRACE=<path>` (or [`set_trace_path`]) streams
//!   every span, log line and structured event as one JSON object per
//!   line; the `trace_check` bin validates a file against the schema.
//!
//! # The zero-overhead / zero-perturbation contract
//!
//! Disabled (the default), every instrumentation site reduces to one
//! relaxed atomic load — **no `Instant::now` runs on any hot path**, so
//! `scalability_10k` wall time is indistinguishable from an
//! uninstrumented build. Enabled, observation never feeds back into the
//! run: no RNG stream, event ordering or simulation value depends on it,
//! so fleet digests and sweep artifacts stay **byte-identical** either
//! way (pinned by `crates/exp/tests/obs.rs` and the CI `obs-smoke` diff).
//!
//! This crate sits at the bottom of the workspace dependency graph and
//! depends on nothing, so any crate may instrument freely. It also owns
//! the workspace's dependency-free JSON [`Value`] model.
//!
//! # Example
//!
//! ```
//! use comdml_obs as obs;
//!
//! obs::set_metrics_enabled(true);
//! {
//!     let _timer = obs::phase("example.work");
//!     obs::counter_add("example.items", 3);
//! } // timer drop records phase.example.work
//! let snap = obs::metrics().snapshot();
//! assert_eq!(snap.counters.iter().find(|(k, _)| k == "example.items").unwrap().1, 3);
//! assert_eq!(snap.phase_totals()[0].0, "example.work");
//! obs::set_metrics_enabled(false);
//! obs::metrics().reset();
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

pub mod json;
mod log;
mod metrics;
mod span;
mod trace;

pub use json::Value;
#[doc(hidden)]
pub use log::{emit as log_emit, enabled as log_enabled};
pub use log::{set_log_filter, Level};
pub use metrics::{
    counter_add, gauge_max, gauge_set, metrics, observe_ms, HistSummary, Histogram,
    MetricsRegistry, MetricsSnapshot, HIST_BUCKETS,
};
pub use span::{phase, PhaseTimer};
pub use trace::{disable_trace, flush_trace, set_trace_path, trace_enabled, trace_event};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Applies the env configuration exactly once (lazily, from the first
/// observability call).
pub(crate) fn ensure_init() {
    ENV_INIT.call_once(|| {
        let cfg = ObsConfig::from_env();
        if let Err(e) = cfg.apply_inner() {
            eprintln!("comdml-obs: COMDML_TRACE sink unusable: {e}");
        }
    });
}

/// Whether metrics/span collection is on. One relaxed atomic load — the
/// check every gated helper performs.
pub fn metrics_enabled() -> bool {
    ensure_init();
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turns metrics/span collection on or off programmatically (bench bins
/// and tests; `COMDML_METRICS=1` / `COMDML_TRACE=<path>` do it via env).
pub fn set_metrics_enabled(on: bool) {
    ensure_init();
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// The crate's whole configuration surface, as read from the environment
/// or built programmatically and [`apply`](ObsConfig::apply)-ed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Enable the metrics registry and phase spans (`COMDML_METRICS=1`).
    pub metrics: bool,
    /// Log filter spec (`COMDML_LOG`, e.g. `"info"` or `"warn,farm=debug"`).
    pub log_filter: Option<String>,
    /// JSONL trace sink path (`COMDML_TRACE`); implies `metrics`.
    pub trace_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Reads `COMDML_METRICS`, `COMDML_LOG` and `COMDML_TRACE`.
    pub fn from_env() -> Self {
        let metrics = std::env::var("COMDML_METRICS")
            .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
            .unwrap_or(false);
        let log_filter = std::env::var("COMDML_LOG").ok().filter(|s| !s.is_empty());
        let trace_path =
            std::env::var("COMDML_TRACE").ok().filter(|s| !s.is_empty()).map(PathBuf::from);
        Self { metrics, log_filter, trace_path }
    }

    /// Applies the configuration to the process-wide state.
    ///
    /// # Errors
    ///
    /// Propagates a trace-sink creation failure (logging and metrics are
    /// still applied).
    pub fn apply(&self) -> std::io::Result<()> {
        ensure_init();
        self.apply_inner()
    }

    fn apply_inner(&self) -> std::io::Result<()> {
        if let Some(spec) = &self.log_filter {
            set_log_filter(spec);
        }
        if self.metrics || self.trace_path.is_some() {
            METRICS_ON.store(true, Ordering::Relaxed);
        }
        if let Some(path) = &self.trace_path {
            trace::set_trace_path_inner(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All global-state assertions live in this one test so the flag,
    /// registry and sink are never toggled concurrently by siblings.
    #[test]
    fn global_pipeline_gates_records_and_traces() {
        // Disabled: gated helpers no-op and phase() reads no clock.
        set_metrics_enabled(false);
        counter_add("pipeline.counter", 1);
        observe_ms("pipeline.hist", 1.0);
        assert!(phase("pipeline.phase").elapsed_ms().is_none(), "no clock when disabled");
        assert_eq!(metrics().counter_value("pipeline.counter"), 0);
        assert!(metrics().histogram("pipeline.hist").is_none());

        // Enabled via trace sink: spans hit the registry and the file.
        let path = std::env::temp_dir().join("comdml_obs_lib_test.jsonl");
        set_trace_path(&path).unwrap();
        assert!(metrics_enabled() && trace_enabled());
        counter_add("pipeline.counter", 2);
        let lines_on_disk = || std::fs::read_to_string(&path).unwrap().lines().count();
        {
            let t = phase("pipeline.phase");
            assert!(t.elapsed_ms().is_some());
        }
        assert_eq!(lines_on_disk(), 1, "the outermost span's end flushes");
        trace_event("custom", vec![("k", Value::Num(1.5))]);
        assert_eq!(lines_on_disk(), 1, "other lines stay buffered");
        crate::warn!("pipeline", "warned {}", 7);
        assert_eq!(lines_on_disk(), 3, "a warning flushes");
        disable_trace();
        set_metrics_enabled(false);

        assert_eq!(metrics().counter_value("pipeline.counter"), 2);
        let snap = metrics().snapshot();
        let phases = snap.phase_totals();
        assert!(phases.iter().any(|(n, ms)| n == "pipeline.phase" && *ms >= 0.0), "{phases:?}");

        // Every line parses, carries the envelope, and seq increments.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut kinds = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let v = Value::parse(line).unwrap();
            assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64));
            kinds.push(v.get("t").and_then(Value::as_str).unwrap().to_string());
        }
        assert_eq!(kinds, vec!["span", "custom", "log"]);
        let last = Value::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("level").and_then(Value::as_str), Some("warn"));
        assert_eq!(last.get("msg").and_then(Value::as_str), Some("warned 7"));

        metrics().reset();
        let _ = std::fs::remove_file(&path);
    }
}
