//! Lightweight RAII phase timers.
//!
//! [`phase("fleet.pairing")`](phase) returns a guard; when it drops, the
//! elapsed milliseconds land in the `phase.fleet.pairing` histogram and —
//! when the trace sink is active — a `{"t":"span",...}` JSONL event. When
//! observability is disabled the guard is empty and **no `Instant::now`
//! runs**: the whole call is one relaxed atomic load, which is what lets
//! the simulation keep spans on its round path for free.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Phase timers open on this thread: the trace sink flushes when the
    /// outermost one closes.
    static OPEN: Cell<usize> = const { Cell::new(0) };
}

/// An in-flight phase measurement; drop it to record.
#[derive(Debug)]
#[must_use = "a phase timer records on drop — bind it (`let _p = phase(..)`)"]
pub struct PhaseTimer {
    inner: Option<(&'static str, Instant)>,
}

impl PhaseTimer {
    /// Elapsed milliseconds so far; `None` when observability is off.
    pub fn elapsed_ms(&self) -> Option<f64> {
        self.inner.as_ref().map(|(_, start)| start.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.inner.take() {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if crate::metrics_enabled() {
                crate::metrics().observe(&format!("phase.{name}"), ms);
            }
            let open = OPEN.with(|n| {
                n.set(n.get().saturating_sub(1)); // a timer may drop on another thread
                n.get()
            });
            crate::trace::span_event(name, ms, open == 0);
        }
    }
}

/// Starts timing a named phase. A no-op (no clock read) unless metrics or
/// tracing are enabled.
pub fn phase(name: &'static str) -> PhaseTimer {
    if crate::metrics_enabled() || crate::trace_enabled() {
        OPEN.with(|n| n.set(n.get() + 1));
        PhaseTimer { inner: Some((name, Instant::now())) }
    } else {
        PhaseTimer { inner: None }
    }
}
