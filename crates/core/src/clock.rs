//! The round engine's discrete-event clock: the typed event vocabulary of
//! [`crate::EventRound`], a shared simulated clock over
//! [`comdml_simnet::EventQueue`], and per-agent timelines.

use comdml_simnet::{AgentId, EventQueue};

/// Typed events of one ComDML round.
///
/// `pair` fields index into the round's pair table (owned by
/// [`crate::EventRound`]); agent-level events carry the [`AgentId`]
/// directly. Failures and joins share the queue with the per-batch
/// pipeline events, so a helper can die halfway through a transfer and the
/// handler observes it in causal order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SimEvent {
    /// The slow side of pairing `pair` finished producing activation batch
    /// `batch`.
    BatchProduced { pair: usize, batch: usize },
    /// The link of pairing `pair` finished moving batch `batch` to the
    /// helper.
    TransferComplete { pair: usize, batch: usize },
    /// The helper of pairing `pair` shipped the trained suffix parameters
    /// back to the slow agent.
    SuffixReturn { pair: usize },
    /// Coarse-granularity completion of pairing `pair`: the whole
    /// produce/transfer/train/return pipeline collapsed into one event
    /// scheduled from the closed-form completion time. Emitted instead of
    /// the per-batch `BatchProduced`/`TransferComplete`/`SuffixReturn`
    /// cascade when the pair has no pending disruption.
    PairDone { pair: usize },
    /// `agent` finished its round task (solo epoch or its half of a pair).
    AgentDone { agent: AgentId },
    /// Aggregation began over the currently finished cohort.
    AggregateStart,
    /// Aggregation completed; the round's critical path ends here.
    AggregateDone,
    /// `agent` failed or left. Pairs it participates in must react.
    AgentFail { agent: AgentId },
    /// `agent` joined the fleet mid-round.
    AgentJoin { agent: AgentId },
}

/// Per-agent accounting accumulated while events execute.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AgentTimeline {
    /// Compute-busy seconds.
    pub(crate) busy_s: f64,
    /// Critical-path communication seconds.
    pub(crate) comm_s: f64,
    /// When the agent's task finished (simulated seconds); 0 until then.
    pub(crate) finish_s: f64,
    /// Whether the agent finished its task this round.
    pub(crate) done: bool,
}

/// A shared simulated clock, the typed event queue, and per-agent
/// timelines.
///
/// There is no callback registration: the round engine drains events in
/// causal order with [`SimDriver::next`] and schedules follow-ups, which
/// keeps borrow scopes trivial.
#[derive(Debug)]
pub(crate) struct SimDriver {
    queue: EventQueue<SimEvent>,
    now: f64,
    timelines: Vec<AgentTimeline>,
    processed: u64,
    peak_pending: usize,
}

impl SimDriver {
    /// Creates a driver for a fleet of `num_agents`, clock at zero.
    pub(crate) fn new(num_agents: usize) -> Self {
        Self {
            queue: EventQueue::new(),
            now: 0.0,
            timelines: vec![AgentTimeline::default(); num_agents],
            processed: 0,
            peak_pending: 0,
        }
    }

    /// The current simulated time in seconds.
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Number of events executed by [`SimDriver::next`] so far — the
    /// cost metric the benchmark JSON reports, and what the coarse event
    /// granularity shrinks.
    pub(crate) fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Publishes the driver's lifetime counters to the process-wide
    /// metrics registry (`simnet.events`, `simnet.peak_pending` — the
    /// pending-queue high-water mark), plus the calendar-queue layout
    /// (`simnet.queue_buckets`, `simnet.bucket_occupancy` p50/p99 at the
    /// high-water calendar). No-op unless observability is enabled; never
    /// touches the clock or queue, so calling it cannot perturb a run.
    pub(crate) fn publish_metrics(&self) {
        if !comdml_obs::metrics_enabled() {
            return;
        }
        comdml_obs::counter_add("simnet.events", self.processed);
        comdml_obs::gauge_max("simnet.peak_pending", self.peak_pending as f64);
        let stats = self.queue.bucket_stats();
        comdml_obs::gauge_max("simnet.queue_buckets", stats.buckets as f64);
        comdml_obs::gauge_max("simnet.bucket_occupancy_p50", stats.occupancy_p50);
        comdml_obs::gauge_max("simnet.bucket_occupancy_p99", stats.occupancy_p99);
    }

    /// Schedules `event` at absolute simulated time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock (causality violation) or
    /// is NaN.
    pub(crate) fn schedule_at(&mut self, time: f64, event: SimEvent) {
        assert!(time >= self.now, "cannot schedule into the past: {time} < {}", self.now);
        self.queue.push(time, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Ties are delivered in scheduling order, so identical runs replay the
    /// exact same event sequence — the determinism the seed-reproducibility
    /// tests rely on.
    pub(crate) fn next(&mut self) -> Option<(f64, SimEvent)> {
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }

    /// Accounts `seconds` of compute on `agent`'s timeline.
    pub(crate) fn record_busy(&mut self, agent: AgentId, seconds: f64) {
        self.timelines[agent.0].busy_s += seconds;
    }

    /// Accounts `seconds` of critical-path communication on `agent`'s
    /// timeline.
    pub(crate) fn record_comm(&mut self, agent: AgentId, seconds: f64) {
        self.timelines[agent.0].comm_s += seconds;
    }

    /// Marks `agent`'s round task finished at time `at`.
    pub(crate) fn mark_done(&mut self, agent: AgentId, at: f64) {
        let t = &mut self.timelines[agent.0];
        t.done = true;
        t.finish_s = at;
    }

    /// Clears `agent`'s done flag — used when an idle agent is re-tasked
    /// mid-round (e.g. claimed as a replacement helper after a failure).
    pub(crate) fn mark_active(&mut self, agent: AgentId) {
        self.timelines[agent.0].done = false;
    }

    /// One agent's accumulated timeline.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub(crate) fn timeline(&self, agent: AgentId) -> &AgentTimeline {
        &self.timelines[agent.0]
    }

    /// All timelines, indexed by agent id.
    pub(crate) fn timelines(&self) -> &[AgentTimeline] {
        &self.timelines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut d = SimDriver::new(1);
        d.schedule_at(2.0, SimEvent::AggregateStart);
        d.schedule_at(1.0, SimEvent::AgentDone { agent: AgentId(0) });
        let (t1, e1) = d.next().unwrap();
        assert_eq!(t1, 1.0);
        assert!(matches!(e1, SimEvent::AgentDone { .. }));
        assert_eq!(d.now(), 1.0);
        let (t2, _) = d.next().unwrap();
        assert_eq!(t2, 2.0);
        assert!(d.next().is_none());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut d = SimDriver::new(1);
        d.schedule_at(5.0, SimEvent::AggregateStart);
        d.next().unwrap();
        d.schedule_at(4.0, SimEvent::AggregateDone);
    }

    #[test]
    fn timelines_accumulate() {
        let mut d = SimDriver::new(2);
        d.record_busy(AgentId(0), 2.0);
        d.record_busy(AgentId(0), 3.0);
        d.record_comm(AgentId(1), 1.0);
        d.mark_done(AgentId(0), 5.0);
        assert_eq!(d.timeline(AgentId(0)).busy_s, 5.0);
        assert_eq!(d.timeline(AgentId(1)).comm_s, 1.0);
        assert!(d.timeline(AgentId(0)).done);
        assert!(!d.timeline(AgentId(1)).done);
        assert_eq!(d.timelines().iter().filter(|t| t.done).count(), 1);
    }

    #[test]
    fn peak_pending_tracks_queue_high_water_mark() {
        let mut d = SimDriver::new(1);
        assert_eq!(d.peak_pending, 0);
        d.schedule_at(1.0, SimEvent::AggregateStart);
        d.schedule_at(2.0, SimEvent::AggregateDone);
        assert_eq!(d.peak_pending, 2);
        d.next().unwrap();
        d.next().unwrap();
        // Draining does not lower the high-water mark.
        assert!(d.queue.is_empty());
        assert_eq!(d.peak_pending, 2);
        d.schedule_at(3.0, SimEvent::AggregateStart);
        assert_eq!(d.peak_pending, 2);
    }

    #[test]
    fn identical_schedules_replay_identically() {
        let run = || {
            let mut d = SimDriver::new(3);
            d.schedule_at(1.0, SimEvent::AgentDone { agent: AgentId(0) });
            d.schedule_at(1.0, SimEvent::AgentDone { agent: AgentId(1) });
            d.schedule_at(0.5, SimEvent::BatchProduced { pair: 0, batch: 0 });
            let mut order = Vec::new();
            while let Some((t, ev)) = d.next() {
                order.push((t.to_bits(), format!("{ev:?}")));
            }
            order
        };
        assert_eq!(run(), run());
    }
}
