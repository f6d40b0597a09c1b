//! Structured point-in-time views of a running [`crate::Runtime`].
//!
//! [`RtSnapshot`] is the one export shape for runtime observability:
//! benches serialize it to JSON (`serde`), examples print it
//! (`Display` renders the same aligned tables the simulator's reports
//! use), and the Prometheus endpoint exposes the underlying registry in
//! text exposition format. All three views are built from the same
//! merged [`layercake_metrics::TelemetryRegistry`] read, so they can
//! never disagree about what the runtime did.

use layercake_metrics::{render_table, Histogram, HistogramSample};
use serde::{Deserialize, Serialize};

/// A merged point-in-time view of a runtime's counters, end-to-end
/// latency distribution, and per-stage pipeline profile.
///
/// The serde shape is stable: scalar counters first, then `latency_ns`,
/// then `stages` sorted in pipeline order with their registry metric
/// names (`stage.decode_ns`, ...). Stage histograms are empty unless
/// `RtConfig::stage_sample_every` enabled the profiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtSnapshot {
    /// Microseconds since the runtime started.
    pub uptime_us: u64,
    /// Events handed to [`crate::Publisher::publish`].
    pub published: u64,
    /// Events accepted exactly-once by subscriber nodes.
    pub delivered: u64,
    /// Wire messages pushed toward node channels.
    pub frames_sent: u64,
    /// Total framed bytes sent.
    pub bytes_sent: u64,
    /// Channel hand-offs carrying those frames; a coalesced send carries
    /// several, so this never exceeds `frames_sent`.
    pub channel_sends: u64,
    /// Frames decoded by node threads.
    pub frames_received: u64,
    /// Outgoing control messages dropped by follower shards.
    pub suppressed_control: u64,
    /// Frames that failed framing or payload decoding.
    pub decode_errors: u64,
    /// Messages that failed wire encoding (frame cap) and were dropped
    /// before any send.
    pub encode_errors: u64,
    /// Node timers that fired.
    pub timers_fired: u64,
    /// Node-thread panics caught by the supervision wrappers.
    pub panics: u64,
    /// Supervised shard restarts completed.
    pub restarts: u64,
    /// Shards fenced by the stall detector.
    pub stalls: u64,
    /// Shards permanently dead-ended (restart budget spent or restart
    /// failed).
    pub gave_up: u64,
    /// The volatile loss ledger: data frames dropped by injected link
    /// faults, dead-ended routes, or unsalvageable crash backlogs.
    pub frames_dropped: u64,
    /// Data frames salvaged from crashed inboxes into replacements.
    pub frames_requeued: u64,
    /// Faults the configured `RtFaultPlan` actually injected.
    pub faults_injected: u64,
    /// Events the trace sink sampled (0 when tracing is off).
    pub traced: u64,
    /// Live filter-table entries across all broker leaders — the filters
    /// the match loops actually evaluate per event.
    pub filter_table_entries: u64,
    /// Subscriptions held as covered aggregation bookkeeping (no live
    /// entry of their own); zero with aggregation disabled.
    pub agg_covered_subs: u64,
    /// End-to-end delivery latency (root ingress dequeue → subscriber
    /// accept), nanoseconds. Sampled deliveries only when tracing is on.
    pub latency_ns: Histogram,
    /// Publish-queue wait (publish stamp → root ingress dequeue),
    /// nanoseconds — the backlog component excluded from `latency_ns`.
    pub queue_wait_ns: Histogram,
    /// Supervised restart durations (crash noticed → replacement live,
    /// backoff included), nanoseconds — the runtime's MTTR distribution.
    pub restart_ns: Histogram,
    /// Per-stage pipeline timings in pipeline order, named by
    /// [`layercake_metrics::PipelineStage::metric_name`].
    pub stages: Vec<HistogramSample>,
}

impl RtSnapshot {
    /// The merged stage histogram registered under `name`
    /// (e.g. `"stage.match_ns"`), if present.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&Histogram> {
        self.stages.iter().find(|s| s.name == name).map(|s| &s.hist)
    }
}

impl std::fmt::Display for RtSnapshot {
    /// Renders the snapshot as the two aligned tables examples and
    /// benches previously hand-assembled: one for counters, one
    /// summarizing latency plus every stage histogram with samples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = [
            ("uptime_us", self.uptime_us),
            ("published", self.published),
            ("delivered", self.delivered),
            ("frames_sent", self.frames_sent),
            ("bytes_sent", self.bytes_sent),
            ("channel_sends", self.channel_sends),
            ("frames_received", self.frames_received),
            ("suppressed_control", self.suppressed_control),
            ("decode_errors", self.decode_errors),
            ("encode_errors", self.encode_errors),
            ("timers_fired", self.timers_fired),
            ("panics", self.panics),
            ("restarts", self.restarts),
            ("stalls", self.stalls),
            ("gave_up", self.gave_up),
            ("frames_dropped", self.frames_dropped),
            ("frames_requeued", self.frames_requeued),
            ("faults_injected", self.faults_injected),
            ("traced", self.traced),
            ("filter_table_entries", self.filter_table_entries),
            ("agg_covered_subs", self.agg_covered_subs),
        ];
        let rows: Vec<Vec<String>> = counters
            .iter()
            .map(|(name, v)| vec![(*name).to_string(), v.to_string()])
            .collect();
        write!(f, "{}", render_table(&["counter", "value"], &rows))?;

        let mut hist_rows: Vec<Vec<String>> = Vec::new();
        let push_hist = |rows: &mut Vec<Vec<String>>, name: &str, h: &Histogram| {
            rows.push(vec![
                name.to_string(),
                h.count().to_string(),
                h.p50().to_string(),
                h.p95().to_string(),
                h.p99().to_string(),
                h.max().to_string(),
                format!("{:.1}", h.mean()),
            ]);
        };
        if !self.latency_ns.is_empty() {
            push_hist(&mut hist_rows, "rt.latency_ns", &self.latency_ns);
        }
        if !self.queue_wait_ns.is_empty() {
            push_hist(&mut hist_rows, "rt.queue_wait_ns", &self.queue_wait_ns);
        }
        if !self.restart_ns.is_empty() {
            push_hist(&mut hist_rows, "rt.restart_ns", &self.restart_ns);
        }
        for s in &self.stages {
            if !s.hist.is_empty() {
                push_hist(&mut hist_rows, &s.name, &s.hist);
            }
        }
        if !hist_rows.is_empty() {
            write!(
                f,
                "\n{}",
                render_table(
                    &["histogram (ns)", "n", "p50", "p95", "p99", "max", "mean"],
                    &hist_rows,
                )
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RtSnapshot {
        let mut latency = Histogram::new();
        latency.record(1500);
        latency.record(9000);
        let mut decode = Histogram::new();
        decode.record(300);
        RtSnapshot {
            uptime_us: 1234,
            published: 10,
            delivered: 8,
            frames_sent: 40,
            bytes_sent: 4096,
            channel_sends: 25,
            frames_received: 40,
            suppressed_control: 2,
            decode_errors: 0,
            encode_errors: 0,
            timers_fired: 3,
            panics: 1,
            restarts: 1,
            stalls: 0,
            gave_up: 0,
            frames_dropped: 2,
            frames_requeued: 4,
            faults_injected: 1,
            traced: 5,
            filter_table_entries: 6,
            agg_covered_subs: 2,
            latency_ns: latency,
            queue_wait_ns: Histogram::new(),
            restart_ns: Histogram::new(),
            stages: vec![
                HistogramSample {
                    name: "stage.decode_ns".into(),
                    hist: decode,
                },
                HistogramSample {
                    name: "stage.match_ns".into(),
                    hist: Histogram::new(),
                },
            ],
        }
    }

    #[test]
    fn serde_round_trip_is_stable() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: RtSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert!(json.contains("\"published\""));
        assert!(json.contains("stage.decode_ns"));
    }

    #[test]
    fn display_renders_counters_and_nonempty_stages() {
        let text = sample().to_string();
        assert!(text.contains("published"));
        assert!(text.contains("rt.latency_ns"));
        assert!(text.contains("stage.decode_ns"));
        assert!(
            !text.contains("stage.match_ns"),
            "empty stage histograms stay out of the table"
        );
    }

    #[test]
    fn stage_lookup_by_name() {
        let snap = sample();
        assert_eq!(snap.stage("stage.decode_ns").unwrap().count(), 1);
        assert!(snap.stage("stage.egress_send_ns").is_none());
    }
}
