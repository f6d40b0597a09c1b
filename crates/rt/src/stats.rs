//! Wall-clock runtime counters and latency distribution.

use std::sync::Arc;

use layercake_metrics::{Gauge, Histogram, ShardedCounter, ShardedHistogram, TelemetryRegistry};

/// How many cache-padded slots each runtime metric shards across. Node
/// threads pick distinct slots round-robin, so this bounds the writer
/// parallelism before two threads share a slot; 16 covers a root + two
/// fan-in levels at 8 matcher shards.
const STAT_SHARDS: usize = 16;

/// Shared counters for a runtime instance.
///
/// All counters are monotone and sharded across cache-padded atomic
/// slots ([`ShardedCounter`]) — each node thread increments its own slot
/// with a relaxed `fetch_add` and readers merge on demand, so the hot
/// path never bounces a shared cache line. End-to-end latency is fed in
/// nanoseconds into a [`ShardedHistogram`] with the same log₂ bucketing
/// the simulator's metrics use, so virtual-time and wall-clock latency
/// reports share one bucketing scheme. (Earlier revisions funneled every
/// delivery through a `Mutex<Histogram>`; experiment E19's registry
/// microbench records the contention gap that motivated the swap.)
///
/// Every metric is registered in a [`TelemetryRegistry`] under a
/// `rt.`-prefixed name, so the same figures flow out through
/// [`crate::Runtime::snapshot`] and the Prometheus endpoint without a
/// second accounting path.
///
/// With trace sampling enabled (`overlay.trace_sample_every > 0`) only
/// the sampled events carry the publish stamp, so the latency histogram
/// then describes the sampled subset rather than every delivery.
#[derive(Debug)]
pub struct RtStats {
    registry: Arc<TelemetryRegistry>,
    published: Arc<ShardedCounter>,
    delivered: Arc<ShardedCounter>,
    frames_sent: Arc<ShardedCounter>,
    bytes_sent: Arc<ShardedCounter>,
    channel_sends: Arc<ShardedCounter>,
    frames_received: Arc<ShardedCounter>,
    suppressed_control: Arc<ShardedCounter>,
    decode_errors: Arc<ShardedCounter>,
    encode_errors: Arc<ShardedCounter>,
    timers_fired: Arc<ShardedCounter>,
    panics: Arc<ShardedCounter>,
    restarts: Arc<ShardedCounter>,
    stalls: Arc<ShardedCounter>,
    gave_up: Arc<ShardedCounter>,
    frames_dropped: Arc<ShardedCounter>,
    frames_requeued: Arc<ShardedCounter>,
    faults_injected: Arc<ShardedCounter>,
    latency_ns: Arc<ShardedHistogram>,
    queue_wait_ns: Arc<ShardedHistogram>,
    restart_ns: Arc<ShardedHistogram>,
    /// Live filter-table entries summed over all broker leaders — the
    /// number of filters the match loops actually evaluate.
    filter_table_entries: Arc<Gauge>,
    /// Subscriptions held as covered (non-live) aggregation bookkeeping,
    /// summed over all broker leaders; zero with aggregation disabled.
    agg_covered_subs: Arc<Gauge>,
}

impl Default for RtStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RtStats {
    /// Creates zeroed stats backed by a fresh telemetry registry.
    #[must_use]
    pub fn new() -> Self {
        let registry = Arc::new(TelemetryRegistry::new(STAT_SHARDS));
        Self {
            published: registry.counter("rt.published"),
            delivered: registry.counter("rt.delivered"),
            frames_sent: registry.counter("rt.frames_sent"),
            bytes_sent: registry.counter("rt.bytes_sent"),
            channel_sends: registry.counter("rt.channel_sends"),
            frames_received: registry.counter("rt.frames_received"),
            suppressed_control: registry.counter("rt.suppressed_control"),
            decode_errors: registry.counter("rt.decode_errors"),
            encode_errors: registry.counter("rt.encode_errors"),
            timers_fired: registry.counter("rt.timers_fired"),
            panics: registry.counter("rt.panics"),
            restarts: registry.counter("rt.restarts"),
            stalls: registry.counter("rt.stalls"),
            gave_up: registry.counter("rt.gave_up"),
            frames_dropped: registry.counter("rt.frames_dropped"),
            frames_requeued: registry.counter("rt.frames_requeued"),
            faults_injected: registry.counter("rt.faults_injected"),
            latency_ns: registry.histogram("rt.latency_ns"),
            queue_wait_ns: registry.histogram("rt.queue_wait_ns"),
            restart_ns: registry.histogram("rt.restart_ns"),
            filter_table_entries: registry.gauge("rt.filter_table_entries"),
            agg_covered_subs: registry.gauge("rt.agg_covered_subs"),
            registry,
        }
    }

    /// The registry holding every runtime metric (these counters plus
    /// the stage profiler's histograms) — the source for
    /// [`crate::Runtime::snapshot`] and the Prometheus endpoint.
    #[must_use]
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }

    pub(crate) fn inc_published(&self) {
        self.published.inc();
    }

    pub(crate) fn inc_delivered(&self) {
        self.delivered.inc();
    }

    pub(crate) fn note_frames_sent(&self, msgs: u32, bytes: usize) {
        self.frames_sent.add(u64::from(msgs));
        self.bytes_sent.add(bytes as u64);
    }

    pub(crate) fn inc_channel_sends(&self) {
        self.channel_sends.inc();
    }

    pub(crate) fn inc_frames_received(&self) {
        self.frames_received.inc();
    }

    pub(crate) fn inc_suppressed_control(&self) {
        self.suppressed_control.inc();
    }

    pub(crate) fn inc_decode_errors(&self) {
        self.decode_errors.inc();
    }

    pub(crate) fn inc_encode_errors(&self) {
        self.encode_errors.inc();
    }

    pub(crate) fn inc_timers_fired(&self) {
        self.timers_fired.inc();
    }

    pub(crate) fn record_latency_ns(&self, ns: u64) {
        self.latency_ns.record(ns);
    }

    pub(crate) fn record_queue_wait_ns(&self, ns: u64) {
        self.queue_wait_ns.record(ns);
    }

    pub(crate) fn inc_panics(&self) {
        self.panics.inc();
    }

    pub(crate) fn inc_restarts(&self) {
        self.restarts.inc();
    }

    pub(crate) fn inc_stalls(&self) {
        self.stalls.inc();
    }

    pub(crate) fn inc_gave_up(&self) {
        self.gave_up.inc();
    }

    pub(crate) fn inc_frames_dropped(&self) {
        self.frames_dropped.inc();
    }

    pub(crate) fn add_frames_dropped(&self, n: u64) {
        if n > 0 {
            self.frames_dropped.add(n);
        }
    }

    pub(crate) fn add_frames_requeued(&self, n: u64) {
        if n > 0 {
            self.frames_requeued.add(n);
        }
    }

    pub(crate) fn inc_faults_injected(&self) {
        self.faults_injected.inc();
    }

    pub(crate) fn record_restart_ns(&self, ns: u64) {
        self.restart_ns.record(ns);
    }

    pub(crate) fn filter_table_entries_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.filter_table_entries)
    }

    pub(crate) fn agg_covered_subs_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.agg_covered_subs)
    }

    /// Live filter-table entries across all broker leaders — the sum of
    /// the filters each broker's match loop evaluates per event. Tracks
    /// the `rt.filter_table_entries` gauge.
    #[must_use]
    pub fn filter_table_entries(&self) -> u64 {
        u64::try_from(self.filter_table_entries.get()).unwrap_or(0)
    }

    /// Subscriptions currently held as covered aggregation bookkeeping
    /// (no live entry of their own) across all broker leaders. Zero with
    /// `aggregation_enabled` off. Tracks the `rt.agg_covered_subs` gauge.
    #[must_use]
    pub fn agg_covered_subs(&self) -> u64 {
        u64::try_from(self.agg_covered_subs.get()).unwrap_or(0)
    }

    /// Events handed to [`crate::Publisher::publish`].
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published.get()
    }

    /// Events accepted exactly-once by subscriber nodes.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Wire messages (length-prefixed frames) pushed toward node
    /// channels; control broadcasts count once per shard copy.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }

    /// Total framed bytes sent — every one of them paid serialization.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// Channel hand-offs (mpsc sends or link writes) that carried those
    /// frames. Node threads coalesce the data messages they send one
    /// destination within one inbox drain, so `frames_sent /
    /// channel_sends` is the mean batch size; never above `frames_sent`.
    #[must_use]
    pub fn channel_sends(&self) -> u64 {
        self.channel_sends.get()
    }

    /// Frames decoded by node threads.
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.frames_received.get()
    }

    /// Outgoing control messages dropped by follower shards (the leader
    /// speaks for the broker; see the runtime's sharding contract).
    #[must_use]
    pub fn suppressed_control(&self) -> u64 {
        self.suppressed_control.get()
    }

    /// Frames that failed framing or payload decoding and were dropped.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.get()
    }

    /// Messages that failed wire encoding (frame cap exceeded) and were
    /// never sent. Always zero for well-formed workloads; nonzero means
    /// a protocol-scale bug, surfaced as a counter instead of a panic.
    #[must_use]
    pub fn encode_errors(&self) -> u64 {
        self.encode_errors.get()
    }

    /// Node timers that fired.
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired.get()
    }

    /// Node-thread panics caught by the supervision wrappers (broker
    /// shards and subscribers alike), injected or organic.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }

    /// Supervised shard restarts completed (state machine rebuilt,
    /// durable log recovered, route re-wired).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Shards the supervisor's heartbeat scan fenced for stalling.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Shards permanently dead-ended: restart budget spent, or the
    /// restart itself failed.
    #[must_use]
    pub fn gave_up(&self) -> u64 {
        self.gave_up.get()
    }

    /// The volatile loss ledger: data frames dropped by injected link
    /// faults, sends to dead-ended shards, crash backlogs that could not
    /// be requeued. Durable subscribers recover these through log
    /// replay; volatile subscribers see exactly this count as potential
    /// loss — accounted, never silent.
    #[must_use]
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.get()
    }

    /// Data frames salvaged from crashed shard inboxes and requeued into
    /// the replacement thread.
    #[must_use]
    pub fn frames_requeued(&self) -> u64 {
        self.frames_requeued.get()
    }

    /// Faults the [`crate::RtFaultPlan`] actually injected (panics,
    /// stalls, link drops).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.get()
    }

    /// Merged snapshot of the end-to-end delivery latency distribution
    /// (publish stamp → subscriber accept), in nanoseconds. With trace
    /// sampling on, covers the sampled deliveries only.
    #[must_use]
    pub fn latency_histogram(&self) -> Histogram {
        self.latency_ns.merged()
    }

    /// Distribution of publish-queue wait (publish stamp → root-broker
    /// ingress dequeue), in nanoseconds. This is the backlog component
    /// the delivery-latency histogram deliberately *excludes*: publish
    /// stamps are rebased at ingress dequeue so `latency_ns` measures
    /// pipeline delivery latency, and the wait spent behind earlier
    /// events in the root inbox is accounted here instead (the E17
    /// "268 ms p50" artifact was this wait, misread as delivery time).
    #[must_use]
    pub fn queue_wait_histogram(&self) -> Histogram {
        self.queue_wait_ns.merged()
    }

    /// Distribution of supervised restart durations (crash noticed →
    /// replacement thread live, backoff included), in nanoseconds — the
    /// runtime's MTTR measurement (experiment E20).
    #[must_use]
    pub fn restart_histogram(&self) -> Histogram {
        self.restart_ns.merged()
    }
}
