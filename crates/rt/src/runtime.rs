//! The multi-threaded wall-clock runtime.
//!
//! Every overlay node — each matcher shard of each broker, and each
//! subscriber — runs as its own OS thread owning the node state machine
//! outright; threads exchange *byte frames* over `std::sync::mpsc`
//! channels, so every hop pays real serialize/frame/deframe/deserialize
//! cost. Zero-copy `Arc` envelope sharing therefore happens only inside
//! a shard (fan-out clones within one matcher thread), exactly as it
//! would across real sockets.
//!
//! # Sharding contract (leader/follower)
//!
//! Each broker is replicated across `shards` matcher threads. Data
//! frames (`Publish`/`Deliver`/`Sequenced`) are routed to exactly one
//! shard by a hash of the event class, so each class's matching work
//! runs on one thread per broker and distinct classes spread across
//! shards. Control frames are broadcast to *all* shards so every
//! replica's filter table stays identical — but only shard 0 (the
//! leader) emits outgoing control messages or arms timers; followers
//! apply the same table mutations and stay silent. Because placement
//! decisions can consult a seeded RNG, replicas stay convergent only
//! when control traffic reaches them in one global order — which the
//! runtime guarantees by placing subscriptions sequentially during
//! setup ([`Runtime::add_subscriber_any`] blocks until the walk
//! finishes) before any data flows.
//!
//! # Egress coalescing
//!
//! A broker shard blocks for one frame, then keeps taking whatever is
//! already queued (`try_recv`) until its inbox is empty or the batch
//! holds [`DRAIN_CAP`] messages. Each data message it sends meanwhile
//! is encoded straight into a per-destination buffer — keyed by (node,
//! class shard) for a broker and by node for a subscriber — and every
//! buffer leaves as *one* channel frame when the batch ends: one channel
//! send (or one socket write) per downstream instead of one per message.
//! The frame is a plain concatenation of complete wire frames, so the
//! receiving decoder reads it unchanged; receivers still handle, count
//! and fault-check it message by message.
//!
//! The outbox is flushed before every non-data send (so each link keeps
//! the per-thread FIFO order it had when every message went out on its
//! own), before the thread blocks or sleeps, and on every exit, panics
//! included. There is no flush timer: a message never waits for
//! anything but the rest of the batch its thread is already draining,
//! so an idle runtime sends exactly as it did before, and batches grow
//! only when a backlog does.
//!
//! # Supervision
//!
//! Every node thread body runs under `catch_unwind`. A panicking or
//! stalled broker shard does not abort the process: the thread reports
//! its exit over a supervision channel (carrying the in-flight frame and
//! its drained inbox receiver), and the supervisor thread restarts the
//! shard in place — rebuilding the deterministic node state machine,
//! replaying the captured control prefix mutedly so the filter table and
//! RNG stream converge, recovering the shard's durable log slice from
//! [`RtConfig::durable_dir`] and re-emitting `DurableBase` so durable
//! subscribers rebase their contiguity cursors, and swapping the shard's
//! inbox sender inside the shared router so peers never hold a dead
//! channel. Restarts run under a bounded budget with exponential
//! backoff; a shard that exhausts it is routed to a dead end and every
//! subsequently dropped data frame is counted in `rt.frames_dropped`
//! (see [`crate::SupervisionConfig`] and `DESIGN.md`'s runtime fault
//! model). Subscriber panics are isolated and reported in
//! [`RtReport::crashes`], not restarted: their node state died with the
//! thread and durable re-subscription is the caller's recovery path.
//!
//! # Shutdown protocol
//!
//! [`Runtime::shutdown`] stops the supervisor (force-completing pending
//! restarts), then poisons and joins stage by stage from the root down:
//! each thread receiving the poison pill drains everything still queued
//! in its inbox, flushes its outbox, then exits. Since a stage is joined
//! before the next one down is poisoned, every data frame forwarded
//! downward is already enqueued at its destination when that destination
//! drains — published events are never lost at shutdown. Subscribers
//! drain last.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, DecodeDict, DictMode, EncodeDict, Envelope, TraceContext, TraceId, TypeRegistry,
    FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use layercake_filter::{Filter, FilterId};
use layercake_metrics::{DurabilityStats, Gauge, HistogramSample, PipelineStage, StageProfiler};
use layercake_overlay::topology::{self, TopologyNode};
use layercake_overlay::wal::{FileStorage, LogConfig};
use layercake_overlay::{Broker, Node, NodeCtx, OverlayConfig, OverlayMsg, SubscriberNode};
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_trace::TraceSink;

use crate::error::RtError;
use crate::fault::{FaultAction, FaultState, RtFaultPlan};
use crate::metrics_http::MetricsServer;
use crate::snapshot::RtSnapshot;
use crate::stats::RtStats;
use crate::supervisor::{
    panic_message, CrashEntry, CrashKind, DownKind, Notice, ShardOutcome, ShardSlot, Slots,
    SubOutcome, SupervisionConfig, Supervisor, SupervisorShared,
};
use crate::transport::{self, Link, LinkCmd, TransportKind, SHARD_BROADCAST};
use crate::wire::{self, LinkDecoder, WireCodec};

/// The external-publisher sentinel: same value the simulator uses for
/// `send_external`, so provenance on the wire matches sim traces.
pub(crate) const EXTERNAL: ActorId = ActorId(usize::MAX);

/// How long an idle node thread sleeps in `recv_timeout` before checking
/// timers again.
const IDLE_TICK: Duration = Duration::from_millis(5);

/// A broker shard stops draining its inbox once the batch holds this
/// many wire messages (frames are never split), then flushes: bounds how
/// long a coalesced message waits for the rest of its batch.
const DRAIN_CAP: usize = 64;

/// A destination's batch is sent as soon as it holds this many bytes,
/// bounding each buffer a thread keeps between batches.
const COALESCE_BYTES: usize = 16 * 1024;

/// The largest channel frame coalescing produces: a batch just short of
/// [`COALESCE_BYTES`] plus one maximal wire frame.
pub(crate) const MAX_CHANNEL_FRAME: usize = COALESCE_BYTES + FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD;

/// Configuration for [`Runtime::start`].
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// The overlay to run. Soft-state leases, per-link reliability and
    /// flow control must be disabled: their per-link state lives inside
    /// each broker replica and would diverge across matcher shards.
    /// Durability is an exception — the durable log is keyed by event
    /// class, and data frames shard by class too, so each shard's log
    /// covers exactly the classes it matches and replicas never
    /// disagree; enable it with `overlay.durability_enabled` plus
    /// [`RtConfig::durable_dir`]. Trace sampling is the other exception:
    /// `overlay.trace_sample_every = n` samples every n-th published
    /// event into a wall-clock [`TraceSink`] with per-hop provenance
    /// (shard id, covering-filter verdict) matching the simulator's,
    /// exported as the same JSONL schema.
    pub overlay: OverlayConfig,
    /// Matcher shards (threads) per broker; ≥ 1.
    pub shards: usize,
    /// How long [`Runtime::add_subscriber_any`] waits for the placement
    /// walk to finish before giving up.
    pub placement_timeout: Duration,
    /// Root directory for the per-broker durable logs, required when
    /// `overlay.durability_enabled` is set. Broker `b`'s shard `s` logs
    /// under `<durable_dir>/b<b>/s<s>`; restarting a runtime over the
    /// same directory recovers consumer offsets and replays unacked
    /// events to re-subscribing durable subscribers. The supervisor
    /// reuses the same layout when it restarts a single crashed shard in
    /// place.
    pub durable_dir: Option<PathBuf>,
    /// Pipeline stage profiling: every n-th frame a node thread receives
    /// is timed through ingress wait → decode → match → encode → egress
    /// send (plus WAL append/fsync on durable runs) into the telemetry
    /// registry. `0` (the default) turns profiling off; the cost left on
    /// the hot path is then one relaxed atomic load and a branch per
    /// frame (experiment E19 asserts it stays within noise of a build
    /// without the instrumentation).
    pub stage_sample_every: u64,
    /// When set, serves the telemetry registry in Prometheus text
    /// exposition format on this socket address (e.g. `"127.0.0.1:9464"`;
    /// port 0 binds an ephemeral port reported by
    /// [`Runtime::metrics_addr`]). `None` (the default) serves nothing.
    pub metrics_addr: Option<String>,
    /// Crash-recovery policy: restart budget, backoff, stall detection.
    /// Supervision is on by default; see [`SupervisionConfig`].
    pub supervision: SupervisionConfig,
    /// Seeded wall-clock fault injection (induced shard panics/stalls,
    /// link drops) for chaos tests and the E20 experiment. `None` (the
    /// default) injects nothing and keeps the fault hooks to two hash
    /// probes per frame.
    pub fault_plan: Option<RtFaultPlan>,
    /// Which link backend carries frames between node threads:
    /// in-process mpsc channels (the default) or loopback TCP sockets
    /// with per-link writer/reader threads ([`TransportKind::Tcp`]),
    /// which makes every hop pay real socket I/O — the in-process
    /// proving ground for multi-process deployments (see
    /// [`crate::remote`] for actual cross-process brokers).
    pub transport: TransportKind,
}

impl RtConfig {
    /// A runtime config over `overlay` with `shards` matcher threads per
    /// broker, a generous placement timeout, default supervision, no
    /// fault injection, and all observability (stage profiling, metrics
    /// endpoint) off.
    #[must_use]
    pub fn new(overlay: OverlayConfig, shards: usize) -> Self {
        Self {
            overlay,
            shards,
            placement_timeout: Duration::from_secs(10),
            durable_dir: None,
            stage_sample_every: 0,
            metrics_addr: None,
            supervision: SupervisionConfig::default(),
            fault_plan: None,
            transport: TransportKind::default(),
        }
    }

    fn validate(&self) -> Result<(), RtError> {
        self.overlay.validate()?;
        if self.shards == 0 {
            return Err(RtError::InvalidShards);
        }
        if self.overlay.leases_enabled
            || self.overlay.reliability_enabled
            || self.overlay.flow_control_enabled
        {
            return Err(RtError::UnsupportedFeature(
                "leases, reliability and flow control hold per-link state \
                 that would diverge across matcher shards; run them in the \
                 deterministic simulator (durable subscriptions are the \
                 runtime's loss-protection path: set durability_enabled \
                 and durable_dir)",
            ));
        }
        if let Some(addr) = &self.metrics_addr {
            if addr.parse::<SocketAddr>().is_err() {
                return Err(RtError::Metrics {
                    addr: addr.clone(),
                    reason: "not a valid socket address".to_string(),
                });
            }
        }
        if self.overlay.durability_enabled && self.durable_dir.is_none() {
            return Err(RtError::UnsupportedFeature(
                "durability in the runtime writes real files; set \
                 RtConfig::durable_dir to the log directory",
            ));
        }
        if self.durable_dir.is_some() && !self.overlay.durability_enabled {
            return Err(RtError::UnsupportedFeature(
                "durable_dir is set but overlay.durability_enabled is \
                 false; enable both or neither",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        Ok(())
    }
}

/// How a frame sitting in a shard inbox relates to the restart replay,
/// decided at send time by the router. When the supervisor requeues a
/// crashed shard's backlog into its replacement, data frames and ack
/// broadcasts are always kept, while a control frame is kept only if the
/// rebuilt state machine did *not* already absorb it from the captured
/// control prefix (its capture sequence is `>=` the replayed length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameTag {
    /// A class-routed data frame; counted in the loss/requeue ledgers.
    Data,
    /// A captured control broadcast with its position in the broker's
    /// control log.
    Ctrl(u64),
    /// An `AckUpto` broadcast (or subscriber-bound control): idempotent,
    /// never captured, always requeued, never counted as data loss.
    Ack,
}

/// One channel frame in flight between node threads: one or more
/// complete wire frames, back to back (see the module docs on egress
/// coalescing).
#[derive(Clone)]
pub(crate) struct Frame {
    pub(crate) bytes: Vec<u8>,
    /// Wire messages in `bytes`. The loss and requeue ledgers count
    /// these, so they stay per message however frames are coalesced.
    pub(crate) msgs: u32,
    /// Nanoseconds since runtime start at enqueue time of the frame's
    /// oldest message; `0` when the stage profiler is off (the receiver
    /// then skips the ingress-wait stage rather than misreading an
    /// unstamped frame).
    pub(crate) enqueued_ns: u64,
    pub(crate) tag: FrameTag,
}

/// What a node thread receives: either one channel frame or the
/// shutdown poison pill.
pub(crate) enum RtEvent {
    Frame(Frame),
    Shutdown,
}

enum Route {
    Broker {
        shards: Vec<Sender<RtEvent>>,
        /// On the TCP transport, the destination's link writer: frames
        /// are queued here and the link's reader thread forwards them
        /// into `shards` after a real socket round trip. `None` on the
        /// mpsc transport.
        link: Option<Sender<LinkCmd>>,
    },
    Subscriber {
        tx: Sender<RtEvent>,
        link: Option<Sender<LinkCmd>>,
    },
}

/// A node thread's egress state: the encode dictionary plus one pending
/// batch of data messages per destination slot. Data messages are
/// encoded straight into their batch; [`Router::flush`] sends every
/// non-empty batch as one channel frame.
struct Outbox {
    dict: EncodeDict,
    /// One entry per `(node, slot)` this thread has sent data to, kept
    /// (with its buffer) across flushes. A thread talks to a handful of
    /// destinations, so a linear scan beats hashing.
    batches: Vec<Batch>,
}

struct Batch {
    to: ActorId,
    /// The destination's class shard for a broker, `0` for a subscriber.
    slot: u32,
    bytes: Vec<u8>,
    msgs: u32,
    enqueued_ns: u64,
    /// Whether a stage-sampled message joined the batch: its send is
    /// then timed as [`PipelineStage::EgressSend`].
    sampled: bool,
}

impl Outbox {
    fn new() -> Self {
        Self {
            dict: EncodeDict::new(DictMode::Shared),
            batches: Vec::new(),
        }
    }
}

thread_local! {
    /// The outbox behind [`Router::send_now`], for callers outside node
    /// threads (publishers, setup traffic); flushed on every send, so
    /// only its buffers persist.
    static SEND_NOW: RefCell<Outbox> = RefCell::new(Outbox::new());
}

/// The routing table: node id → channel(s). Subscribers register after
/// broker threads are already running, hence the lock; sends take a read
/// lock, which is uncontended in steady state.
///
/// The router is also the supervisor's re-wiring seam: a crashed shard's
/// sender is swapped under the write lock (park → live replacement, or a
/// dead end once the restart budget is spent), so peers holding the
/// router never see a closed channel — their sends either reach the
/// replacement's backlog or fail soft into the loss ledger.
#[derive(Clone)]
pub(crate) struct Router {
    routes: Arc<RwLock<Vec<Option<Route>>>>,
    /// Node ids below this are brokers; the rest are subscribers.
    brokers: usize,
    /// Matcher shards per broker ([`RtConfig::shards`]).
    shards: usize,
    /// Captured control broadcasts per broker id (framed bytes, in send
    /// order), excluding the high-rate idempotent `AckUpto`. Replayed
    /// mutedly into a rebuilt shard so its filter table and placement
    /// RNG stream converge with the surviving replicas. Growth is
    /// bounded by setup traffic (advertisements + placement walks), not
    /// by data volume.
    ctrl: Arc<Vec<Mutex<Vec<Vec<u8>>>>>,
    pub(crate) epoch: Instant,
    profiler: Arc<StageProfiler>,
    pub(crate) fault: Arc<FaultState>,
    /// Set once teardown begins: send failures stop counting as frame
    /// loss (closed channels are the shutdown protocol, not a fault).
    teardown: Arc<AtomicBool>,
}

impl Router {
    fn new(
        brokers: usize,
        shards: usize,
        epoch: Instant,
        profiler: Arc<StageProfiler>,
        fault: Arc<FaultState>,
    ) -> Self {
        let mut routes = Vec::with_capacity(brokers);
        routes.resize_with(brokers, || None);
        let mut ctrl = Vec::with_capacity(brokers);
        ctrl.resize_with(brokers, || Mutex::new(Vec::new()));
        Self {
            routes: Arc::new(RwLock::new(routes)),
            brokers,
            shards,
            ctrl: Arc::new(ctrl),
            epoch,
            profiler,
            fault,
            teardown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Lock poisoning cannot corrupt the table (writers only swap whole
    /// `Sender` slots), and the supervisor must keep routing around a
    /// panicked peer — so every lock acquisition survives poison.
    fn read_routes(&self) -> RwLockReadGuard<'_, Vec<Option<Route>>> {
        self.routes.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_routes(&self) -> RwLockWriteGuard<'_, Vec<Option<Route>>> {
        self.routes.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn set(&self, id: ActorId, route: Route) {
        let mut routes = self.write_routes();
        if routes.len() <= id.0 {
            routes.resize_with(id.0 + 1, || None);
        }
        routes[id.0] = Some(route);
    }

    /// A send hitting a closed channel: the receiving thread is dead (or
    /// deliberately dead-ended after give-up). Data messages count in
    /// the loss ledger unless the runtime is tearing down.
    fn note_send_failure(&self, stats: &RtStats, tag: FrameTag, msgs: u32) {
        if tag == FrameTag::Data && !self.teardown.load(Ordering::Relaxed) {
            stats.add_frames_dropped(u64::from(msgs));
        }
    }

    pub(crate) fn begin_teardown(&self) {
        self.teardown.store(true, Ordering::Relaxed);
    }

    /// The profiler's enqueue stamp: nanoseconds since runtime start
    /// when the profiler is enabled at all, so the *receiver's* sampler
    /// can measure ingress wait on frames whose send was not sampled.
    fn enqueue_stamp(&self) -> u64 {
        if self.profiler.enabled() {
            nanos_since(self.epoch)
        } else {
            0
        }
    }

    /// Sends `msg` from a node thread. Data messages are encoded into
    /// `out`'s batch for their destination slot — the class shard of a
    /// broker, or the subscriber — and leave at the next [`Router::flush`]
    /// (or as soon as the batch reaches [`COALESCE_BYTES`]). Anything
    /// else flushes the whole outbox first, so every link still sees this
    /// thread's messages in the order they were sent, then goes out on
    /// its own: control frames are broadcast to every shard. Sends to
    /// already-exited nodes fail soft (counted for data, silent for
    /// control/teardown).
    ///
    /// When `sampled`, the encode is timed into the `Encode` pipeline
    /// stage and the send that carries the message into `EgressSend`.
    fn dispatch(
        &self,
        out: &mut Outbox,
        from: ActorId,
        to: ActorId,
        msg: &OverlayMsg,
        stats: &RtStats,
        sampled: bool,
    ) {
        let Some(class) = data_class(msg) else {
            self.flush(out, stats);
            self.send_control(out, from, to, msg, stats, sampled);
            return;
        };
        if self.fault.should_drop(from.0, to.0) {
            // An injected link drop: unlike a panic (whose in-flight
            // frames the supervisor requeues), this message is really
            // gone, so it lands in both ledgers.
            stats.inc_faults_injected();
            stats.inc_frames_dropped();
            return;
        }
        let slot = if to.0 < self.brokers {
            shard_of(class, self.shards) as u32
        } else {
            0
        };
        let i = match out
            .batches
            .iter()
            .position(|b| b.to == to && b.slot == slot)
        {
            Some(i) => i,
            None => {
                out.batches.push(Batch {
                    to,
                    slot,
                    bytes: Vec::new(),
                    msgs: 0,
                    enqueued_ns: 0,
                    sampled: false,
                });
                out.batches.len() - 1
            }
        };
        let batch = &mut out.batches[i];
        if !self.encode(from, msg, &mut out.dict, &mut batch.bytes, stats, sampled) {
            return;
        }
        if batch.msgs == 0 {
            batch.enqueued_ns = self.enqueue_stamp();
        }
        batch.msgs += 1;
        batch.sampled |= sampled;
        if batch.bytes.len() >= COALESCE_BYTES {
            self.send_batch(batch, stats);
        }
    }

    /// Sends one message on the spot — the path for publishers and setup
    /// traffic, which have no inbox drain to batch behind.
    fn send_now(&self, from: ActorId, to: ActorId, msg: &OverlayMsg, stats: &RtStats) {
        SEND_NOW.with(|cell| {
            let out = &mut *cell.borrow_mut();
            self.dispatch(out, from, to, msg, stats, false);
            self.flush(out, stats);
        });
    }

    /// Sends every non-empty batch in `out` as one channel frame.
    fn flush(&self, out: &mut Outbox, stats: &RtStats) {
        for batch in &mut out.batches {
            if batch.msgs > 0 {
                self.send_batch(batch, stats);
            }
        }
    }

    fn send_batch(&self, batch: &mut Batch, stats: &RtStats) {
        let frame = Frame {
            bytes: batch.bytes.as_slice().to_vec(),
            msgs: batch.msgs,
            enqueued_ns: batch.enqueued_ns,
            tag: FrameTag::Data,
        };
        batch.bytes.clear();
        // An outsized message must not pin its buffer for the thread's
        // lifetime.
        batch.bytes.shrink_to(COALESCE_BYTES);
        batch.msgs = 0;
        let timer = std::mem::take(&mut batch.sampled).then(Instant::now);
        self.send_frame(batch.to, batch.slot, frame, stats);
        if let Some(t0) = timer {
            self.profiler
                .record(PipelineStage::EgressSend, elapsed_ns(t0));
        }
    }

    /// Encodes `msg` onto `buf`; a message that cannot fit the frame cap
    /// is accounted and dropped here, never a panic in a node thread.
    fn encode(
        &self,
        from: ActorId,
        msg: &OverlayMsg,
        dict: &mut EncodeDict,
        buf: &mut Vec<u8>,
        stats: &RtStats,
        sampled: bool,
    ) -> bool {
        let timer = sampled.then(Instant::now);
        if wire::encode_msg_into(WireCodec::Binary, from, msg, dict, buf).is_err() {
            stats.inc_encode_errors();
            return false;
        }
        if let Some(t0) = timer {
            self.profiler.record(PipelineStage::Encode, elapsed_ns(t0));
        }
        true
    }

    /// Sends one control message: broadcast to every shard of a broker
    /// (captured for restart replay unless it is an `AckUpto`), or to a
    /// subscriber.
    fn send_control(
        &self,
        out: &mut Outbox,
        from: ActorId,
        to: ActorId,
        msg: &OverlayMsg,
        stats: &RtStats,
        sampled: bool,
    ) {
        let mut bytes = Vec::new();
        if !self.encode(from, msg, &mut out.dict, &mut bytes, stats, sampled) {
            return;
        }
        let (slot, tag) = if to.0 >= self.brokers {
            (0, FrameTag::Ack)
        } else if matches!(msg, OverlayMsg::AckUpto { .. }) {
            (SHARD_BROADCAST, FrameTag::Ack)
        } else {
            let mut log = self.ctrl[to.0]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            log.push(bytes.clone());
            (SHARD_BROADCAST, FrameTag::Ctrl(log.len() as u64 - 1))
        };
        let frame = Frame {
            bytes,
            msgs: 1,
            enqueued_ns: self.enqueue_stamp(),
            tag,
        };
        let timer = sampled.then(Instant::now);
        self.send_frame(to, slot, frame, stats);
        if let Some(t0) = timer {
            self.profiler
                .record(PipelineStage::EgressSend, elapsed_ns(t0));
        }
    }

    /// Hands `frame` to node `to`: to shard `slot` of a broker (every
    /// shard for [`SHARD_BROADCAST`]), or to a subscriber. `frames_sent`
    /// and `bytes_sent` count wire messages, per shard copy;
    /// `channel_sends` counts the hand-offs themselves.
    fn send_frame(&self, to: ActorId, slot: u32, frame: Frame, stats: &RtStats) {
        let routes = self.read_routes();
        let Some(Some(route)) = routes.get(to.0) else {
            return;
        };
        let (msgs, len, tag) = (frame.msgs, frame.bytes.len(), frame.tag);
        let sent = |ok: bool| {
            stats.inc_channel_sends();
            if !ok {
                self.note_send_failure(stats, tag, msgs);
            }
        };
        match route {
            Route::Subscriber { tx, link } => {
                stats.note_frames_sent(msgs, len);
                // Over TCP the subscriber is a one-shard node; the link
                // reader forwards into `tx` on arrival.
                sent(match link {
                    Some(link) => link.send(LinkCmd::Frame { shard: 0, frame }).is_ok(),
                    None => tx.send(RtEvent::Frame(frame)).is_ok(),
                });
            }
            Route::Broker { shards, link } => {
                let copies = if slot == SHARD_BROADCAST {
                    shards.len()
                } else {
                    1
                };
                for _ in 0..copies {
                    stats.note_frames_sent(msgs, len);
                }
                match link {
                    // One socket write carries a broadcast and the link
                    // reader fans it out, but the accounting above stays
                    // per shard copy so both transports report identical
                    // frame counts.
                    Some(link) => sent(link.send(LinkCmd::Frame { shard: slot, frame }).is_ok()),
                    None if slot == SHARD_BROADCAST => {
                        for tx in shards {
                            sent(tx.send(RtEvent::Frame(frame.clone())).is_ok());
                        }
                    }
                    None => sent(shards[slot as usize].send(RtEvent::Frame(frame)).is_ok()),
                }
            }
        }
    }

    /// Delivers one link-arrived frame into node `dest`'s *current* inbox
    /// sender(s) — called by the TCP link reader thread. Looking the
    /// route up per message means supervised shard restarts re-wire the
    /// link exactly as they re-wire in-process senders.
    pub(crate) fn forward_link_frame(
        &self,
        dest: usize,
        shard: u32,
        frame: Frame,
        stats: &RtStats,
    ) {
        let routes = self.read_routes();
        let (tag, msgs) = (frame.tag, frame.msgs);
        let ok = match routes.get(dest) {
            Some(Some(Route::Subscriber { tx, .. })) => tx.send(RtEvent::Frame(frame)).is_ok(),
            Some(Some(Route::Broker { shards, .. })) if shard == SHARD_BROADCAST => {
                for tx in shards {
                    if tx.send(RtEvent::Frame(frame.clone())).is_err() {
                        self.note_send_failure(stats, tag, msgs);
                    }
                }
                true
            }
            Some(Some(Route::Broker { shards, .. })) => shards
                .get(shard as usize)
                .is_none_or(|tx| tx.send(RtEvent::Frame(frame)).is_ok()),
            _ => false,
        };
        if !ok {
            self.note_send_failure(stats, tag, msgs);
        }
    }

    /// Delivers a link-arrived shutdown pill into node `dest`'s inbox
    /// sender(s).
    pub(crate) fn forward_link_shutdown(&self, dest: usize, shard: u32) {
        let routes = self.read_routes();
        match routes.get(dest) {
            Some(Some(Route::Subscriber { tx, .. })) => {
                let _ = tx.send(RtEvent::Shutdown);
            }
            Some(Some(Route::Broker { shards, .. })) => {
                if shard == SHARD_BROADCAST {
                    for tx in shards {
                        let _ = tx.send(RtEvent::Shutdown);
                    }
                } else if let Some(tx) = shards.get(shard as usize) {
                    let _ = tx.send(RtEvent::Shutdown);
                }
            }
            _ => {}
        }
    }

    /// The captured control prefix of broker `b`, for muted replay into
    /// a rebuilt shard.
    pub(crate) fn ctrl_prefix(&self, b: usize) -> Vec<Vec<u8>> {
        self.ctrl[b]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Swaps broker `b` shard `shard`'s inbox sender for a fresh *park*
    /// channel and returns its receiver: frames sent during the restart
    /// window buffer there instead of vanishing into the dead channel.
    /// Dropping the old sender under the write lock also closes the dead
    /// channel, so the crashed thread's receiver drains completely.
    pub(crate) fn park_shard(&self, b: usize, shard: usize) -> Receiver<RtEvent> {
        let (tx, rx) = channel();
        let mut routes = self.write_routes();
        if let Some(Some(Route::Broker { shards, .. })) = routes.get_mut(b) {
            shards[shard] = tx;
        }
        rx
    }

    /// Whether `frame` should be requeued into a rebuilt shard that
    /// already replayed `replayed` captured control broadcasts.
    fn keep_frame(frame: &Frame, replayed: u64) -> bool {
        match frame.tag {
            FrameTag::Data | FrameTag::Ack => true,
            FrameTag::Ctrl(seq) => seq >= replayed,
        }
    }

    /// Installs a fresh live channel for broker `b` shard `shard`,
    /// requeuing the crashed generation's backlog — `stranded` (the dead
    /// inbox's drained frames, in order) then everything parked during
    /// the restart — filtered against the rebuilt state machine's
    /// control replay. Runs under the write lock so no new frame can
    /// overtake the requeued backlog. Returns the new receiver and the
    /// number of data messages requeued.
    pub(crate) fn install_shard(
        &self,
        b: usize,
        shard: usize,
        stranded: Vec<Frame>,
        park_rx: &Receiver<RtEvent>,
        replayed: u64,
    ) -> (Receiver<RtEvent>, u64) {
        let (tx, rx) = channel();
        let mut requeued = 0u64;
        let mut routes = self.write_routes();
        for frame in stranded {
            if Self::keep_frame(&frame, replayed) {
                requeued += data_msgs(&frame);
                let _ = tx.send(RtEvent::Frame(frame));
            }
        }
        while let Ok(ev) = park_rx.try_recv() {
            match ev {
                RtEvent::Frame(frame) => {
                    if Self::keep_frame(&frame, replayed) {
                        requeued += data_msgs(&frame);
                        let _ = tx.send(RtEvent::Frame(frame));
                    }
                }
                // A poison pill racing the restart still shuts the
                // replacement down.
                RtEvent::Shutdown => {
                    let _ = tx.send(RtEvent::Shutdown);
                }
            }
        }
        if let Some(Some(Route::Broker { shards, .. })) = routes.get_mut(b) {
            shards[shard] = tx;
        }
        drop(routes);
        (rx, requeued)
    }

    /// Routes broker `b` shard `shard` to a dead end (a sender whose
    /// receiver is already dropped): the restart budget is spent, and
    /// from now on every data frame sent to this shard fails soft into
    /// the loss ledger. Counts and discards the backlog (`stranded` plus
    /// whatever `extra` still holds); returns the number of data messages
    /// lost.
    pub(crate) fn fail_shard(
        &self,
        b: usize,
        shard: usize,
        stranded: Vec<Frame>,
        extra: &Receiver<RtEvent>,
    ) -> u64 {
        let (tx, _dead_rx) = channel();
        {
            let mut routes = self.write_routes();
            if let Some(Some(Route::Broker { shards, .. })) = routes.get_mut(b) {
                shards[shard] = tx;
            }
        }
        let mut lost: u64 = stranded.iter().map(data_msgs).sum();
        while let Ok(ev) = extra.try_recv() {
            if let RtEvent::Frame(frame) = ev {
                lost += data_msgs(&frame);
            }
        }
        lost
    }

    /// Salvages a late-exiting zombie's trapped backlog into whatever
    /// route is *currently* live for broker `b` shard `shard` (a fenced
    /// thread waking after its replacement already took over, or frames
    /// from a stale generation). Returns `(data messages requeued, data
    /// messages lost)`.
    pub(crate) fn requeue_stranded(
        &self,
        b: usize,
        shard: usize,
        current: Option<Frame>,
        rx: &Receiver<RtEvent>,
        replayed: u64,
    ) -> (u64, u64) {
        let routes = self.read_routes();
        let tx = match routes.get(b) {
            Some(Some(Route::Broker { shards, .. })) => shards.get(shard).cloned(),
            _ => None,
        };
        drop(routes);
        let mut requeued = 0u64;
        let mut lost = 0u64;
        let mut feed = |frame: Frame| {
            if !Self::keep_frame(&frame, replayed) {
                return;
            }
            let data = data_msgs(&frame);
            let delivered = tx
                .as_ref()
                .is_some_and(|tx| tx.send(RtEvent::Frame(frame)).is_ok());
            if delivered {
                requeued += data;
            } else {
                lost += data;
            }
        };
        if let Some(frame) = current {
            feed(frame);
        }
        while let Ok(ev) = rx.try_recv() {
            if let RtEvent::Frame(frame) = ev {
                feed(frame);
            }
        }
        (requeued, lost)
    }
}

/// The data messages `frame` carries — what the loss and requeue
/// ledgers count.
fn data_msgs(frame: &Frame) -> u64 {
    if frame.tag == FrameTag::Data {
        u64::from(frame.msgs)
    } else {
        0
    }
}

/// Nanoseconds elapsed since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The event class a data frame is keyed on, `None` for control.
///
/// `AckUpto` deliberately stays control: broadcasting acks keeps every
/// replica's consumer-offset table identical, and on shards that do not
/// own the class the ack is a no-op against an empty class history.
fn data_class(msg: &OverlayMsg) -> Option<u32> {
    match msg {
        OverlayMsg::Publish(env) | OverlayMsg::Deliver(env) => Some(env.class().0),
        OverlayMsg::Sequenced { env, .. } => Some(env.class().0),
        OverlayMsg::Durable { env, .. } => Some(env.class().0),
        _ => None,
    }
}

/// Maps an event class to a matcher shard. Fibonacci hashing spreads the
/// small dense class-id space evenly even when `shards` is a power of 2.
fn shard_of(class: u32, shards: usize) -> usize {
    let h = u64::from(class).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// The [`NodeCtx`] a node thread hands to its state machine: wall-clock
/// time in microseconds since runtime start, sends through the router,
/// timers into the thread-local deadline heap.
struct RtCtx<'a> {
    me: ActorId,
    epoch: Instant,
    router: &'a Router,
    stats: &'a RtStats,
    timers: &'a mut BinaryHeap<Reverse<(u64, u64)>>,
    /// The node thread's outbox: data sends coalesce here until the
    /// thread flushes it.
    outbox: &'a mut Outbox,
    /// Leader shards (and every subscriber) emit control traffic and arm
    /// timers; follower shards mutate state silently.
    speaks: bool,
    /// `(shard index, shard count)` for broker threads, `None` for
    /// subscribers. Durable stream-open frames (`DurableBase`) are
    /// emitted by the shard that owns the class's log slice rather than
    /// the leader: only the owner knows the stream's real resume offset —
    /// the leader's replica of a class it does not own has an empty
    /// history and would open every stream at offset 0.
    shard: Option<(usize, usize)>,
    /// The runtime's stage profiler; consulted by the trace/profiling
    /// default-method overrides below.
    profiler: &'a StageProfiler,
    /// Whether the frame currently being processed was picked by the
    /// stage sampler.
    sampled: bool,
    /// Wall-clock nanoseconds this handler spent inside nested
    /// `dispatch` calls (encode, plus any send a control message or a
    /// full batch forced). Subtracted from the
    /// handler's total so the `Match` stage reports pure state-machine
    /// time rather than re-counting downstream wire costs.
    nested_ns: u64,
}

impl NodeCtx for RtCtx<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(micros_since(self.epoch))
    }

    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        if let (OverlayMsg::DurableBase { class, .. }, Some((shard, count))) = (&msg, self.shard) {
            // Class-owner shards open durable streams, leaders don't
            // (see the `shard` field) — exactly one replica speaks.
            if shard_of(class.0, count) != shard {
                self.stats.inc_suppressed_control();
                return;
            }
        } else if !msg.is_data() && !self.speaks {
            self.stats.inc_suppressed_control();
            return;
        }
        let timer = self.sampled.then(Instant::now);
        self.router
            .dispatch(self.outbox, self.me, to, &msg, self.stats, self.sampled);
        if let Some(t0) = timer {
            self.nested_ns = self.nested_ns.saturating_add(elapsed_ns(t0));
        }
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        if !self.speaks {
            return;
        }
        let deadline = micros_since(self.epoch) + delay.ticks();
        self.timers.push(Reverse((deadline, tag)));
    }

    /// Wall-clock trace stamps in nanoseconds since runtime start — the
    /// resolution hop latencies need to resolve sub-microsecond pipeline
    /// costs ([`NodeCtx::now`] only ticks in microseconds).
    fn trace_now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    fn shard(&self) -> u32 {
        self.shard.map_or(0, |(s, _)| s as u32)
    }

    fn stage_sampled(&self) -> bool {
        self.sampled
    }

    fn record_stage(&self, stage: PipelineStage, ns: u64) {
        self.profiler.record(stage, ns);
    }
}

/// The muted [`NodeCtx`] used while replaying a rebuilt shard's captured
/// control prefix: the surviving replicas already delivered every
/// side-effect of these messages (walk replies, placement acks, timer
/// arms), so the replay must mutate state *silently* — re-sending would
/// duplicate control traffic the overlay has no dedup for.
struct MutedCtx {
    me: ActorId,
    epoch: Instant,
}

impl NodeCtx for MutedCtx {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(micros_since(self.epoch))
    }

    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, _to: ActorId, _msg: OverlayMsg) {}

    fn set_timer(&mut self, _delay: SimDuration, _tag: u64) {}
}

pub(crate) fn micros_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds an [`RtSnapshot`] from the live metric sources. Stage entries
/// are emitted for every pipeline stage, in pipeline order, whether or
/// not they have samples — a stable shape is worth more than a few empty
/// histograms.
fn snapshot_from(
    stats: &RtStats,
    profiler: &StageProfiler,
    trace: Option<&TraceSink>,
    uptime_us: u64,
) -> RtSnapshot {
    RtSnapshot {
        uptime_us,
        published: stats.published(),
        delivered: stats.delivered(),
        frames_sent: stats.frames_sent(),
        bytes_sent: stats.bytes_sent(),
        channel_sends: stats.channel_sends(),
        frames_received: stats.frames_received(),
        suppressed_control: stats.suppressed_control(),
        decode_errors: stats.decode_errors(),
        encode_errors: stats.encode_errors(),
        timers_fired: stats.timers_fired(),
        panics: stats.panics(),
        restarts: stats.restarts(),
        stalls: stats.stalls(),
        gave_up: stats.gave_up(),
        frames_dropped: stats.frames_dropped(),
        frames_requeued: stats.frames_requeued(),
        faults_injected: stats.faults_injected(),
        traced: trace.map_or(0, TraceSink::traced_count),
        filter_table_entries: stats.filter_table_entries(),
        agg_covered_subs: stats.agg_covered_subs(),
        latency_ns: stats.latency_histogram(),
        queue_wait_ns: stats.queue_wait_histogram(),
        restart_ns: stats.restart_histogram(),
        stages: PipelineStage::ALL
            .iter()
            .map(|&s| HistogramSample {
                name: s.metric_name().to_string(),
                hist: profiler.stage_histogram(s),
            })
            .collect(),
    }
}

/// A cloneable publisher edge. Each clone is meant to be driven by its
/// own thread; publishing stamps the envelope with a wall-clock trace
/// context (nanoseconds since runtime start) and injects it at the root
/// with external provenance, paying the same wire cost as any hop.
///
/// Without a trace sink every event is stamped (the stamp only feeds the
/// latency histogram). With trace sampling on, the sink decides which
/// events carry a context — those accumulate full per-hop provenance in
/// the sink, and only they feed the latency histogram.
#[derive(Clone)]
pub struct Publisher {
    root: ActorId,
    epoch: Instant,
    router: Router,
    stats: Arc<RtStats>,
    trace: Option<Arc<TraceSink>>,
}

impl Publisher {
    /// Publishes one event at the root.
    pub fn publish(&self, mut env: Envelope) {
        let now = nanos_since(self.epoch);
        match &self.trace {
            Some(sink) => env.set_trace(sink.begin_trace(
                env.class_name(),
                env.seq().0,
                SimTime::from_ticks(now),
            )),
            None => env.set_trace(Some(TraceContext::new(TraceId(env.seq().0), now))),
        }
        self.stats.inc_published();
        self.router
            .send_now(EXTERNAL, self.root, &OverlayMsg::Publish(env), &self.stats);
    }
}

/// Handle to a subscriber thread, returned by
/// [`Runtime::add_subscriber_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtSubscriberHandle {
    id: ActorId,
    index: usize,
}

impl RtSubscriberHandle {
    /// The subscriber's overlay node id — the value an
    /// [`RtFaultPlan`] targets to inject faults into this subscriber's
    /// thread (with shard `0`).
    #[must_use]
    pub fn node(&self) -> ActorId {
        self.id
    }
}

/// Final state returned by [`Runtime::shutdown`].
pub struct RtReport {
    /// The runtime's counters and latency distribution.
    pub stats: Arc<RtStats>,
    /// Each subscriber's final node state (deliveries, inbox, labels),
    /// in the order the subscribers were added. A subscriber whose
    /// thread panicked is represented by an empty rebuilt node (its
    /// volatile state died with the thread) and a [`RtReport::crashes`]
    /// entry.
    pub subscribers: Vec<SubscriberNode>,
    /// Each broker shard's final state, keyed by `(broker id, shard)`.
    /// Shards that died unrecovered are absent here and present in
    /// [`RtReport::crashes`].
    pub brokers: Vec<((ActorId, usize), Broker)>,
    /// The wall-clock trace sink with every sampled event's per-hop
    /// provenance; `None` when `overlay.trace_sample_every` was 0.
    pub trace: Option<Arc<TraceSink>>,
    /// Every crash the supervision layer observed: recovered shard
    /// restarts first (in completion order), then unrecovered exits
    /// found at teardown.
    pub crashes: Vec<CrashEntry>,
}

impl RtReport {
    /// The delivered event sequences of the subscriber behind `handle`.
    #[must_use]
    pub fn deliveries(&self, handle: RtSubscriberHandle) -> &[layercake_event::EventSeq] {
        self.subscribers[handle.index].deliveries()
    }

    /// Durable-log counters summed across every broker shard; quiet when
    /// the runtime ran without durability.
    #[must_use]
    pub fn durability(&self) -> DurabilityStats {
        let mut total = DurabilityStats::default();
        for (_, broker) in &self.brokers {
            if let Some(stats) = broker.durability() {
                total.absorb(stats);
            }
        }
        total
    }

    /// The first crash the supervision layer could *not* recover from
    /// (an unrestarted node panic, a spent restart budget), if any.
    /// Recovered restarts are normal operation and do not count.
    #[must_use]
    pub fn failure(&self) -> Option<&CrashEntry> {
        self.crashes.iter().find(|c| !c.recovered)
    }

    /// Converts the report into a `Result`, turning the first
    /// unrecovered crash into [`RtError::NodePanic`] — for callers that
    /// treated the old panicking `shutdown()` as their failure signal.
    ///
    /// # Errors
    ///
    /// [`RtError::NodePanic`] when any node exited unrecovered.
    pub fn into_result(self) -> Result<Self, RtError> {
        match self.failure() {
            Some(c) => Err(RtError::NodePanic(format!(
                "node {} shard {} ({:?}): {}",
                c.node.0, c.shard, c.kind, c.detail
            ))),
            None => Ok(self),
        }
    }
}

/// Everything needed to rebuild a subscriber's node shell if its thread
/// panics: the report must keep one entry per subscriber index.
struct SubscriberThread {
    id: ActorId,
    label: String,
    branches: Vec<(FilterId, Filter)>,
    durable: bool,
    handle: JoinHandle<SubOutcome>,
}

/// A running wall-clock overlay: broker shard threads wired per the
/// shared topology, ready to accept advertisements, subscribers and
/// published events.
pub struct Runtime {
    cfg: RtConfig,
    registry: Arc<TypeRegistry>,
    epoch: Instant,
    router: Router,
    stats: Arc<RtStats>,
    root: ActorId,
    broker_count: usize,
    /// Per-shard supervision bookkeeping, shared with the supervisor.
    slots: Slots,
    crashes: Arc<Mutex<Vec<CrashEntry>>>,
    supervisor: Option<Supervisor>,
    notice_tx: Sender<Notice>,
    subscriber_threads: Vec<SubscriberThread>,
    /// Live TCP links (one per node) when `cfg.transport` is
    /// [`TransportKind::Tcp`]; empty on the mpsc transport. Closed and
    /// joined at teardown after every node thread has drained.
    links: Vec<Link>,
    next_filter: u64,
    trace: Option<Arc<TraceSink>>,
    profiler: Arc<StageProfiler>,
    metrics: Option<MetricsServer>,
}

impl Runtime {
    /// Builds the broker hierarchy from the shared topology and spawns
    /// `shards` matcher threads per broker, plus the supervisor thread
    /// (unless `cfg.supervision.enabled` is off).
    ///
    /// # Errors
    ///
    /// [`RtError::Overlay`] for invalid overlay configs,
    /// [`RtError::InvalidShards`] / [`RtError::UnsupportedFeature`] for
    /// runtime-specific constraint violations (see [`RtConfig`]),
    /// [`RtError::Thread`] if the OS refuses a thread spawn.
    pub fn start(cfg: RtConfig, registry: Arc<TypeRegistry>) -> Result<Self, RtError> {
        cfg.validate()?;
        let epoch = Instant::now();
        let stats = Arc::new(RtStats::new());
        // The profiler registers its stage histograms in the stats
        // registry, so one snapshot (and the Prometheus endpoint) covers
        // counters, latency and stages alike.
        let profiler = Arc::new(StageProfiler::new(stats.registry(), cfg.stage_sample_every));
        let fault = Arc::new(FaultState::new(cfg.fault_plan.clone()));
        // One shared sink across every shard replica: data frames reach
        // exactly one shard, so each sampled event's hops land once, in
        // causal order per hop chain — same invariant as the simulator.
        let trace = (cfg.overlay.trace_sample_every > 0)
            .then(|| Arc::new(TraceSink::new(cfg.overlay.trace_sample_every)));
        let metrics = match &cfg.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, Arc::clone(stats.registry()))?),
            None => None,
        };

        // One full replica of the hierarchy per shard; replica s of every
        // broker handles the same class slice end to end.
        let mut replicas: Vec<Vec<TopologyNode>> = (0..cfg.shards)
            .map(|_| topology::build_brokers(&cfg.overlay, &registry, trace.as_ref()))
            .collect::<Result<_, _>>()?;
        let broker_count = replicas[0].len();
        let root = replicas[0]
            .last()
            .expect("validated topology has a root")
            .id;

        let router = Router::new(
            broker_count,
            cfg.shards,
            epoch,
            Arc::clone(&profiler),
            fault,
        );
        let mut links: Vec<Link> = Vec::new();
        let mut inboxes: Vec<Vec<Receiver<RtEvent>>> = Vec::with_capacity(broker_count);
        for b in 0..broker_count {
            let mut txs = Vec::with_capacity(cfg.shards);
            let mut rxs = Vec::with_capacity(cfg.shards);
            for _ in 0..cfg.shards {
                let (tx, rx) = channel();
                txs.push(tx);
                rxs.push(rx);
            }
            let link = match cfg.transport {
                TransportKind::Mpsc => None,
                TransportKind::Tcp => {
                    let link = transport::spawn_link(b, router.clone(), Arc::clone(&stats))
                        .map_err(RtError::Thread)?;
                    let tx = link.tx.clone();
                    links.push(link);
                    Some(tx)
                }
            };
            router.set(ActorId(b), Route::Broker { shards: txs, link });
            inboxes.push(rxs);
        }

        let (notice_tx, notice_rx) = channel();
        let slots: Slots = Arc::new(Mutex::new(HashMap::new()));
        let crashes: Arc<Mutex<Vec<CrashEntry>>> = Arc::new(Mutex::new(Vec::new()));
        // Consume replicas back to front so each broker's receiver list
        // (also popped from the back) pairs with the right shard index.
        for shard in (0..cfg.shards).rev() {
            let replica = replicas.pop().expect("one replica per shard");
            for node in replica {
                let b = node.id.0;
                let rx = inboxes[b].pop().expect("one receiver per shard");
                let stage = node.stage;
                let mut broker = node.broker;
                if let Some(dir) = &cfg.durable_dir {
                    // Each shard owns a disjoint class slice, so shard
                    // logs never overlap; recovery happens inside
                    // `DurableLog::open` (torn-tail truncation, offset
                    // table reload) before the thread takes traffic.
                    let storage =
                        FileStorage::open(dir.join(format!("b{b}")).join(format!("s{shard}")))?;
                    broker.enable_durability(
                        Box::new(storage),
                        LogConfig {
                            segment_bytes: cfg.overlay.wal_segment_bytes,
                            flush_every: cfg.overlay.wal_flush_every,
                        },
                    );
                }
                broker.set_stage_profiler(Arc::clone(&profiler));
                let fence = Arc::new(AtomicBool::new(false));
                let heartbeat = stats
                    .registry()
                    .gauge(&format!("rt.heartbeat_us.b{b}s{shard}"));
                heartbeat.set_max(heartbeat_now(epoch));
                let env = ShardEnv {
                    b,
                    shard,
                    count: cfg.shards,
                    generation: 0,
                    speaks: shard == 0,
                    epoch,
                    router: router.clone(),
                    stats: Arc::clone(&stats),
                    profiler: Arc::clone(&profiler),
                    fence: Arc::clone(&fence),
                    heartbeat: Arc::clone(&heartbeat),
                    notices: notice_tx.clone(),
                };
                let handle = spawn_shard(env, broker, rx).map_err(RtError::Thread)?;
                slots.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    (b, shard),
                    ShardSlot {
                        stage,
                        generation: 0,
                        restarts: 0,
                        replayed: 0,
                        fence,
                        heartbeat,
                        handle: Some(handle),
                        failed: false,
                        restarting: false,
                    },
                );
            }
        }

        let supervisor = if cfg.supervision.enabled {
            let shared = SupervisorShared {
                cfg: cfg.clone(),
                registry: Arc::clone(&registry),
                trace: trace.clone(),
                router: router.clone(),
                stats: Arc::clone(&stats),
                profiler: Arc::clone(&profiler),
                slots: Arc::clone(&slots),
                crashes: Arc::clone(&crashes),
                notice_tx: notice_tx.clone(),
            };
            Some(Supervisor::start(shared, notice_rx).map_err(RtError::Thread)?)
        } else {
            // Without a supervisor the notice receiver is dropped and
            // exit notices fail soft; crashes still surface at teardown.
            None
        };

        Ok(Self {
            cfg,
            registry,
            epoch,
            router,
            stats,
            root,
            broker_count,
            slots,
            crashes,
            supervisor,
            notice_tx,
            subscriber_threads: Vec::new(),
            links,
            next_filter: 0,
            trace,
            profiler,
            metrics,
        })
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<RtStats> {
        &self.stats
    }

    /// The crashes the supervision layer has recorded so far (restart
    /// completions and give-ups), for mid-run inspection; the full list
    /// including teardown-time findings is in [`RtReport::crashes`].
    #[must_use]
    pub fn crashes(&self) -> Vec<CrashEntry> {
        self.crashes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The wall-clock trace sink, when `overlay.trace_sample_every` is
    /// non-zero. Sampled events accumulate per-hop provenance here while
    /// the runtime runs; [`layercake_trace::TraceSink::to_jsonl`]
    /// exports it in the same schema as the simulator's traces.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The address the Prometheus endpoint actually bound, when
    /// [`RtConfig::metrics_addr`] was set (resolves port 0 to the
    /// OS-assigned ephemeral port).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// The stage profiler driving per-frame pipeline sampling; exposed
    /// so callers can retune [`RtConfig::stage_sample_every`] live.
    #[must_use]
    pub fn stage_profiler(&self) -> &Arc<StageProfiler> {
        &self.profiler
    }

    /// A merged point-in-time view of every runtime metric: counters,
    /// end-to-end latency, and per-stage pipeline histograms. The same
    /// data serializes to stable JSON (`serde`) and renders as aligned
    /// tables (`Display`).
    #[must_use]
    pub fn snapshot(&self) -> RtSnapshot {
        snapshot_from(
            &self.stats,
            &self.profiler,
            self.trace.as_deref(),
            micros_since(self.epoch),
        )
    }

    /// The root broker's node id.
    #[must_use]
    pub fn root(&self) -> ActorId {
        self.root
    }

    /// Floods an event-class advertisement from the root, mirroring
    /// [`layercake_overlay::OverlaySim::advertise`].
    ///
    /// # Panics
    ///
    /// Panics if the advertised class is unregistered or the stage map
    /// does not fit its schema (same contract as the simulator).
    pub fn advertise(&self, adv: Advertisement) {
        let class = self
            .registry
            .class(adv.class)
            .unwrap_or_else(|| panic!("advertised {} is not registered", adv.class));
        adv.stage_map
            .check_arity(class.arity())
            .expect("stage map fits the class schema");
        self.router.send_now(
            EXTERNAL,
            self.root,
            &OverlayMsg::Advertise(adv),
            &self.stats,
        );
        // Advertisements flood through leader control; give followers the
        // same broadcast before subscriptions race in.
        self.quiesce(Duration::from_millis(50));
    }

    /// Adds a subscriber with a single declarative filter, blocking until
    /// its placement walk completes.
    ///
    /// # Errors
    ///
    /// Standardization errors as in the simulator, or
    /// [`RtError::PlacementTimeout`] if the walk does not finish within
    /// the configured timeout.
    pub fn add_subscriber(&mut self, filter: Filter) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], false, None)
    }

    /// Adds a subscriber whose accepted deliveries are *also* forwarded,
    /// in acceptance order, into `tap` — the bridge the remote-access
    /// layer ([`crate::remote`]) uses to stream matched events out to
    /// another process. Delivery accounting (exactly-once dedup, latency
    /// histogram) is unchanged; the tap sees each accepted envelope once.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_subscriber_tapped(
        &mut self,
        filter: Filter,
        tap: Sender<Envelope>,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], false, Some(tap))
    }

    /// Adds a *durable* subscriber: the hosting broker appends the
    /// subscription's class history to its on-disk log and replays
    /// everything past the subscriber's acknowledged offset when the
    /// same subscriber id re-subscribes — including across a runtime
    /// restarted over the same [`RtConfig::durable_dir`], and across a
    /// supervised in-place shard restart.
    ///
    /// Requires `overlay.durability_enabled` (otherwise the subscription
    /// silently degrades to the volatile path, exactly as in the
    /// simulator).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_durable_subscriber(
        &mut self,
        filter: Filter,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], true, None)
    }

    /// Adds a subscriber with a disjunctive subscription, spawns its
    /// thread, sends the placement requests and blocks until every branch
    /// is hosted. Sequential placement is what keeps follower shards
    /// convergent with their leader (see the module docs).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_subscriber_any(
        &mut self,
        filters: Vec<Filter>,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(filters, false, None)
    }

    fn add_subscriber_inner(
        &mut self,
        filters: Vec<Filter>,
        durable: bool,
        tap: Option<Sender<Envelope>>,
    ) -> Result<RtSubscriberHandle, RtError> {
        let branches = topology::standardize_branches(&self.registry, filters, self.next_filter)
            .map_err(RtError::Filter)?;
        self.next_filter += branches.len() as u64;
        let index = self.subscriber_threads.len();
        let id = ActorId(self.broker_count + index);
        let label = format!("sub-{index:04}");
        let mut node = topology::build_subscriber(
            &self.cfg.overlay,
            &self.registry,
            self.root,
            label.clone(),
            branches.clone(),
            None,
            self.trace.as_ref(),
            durable,
        );
        node.set_store_envelopes(true);

        let (tx, rx) = channel();
        let link = match self.cfg.transport {
            TransportKind::Mpsc => None,
            TransportKind::Tcp => {
                let link =
                    transport::spawn_link(id.0, self.router.clone(), Arc::clone(&self.stats))
                        .map_err(RtError::Thread)?;
                let link_tx = link.tx.clone();
                self.links.push(link);
                Some(link_tx)
            }
        };
        self.router.set(id, Route::Subscriber { tx, link });
        let placed = Arc::new(AtomicBool::new(false));
        let heartbeat = self
            .stats
            .registry()
            .gauge(&format!("rt.heartbeat_us.sub{index}"));
        heartbeat.set_max(heartbeat_now(self.epoch));
        let env = SubEnv {
            index,
            id,
            epoch: self.epoch,
            router: self.router.clone(),
            stats: Arc::clone(&self.stats),
            profiler: Arc::clone(&self.profiler),
            placed: Arc::clone(&placed),
            heartbeat,
            notices: self.notice_tx.clone(),
            tap,
        };
        let handle = spawn_subscriber(env, node, rx).map_err(RtError::Thread)?;
        self.subscriber_threads.push(SubscriberThread {
            id,
            label,
            branches: branches.clone(),
            durable,
            handle,
        });

        // The subscriber itself initiates the walk, with external
        // provenance for the initial requests — as in the simulator.
        for (fid, filter) in branches {
            self.router.send_now(
                EXTERNAL,
                self.root,
                &OverlayMsg::Subscribe(layercake_overlay::SubscriptionReq {
                    id: fid,
                    filter,
                    subscriber: id,
                    durable,
                }),
                &self.stats,
            );
        }

        let deadline = Instant::now() + self.cfg.placement_timeout;
        while !placed.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                return Err(RtError::PlacementTimeout);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(RtSubscriberHandle { id, index })
    }

    /// A cloneable publisher edge for driving load from caller threads.
    #[must_use]
    pub fn publisher(&self) -> Publisher {
        Publisher {
            root: self.root,
            epoch: self.epoch,
            router: self.router.clone(),
            stats: Arc::clone(&self.stats),
            trace: self.trace.clone(),
        }
    }

    /// Blocks until `expected` events have been delivered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_delivered(&self, expected: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.stats.delivered() < expected {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Sleeps briefly to let in-flight control traffic settle. Crude but
    /// honest: the runtime has no global quiescence detector (that's the
    /// simulator's job).
    fn quiesce(&self, pause: Duration) {
        std::thread::sleep(pause);
    }

    /// Stops the runtime: stops the supervisor (force-completing any
    /// pending restart), poisons and joins broker stages from the root
    /// down (each thread drains its inbox before exiting), then the
    /// subscribers, and returns the final node states plus stats. Each
    /// broker's durable log gets a final flush, so every appended record
    /// and acknowledged offset is on disk when this returns.
    ///
    /// Node threads that panicked do **not** panic this call: they
    /// surface as [`RtReport::crashes`] entries (see
    /// [`RtReport::failure`] / [`RtReport::into_result`]).
    ///
    /// Callers must stop publishing first; frames injected during
    /// shutdown may be dropped with the closed channels.
    #[must_use]
    pub fn shutdown(self) -> RtReport {
        self.teardown(true)
    }

    /// Tears the runtime down like [`Runtime::shutdown`] but *without*
    /// the final durable-log flush — a crash stand-in for recovery
    /// tests. Acknowledged offsets still sitting in the batched offset
    /// table are abandoned, so a runtime restarted over the same
    /// [`RtConfig::durable_dir`] replays a suffix the subscribers had
    /// already seen (the bounded re-delivery the `(class, seq)` dedup
    /// absorbs). Record bytes already handed to the OS survive either
    /// way: in-process, only a power failure can lose written-but-
    /// unsynced file data.
    ///
    /// Like [`Runtime::shutdown`], never panics on crashed node threads.
    #[must_use]
    pub fn kill(self) -> RtReport {
        self.teardown(false)
    }

    fn teardown(mut self, flush_wals: bool) -> RtReport {
        // Stop scraping before the metrics become a half-drained mix of
        // live and joined threads.
        drop(self.metrics.take());
        // Closed channels are expected from here on — stop counting
        // them as loss.
        self.router.begin_teardown();
        // Stop injecting faults before stopping the supervisor: a storm
        // re-arms every generation, and a panic taken once the
        // supervisor is gone would surface as an unrecovered crash the
        // scenario never asked for.
        self.router.fault.disarm();
        // Stop the supervisor first: it force-completes pending restarts
        // (skipping the remaining backoff) so every shard is either live
        // or permanently dead-ended before the poison sweep starts.
        if let Some(mut sup) = self.supervisor.take() {
            sup.stop_and_join();
        }

        let mut entries: Vec<((usize, usize), ShardSlot)> = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.drain().collect()
        };
        // Top-down: the root's stage is the highest; deterministic order
        // within a stage.
        entries.sort_by_key(|e| (Reverse(e.1.stage), e.0));

        let mut crashes =
            std::mem::take(&mut *self.crashes.lock().unwrap_or_else(PoisonError::into_inner));
        let mut brokers = Vec::with_capacity(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let stage = entries[i].1.stage;
            let mut j = i;
            while j < entries.len() && entries[j].1.stage == stage {
                j += 1;
            }
            for e in &entries[i..j] {
                self.poison(ActorId(e.0 .0), e.0 .1);
            }
            for e in &mut entries[i..j] {
                let ((b, shard), slot) = e;
                let Some(handle) = slot.handle.take() else {
                    // Dead-ended after a spent restart budget; its crash
                    // entry was recorded when the supervisor gave up.
                    continue;
                };
                match handle.join() {
                    Ok(ShardOutcome::Clean(broker)) => {
                        brokers.push(((ActorId(*b), *shard), *broker));
                    }
                    Ok(ShardOutcome::Panicked(detail)) => {
                        // A panic after the supervisor stopped: the exit
                        // notice had nobody to process it.
                        crashes.push(CrashEntry {
                            node: ActorId(*b),
                            shard: *shard,
                            kind: CrashKind::Panic,
                            detail,
                            restarts: slot.restarts,
                            recovered: false,
                        });
                    }
                    // A fenced zombie this generation never replaced
                    // (cannot normally happen — fencing always installs
                    // a successor handle); nothing to report.
                    Ok(ShardOutcome::Fenced) => {}
                    Err(payload) => {
                        crashes.push(CrashEntry {
                            node: ActorId(*b),
                            shard: *shard,
                            kind: CrashKind::Panic,
                            detail: panic_message(payload.as_ref()),
                            restarts: slot.restarts,
                            recovered: false,
                        });
                    }
                }
            }
            i = j;
        }

        let subs = std::mem::take(&mut self.subscriber_threads);
        for t in &subs {
            self.poison(t.id, 0);
        }
        let mut subscribers = Vec::with_capacity(subs.len());
        for t in subs {
            let outcome = t.handle.join();
            match outcome {
                Ok(SubOutcome::Clean(node)) => subscribers.push(*node),
                Ok(SubOutcome::Panicked(detail)) => {
                    // The supervisor usually recorded this from the exit
                    // notice already; don't double-count.
                    if !crashes.iter().any(|c| c.node == t.id) {
                        crashes.push(CrashEntry {
                            node: t.id,
                            shard: 0,
                            kind: CrashKind::Panic,
                            detail,
                            restarts: 0,
                            recovered: false,
                        });
                    }
                    subscribers
                        .push(self.rebuild_subscriber_shell(&t.label, t.branches, t.durable));
                }
                Err(payload) => {
                    if !crashes.iter().any(|c| c.node == t.id) {
                        crashes.push(CrashEntry {
                            node: t.id,
                            shard: 0,
                            kind: CrashKind::Panic,
                            detail: panic_message(payload.as_ref()),
                            restarts: 0,
                            recovered: false,
                        });
                    }
                    subscribers
                        .push(self.rebuild_subscriber_shell(&t.label, t.branches, t.durable));
                }
            }
        }

        // Every node thread has drained and joined; nothing useful can
        // still be in flight on a link socket.
        for link in std::mem::take(&mut self.links) {
            link.close();
        }

        if flush_wals {
            // Subscribers batch acknowledgements (`ACK_EVERY` plus a
            // flush timer); at a graceful shutdown the tail of a batch
            // is usually still unsent, and the wires are already down.
            // Apply each subscriber's final contiguous cursor directly —
            // to every shard of the host broker, mirroring the broadcast
            // ack routing — then flush, so a restart over the same
            // directory owes these streams nothing.
            for (i, node) in subscribers.iter().enumerate() {
                let me = ActorId(self.broker_count + i);
                for (host, class, cursor) in node.durable_cursors() {
                    for (_, broker) in brokers.iter_mut().filter(|((id, _), _)| *id == host) {
                        broker.apply_final_ack(me, class, cursor);
                    }
                }
            }
            for (_, broker) in brokers.iter_mut() {
                broker.flush_wal();
            }
        }

        RtReport {
            stats: self.stats,
            subscribers,
            brokers,
            trace: self.trace,
            crashes,
        }
    }

    /// An empty stand-in node for a subscriber whose thread panicked:
    /// keeps [`RtReport::subscribers`] aligned with subscriber indices
    /// (its deliveries read empty; the crash entry carries the story).
    fn rebuild_subscriber_shell(
        &self,
        label: &str,
        branches: Vec<(FilterId, Filter)>,
        durable: bool,
    ) -> SubscriberNode {
        let mut node = topology::build_subscriber(
            &self.cfg.overlay,
            &self.registry,
            self.root,
            label.to_string(),
            branches,
            None,
            self.trace.as_ref(),
            durable,
        );
        node.set_store_envelopes(true);
        node
    }

    /// Sends the shutdown poison pill to one node shard. On the TCP
    /// transport the pill rides the link's FIFO behind every frame
    /// already queued there, preserving the drain-before-exit teardown
    /// invariant the mpsc channels give for free.
    fn poison(&self, id: ActorId, shard: usize) {
        let routes = self.router.read_routes();
        match routes.get(id.0) {
            Some(Some(Route::Broker { shards, link })) => match link {
                Some(link) => {
                    let _ = link.send(LinkCmd::Shutdown {
                        shard: shard as u32,
                    });
                }
                None => {
                    let _ = shards[shard].send(RtEvent::Shutdown);
                }
            },
            Some(Some(Route::Subscriber { tx, link })) => match link {
                Some(link) => {
                    let _ = link.send(LinkCmd::Shutdown { shard: 0 });
                }
                None => {
                    let _ = tx.send(RtEvent::Shutdown);
                }
            },
            _ => {}
        }
    }
}

/// The current wall-clock microsecond tick as a heartbeat gauge value.
fn heartbeat_now(epoch: Instant) -> i64 {
    i64::try_from(micros_since(epoch)).unwrap_or(i64::MAX)
}

/// Everything a broker shard thread needs besides its state machine and
/// inbox. Rebuilt (with a bumped generation and fresh fence) for every
/// supervised restart.
pub(crate) struct ShardEnv {
    pub(crate) b: usize,
    pub(crate) shard: usize,
    pub(crate) count: usize,
    /// Restart generation of this thread; stale-generation exit notices
    /// (a fenced zombie waking late) are salvaged, not restarted again.
    pub(crate) generation: u64,
    pub(crate) speaks: bool,
    pub(crate) epoch: Instant,
    pub(crate) router: Router,
    pub(crate) stats: Arc<RtStats>,
    pub(crate) profiler: Arc<StageProfiler>,
    /// Set by the supervisor's stall detector: the thread must stop
    /// touching shared state and exit `Fenced` at the next opportunity.
    pub(crate) fence: Arc<AtomicBool>,
    /// Liveness gauge (`rt.heartbeat_us.b<b>s<shard>`), raised to the
    /// current tick every loop iteration; monotone (`set_max`) so a late
    /// write from a replaced generation can't rewind it.
    pub(crate) heartbeat: Arc<Gauge>,
    pub(crate) notices: Sender<Notice>,
}

/// How a shard's run loop ended (when it didn't panic).
enum LoopExit {
    Clean,
    Fenced,
}

/// Publishes one broker's table shape (live filter entries, covered
/// aggregation bookkeeping) into the runtime-wide gauges as a *delta
/// contribution*: each loop iteration adds the change since the last
/// publish, and dropping the guard retracts everything it contributed.
/// That makes the gauges correct across panics, fences, and restarts —
/// a crashed generation's contribution unwinds with its stack, and the
/// replacement republishes as control replay rebuilds its table. Only
/// the leader shard publishes (followers hold replica tables of the same
/// broker; counting them would multiply every entry by the shard count).
struct TableGauges {
    entries: Arc<Gauge>,
    covered: Arc<Gauge>,
    published_entries: i64,
    published_covered: i64,
    active: bool,
}

impl TableGauges {
    fn new(env: &ShardEnv) -> Self {
        Self {
            entries: env.stats.filter_table_entries_gauge(),
            covered: env.stats.agg_covered_subs_gauge(),
            published_entries: 0,
            published_covered: 0,
            active: env.speaks,
        }
    }

    fn publish(&mut self, broker: &Broker) {
        if !self.active {
            return;
        }
        let entries = i64::try_from(broker.filter_count()).unwrap_or(i64::MAX);
        let covered = i64::try_from(broker.covered_subs()).unwrap_or(i64::MAX);
        if entries != self.published_entries {
            self.entries.add(entries - self.published_entries);
            self.published_entries = entries;
        }
        if covered != self.published_covered {
            self.covered.add(covered - self.published_covered);
            self.published_covered = covered;
        }
    }
}

impl Drop for TableGauges {
    fn drop(&mut self) {
        if self.active {
            self.entries.add(-self.published_entries);
            self.covered.add(-self.published_covered);
        }
    }
}

fn spawn_shard(
    env: ShardEnv,
    broker: Broker,
    rx: Receiver<RtEvent>,
) -> io::Result<JoinHandle<ShardOutcome>> {
    std::thread::Builder::new()
        .name(format!("lc-broker-{}.{}", env.b, env.shard))
        .spawn(move || shard_thread_main(env, broker, rx))
}

/// The supervised wrapper around one broker shard's run loop: catches
/// panics, flushes the outputs of every message handled before the exit,
/// reports the exit over the supervision channel with the rest of the
/// in-flight frame and the (now drainable) inbox receiver, and hands the
/// state machine back on a clean exit.
fn shard_thread_main(env: ShardEnv, mut broker: Broker, rx: Receiver<RtEvent>) -> ShardOutcome {
    let mut io = NodeIo::new(
        ActorId(env.b),
        &env.router,
        &env.stats,
        &env.profiler,
        env.speaks,
        Some((env.shard, env.count)),
    );
    let mut current: Option<InHand> = None;
    let exit = catch_unwind(AssertUnwindSafe(|| {
        shard_run_loop(&env, &mut io, &mut broker, &rx, &mut current)
    }));
    // Outputs of messages already handled leave even after a panic, as
    // they did when each was sent on the spot; the rest of the frame in
    // hand goes back to the supervisor.
    io.flush();
    let current = current.take().map(InHand::rest);
    match exit {
        Ok(LoopExit::Clean) => ShardOutcome::Clean(Box::new(broker)),
        Ok(LoopExit::Fenced) => {
            let _ = env.notices.send(Notice::ShardDown {
                b: env.b,
                shard: env.shard,
                generation: env.generation,
                kind: DownKind::Fence,
                detail: String::new(),
                current,
                rx,
            });
            ShardOutcome::Fenced
        }
        Err(payload) => {
            let detail = panic_message(payload.as_ref());
            env.stats.inc_panics();
            let _ = env.notices.send(Notice::ShardDown {
                b: env.b,
                shard: env.shard,
                generation: env.generation,
                kind: DownKind::Panic,
                detail: detail.clone(),
                current,
                rx,
            });
            ShardOutcome::Panicked(detail)
        }
    }
}

/// Runs one broker shard: block for a frame, drain the inbox behind it
/// up to [`DRAIN_CAP`] messages, flush the coalesced outputs, fire
/// timers, drain on poison. `current` holds the frame being processed
/// so a panic hands the rest of it — from the message in hand on — back
/// to the supervisor for requeueing (a deterministically poisonous
/// message then re-crashes the replacement — bounded by the restart
/// budget, which is the intended behavior for a poison-pill input).
fn shard_run_loop(
    env: &ShardEnv,
    io: &mut NodeIo<'_>,
    broker: &mut Broker,
    rx: &Receiver<RtEvent>,
    current: &mut Option<InHand>,
) -> LoopExit {
    // Declared inside the loop fn so a panic unwinding through
    // `catch_unwind` in `shard_thread_main` still runs the Drop and
    // retracts this generation's gauge contribution.
    let mut table_gauges = TableGauges::new(env);
    let faults = Some((env.b, env.shard));
    loop {
        env.heartbeat.set_max(heartbeat_now(env.epoch));
        if env.fence.load(Ordering::Relaxed) {
            return LoopExit::Fenced;
        }
        let mut next = rx.recv_timeout(next_wakeup(&io.timers, env.epoch));
        let mut handled = 0usize;
        loop {
            match next {
                Ok(RtEvent::Frame(frame)) => {
                    handled += frame.msgs as usize;
                    *current = Some(InHand::new(frame));
                    if !feed_frame(io, broker, current, faults, Some(&env.fence), |_| {}) {
                        return LoopExit::Fenced;
                    }
                }
                Ok(RtEvent::Shutdown) => {
                    while let Ok(ev) = rx.try_recv() {
                        if let RtEvent::Frame(frame) = ev {
                            *current = Some(InHand::new(frame));
                            feed_frame(io, broker, current, None, None, |_| {});
                        }
                    }
                    return LoopExit::Clean;
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => return LoopExit::Clean,
            }
            if handled >= DRAIN_CAP || env.fence.load(Ordering::Relaxed) {
                break;
            }
            next = rx.try_recv().map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
            });
        }
        io.flush();
        io.fire_due_timers(broker);
        io.flush();
        table_gauges.publish(broker);
    }
}

/// Everything a subscriber thread needs besides its node and inbox.
struct SubEnv {
    index: usize,
    id: ActorId,
    epoch: Instant,
    router: Router,
    stats: Arc<RtStats>,
    profiler: Arc<StageProfiler>,
    placed: Arc<AtomicBool>,
    heartbeat: Arc<Gauge>,
    notices: Sender<Notice>,
    /// When set, every accepted delivery is also forwarded here (the
    /// remote-access bridge); see [`Runtime::add_subscriber_tapped`].
    tap: Option<Sender<Envelope>>,
}

fn spawn_subscriber(
    env: SubEnv,
    node: SubscriberNode,
    rx: Receiver<RtEvent>,
) -> io::Result<JoinHandle<SubOutcome>> {
    std::thread::Builder::new()
        .name(format!("lc-sub-{}", env.index))
        .spawn(move || subscriber_thread_main(env, node, rx))
}

/// The supervised wrapper around one subscriber's run loop. Subscriber
/// panics are isolated and reported, not restarted: the node's volatile
/// delivery state died with the thread, and re-subscription (durable for
/// zero loss) is the caller-level recovery path.
fn subscriber_thread_main(
    env: SubEnv,
    mut node: SubscriberNode,
    rx: Receiver<RtEvent>,
) -> SubOutcome {
    let mut io = NodeIo::new(env.id, &env.router, &env.stats, &env.profiler, true, None);
    let exit = catch_unwind(AssertUnwindSafe(|| {
        sub_run_loop(&env, &mut io, &mut node, &rx)
    }));
    io.flush();
    match exit {
        Ok(()) => SubOutcome::Clean(Box::new(node)),
        Err(payload) => {
            let detail = panic_message(payload.as_ref());
            env.stats.inc_panics();
            let _ = env.notices.send(Notice::SubscriberDown {
                id: env.id,
                detail: detail.clone(),
            });
            SubOutcome::Panicked(detail)
        }
    }
}

/// Runs one subscriber: like a broker shard (without the inbox drain —
/// a subscriber sends no data to coalesce), plus placement signalling
/// and per-delivery latency accounting. Fault plans target a subscriber
/// through its node id with shard 0 ([`RtSubscriberHandle::node`]).
fn sub_run_loop(
    env: &SubEnv,
    io: &mut NodeIo<'_>,
    node: &mut SubscriberNode,
    rx: &Receiver<RtEvent>,
) {
    let after = |node: &mut SubscriberNode| {
        if !env.placed.load(Ordering::Relaxed) && node.fully_placed() {
            env.placed.store(true, Ordering::Release);
        }
        for env_msg in node.take_inbox() {
            if let Some(tc) = env_msg.trace() {
                env.stats
                    .record_latency_ns(nanos_since(env.epoch).saturating_sub(tc.published_at));
            }
            env.stats.inc_delivered();
            if let Some(tap) = &env.tap {
                let _ = tap.send(env_msg);
            }
        }
    };
    let faults = Some((env.id.0, 0));
    loop {
        env.heartbeat.set_max(heartbeat_now(env.epoch));
        match rx.recv_timeout(next_wakeup(&io.timers, env.epoch)) {
            Ok(RtEvent::Frame(frame)) => {
                feed_frame(io, node, &mut Some(InHand::new(frame)), faults, None, after);
            }
            Ok(RtEvent::Shutdown) => {
                while let Ok(RtEvent::Frame(frame)) = rx.try_recv() {
                    feed_frame(io, node, &mut Some(InHand::new(frame)), None, None, after);
                }
                return;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        io.fire_due_timers(node);
        io.flush();
        after(node);
    }
}

/// Rebuilds broker `b`'s shard `shard` state machine from scratch:
/// deterministic topology construction (seeded `cfg.seed ^ node_index`,
/// so the RNG stream matches the crashed instance's), durable-log
/// recovery over the same per-shard directory, then a *muted* replay of
/// the broker's captured control prefix so the filter table, placement
/// decisions and RNG position converge with the surviving replicas.
/// Returns the broker and the replayed prefix length (the requeue
/// filter's cutoff).
fn rebuild_broker(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
) -> Result<(Broker, u64), String> {
    let cfg = &shared.cfg;
    let mut nodes = topology::build_brokers(&cfg.overlay, &shared.registry, shared.trace.as_ref())
        .map_err(|e| format!("topology rebuild failed: {e}"))?;
    if b >= nodes.len() {
        return Err(format!("broker {b} not in rebuilt topology"));
    }
    // Nodes are indexed by id, so this takes exactly broker `b`.
    let node = nodes.swap_remove(b);
    let mut broker = node.broker;
    if let Some(dir) = &cfg.durable_dir {
        let storage = FileStorage::open(dir.join(format!("b{b}")).join(format!("s{shard}")))
            .map_err(|e| format!("durable log reopen failed: {e}"))?;
        broker.enable_durability(
            Box::new(storage),
            LogConfig {
                segment_bytes: cfg.overlay.wal_segment_bytes,
                flush_every: cfg.overlay.wal_flush_every,
            },
        );
    }
    broker.set_stage_profiler(Arc::clone(&shared.profiler));
    let prefix = shared.router.ctrl_prefix(b);
    let replayed = prefix.len() as u64;
    let mut decoder = LinkDecoder::new(WireCodec::Binary);
    let mut ctx = MutedCtx {
        me: ActorId(b),
        epoch: shared.router.epoch,
    };
    for bytes in prefix {
        decoder.push(&bytes);
        while let Ok(Some((from, msg))) = decoder.next_msg() {
            broker.on_message(from, msg, &mut ctx);
        }
    }
    Ok((broker, replayed))
}

/// Replaces a crashed (or fenced) broker shard in place: rebuild the
/// state machine ([`rebuild_broker`]), re-open its durable streams so
/// durable subscribers receive a fresh `DurableBase` (rebasing their
/// contiguity cursors) plus any unacked replay, requeue the crashed
/// generation's surviving backlog into a fresh inbox, and spawn the
/// replacement thread under a bumped generation.
///
/// On success returns the number of data messages requeued. On failure the
/// shard has already been routed to a dead end and the error carries the
/// number of data messages lost with it; the caller marks the slot failed.
pub(crate) fn perform_restart(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
    stranded: Vec<Frame>,
    park_rx: &Receiver<RtEvent>,
) -> Result<u64, (String, u64)> {
    let (mut broker, replayed) = match rebuild_broker(shared, b, shard) {
        Ok(x) => x,
        Err(e) => {
            let lost = shared.router.fail_shard(b, shard, stranded, park_rx);
            return Err((e, lost));
        }
    };
    {
        // Re-open durable streams *before* the new inbox goes live:
        // mpsc linearizes sends, so every subscriber sees its rebased
        // `DurableBase` ahead of anything the replacement delivers.
        let mut io = NodeIo::new(
            ActorId(b),
            &shared.router,
            &shared.stats,
            &shared.profiler,
            shard == 0,
            Some((shard, shared.cfg.shards)),
        );
        broker.reopen_durable_streams(&mut io.ctx(false));
        io.flush();
    }
    let (generation, fence, heartbeat) = {
        let slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = slots.get(&(b, shard)) else {
            let lost = shared.router.fail_shard(b, shard, stranded, park_rx);
            return Err(("supervision slot vanished".to_string(), lost));
        };
        (
            slot.generation + 1,
            Arc::new(AtomicBool::new(false)),
            Arc::clone(&slot.heartbeat),
        )
    };
    heartbeat.set_max(heartbeat_now(shared.router.epoch));
    let (live_rx, requeued) = shared
        .router
        .install_shard(b, shard, stranded, park_rx, replayed);
    let env = ShardEnv {
        b,
        shard,
        count: shared.cfg.shards,
        generation,
        speaks: shard == 0,
        epoch: shared.router.epoch,
        router: shared.router.clone(),
        stats: Arc::clone(&shared.stats),
        profiler: Arc::clone(&shared.profiler),
        fence: Arc::clone(&fence),
        heartbeat,
        notices: shared.notice_tx.clone(),
    };
    match spawn_shard(env, broker, live_rx) {
        Ok(handle) => {
            let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = slots.get_mut(&(b, shard)) {
                slot.generation = generation;
                slot.restarts += 1;
                slot.replayed = replayed;
                slot.fence = fence;
                // Drop (detach) the dead generation's handle: it already
                // reported its outcome through the notice channel.
                slot.handle = Some(handle);
                slot.restarting = false;
            }
            Ok(requeued)
        }
        Err(e) => {
            // The spawn closure consumed the live inbox, taking the
            // freshly requeued backlog with it — count those frames as
            // lost alongside dead-ending the route.
            let (_dead_tx, dead_rx) = channel();
            let lost = shared.router.fail_shard(b, shard, Vec::new(), &dead_rx) + requeued;
            Err((format!("replacement thread spawn failed: {e}"), lost))
        }
    }
}

/// A node thread's side of the message loop: identity, timers, the
/// decode dictionary, and the outbox its data sends coalesce in.
struct NodeIo<'a> {
    me: ActorId,
    epoch: Instant,
    router: &'a Router,
    stats: &'a RtStats,
    profiler: &'a StageProfiler,
    speaks: bool,
    shard: Option<(usize, usize)>,
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    dict: DecodeDict,
    sample_counter: u64,
    /// Wire messages received so far: the count fault plans key on.
    received: u64,
    outbox: Outbox,
}

impl<'a> NodeIo<'a> {
    fn new(
        me: ActorId,
        router: &'a Router,
        stats: &'a RtStats,
        profiler: &'a StageProfiler,
        speaks: bool,
        shard: Option<(usize, usize)>,
    ) -> Self {
        Self {
            me,
            epoch: router.epoch,
            router,
            stats,
            profiler,
            speaks,
            shard,
            timers: BinaryHeap::new(),
            dict: DecodeDict::new(DictMode::Shared),
            sample_counter: 0,
            received: 0,
            outbox: Outbox::new(),
        }
    }

    fn ctx(&mut self, sampled: bool) -> RtCtx<'_> {
        RtCtx {
            me: self.me,
            epoch: self.epoch,
            router: self.router,
            stats: self.stats,
            timers: &mut self.timers,
            outbox: &mut self.outbox,
            speaks: self.speaks,
            shard: self.shard,
            profiler: self.profiler,
            sampled,
            nested_ns: 0,
        }
    }

    /// Sends every coalesced batch.
    fn flush(&mut self) {
        self.router.flush(&mut self.outbox, self.stats);
    }

    /// Decodes one wire message's payload and feeds the message to the
    /// node. A malformed payload is counted and skipped: the frame
    /// boundaries around it are intact.
    ///
    /// On a sampled message the per-stage pipeline costs are recorded:
    /// ingress wait (sender's enqueue stamp → now, passed only for the
    /// first message of a channel frame), decode, and match (the
    /// state-machine step, minus the time its own sends spent encoding
    /// and enqueuing — those are reported as `Encode`/`EgressSend` by
    /// the nested dispatch).
    ///
    /// Externally published events are re-stamped here, at root ingress
    /// dequeue: the wait an event spent behind earlier events in the
    /// root inbox goes into `rt.queue_wait_ns`, and the trace context's
    /// `published_at` is rebased to *now* so the end-to-end latency
    /// histogram measures pipeline delivery latency rather than publish
    /// backlog. (Experiment E17's "268 ms p50 at one shard" was backlog
    /// — an open-loop publisher queueing faster than one shard drains.)
    fn feed<N: Node>(&mut self, node: &mut N, payload: &[u8], enqueued_ns: u64) {
        let sampled = self.profiler.tick(&mut self.sample_counter);
        let (profiler, stats, epoch) = (self.profiler, self.stats, self.epoch);
        if sampled && enqueued_ns != 0 {
            profiler.record(
                PipelineStage::IngressWait,
                nanos_since(epoch).saturating_sub(enqueued_ns),
            );
        }
        let decode_timer = sampled.then(Instant::now);
        let (from, mut msg) = match wire::decode_payload(WireCodec::Binary, payload, &mut self.dict)
        {
            Ok(Some(decoded)) => decoded,
            // Connection control (a dictionary update): nothing to feed.
            Ok(None) => return,
            Err(_) => {
                stats.inc_decode_errors();
                return;
            }
        };
        if let Some(t0) = decode_timer {
            profiler.record(PipelineStage::Decode, elapsed_ns(t0));
        }
        stats.inc_frames_received();
        if from == EXTERNAL {
            if let OverlayMsg::Publish(env) = &mut msg {
                if let Some(mut tc) = env.trace() {
                    let now = nanos_since(epoch);
                    stats.record_queue_wait_ns(now.saturating_sub(tc.published_at));
                    tc.published_at = now;
                    tc.last_hop_at = now;
                    env.set_trace(Some(tc));
                }
            }
        }
        let mut ctx = self.ctx(sampled);
        let match_timer = sampled.then(Instant::now);
        node.on_message(from, msg, &mut ctx);
        if let Some(t0) = match_timer {
            profiler.record(
                PipelineStage::Match,
                elapsed_ns(t0).saturating_sub(ctx.nested_ns),
            );
        }
    }

    fn fire_due_timers<N: Node>(&mut self, node: &mut N) {
        while let Some(&Reverse((deadline, tag))) = self.timers.peek() {
            if deadline > micros_since(self.epoch) {
                break;
            }
            self.timers.pop();
            self.stats.inc_timers_fired();
            // Timer work is maintenance, not pipeline — never stage-sampled.
            node.on_timer(tag, &mut self.ctx(false));
        }
    }
}

/// A channel frame a node thread is working through, one wire message at
/// a time.
struct InHand {
    frame: Frame,
    /// Byte offset and index of the next message to handle.
    at: usize,
    done: u32,
}

impl InHand {
    fn new(frame: Frame) -> Self {
        Self {
            frame,
            at: 0,
            done: 0,
        }
    }

    /// What is left of the frame: the message in hand and everything
    /// after it, stamped like the whole frame.
    fn rest(mut self) -> Frame {
        self.frame.bytes.drain(..self.at);
        self.frame.msgs = self.frame.msgs.saturating_sub(self.done);
        self.frame
    }
}

/// Feeds the frame in `hand` to `node` one wire message at a time,
/// calling `after` behind each, and clears `hand` once it is done. With
/// `faults` (the thread's fault-plan key) the plan is consulted before
/// every message, so `panic_at`/`stall_at` count messages whatever the
/// frame sizes: an injected panic is raised here with `hand` at the
/// message; a stall flushes the outbox, sleeps, and returns `false` if
/// the supervisor fenced the thread meanwhile. Bytes that do not frame
/// end the frame as one decode error.
fn feed_frame<N: Node>(
    io: &mut NodeIo<'_>,
    node: &mut N,
    hand: &mut Option<InHand>,
    faults: Option<(usize, usize)>,
    fence: Option<&AtomicBool>,
    mut after: impl FnMut(&mut N),
) -> bool {
    while let Some(h) = hand.as_ref().filter(|h| h.at < h.frame.bytes.len()) {
        io.received += 1;
        if let Some((node_id, shard)) = faults {
            match io.router.fault.frame_action(node_id, shard, io.received) {
                FaultAction::Pass => {}
                FaultAction::Panic => {
                    io.stats.inc_faults_injected();
                    panic!(
                        "injected fault: node {node_id} shard {shard} panics at message {}",
                        io.received
                    );
                }
                FaultAction::Stall(dur) => {
                    io.stats.inc_faults_injected();
                    io.flush();
                    std::thread::sleep(dur);
                    if fence.is_some_and(|f| f.load(Ordering::Relaxed)) {
                        return false;
                    }
                }
            }
        }
        let stamp = if h.done == 0 { h.frame.enqueued_ns } else { 0 };
        let Ok((payload, len)) = wire::split_wire_frame(&h.frame.bytes[h.at..]) else {
            io.stats.inc_decode_errors();
            break;
        };
        io.feed(node, payload, stamp);
        let h = hand.as_mut().expect("the frame is still in hand");
        h.at += len;
        h.done += 1;
        after(node);
    }
    *hand = None;
    true
}

fn next_wakeup(timers: &BinaryHeap<Reverse<(u64, u64)>>, epoch: Instant) -> Duration {
    match timers.peek() {
        Some(Reverse((deadline, _))) => {
            Duration::from_micros(deadline.saturating_sub(micros_since(epoch))).min(IDLE_TICK)
        }
        None => IDLE_TICK,
    }
}
