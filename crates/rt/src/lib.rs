//! `layercake-rt`: a multi-threaded wall-clock runtime for the broker
//! overlay.
//!
//! The deterministic simulator (`layercake-overlay`) is the reference
//! implementation of the protocol; this crate runs the *same* broker and
//! subscriber state machines — via the transport-agnostic
//! [`layercake_overlay::Node`] / [`layercake_overlay::NodeCtx`] traits —
//! under real concurrency:
//!
//! * every broker matcher shard and every subscriber is an OS thread;
//! * threads exchange length-prefixed byte frames — over `std::sync::mpsc`
//!   channels by default, or over real loopback TCP sockets with
//!   [`TransportKind::Tcp`] — so each hop pays genuine
//!   serialize/deserialize cost. Frames carry the compact binary codec
//!   (varint integers plus an interned attribute dictionary);
//! * separate *processes* talk to a broker through the [`remote`]
//!   protocol: a handshake, a per-connection negotiated attribute
//!   dictionary, then the same framed binary messages over TCP;
//! * events are hashed by class across `shards` matcher threads per
//!   broker, scaling the dominant per-event cost (deserialize + match +
//!   re-serialize) across cores;
//! * wall-clock end-to-end latency is stamped at publish and recorded at
//!   delivery into the shared log₂ [`layercake_metrics::Histogram`].
//!
//! # Observability
//!
//! Every counter and histogram lives in a sharded, lock-free
//! [`layercake_metrics::TelemetryRegistry`] ([`RtStats::registry`]) and
//! flows out three ways from one merged read:
//!
//! * [`Runtime::snapshot`] — a structured [`RtSnapshot`] with stable
//!   serde JSON and a `Display` table renderer;
//! * a Prometheus text-exposition endpoint
//!   ([`RtConfig::metrics_addr`], scrape with `curl`);
//! * `overlay.trace_sample_every = n` samples every n-th published event
//!   into a wall-clock [`layercake_trace::TraceSink`] whose per-hop
//!   provenance (shard id, covering-filter verdict) and JSONL schema
//!   match the simulator's traces.
//!
//! `RtConfig::stage_sample_every` additionally times sampled frames
//! through the pipeline stages (ingress wait → decode → match → encode
//! → egress send, plus WAL append/fsync on durable runs); with the knob
//! at 0 the hot path pays one relaxed load and a branch per frame.
//!
//! # Self-healing
//!
//! Every node thread runs under a supervision wrapper: a panicking
//! broker shard is restarted in place by the `lc-supervisor` thread —
//! state machine rebuilt deterministically, durable log recovered from
//! [`RtConfig::durable_dir`], `DurableBase` re-emitted so durable
//! subscribers rebase and lose nothing, inbox backlog requeued — under
//! a bounded, exponentially backed-off restart budget
//! ([`SupervisionConfig`]). Stalled shards are fenced and replaced when
//! [`SupervisionConfig::stall_timeout`] is set. Crashes never panic
//! [`Runtime::shutdown`]; they surface as [`CrashEntry`] values in
//! [`RtReport::crashes`], and volatile loss lands in the
//! `rt.frames_dropped` ledger instead of disappearing. [`RtFaultPlan`]
//! injects seeded wall-clock faults (panic-at-nth-frame, stalls, link
//! drops) for chaos testing; experiment E20 (`exp_selfheal`) measures
//! MTTR and durable-loss behavior under it.
//!
//! See `DESIGN.md` ("Runtime", "Runtime observability") for the
//! threading model, the leader/follower sharding contract, the shutdown
//! protocol, and the sim-vs-rt parity argument. The `exp_throughput`
//! benchmark (E17) measures events/sec and latency percentiles against
//! the shard count; `exp_observability` (E19) measures per-stage costs
//! and the overhead of the instrumentation itself.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use layercake_event::{typed_event, Advertisement, StageMap, TypeRegistry, TypedEvent, Envelope, EventSeq};
//! use layercake_filter::Filter;
//! use layercake_overlay::OverlayConfig;
//! use layercake_rt::{RtConfig, Runtime};
//!
//! typed_event! {
//!     pub struct Tick: "Tick" { level: i64 }
//! }
//!
//! let mut registry = TypeRegistry::new();
//! let class = registry.register_event::<Tick>().unwrap();
//! let overlay = OverlayConfig { levels: vec![1], ..OverlayConfig::default() };
//! let mut rt = Runtime::start(RtConfig::new(overlay, 2), Arc::new(registry)).unwrap();
//! rt.advertise(Advertisement::new(class, StageMap::from_prefixes(&[1]).unwrap()));
//! let sub = rt.add_subscriber(Filter::for_class(class).ge("level", 5)).unwrap();
//!
//! let publisher = rt.publisher();
//! publisher.publish(Envelope::encode(class, EventSeq(0), &Tick::new(9)).unwrap());
//! assert!(rt.wait_delivered(1, std::time::Duration::from_secs(5)));
//!
//! let report = rt.shutdown();
//! assert_eq!(report.deliveries(sub), &[EventSeq(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod metrics_http;
pub mod remote;
mod runtime;
mod snapshot;
mod stats;
mod supervisor;
mod transport;
pub mod wire;

pub use error::RtError;
pub use fault::RtFaultPlan;
pub use runtime::{Publisher, RtConfig, RtReport, RtSubscriberHandle, Runtime};
pub use snapshot::RtSnapshot;
pub use stats::RtStats;
pub use supervisor::{CrashEntry, CrashKind, SupervisionConfig};
pub use transport::TransportKind;
pub use wire::{LinkDecoder, WireCodec, WireError};
