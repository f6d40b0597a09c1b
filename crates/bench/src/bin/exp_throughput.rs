//! E17 — wall-clock runtime throughput: events/sec and end-to-end
//! latency through the multi-threaded broker runtime (`layercake-rt`),
//! against the matcher shard count.
//!
//! The runtime runs every broker matcher shard and every subscriber as
//! an OS thread exchanging length-prefixed wire frames, so each hop
//! pays real serialize/deserialize cost. Events are hashed by class
//! across the shards of each broker, which is the runtime's scaling
//! lever: with enough cores, the per-event deserialize + match +
//! re-serialize cost spreads across shards.
//!
//! Latency is stamped at ingress dequeue: the broker re-bases each
//! externally published event's trace clock when its ingress shard
//! dequeues it, and records the time spent waiting in the publish
//! queue separately (the `queue p50` column). Without the re-stamp,
//! publish backlog under a saturating open-loop publisher dominates
//! the "latency" number — the seed's 1-shard p50 of ~268ms was queue
//! wait, not pipeline time.
//!
//! Setup: a single root broker, 8 event classes, one subscriber per
//! class matching all of that class's events, two publisher threads
//! splitting the event stream. Every published event is delivered
//! exactly once; completion is detected by the delivered counter, and
//! end-to-end latency (ingress stamp → subscriber-thread receipt) feeds
//! the shared log₂ histogram.
//!
//! Shape checks (the binary exits non-zero on violation):
//!
//!   1. a small correctness run delivers each matching event exactly
//!      once per subscriber, in publisher order;
//!   2. every timed run delivers exactly `events` events, with zero
//!      decode or encode errors, and the latency histogram holds one
//!      sample per delivery;
//!   3. at 1 shard, a wire message averages at most
//!      [`BYTES_PER_FRAME_BOUND`] bytes;
//!   4. **only when this host has ≥ 4 cores**: 4 shards must deliver
//!      ≥ 2x the events/sec of 1 shard. On smaller
//!      hosts (CI smoke runs included) the check cannot physically
//!      hold — OS threads time-slice one core — so it is skipped and
//!      the JSON records `"scaling_gate_active": false`.
//!
//! Run with: `cargo run --release -p layercake-bench --bin
//! exp_throughput [out_dir] [events]` — `out_dir` (default
//! `docs/results`) receives `BENCH_throughput.json`; `events` (default
//! 20000) is the per-run published event count (CI smoke runs pass a
//! smaller value).

use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_metrics::render_table;
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, Runtime};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CLASSES: usize = 8;
const PUBLISHERS: usize = 2;

/// The wire-compactness gate: half of the 239.2 B per wire message the
/// former JSON codec moved at 1 shard (9574520 bytes over 40024 frames,
/// `docs/results/BENCH_throughput.json` as written at commit d8a8730),
/// kept as an absolute bound once the JSON codec was removed.
const BYTES_PER_FRAME_BOUND: f64 = 119.6;

fn registry_with_classes() -> (TypeRegistry, Vec<ClassId>) {
    let mut registry = TypeRegistry::new();
    let classes = (0..CLASSES)
        .map(|i| {
            registry
                .register(
                    &format!("Feed{i}"),
                    None,
                    vec![
                        AttributeDecl::new("region", ValueKind::Int),
                        AttributeDecl::new("level", ValueKind::Int),
                    ],
                )
                .expect("register bench class")
        })
        .collect();
    (registry, classes)
}

/// Pre-builds the full event stream so envelope construction stays out
/// of the timed loop. Event `seq` goes to class `seq % CLASSES`.
fn event_stream(classes: &[ClassId], events: usize) -> Vec<Envelope> {
    (0..events as u64)
        .map(|seq| {
            let idx = (seq as usize) % classes.len();
            let mut meta = EventData::new();
            meta.insert("region", 0i64);
            meta.insert("level", (seq % 100) as i64);
            Envelope::from_meta(classes[idx], format!("Feed{idx}"), EventSeq(seq), meta)
        })
        .collect()
}

/// Starts the runtime, advertises every class, and subscribes one node
/// per class (matching the whole class via `region = 0`).
fn build_runtime(shards: usize) -> (Runtime, Vec<ClassId>) {
    let (registry, classes) = registry_with_classes();
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let cfg = RtConfig::new(overlay, shards);
    let mut rt = Runtime::start(cfg, Arc::new(registry)).expect("start runtime");
    for &class in &classes {
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[2]).expect("stage map"),
        ));
    }
    for &class in &classes {
        rt.add_subscriber(Filter::for_class(class).eq("region", 0i64))
            .expect("place subscriber");
    }
    (rt, classes)
}

struct RunResult {
    events_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    queue_wait_p50_ns: u64,
    frames_sent: u64,
    bytes_sent: u64,
}

/// One timed run: publish `events` pre-built envelopes from
/// `PUBLISHERS` threads, wait for every delivery, and read the stats
/// out of the shutdown report.
fn timed_run(shards: usize, events: usize) -> RunResult {
    let (rt, classes) = build_runtime(shards);
    let stream = event_stream(&classes, events);
    let chunk = events.div_ceil(PUBLISHERS);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for part in stream.chunks(chunk) {
            let publisher = rt.publisher();
            scope.spawn(move || {
                for env in part {
                    publisher.publish(env.clone());
                }
            });
        }
    });
    assert!(
        rt.wait_delivered(events as u64, Duration::from_secs(120)),
        "run at {shards} shards delivered {} of {events}",
        rt.stats().delivered()
    );
    let elapsed = start.elapsed();
    let report = rt.shutdown();

    assert_eq!(report.stats.delivered(), events as u64);
    assert_eq!(report.stats.decode_errors(), 0);
    assert_eq!(report.stats.encode_errors(), 0);
    let hist = report.stats.latency_histogram();
    assert_eq!(hist.count(), events as u64);
    RunResult {
        events_per_sec: events as f64 / elapsed.as_secs_f64(),
        p50_ns: hist.p50(),
        p99_ns: hist.p99(),
        queue_wait_p50_ns: report.stats.queue_wait_histogram().p50(),
        frames_sent: report.stats.frames_sent(),
        bytes_sent: report.stats.bytes_sent(),
    }
}

/// Small correctness run: every matching event arrives exactly once, in
/// publisher order per class (single publisher, FIFO links).
fn correctness_run() {
    let (rt, classes) = build_runtime(2);
    let stream = event_stream(&classes, 256);
    let publisher = rt.publisher();
    for env in &stream {
        publisher.publish(env.clone());
    }
    assert!(
        rt.wait_delivered(256, Duration::from_secs(30)),
        "correctness run incomplete: {} of 256",
        rt.stats().delivered()
    );
    let report = rt.shutdown();
    for (idx, sub) in report.subscribers.iter().enumerate() {
        let expected: Vec<EventSeq> = (0..256u64)
            .filter(|seq| (*seq as usize) % CLASSES == idx)
            .map(EventSeq)
            .collect();
        assert_eq!(
            sub.deliveries(),
            expected.as_slice(),
            "subscriber {idx} must see its class stream exactly once, in order"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let events: usize = args.get(2).map_or(20_000, |s| {
        s.parse().expect("events must be a positive integer")
    });
    assert!(events >= 256, "events must be at least 256");

    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    eprintln!("E17: correctness run …");
    correctness_run();

    eprintln!("E17: {events} events per run, {cores} cores available …");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut results = Vec::new();
    for &shards in &SHARD_COUNTS {
        let r = timed_run(shards, events);
        eprintln!(
            "  {shards} shards: {:.0} events/sec, {} wire bytes",
            r.events_per_sec, r.bytes_sent
        );
        rows.push(vec![
            shards.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.1}", r.p50_ns as f64 / 1000.0),
            format!("{:.1}", r.p99_ns as f64 / 1000.0),
            format!("{:.1}", r.queue_wait_p50_ns as f64 / 1000.0),
            r.frames_sent.to_string(),
            r.bytes_sent.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"shards\": {shards}, \"events_per_sec\": {:.1}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"queue_wait_p50_ns\": {}, \
             \"frames_sent\": {}, \"bytes_sent\": {}}}",
            r.events_per_sec, r.p50_ns, r.p99_ns, r.queue_wait_p50_ns, r.frames_sent, r.bytes_sent
        ));
        results.push(r);
    }
    println!("runtime throughput, {events} events per run ({cores} cores):\n");
    println!(
        "{}",
        render_table(
            &[
                "shards",
                "events/sec",
                "p50 us",
                "p99 us",
                "queue p50 us",
                "frames",
                "bytes"
            ],
            &rows
        )
    );
    println!(
        "reading guide: every hop serializes, frames, deframes, and\n\
         deserializes each event, so events/sec measures the full wire\n\
         cost. p50/p99 are pipeline time from ingress dequeue; the\n\
         queue column is how long events sat in the publish queue first\n\
         (an open-loop publisher artifact, reported separately on\n\
         purpose). Shard scaling needs real cores: on a single-CPU host\n\
         the shard threads time-slice and extra shards only add routing\n\
         work.\n"
    );

    let one_shard = &results[0];
    let bytes_per_frame_1shard = one_shard.bytes_sent as f64 / one_shard.frames_sent as f64;
    println!("wire bytes per message at 1 shard: {bytes_per_frame_1shard:.1}\n");

    // ---- machine-readable output --------------------------------------
    let gate_active = cores >= 4;
    let json = format!(
        "{{\n  \"experiment\": \"E17\",\n  \"events_per_run\": {events},\n  \
         \"cores\": {cores},\n  \"scaling_gate_active\": {gate_active},\n  \
         \"runs\": [\n{}\n  ],\n  \
         \"bytes_per_frame_1shard\": {bytes_per_frame_1shard:.2},\n  \
         \"bytes_per_frame_bound\": {BYTES_PER_FRAME_BOUND:.1}\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_throughput.json");
    std::fs::write(&path, &json).expect("write BENCH_throughput.json");
    println!("wrote {path}");

    // ---- shape checks -------------------------------------------------
    for (&shards, r) in SHARD_COUNTS.iter().zip(&results) {
        assert!(
            r.events_per_sec > 0.0 && r.events_per_sec.is_finite(),
            "events/sec at {shards} shards must be positive"
        );
    }
    assert!(
        bytes_per_frame_1shard <= BYTES_PER_FRAME_BOUND,
        "a wire message must average at most {BYTES_PER_FRAME_BOUND} bytes at 1 shard \
         ({} bytes over {} frames = {bytes_per_frame_1shard:.1})",
        one_shard.bytes_sent,
        one_shard.frames_sent
    );
    if gate_active {
        let (one, four) = (results[0].events_per_sec, results[2].events_per_sec);
        assert!(
            four >= one * 2.0,
            "with {cores} cores, 4 shards must be >= 2x the 1-shard rate \
             (1 shard: {one:.0} ev/s, 4 shards: {four:.0} ev/s)"
        );
    } else {
        println!("scaling gate skipped: only {cores} core(s) available (needs >= 4).");
    }
    println!("shape checks passed.");
}
