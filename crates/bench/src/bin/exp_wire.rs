//! E21 — wire codec and transport microbenchmark: what one message
//! costs to encode, decode, and carry with the compact binary codec,
//! and what moving broker links from in-process channels to real TCP
//! sockets costs end to end.
//!
//! Part 1 (codec): the E17 workload's `OverlayMsg::Publish` envelopes
//! (8 classes, two int attributes) are pushed through the codec in both
//! dictionary modes —
//!
//!   * `binary_shared` — shared-dictionary mode
//!     (in-process links: the global attribute interner IS the
//!     dictionary, no updates on the wire);
//!   * `binary_negotiated` — negotiated mode
//!     (cross-process links: the sender announces names once, then
//!     references dense wire ids), measured at steady state after the
//!     dictionary has been announced.
//!
//! Every decode is checked against the original message, so the timing
//! loop doubles as a round-trip equivalence test.
//!
//! Part 2 (transport): the same small publish workload runs through a
//! 2-shard runtime twice with the binary codec — once over the default
//! in-process `mpsc` links, once over loopback TCP sockets — reporting
//! events/sec for each. No gate is applied to the ratio: on a 1-core
//! host the TCP run measures syscall overhead under time-slicing, which
//! is informative but not stable enough to assert on.
//!
//! Regression gate (the binary exits non-zero on violation): the codec's
//! bytes/msg must be ≤ [`BYTES_PER_MSG_BOUND`] on this workload, in both
//! dictionary modes. This is the wire-compactness claim CI holds the
//! codec to.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_wire
//! [out_dir] [iters]` — `out_dir` (default `docs/results`) receives
//! `BENCH_wire.json`; `iters` (default 20000) is the per-codec
//! encode/decode repetition count (CI smoke runs pass a smaller value).

use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    encode_dict_update, Advertisement, AttributeDecl, BinCodec, ClassId, DecodeDict, DictMode,
    EncodeDict, Envelope, EventData, EventSeq, StageMap, TypeRegistry, ValueKind, WireReader,
};
use layercake_filter::Filter;
use layercake_metrics::render_table;
use layercake_overlay::{OverlayConfig, OverlayMsg};
use layercake_rt::{RtConfig, Runtime, TransportKind};

const CLASSES: usize = 8;

/// The bytes/msg gate: half of the 149.69 B the former JSON codec moved
/// per message on this workload (`docs/results/BENCH_wire.json` as
/// written at commit d8a8730), kept as an absolute bound once the JSON
/// codec was removed.
const BYTES_PER_MSG_BOUND: f64 = 74.8;

/// E17-shaped messages: one `Publish` per class with the same two int
/// attributes the throughput bench uses.
fn workload() -> Vec<OverlayMsg> {
    (0..64u64)
        .map(|seq| {
            let idx = (seq as usize) % CLASSES;
            let mut meta = EventData::new();
            meta.insert("region", 0i64);
            meta.insert("level", (seq % 100) as i64);
            OverlayMsg::Publish(Envelope::from_meta(
                ClassId(idx as u32),
                format!("Feed{idx}"),
                EventSeq(seq),
                meta,
            ))
        })
        .collect()
}

struct CodecResult {
    name: &'static str,
    encode_ns_per_msg: f64,
    decode_ns_per_msg: f64,
    bytes_per_msg: f64,
}

fn bench_binary(
    mode: DictMode,
    name: &'static str,
    msgs: &[OverlayMsg],
    iters: usize,
) -> CodecResult {
    // One encoder dictionary for the connection's lifetime; in
    // negotiated mode, drain the one-time name announcements up front so
    // the timed loop measures steady state (dict updates amortize to
    // zero on a long-lived link).
    let mut dict = EncodeDict::new(mode);
    let mut ddict = DecodeDict::new(mode);
    let mut buf = Vec::new();
    for m in msgs {
        buf.clear();
        m.encode_bin(&mut buf, &mut dict);
        if dict.has_pending() {
            let mut update = Vec::new();
            encode_dict_update(&dict.take_pending(), &mut update);
            ddict
                .apply_update(&update[1..])
                .expect("dict update applies");
        }
    }

    let mut bytes_total = 0usize;
    let start = Instant::now();
    for i in 0..iters {
        buf.clear();
        msgs[i % msgs.len()].encode_bin(&mut buf, &mut dict);
        bytes_total += buf.len();
    }
    let encode = start.elapsed();
    assert!(!dict.has_pending(), "warmup announced every name already");

    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            m.encode_bin(&mut b, &mut dict);
            b
        })
        .collect();
    let start = Instant::now();
    for i in 0..iters {
        let mut r = WireReader::new(&encoded[i % encoded.len()]);
        let back = OverlayMsg::decode_bin(&mut r, &ddict).expect("binary decode");
        assert_eq!(&back, &msgs[i % msgs.len()], "binary round trip diverged");
    }
    let decode = start.elapsed();
    CodecResult {
        name,
        encode_ns_per_msg: encode.as_nanos() as f64 / iters as f64,
        decode_ns_per_msg: decode.as_nanos() as f64 / iters as f64,
        bytes_per_msg: bytes_total as f64 / iters as f64,
    }
}

/// A small end-to-end publish run through the 2-shard runtime with the
/// binary codec on the given transport; returns events/sec.
fn transport_run(transport: TransportKind, events: usize) -> f64 {
    let mut registry = TypeRegistry::new();
    let classes: Vec<ClassId> = (0..CLASSES)
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
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 2);
    cfg.transport = transport;
    let mut rt = Runtime::start(cfg, Arc::new(registry)).expect("start runtime");
    for &class in &classes {
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[2]).expect("stage map"),
        ));
        rt.add_subscriber(Filter::for_class(class).eq("region", 0i64))
            .expect("place subscriber");
    }

    let publisher = rt.publisher();
    let start = Instant::now();
    for seq in 0..events as u64 {
        let idx = (seq as usize) % CLASSES;
        let mut meta = EventData::new();
        meta.insert("region", 0i64);
        meta.insert("level", (seq % 100) as i64);
        publisher.publish(Envelope::from_meta(
            classes[idx],
            format!("Feed{idx}"),
            EventSeq(seq),
            meta,
        ));
    }
    assert!(
        rt.wait_delivered(events as u64, Duration::from_secs(120)),
        "transport run delivered {} of {events}",
        rt.stats().delivered()
    );
    let elapsed = start.elapsed();
    let report = rt.shutdown();
    assert_eq!(report.stats.delivered(), events as u64);
    assert_eq!(report.stats.decode_errors(), 0);
    events as f64 / elapsed.as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let iters: usize = args.get(2).map_or(20_000, |s| {
        s.parse().expect("iters must be a positive integer")
    });
    assert!(iters >= 64, "iters must be at least 64");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let msgs = workload();
    eprintln!("E21: codec microbench, {iters} iterations per codec …");
    let results = [
        bench_binary(DictMode::Shared, "binary_shared", &msgs, iters),
        bench_binary(DictMode::Negotiated, "binary_negotiated", &msgs, iters),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.0}", r.encode_ns_per_msg),
                format!("{:.0}", r.decode_ns_per_msg),
                format!("{:.1}", r.bytes_per_msg),
            ]
        })
        .collect();
    println!("wire codec cost per message (E17 publish workload):\n");
    println!(
        "{}",
        render_table(&["codec", "encode ns", "decode ns", "bytes"], &rows)
    );

    let events = (iters / 4).max(1000);
    eprintln!("E21: transport comparison, {events} events per run …");
    let mpsc_eps = transport_run(TransportKind::Mpsc, events);
    let tcp_eps = transport_run(TransportKind::Tcp, events);
    println!("transport (binary codec, 2 shards, {events} events, {cores} cores):\n");
    println!(
        "{}",
        render_table(
            &["transport", "events/sec"],
            &[
                vec!["mpsc".into(), format!("{mpsc_eps:.0}")],
                vec!["tcp".into(), format!("{tcp_eps:.0}")],
            ]
        )
    );
    println!(
        "reading guide: the codec table is per-message serde cost at\n\
         steady state — negotiated mode pays its dictionary announcement\n\
         once per connection, so steady-state bytes match shared mode.\n\
         The transport rows run the identical pipeline; the TCP delta is\n\
         the price of real sockets (syscalls, copies, nodelay writes)\n\
         and buys process isolation, not speed.\n"
    );

    // ---- machine-readable output --------------------------------------
    let codec_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"encode_ns_per_msg\": {:.1}, \
                 \"decode_ns_per_msg\": {:.1}, \"bytes_per_msg\": {:.2}}}",
                r.name, r.encode_ns_per_msg, r.decode_ns_per_msg, r.bytes_per_msg
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E21\",\n  \"iters\": {iters},\n  \
         \"cores\": {cores},\n  \"codec\": [\n{}\n  ],\n  \
         \"bytes_per_msg_bound\": {BYTES_PER_MSG_BOUND:.1},\n  \
         \"transport\": [\n    \
         {{\"name\": \"mpsc\", \"events_per_sec\": {mpsc_eps:.1}}},\n    \
         {{\"name\": \"tcp\", \"events_per_sec\": {tcp_eps:.1}}}\n  ]\n}}\n",
        codec_json.join(",\n")
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_wire.json");
    std::fs::write(&path, &json).expect("write BENCH_wire.json");
    println!("wrote {path}");

    // ---- regression gate ----------------------------------------------
    for r in &results {
        assert!(
            r.bytes_per_msg <= BYTES_PER_MSG_BOUND,
            "{} must use <= {BYTES_PER_MSG_BOUND} bytes/msg, got {:.1}",
            r.name,
            r.bytes_per_msg
        );
    }
    assert!(
        mpsc_eps > 0.0 && tcp_eps > 0.0,
        "transport runs must complete"
    );
    println!("regression gate passed: <= {BYTES_PER_MSG_BOUND} wire bytes/msg.");
}
