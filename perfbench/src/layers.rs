//! The traced run: the workload's exact inputs replayed through each
//! layer's public functions with spans around every call, plus a traced
//! runtime run compared with an untraced one for the tracing overhead.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use layercake_event::{
    BinCodec, DecodeDict, DictMode, EncodeDict, Envelope, EventClass, StageMap, WireReader,
};
use layercake_filter::{weaken_to_stage, AggTable, DestId, Filter, FilterTable, IndexKind};
use layercake_metrics::Histogram;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};
use layercake_overlay::{OverlayMsg, OverlaySim};
use layercake_rt::{wire, LinkDecoder, RtReport, RtSnapshot, WireCodec};
use layercake_sim::ActorId;

use crate::drive::{self, Audit, Collector};
use crate::spans::Spans;
use crate::workload::{Inputs, SubKind};
use crate::{median, metric, Metric, Outcome};

/// Events replayed through the codec, wire, filter and agg layers.
const REPLAY_EVENTS: usize = 20_000;
/// Stage-0 checks replayed (hosts of `fanout_zipf` hold 2500 branches).
const EVAL_CHECKS: usize = 5_000;
/// Records appended in the WAL replay (fsync-bound).
const WAL_RECORDS: usize = 2_048;
/// Subscriber acks in the WAL replay come every this many records, as
/// the subscriber batches them.
const ACK_EVERY: usize = 8;
const HIST_BATCH: usize = 1024;
/// Largest per-stage false-positive ratio difference allowed between
/// the sim replay and the runtime. Placement walks of one host's
/// branches run concurrently, and their interleaving (so which broker
/// hosts which branch) is wall-clock dependent in the runtime; with
/// serial placement the counts are equal.
const SIM_FP_TOLERANCE: f64 = 0.05;

/// Span names of per-stage table matches (stage 1 = leaf brokers).
const MATCH_SPANS: [&str; 5] = [
    "filter.match.stage0",
    "filter.match.stage1",
    "filter.match.stage2",
    "filter.match.stage3",
    "filter.match.stage4",
];

pub fn traced(inputs: &Inputs, seconds: f64, out_dir: &Path) -> Outcome {
    let mut spans = Spans::new();
    let sat_budget = Duration::from_secs_f64(seconds * 0.25);
    let fixed_n = inputs.fixed.len() / 2;
    let sat_lo = inputs.fixed.len();

    // Untraced runtime: the baseline of the tracing overhead, and the
    // allocation count of the saturation phase.
    let (tx, rx) = channel();
    let coll_a = Collector::spawn(rx, 0, inputs.fixed_rate, 0);
    let a = drive::start(inputs, Some(&tx), 0, out_dir, None);
    drop(tx);
    let sat_a = drive::saturation(inputs, &a, sat_budget, usize::MAX);
    let audit_a = drive::finish(
        inputs,
        a,
        std::slice::from_ref(&(sat_lo..sat_lo + sat_a.published as usize)),
    )
    .audit;
    coll_a.join();

    // Traced runtime: every frame stage-profiled, a span per publish and
    // per placement; same saturation rounds as the untraced one.
    let (tx, rx) = channel();
    let coll_b = Collector::spawn(rx, fixed_n, inputs.fixed_rate, 2 * fixed_n);
    let b = drive::start(inputs, Some(&tx), 1, out_dir, Some(&mut spans));
    drop(tx);
    let fixed_b = drive::fixed_phase(inputs, &b, &coll_b, 0..fixed_n, Some(&mut spans));
    // Stage profile and publish-queue wait under the fixed-rate load
    // only; the saturation backlog would swamp them.
    let snap_fixed = b.rt.snapshot();
    let sat_b = drive::saturation(inputs, &b, Duration::MAX, sat_a.round_eps.len());
    let ranges_b = [0..fixed_n, sat_lo..sat_lo + sat_b.published as usize];
    let done = drive::finish(inputs, b, &ranges_b);
    let (audit_b, report) = (done.audit, &done.report);
    let p50_b = coll_b.join().windowed_us(inputs.fixed_rate, 0.5);

    let replay: Vec<&Envelope> = inputs
        .fixed
        .iter()
        .chain(&inputs.sat)
        .take(REPLAY_EVENTS)
        .collect();
    let mut m: Vec<Metric> = Vec::new();
    let mut detail: Vec<Metric> = Vec::new();
    event_layer(&replay, &mut spans, &mut m);
    rt_layer(&replay, &sat_a, &snap_fixed, &mut spans, &mut m);
    let reached = filter_layer(inputs, &replay, &done, &mut spans, &mut m, &mut detail);
    eval_and_weaken(inputs, &reached, &replay, &mut spans, &mut m);
    agg_layer(inputs, &replay, &mut spans, &mut m);
    let sim_ok = overlay_layer(inputs, &ranges_b, report, &mut m, &mut detail);
    wal_layer(
        inputs,
        &replay,
        report,
        out_dir,
        &mut spans,
        &mut m,
        &mut detail,
    );
    hist_layer(&replay, &mut spans, &mut m);

    // Ledger: the fixed-rate p50 minus the per-hop medians on the path
    // publisher → each broker stage → subscriber.
    let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let hop_in = snap_p50(&snap_fixed, "stage.ingress_wait_ns") + get("rt.wire_decode_ns");
    let mut path_ns = spans.median_ns("rt.publish");
    for stage in (1..=inputs.stages()).rev() {
        path_ns += hop_in + spans.median_ns(MATCH_SPANS[stage]) + get("rt.wire_encode_ns");
    }
    path_ns += hop_in + get("filter.eval_ns");
    m.push(metric("ledger.unaccounted_us", p50_b - path_ns / 1e3, "us"));
    let eps_a = median(&sat_a.round_eps);
    let eps_b = median(&sat_b.round_eps);
    m.push(metric("trace.overhead_ratio", eps_a / eps_b - 1.0, "ratio"));
    detail.push(metric("trace.latency_p50_us", p50_b, "us"));
    detail.push(metric("trace.untraced_eps", eps_a, "events/s"));
    detail.push(metric("trace.traced_eps", eps_b, "events/s"));

    let stem = format!("{}-seed{}", inputs.kind.name(), inputs.seed);
    let spans_path = out_dir.join(format!("{stem}-spans.jsonl"));
    if let Err(e) = spans.write(&spans_path) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }
    let layer_json: Vec<String> = m
        .iter()
        .chain(&detail)
        .map(|x| {
            format!(
                "  \"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    let _ = std::fs::write(
        out_dir.join(format!("{stem}-layers.json")),
        format!("{{\n{}\n}}\n", layer_json.join(",\n")),
    );
    for d in &detail {
        println!("# detail {:<32} {:>14.4} {}", d.name, d.value, d.unit);
    }
    print_audit("untraced", &audit_a);
    print_audit("traced", &audit_b);

    let failed = audit_a.failed()
        + audit_b.failed()
        + u64::from(sat_a.failed_rounds + sat_b.failed_rounds)
        + u64::from(!sim_ok);
    Outcome {
        correct: failed == 0 && fixed_b.drained && !sat_b.round_eps.is_empty(),
        attempted: (audit_a.expected + audit_b.expected).max(1),
        failed,
        metrics: m,
    }
}

fn print_audit(what: &str, a: &Audit) {
    println!(
        "# audit {what}: expected {} confirmed {} missing {} duplicate {} unexpected {} errors {}",
        a.expected, a.confirmed, a.missing, a.duplicate, a.unexpected, a.errors
    );
}

fn snap_p50(snap: &RtSnapshot, name: &str) -> f64 {
    snap.stage(name).map_or(0.0, |h| h.p50() as f64)
}

/// `event`: the binary envelope codec.
fn event_layer(replay: &[&Envelope], spans: &mut Spans, m: &mut Vec<Metric>) {
    let mut ed = EncodeDict::new(DictMode::Shared);
    let dd = DecodeDict::new(DictMode::Shared);
    let mut encoded = Vec::with_capacity(replay.len());
    let mut bytes = 0usize;
    for env in replay {
        let mut out = Vec::with_capacity(256);
        spans.time("event.encode", None, Some(env.seq().0), || {
            env.encode_bin(&mut out, &mut ed)
        });
        bytes += out.len();
        encoded.push(out);
    }
    for (env, buf) in replay.iter().zip(&encoded) {
        let back = spans.time("event.decode", None, Some(env.seq().0), || {
            Envelope::decode_bin(&mut WireReader::new(buf), &dd)
        });
        assert_eq!(back.expect("envelope decodes").seq(), env.seq());
    }
    // Allocations per decode, counted without spans in the loop.
    let before = crate::alloc::count();
    for buf in &encoded {
        std::hint::black_box(Envelope::decode_bin(&mut WireReader::new(buf), &dd).ok());
    }
    let allocs = crate::alloc::count() - before;
    let n = replay.len().max(1) as f64;
    m.push(metric(
        "event.encode_ns",
        spans.median_ns("event.encode"),
        "ns",
    ));
    m.push(metric(
        "event.decode_ns",
        spans.median_ns("event.decode"),
        "ns",
    ));
    m.push(metric("event.decode_allocs", allocs as f64 / n, "count"));
    m.push(metric("event.bytes", bytes as f64 / n, "B"));
}

/// `rt`: publish, the wire layer, and the runtime's own counters.
/// `snap` is taken at the end of the fixed-rate phase.
fn rt_layer(
    replay: &[&Envelope],
    sat_a: &drive::Saturation,
    snap: &RtSnapshot,
    spans: &mut Spans,
    m: &mut Vec<Metric>,
) {
    let mut dict = EncodeDict::new(DictMode::Shared);
    let mut dec = LinkDecoder::new(WireCodec::Binary);
    let mut buf = Vec::with_capacity(512);
    for env in replay {
        let seq = Some(env.seq().0);
        let msg = OverlayMsg::Publish((*env).clone());
        buf.clear();
        spans
            .time("rt.wire_encode", None, seq, || {
                wire::encode_msg_into(WireCodec::Binary, ActorId(0), &msg, &mut dict, &mut buf)
            })
            .expect("wire encode");
        let got = spans.time("rt.wire_decode", None, seq, || {
            dec.push(&buf);
            dec.next_msg()
        });
        assert!(matches!(got, Ok(Some(_))), "wire frame decodes");
    }
    let published = sat_a.published.max(1) as f64;
    m.push(metric("rt.publish_ns", spans.median_ns("rt.publish"), "ns"));
    m.push(metric(
        "rt.wire_encode_ns",
        spans.median_ns("rt.wire_encode"),
        "ns",
    ));
    m.push(metric(
        "rt.wire_decode_ns",
        spans.median_ns("rt.wire_decode"),
        "ns",
    ));
    m.push(metric(
        "rt.frames_per_event",
        sat_a.frames as f64 / published,
        "count",
    ));
    m.push(metric(
        "rt.allocs_per_event",
        sat_a.allocs as f64 / published,
        "count",
    ));
    m.push(metric(
        "rt.add_subscriber_ms",
        spans.median_ns("rt.add_subscriber") / 1e6,
        "ms",
    ));
    m.push(metric(
        "rt.queue_wait_p50_us",
        snap.queue_wait_ns.p50() as f64 / 1e3,
        "us",
    ));
    for (name, stage) in [
        ("ingress_wait", "stage.ingress_wait_ns"),
        ("decode", "stage.decode_ns"),
        ("match", "stage.match_ns"),
        ("encode", "stage.encode_ns"),
        ("egress_send", "stage.egress_send_ns"),
    ] {
        m.push(metric(
            format!("rt.stage.{name}_p50_ns"),
            snap_p50(snap, stage),
            "ns",
        ));
    }
}

/// `filter`: broker tables rebuilt from the traced runtime's final
/// state, with every replayed event routed from the root as the
/// brokers route it. Returns the (event, subscriber) pairs reached.
fn filter_layer(
    inputs: &Inputs,
    replay: &[&Envelope],
    done: &drive::Finished,
    spans: &mut Spans,
    m: &mut Vec<Metric>,
    detail: &mut Vec<Metric>,
) -> Vec<(usize, usize)> {
    let (report, snap) = (&done.report, &done.snapshot);
    let reg = &inputs.registry;
    let mut tables: HashMap<ActorId, (usize, FilterTable)> = HashMap::new();
    let mut root = None;
    for ((id, _shard), broker) in &report.brokers {
        let mut t = FilterTable::new(IndexKind::Compiled);
        for (f, dests) in broker.table_entries() {
            for d in dests {
                t.insert(f.clone(), d);
            }
        }
        if broker.is_root() {
            root = Some(*id);
        }
        tables.insert(*id, (broker.stage(), t));
    }
    let root = root.expect("runtime report holds the root broker");
    let sub_of: HashMap<ActorId, usize> = done
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let mut reached = Vec::new();
    let (mut calls, mut dests_total) = (0u64, 0u64);
    let mut out: Vec<DestId> = Vec::new();
    for (ei, env) in replay.iter().enumerate() {
        let seq = Some(env.seq().0);
        let a = Instant::now();
        let mut frontier = vec![root];
        let mut children = Vec::new();
        while let Some(b) = frontier.pop() {
            let (stage, table) = tables.get_mut(&b).expect("routed to a known broker");
            let t0 = Instant::now();
            table.matches(env.class(), env.meta(), reg, &mut out);
            children.push((MATCH_SPANS[*stage], t0, Instant::now()));
            calls += 1;
            dests_total += out.len() as u64;
            for d in &out {
                let actor = ActorId(usize::try_from(d.0).expect("dest fits usize"));
                if tables.contains_key(&actor) {
                    frontier.push(actor);
                } else if let Some(&si) = sub_of.get(&actor) {
                    reached.push((ei, si));
                }
            }
        }
        let parent = spans.record("filter.route", a, Instant::now(), None, seq);
        for (name, s, e) in children {
            spans.record(name, s, e, Some(parent), seq);
        }
    }
    let stages = inputs.stages();
    let mut entries = vec![0usize; stages + 1];
    for (stage, t) in tables.values() {
        entries[*stage] += t.filter_count();
    }
    for stage in 1..=stages {
        detail.push(metric(
            format!("filter.match_ns.stage{stage}"),
            spans.median_ns(MATCH_SPANS[stage]),
            "ns",
        ));
        detail.push(metric(
            format!("filter.entries.stage{stage}"),
            entries[stage] as f64,
            "count",
        ));
    }
    m.push(metric(
        "filter.match_ns.stage1",
        spans.median_ns(MATCH_SPANS[1]),
        "ns",
    ));
    m.push(metric(
        "filter.match_ns.root",
        spans.median_ns(MATCH_SPANS[stages]),
        "ns",
    ));
    m.push(metric("filter.entries.stage1", entries[1] as f64, "count"));
    m.push(metric(
        "filter.entries.root",
        entries[stages] as f64,
        "count",
    ));
    m.push(metric(
        "filter.dests_per_match",
        dests_total as f64 / calls.max(1) as f64,
        "count",
    ));
    m.push(metric(
        "rt.filter_table_entries",
        snap.filter_table_entries as f64,
        "count",
    ));
    m.push(metric(
        "rt.agg_covered_subs",
        snap.agg_covered_subs as f64,
        "count",
    ));
    reached
}

fn class_of<'a>(inputs: &'a Inputs, f: &Filter) -> (&'a EventClass, &'a StageMap) {
    let class = f.class().expect("workload filters name their class");
    let def = inputs.registry.class(class).expect("registered class");
    let adv = inputs
        .adverts
        .iter()
        .find(|a| a.class == class)
        .expect("advertised class");
    (def, &adv.stage_map)
}

/// The subscriber's stage-0 check and the weakening of every filter.
fn eval_and_weaken(
    inputs: &Inputs,
    reached: &[(usize, usize)],
    replay: &[&Envelope],
    spans: &mut Spans,
    m: &mut Vec<Metric>,
) {
    let reg = &inputs.registry;
    for &(ei, si) in reached.iter().take(EVAL_CHECKS) {
        let env = replay[ei];
        let filters = &inputs.subs[si].filters;
        spans.time("filter.eval", None, Some(env.seq().0), || {
            std::hint::black_box(filters.iter().any(|f| f.matches_envelope(env, reg)))
        });
    }
    for f in inputs.subs.iter().flat_map(|s| &s.filters).take(4_000) {
        let (def, map) = class_of(inputs, f);
        for stage in 1..=inputs.stages() {
            spans.time("filter.weaken", None, None, || {
                std::hint::black_box(weaken_to_stage(f, def, map, stage))
            });
        }
    }
    m.push(metric(
        "filter.eval_ns",
        spans.median_ns("filter.eval"),
        "ns",
    ));
    m.push(metric(
        "filter.weaken_ns",
        spans.median_ns("filter.weaken"),
        "ns",
    ));
}

/// `filter::agg`: the workload's subscriptions, in their stage-1 form,
/// through an `AggTable`.
fn agg_layer(inputs: &Inputs, replay: &[&Envelope], spans: &mut Spans, m: &mut Vec<Metric>) {
    let reg = &inputs.registry;
    let mut agg = AggTable::new(IndexKind::Compiled);
    let mut pairs = Vec::new();
    for (si, sub) in inputs.subs.iter().enumerate() {
        for f in &sub.filters {
            let (def, map) = class_of(inputs, f);
            let w = weaken_to_stage(f, def, map, 1);
            let dest = DestId(si as u64);
            spans.time("agg.insert", None, None, || {
                agg.insert(w.clone(), dest, reg)
            });
            pairs.push((w, dest));
        }
    }
    let mut out = Vec::new();
    for env in replay {
        spans.time("agg.match", None, Some(env.seq().0), || {
            agg.matches(env.class(), env.meta(), reg, &mut out);
        });
    }
    let live = agg.live_entries() as f64 / agg.subscription_count().max(1) as f64;
    let covered = agg.covered_subs() as f64;
    for (f, dest) in pairs.iter().step_by(4) {
        spans.time("agg.remove", None, None, || agg.remove(f, *dest, reg));
    }
    m.push(metric("agg.insert_ns", spans.median_ns("agg.insert"), "ns"));
    m.push(metric("agg.remove_ns", spans.median_ns("agg.remove"), "ns"));
    m.push(metric("agg.match_ns", spans.median_ns("agg.match"), "ns"));
    m.push(metric("agg.live_ratio", live, "ratio"));
    m.push(metric("agg.covered_subs", covered, "count"));
}

/// Per-stage (received, matched) over the brokers of each stage.
fn stage_counts(
    records: impl Iterator<Item = (usize, u64, u64)>,
    stages: usize,
) -> Vec<(u64, u64)> {
    let mut c = vec![(0u64, 0u64); stages + 1];
    for (stage, received, matched) in records {
        c[stage].0 += received;
        c[stage].1 += matched;
    }
    c
}

/// `overlay`: broker false-positive ratios, subscriber evaluations, and
/// a one-thread `OverlaySim` replay of the traced runtime's inputs.
/// Returns whether the sim's per-stage false-positive ratios agree with
/// the runtime's within [`SIM_FP_TOLERANCE`].
fn overlay_layer(
    inputs: &Inputs,
    published: &[std::ops::Range<usize>],
    report: &RtReport,
    m: &mut Vec<Metric>,
    detail: &mut Vec<Metric>,
) -> bool {
    let stages = inputs.stages();
    let rt_counts = stage_counts(
        report.brokers.iter().map(|(_, b)| {
            let r = b.record();
            (r.stage, r.received, r.matched)
        }),
        stages,
    );
    let n_published: usize = published.iter().map(ExactSizeIterator::len).sum();
    let evals: u64 = report
        .subscribers
        .iter()
        .map(|s| s.record().evaluations)
        .sum();

    let mut sim = OverlaySim::new(
        inputs.overlay.clone(),
        std::sync::Arc::clone(&inputs.registry),
    );
    for adv in &inputs.adverts {
        sim.advertise(adv.clone());
    }
    sim.settle();
    for sub in &inputs.subs {
        match sub.kind {
            SubKind::Tapped | SubKind::Host => sim.add_subscriber_any(sub.filters.clone(), None),
            SubKind::Durable => sim.add_durable_subscriber(sub.filters[0].clone()),
        }
        .expect("sim places subscriber");
        sim.settle();
    }
    let a = Instant::now();
    for range in published {
        for chunk in range.clone().collect::<Vec<_>>().chunks(1024) {
            for &seq in chunk {
                sim.publish(inputs.event(seq).clone());
            }
            sim.settle();
        }
    }
    let sim_eps = n_published as f64 / a.elapsed().as_secs_f64();
    let sim_counts = stage_counts(
        sim.brokers()
            .iter()
            .filter_map(|&id| sim.broker(id))
            .map(|b| {
                let r = b.record();
                (r.stage, r.received, r.matched)
            }),
        stages,
    );
    let fp = |c: (u64, u64)| 1.0 - c.1 as f64 / c.0.max(1) as f64;
    for stage in 1..=stages {
        detail.push(metric(
            format!("overlay.broker_fp_ratio.stage{stage}"),
            fp(rt_counts[stage]),
            "ratio",
        ));
        detail.push(metric(
            format!("overlay.sim_fp_ratio.stage{stage}"),
            fp(sim_counts[stage]),
            "ratio",
        ));
    }
    let delta = (1..=stages)
        .map(|s| (fp(rt_counts[s]) - fp(sim_counts[s])).abs())
        .fold(0.0, f64::max);
    detail.push(metric("overlay.sim_fp_delta", delta, "ratio"));
    let agree = delta <= SIM_FP_TOLERANCE;
    println!(
        "# sim vs runtime per-stage (received, matched): runtime {rt_counts:?} sim {sim_counts:?}"
    );
    m.push(metric(
        "overlay.broker_fp_ratio.stage1",
        fp(rt_counts[1]),
        "ratio",
    ));
    m.push(metric(
        "overlay.broker_fp_ratio.root",
        fp(rt_counts[stages]),
        "ratio",
    ));
    m.push(metric(
        "overlay.sub_evals_per_event",
        evals as f64 / n_published.max(1) as f64,
        "count",
    ));
    m.push(metric("overlay.sim_eps", sim_eps, "events/s"));
    agree
}

/// `overlay::wal`: a `DurableLog` on `FileStorage` fed the replayed
/// events, batching fsyncs as the overlay config does.
fn wal_layer(
    inputs: &Inputs,
    replay: &[&Envelope],
    report: &RtReport,
    out_dir: &Path,
    spans: &mut Spans,
    m: &mut Vec<Metric>,
    detail: &mut Vec<Metric>,
) {
    let dir = out_dir.join(format!("walreplay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = FileStorage::open(&dir).expect("open replay WAL directory");
    let flush_every = inputs.overlay.wal_flush_every.max(1);
    let mut log = DurableLog::open(
        Box::new(storage),
        LogConfig {
            segment_bytes: inputs.overlay.wal_segment_bytes,
            flush_every: usize::MAX,
        },
    );
    let consumer = DestId(u64::MAX - 1);
    let mut classes = Vec::new();
    for env in replay.iter().take(WAL_RECORDS) {
        if !classes.contains(&env.class()) {
            classes.push(env.class());
            log.register_consumer(consumer, env.class());
        }
    }
    for (i, env) in replay.iter().take(WAL_RECORDS).enumerate() {
        let seq = Some(env.seq().0);
        let off = spans.time("wal.append", None, seq, || log.append(env));
        if (i + 1) % flush_every == 0 {
            spans.time("wal.flush", None, seq, || log.flush());
        }
        if (i + 1) % ACK_EVERY == 0 {
            spans.time("wal.ack", None, seq, || log.ack(consumer, env.class(), off));
        }
    }
    log.flush();
    let stats = log.stats().clone();
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    // The durable workload's own runtime log, when it has one.
    let rt = report.durability();
    if rt.records_appended > 0 {
        let per = |x: u64| x as f64 * 1000.0 / rt.records_appended as f64;
        detail.push(metric(
            "wal.rt_records_appended",
            rt.records_appended as f64,
            "count",
        ));
        detail.push(metric(
            "wal.rt_replayed_per_1k",
            per(rt.records_replayed),
            "count",
        ));
    }
    let counts = if rt.records_appended > 0 {
        rt
    } else {
        stats.clone()
    };
    let per_1k = |x: u64| x as f64 * 1000.0 / counts.records_appended.max(1) as f64;
    m.push(metric("wal.append_ns", spans.median_ns("wal.append"), "ns"));
    m.push(metric("wal.flush_ns", spans.median_ns("wal.flush"), "ns"));
    m.push(metric("wal.ack_ns", spans.median_ns("wal.ack"), "ns"));
    m.push(metric(
        "wal.bytes_per_record",
        stats.bytes_fsynced as f64 / stats.records_appended.max(1) as f64,
        "B",
    ));
    m.push(metric(
        "wal.fsyncs_per_1k",
        per_1k(counts.fsync_batches),
        "count",
    ));
    m.push(metric(
        "wal.rotations_per_1k",
        per_1k(counts.segments_rotated),
        "count",
    ));
}

/// `metrics`: the log2 histogram's record path, timed in batches.
fn hist_layer(replay: &[&Envelope], spans: &mut Spans, m: &mut Vec<Metric>) {
    let values: Vec<u64> = replay
        .iter()
        .map(|e| e.seq().0.wrapping_mul(2_654_435_761) % 1_000_000)
        .collect();
    let mut h = Histogram::new();
    for batch in values.chunks_exact(HIST_BATCH) {
        spans.time("metrics.hist_record_x1024", None, None, || {
            for &v in batch {
                h.record(v);
            }
        });
    }
    std::hint::black_box(h.count());
    m.push(metric(
        "metrics.hist_record_ns",
        spans.median_ns("metrics.hist_record_x1024") / HIST_BATCH as f64,
        "ns",
    ));
}
