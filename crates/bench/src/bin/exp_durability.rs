//! E18 — durability cost and recovery: what the segmented event log
//! charges on the hot path and how fast a crashed broker comes back.
//!
//! Three direct measurements against a real on-disk [`DurableLog`]
//! (`FileStorage`, real fsync), plus one end-to-end crash/restart run
//! through the wall-clock runtime:
//!
//!   1. **fsync batching sweep** — append the same event stream with
//!      `flush_every` ∈ {1, 8, 64}: appends/sec vs fsync batches. This
//!      is the paper's durability trade-off made concrete: a shorter
//!      flush interval buys a shorter unsynced tail (fewer events lost
//!      to a power cut) at a per-append fsync price.
//!   2. **recovery time** — reopen the logged directory cold and time
//!      `DurableLog::open`, which CRC-scans every record of every
//!      segment and truncates any torn tail. This is the broker's
//!      restart-to-serving latency contribution.
//!   3. **replay throughput** — register a consumer at offset 0 and
//!      drain `replay_after`, timing decode of the full history. This
//!      bounds how fast a reconnecting durable subscriber catches up.
//!   4. **runtime crash/restart** — a small `layercake-rt` run with a
//!      durable subscriber: publish, `kill()` (no final flush), restart
//!      over the same directory, and verify zero event loss across the
//!      two runs with a non-empty replay.
//!
//! Shape checks (the binary exits non-zero on violation): every append
//! lands in the log; fsync batches strictly shrink as the flush
//! interval grows; recovery recovers the full tail with no torn
//! truncation; replay returns the entire history in offset order; the
//! runtime crash/restart loses nothing.
//!
//! Run with: `cargo run --release -p layercake-bench --bin
//! exp_durability [out_dir] [events]` — `out_dir` (default
//! `docs/results`) receives `BENCH_durability.json`; `events` (default
//! 20000) sizes the logged history (CI smoke runs pass a smaller
//! value).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::{DestId, Filter};
use layercake_metrics::render_table;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, Runtime};

const FLUSH_SWEEP: [usize; 3] = [1, 8, 64];
const CLASS: ClassId = ClassId(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("layercake-e18-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_event(seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", 0i64);
    meta.insert("level", (seq % 100) as i64);
    Envelope::from_meta(CLASS, "Feed0", EventSeq(seq), meta)
}

fn open_log(dir: &Path, flush_every: usize) -> DurableLog {
    let storage = FileStorage::open(dir.to_path_buf()).expect("open log storage");
    DurableLog::open(
        Box::new(storage),
        LogConfig {
            flush_every,
            ..LogConfig::default()
        },
    )
}

struct SweepRow {
    flush_every: usize,
    appends_per_sec: f64,
    fsync_batches: u64,
    bytes_fsynced: u64,
    segments: usize,
}

/// Appends the same `events`-long stream under one flush interval,
/// keeping a consumer registered so nothing compacts mid-run.
fn sweep_cell(flush_every: usize, events: u64) -> SweepRow {
    let dir = scratch_dir(&format!("sweep{flush_every}"));
    let mut log = open_log(&dir, flush_every);
    log.register_consumer(DestId(1), CLASS);
    let stream: Vec<Envelope> = (0..events).map(bench_event).collect();

    let start = Instant::now();
    for env in &stream {
        log.append(env);
    }
    log.flush();
    let elapsed = start.elapsed();

    assert_eq!(log.tail_off(CLASS), events, "every append must land");
    let row = SweepRow {
        flush_every,
        appends_per_sec: events as f64 / elapsed.as_secs_f64(),
        fsync_batches: log.stats().fsync_batches,
        bytes_fsynced: log.stats().bytes_fsynced,
        segments: log.segment_count(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

struct RecoveryResult {
    open_ms: f64,
    scanned_per_sec: f64,
    replay_ms: f64,
    replayed_per_sec: f64,
}

/// Logs `events` records, drops the log, then times a cold reopen
/// (full CRC rescan) and a from-zero replay of the whole history.
fn recovery_and_replay(events: u64) -> RecoveryResult {
    let dir = scratch_dir("recover");
    {
        let mut log = open_log(&dir, 8);
        log.register_consumer(DestId(1), CLASS);
        for seq in 0..events {
            log.append(&bench_event(seq));
        }
        log.flush();
    }

    let start = Instant::now();
    let mut log = open_log(&dir, 8);
    let open = start.elapsed();
    assert_eq!(log.tail_off(CLASS), events, "recovery must find the tail");
    assert_eq!(log.stats().torn_truncations, 0, "a clean log has no tears");

    let start = Instant::now();
    let replayed = log.replay_after(CLASS, 0);
    let replay = start.elapsed();
    assert_eq!(replayed.len() as u64, events, "replay returns everything");
    assert!(
        replayed.windows(2).all(|w| w[0].0 < w[1].0),
        "replay must come back in offset order"
    );

    let _ = std::fs::remove_dir_all(&dir);
    RecoveryResult {
        open_ms: open.as_secs_f64() * 1000.0,
        scanned_per_sec: events as f64 / open.as_secs_f64(),
        replay_ms: replay.as_secs_f64() * 1000.0,
        replayed_per_sec: events as f64 / replay.as_secs_f64(),
    }
}

struct CrashRestart {
    first_delivered: u64,
    replayed: u64,
    recovered_total: u64,
}

/// What a runtime restarted over `dir` replays ahead of its first new
/// event: every logged record past its durable consumer's persisted
/// offset, summed over the shard logs (`<dir>/b<b>/s<s>`).
fn unacked_backlog(dir: &Path) -> u64 {
    let mut backlog = 0;
    for broker in std::fs::read_dir(dir).expect("read durable dir") {
        for shard in std::fs::read_dir(broker.expect("broker dir").path()).expect("read broker dir")
        {
            let log = open_log(&shard.expect("shard dir").path(), 1);
            for dest in log.consumer_dests() {
                for class in log.consumer_classes(dest) {
                    backlog += log.tail_off(class) - log.acked_upto(dest, class);
                }
            }
        }
    }
    backlog
}

/// End-to-end through the runtime: log under real traffic, kill the
/// process state without the final flush, restart over the directory,
/// and count what the durable subscriber gets back.
fn rt_crash_restart(events: u64) -> CrashRestart {
    let dir = scratch_dir("rt");
    // `replay` is how many logged records the run delivers ahead of its
    // own events; it waits for both.
    let run = |seqs: std::ops::Range<u64>, replay: u64, crash: bool| {
        let mut registry = TypeRegistry::new();
        let class = registry
            .register(
                "Feed0",
                None,
                vec![
                    AttributeDecl::new("region", ValueKind::Int),
                    AttributeDecl::new("level", ValueKind::Int),
                ],
            )
            .expect("register bench class");
        assert_eq!(class, CLASS);
        let overlay = OverlayConfig {
            levels: vec![1],
            durability_enabled: true,
            ..OverlayConfig::default()
        };
        let mut cfg = RtConfig::new(overlay, 2);
        cfg.durable_dir = Some(dir.clone());
        let mut rt = Runtime::start(cfg, Arc::new(registry)).expect("start runtime");
        rt.advertise(Advertisement::new(
            CLASS,
            StageMap::from_prefixes(&[1]).expect("stage map"),
        ));
        let sub = rt
            .add_durable_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
            .expect("place durable subscriber");
        let n = seqs.end - seqs.start;
        let publisher = rt.publisher();
        for seq in seqs {
            publisher.publish(bench_event(seq));
        }
        assert!(
            rt.wait_delivered(replay + n, Duration::from_secs(120)),
            "crash-restart run delivered {} of {replay} replayed + {n} new",
            rt.stats().delivered()
        );
        let report = if crash { rt.kill() } else { rt.shutdown() };
        (report.deliveries(sub).to_vec(), report.durability())
    };

    let half = events / 2;
    let (first, _) = run(0..half, 0, true);
    let (second, d2) = run(half..events, unacked_backlog(&dir), false);
    let union: BTreeSet<EventSeq> = first.iter().chain(second.iter()).copied().collect();
    assert_eq!(
        union.len() as u64,
        events,
        "crash/restart must lose nothing ({} of {events} recovered)",
        union.len()
    );
    assert!(d2.records_replayed > 0, "the lost acks must force a replay");
    let _ = std::fs::remove_dir_all(&dir);
    CrashRestart {
        first_delivered: first.len() as u64,
        replayed: d2.records_replayed,
        recovered_total: union.len() as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let events: u64 = args.get(2).map_or(20_000, |s| {
        s.parse().expect("events must be a positive integer")
    });
    assert!(events >= 64, "events must be at least 64");

    eprintln!("E18: fsync batching sweep, {events} appends per cell …");
    let sweep: Vec<SweepRow> = FLUSH_SWEEP
        .iter()
        .map(|&fe| {
            let row = sweep_cell(fe, events);
            eprintln!(
                "  flush_every={fe}: {:.0} appends/sec, {} fsync batches",
                row.appends_per_sec, row.fsync_batches
            );
            row
        })
        .collect();

    eprintln!("E18: recovery + replay over {events} records …");
    let rec = recovery_and_replay(events);

    let rt_events = events.min(2048);
    eprintln!("E18: runtime crash/restart, {rt_events} events …");
    let cr = rt_crash_restart(rt_events);

    println!("durable log cost, {events} events per cell:\n");
    println!(
        "{}",
        render_table(
            &[
                "flush_every",
                "appends/sec",
                "fsync batches",
                "bytes fsynced",
                "segments"
            ],
            &sweep
                .iter()
                .map(|r| vec![
                    r.flush_every.to_string(),
                    format!("{:.0}", r.appends_per_sec),
                    r.fsync_batches.to_string(),
                    r.bytes_fsynced.to_string(),
                    r.segments.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "recovery: cold open (full CRC rescan) {:.2} ms ({:.0} records/sec)",
        rec.open_ms, rec.scanned_per_sec
    );
    println!(
        "replay:   from offset 0 {:.2} ms ({:.0} records/sec)",
        rec.replay_ms, rec.replayed_per_sec
    );
    println!(
        "runtime crash/restart: {} delivered, crash, restart replayed {} — \
         {} of {} recovered, zero loss.\n",
        cr.first_delivered, cr.replayed, cr.recovered_total, rt_events
    );
    println!(
        "reading guide: flush_every=1 prices an fsync into every append;\n\
         larger intervals amortize it at the cost of a longer unsynced\n\
         tail on power loss (an in-process crash loses only unflushed\n\
         acknowledgements, which replay absorbs). Recovery is linear in\n\
         logged bytes — compaction after consumer acks is what keeps it\n\
         short in steady state.\n"
    );

    // ---- machine-readable output --------------------------------------
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"flush_every\": {}, \"appends_per_sec\": {:.1}, \
                 \"fsync_batches\": {}, \"bytes_fsynced\": {}, \"segments\": {}}}",
                r.flush_every, r.appends_per_sec, r.fsync_batches, r.bytes_fsynced, r.segments
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E18\",\n  \"events\": {events},\n  \
         \"fsync_sweep\": [\n{}\n  ],\n  \
         \"recovery\": {{\"open_ms\": {:.3}, \"records_per_sec\": {:.1}}},\n  \
         \"replay\": {{\"replay_ms\": {:.3}, \"records_per_sec\": {:.1}}},\n  \
         \"rt_crash_restart\": {{\"events\": {rt_events}, \"first_delivered\": {}, \
         \"records_replayed\": {}, \"recovered\": {}, \"zero_loss\": true}}\n}}\n",
        sweep_json.join(",\n"),
        rec.open_ms,
        rec.scanned_per_sec,
        rec.replay_ms,
        rec.replayed_per_sec,
        cr.first_delivered,
        cr.replayed,
        cr.recovered_total,
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_durability.json");
    std::fs::write(&path, &json).expect("write BENCH_durability.json");
    println!("wrote {path}");

    // ---- shape checks -------------------------------------------------
    for w in sweep.windows(2) {
        assert!(
            w[0].fsync_batches > w[1].fsync_batches,
            "larger flush intervals must batch into fewer fsyncs \
             ({} at {}, {} at {})",
            w[0].fsync_batches,
            w[0].flush_every,
            w[1].fsync_batches,
            w[1].flush_every
        );
    }
    for r in &sweep {
        assert!(
            r.appends_per_sec > 0.0 && r.appends_per_sec.is_finite(),
            "appends/sec at flush_every={} must be positive",
            r.flush_every
        );
        assert!(r.bytes_fsynced > 0, "synced bytes must be accounted");
    }
    assert!(rec.scanned_per_sec > 0.0 && rec.replayed_per_sec > 0.0);
    println!("shape checks passed.");
}
