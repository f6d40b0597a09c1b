//! Egress coalescing under load: a node thread that drains a backlog
//! sends each downstream one channel frame per batch instead of one per
//! message. These tests pin what must not change with it — exact,
//! ordered delivery on both transports, per-message loss and requeue
//! accounting, and exactly-once recovery when a shard panics partway
//! through a coalesced frame.

use std::sync::Arc;
use std::time::Duration;

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, RtFaultPlan, RtReport, Runtime, TransportKind};

fn registry() -> (Arc<TypeRegistry>, ClassId) {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "Tick",
            None,
            vec![
                AttributeDecl::new("region", ValueKind::Int),
                AttributeDecl::new("level", ValueKind::Int),
            ],
        )
        .unwrap();
    (Arc::new(registry), class)
}

fn event(class: ClassId, seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", 0i64);
    meta.insert("level", seq as i64);
    Envelope::from_meta(class, "Tick", EventSeq(seq), meta)
}

const SUBSCRIBERS: usize = 8;

/// Starts `cfg`, places [`SUBSCRIBERS`] subscribers that all match
/// every event, floods `events` events, and shuts down once all of them
/// arrived. Returns the report and every subscriber's deliveries.
fn flood(cfg: RtConfig, stages: &[usize], events: u64) -> (RtReport, Vec<Vec<EventSeq>>) {
    let (reg, class) = registry();
    let mut rt = Runtime::start(cfg, reg).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(stages).unwrap(),
    ));
    let subs: Vec<_> = (0..SUBSCRIBERS)
        .map(|_| {
            rt.add_subscriber(
                Filter::for_class(class)
                    .eq("region", 0i64)
                    .lt("level", i64::MAX),
            )
            .unwrap()
        })
        .collect();
    let publisher = rt.publisher();
    for seq in 0..events {
        publisher.publish(event(class, seq));
    }
    let expected = SUBSCRIBERS as u64 * events;
    assert!(
        rt.wait_delivered(expected, Duration::from_secs(60)),
        "delivered {} of {expected}",
        rt.stats().delivered()
    );
    let report = rt.shutdown().into_result().expect("no unrecovered crash");
    let got = subs
        .iter()
        .map(|&h| report.deliveries(h).to_vec())
        .collect();
    (report, got)
}

/// One class on one shard: every subscriber sees every event exactly
/// once and in publish order, while the root sends fewer channel frames
/// than wire messages.
fn flood_is_exact_ordered_and_coalesced(transport: TransportKind) {
    const EVENTS: u64 = 10_000;
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.transport = transport;
    let (report, got) = flood(cfg, &[1], EVENTS);
    let all: Vec<EventSeq> = (0..EVENTS).map(EventSeq).collect();
    for (i, seqs) in got.iter().enumerate() {
        assert!(
            *seqs == all,
            "subscriber {i}: {} deliveries, not the {EVENTS} published in order",
            seqs.len()
        );
    }
    let stats = &report.stats;
    assert_eq!(stats.delivered(), SUBSCRIBERS as u64 * EVENTS);
    assert_eq!(stats.frames_dropped(), 0);
    assert_eq!(stats.decode_errors(), 0);
    assert!(
        stats.channel_sends() < stats.frames_sent(),
        "no send carried more than one frame: {} sends for {} frames",
        stats.channel_sends(),
        stats.frames_sent()
    );
}

#[test]
fn flood_to_eight_subscribers_over_mpsc() {
    flood_is_exact_ordered_and_coalesced(TransportKind::Mpsc);
}

#[test]
fn flood_to_eight_subscribers_over_tcp() {
    flood_is_exact_ordered_and_coalesced(TransportKind::Tcp);
}

/// A root over one leaf broker (ids: leaf 0, root 1). The root stalls
/// at its 100th message — past the set-up control traffic — so the
/// flood piles up behind it and every later root → leaf frame carries a
/// full batch. The leaf then panics at message `panic_at`, inside one of
/// those frames: its outputs so far must leave, the rest of the frame
/// must be requeued, and delivery must stay exactly-once, as it is when
/// every message travels alone.
fn panic_inside_a_coalesced_frame(panic_at: u64) {
    const EVENTS: u64 = 2_000;
    let overlay = OverlayConfig {
        levels: vec![1, 1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.fault_plan = Some(
        RtFaultPlan::new(7)
            .stall_shard(1, 0, 100, Duration::from_millis(100))
            .panic_shard(0, 0, panic_at),
    );
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let (report, got) = flood(cfg, &[2, 1], EVENTS);
    let all: Vec<EventSeq> = (0..EVENTS).map(EventSeq).collect();
    for (i, seqs) in got.iter().enumerate() {
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert!(
            sorted == all,
            "subscriber {i}: {} deliveries, not each of the {EVENTS} published exactly once",
            seqs.len()
        );
    }
    let stats = &report.stats;
    assert_eq!(stats.panics(), 1, "the leaf panic never fired");
    assert_eq!(stats.restarts(), 1);
    assert_eq!(stats.faults_injected(), 2, "one stall plus one panic");
    assert!(report.crashes.iter().all(|c| c.recovered));
    assert_eq!(stats.frames_dropped(), 0, "a healed panic loses nothing");
    assert!(
        stats.frames_requeued() >= 1,
        "the message in hand is requeued"
    );
    assert!(stats.channel_sends() < stats.frames_sent());
}

#[test]
fn panic_inside_a_coalesced_broker_frame_stays_exactly_once() {
    // Consecutive positions: with full batches on the link, at most one
    // of them can start a frame, so the others land inside one.
    for panic_at in 300..303 {
        panic_inside_a_coalesced_frame(panic_at);
    }
}
