//! Sim-vs-runtime parity: the wall-clock runtime must deliver exactly
//! the event set the deterministic simulator delivers for the same
//! topology, subscriptions and published events — the simulator is the
//! protocol reference, the runtime only changes the transport.

use std::sync::Arc;
use std::time::Duration;

use layercake_event::{Advertisement, TypeRegistry};
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_rt::{RtConfig, Runtime, TransportKind};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parity_case(levels: Vec<usize>, shards: usize, seed: u64) {
    parity_case_on(levels, shards, seed, TransportKind::Mpsc);
}

/// The parity contract is transport-invariant: the runtime must deliver
/// the simulator's exact event set whether frames ride in-process
/// channels or real loopback TCP sockets.
fn parity_case_on(levels: Vec<usize>, shards: usize, seed: u64, transport: TransportKind) {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 12,
            conferences: 5,
            authors: 20,
            titles: 40,
            wildcard_rate: 0.2,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let class = workload.class();
    let registry = Arc::new(registry);
    let adv = Advertisement::new(class, BiblioWorkload::stage_map());
    let events: Vec<_> = (0..200).map(|i| workload.envelope(i, &mut rng)).collect();

    // Reference run in the deterministic simulator.
    let overlay = OverlayConfig {
        levels: levels.clone(),
        ..OverlayConfig::default()
    };
    let mut sim = OverlaySim::new(overlay.clone(), Arc::clone(&registry));
    sim.advertise(adv.clone());
    sim.settle();
    let mut sim_handles = Vec::new();
    for filter in workload.subscriptions() {
        sim_handles.push(sim.add_subscriber(filter.clone()).unwrap());
        sim.settle();
    }
    sim.publish_all(events.iter().cloned());
    sim.settle();
    let expected: Vec<Vec<_>> = sim_handles
        .iter()
        .map(|&h| sim.deliveries(h).to_vec())
        .collect();
    let expected_total: usize = expected.iter().map(Vec::len).sum();

    // Same protocol run under real threads and framed wire messages.
    let mut cfg = RtConfig::new(overlay, shards);
    cfg.transport = transport;
    let mut rt = Runtime::start(cfg, registry).unwrap();
    rt.advertise(adv);
    let mut rt_handles = Vec::new();
    for filter in workload.subscriptions() {
        rt_handles.push(rt.add_subscriber(filter.clone()).unwrap());
    }
    let publisher = rt.publisher();
    for env in events {
        publisher.publish(env);
    }
    // On timeout, identify the loss before panicking: per-broker overload
    // counters say whether an event was shed, the per-subscriber diff says
    // which sequence never arrived — a bare count is undebuggable for a
    // race that strikes rarely under load.
    let ok = rt.wait_delivered(expected_total as u64, Duration::from_secs(30));
    if !ok {
        let delivered = rt.stats().delivered();
        let report = rt.shutdown();
        let mut overload = layercake_metrics::OverloadStats::default();
        for ((id, shard), broker) in &report.brokers {
            let o = broker.overload();
            if o.total_shed() > 0 || o.credit_stalls > 0 {
                eprintln!("broker {id:?} shard {shard}: {o:?}");
            }
            overload.absorb(o);
        }
        for (i, (&rth, exp)) in rt_handles.iter().zip(&expected).enumerate() {
            let got: std::collections::BTreeSet<_> =
                report.deliveries(rth).iter().copied().collect();
            let want: std::collections::BTreeSet<_> = exp.iter().copied().collect();
            let missing: Vec<_> = want.difference(&got).collect();
            let extra: Vec<_> = got.difference(&want).collect();
            if !missing.is_empty() || !extra.is_empty() || got.len() != report.deliveries(rth).len()
            {
                eprintln!(
                    "subscriber {i}: missing {missing:?} extra {extra:?} dup {}",
                    report.deliveries(rth).len() - got.len()
                );
            }
        }
        panic!(
            "runtime delivered {delivered} of {expected_total} expected events\ntotal overload: {overload:?}"
        );
    }
    let report = rt.shutdown();

    for (i, (&rth, exp)) in rt_handles.iter().zip(&expected).enumerate() {
        let mut got = report.deliveries(rth).to_vec();
        let mut want = exp.clone();
        // A single publisher and FIFO links preserve per-link order, but
        // disjunctive branches hosted on different brokers may interleave
        // differently than under virtual time; the delivered *set* is the
        // contract.
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "subscriber {i} diverged from the simulator");
    }
    assert_eq!(report.stats.delivered(), expected_total as u64);
    // Every hop paid the wire: at least one frame per published event.
    assert!(report.stats.frames_sent() >= 200);
    assert!(report.stats.bytes_sent() > report.stats.frames_sent());
}

#[test]
fn single_broker_single_shard_matches_sim() {
    parity_case(vec![1], 1, 0xA11CE);
}

#[test]
fn hierarchy_single_shard_matches_sim() {
    parity_case(vec![4, 1], 1, 0xB0B);
}

#[test]
fn hierarchy_sharded_matches_sim() {
    parity_case(vec![4, 1], 4, 0xCAFE);
}

#[test]
fn deep_hierarchy_sharded_matches_sim() {
    parity_case(vec![8, 2, 1], 2, 0xD00D);
}

#[test]
fn hierarchy_sharded_matches_sim_over_loopback_tcp() {
    parity_case_on(vec![4, 1], 2, 0x7C9, TransportKind::Tcp);
}

#[test]
fn single_broker_matches_sim_over_loopback_tcp() {
    parity_case_on(vec![1], 1, 0x7CA, TransportKind::Tcp);
}

#[test]
fn hierarchy_two_shards_matches_sim() {
    parity_case(vec![4, 1], 2, 0x15D);
}
