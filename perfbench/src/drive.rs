//! Drives `layercake-rt`: set-up, the fixed-rate phase, the saturation
//! rounds, and the exact comparison of every delivery with the oracle.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::Envelope;
use layercake_rt::{RtConfig, RtReport, RtSnapshot, RtSubscriberHandle, Runtime};
use layercake_sim::ActorId;

use crate::spans::Spans;
use crate::workload::{Inputs, SubKind};

/// How long one saturation round or drain may wait for its last
/// expected delivery before the run counts it as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval while waiting for deliveries.
const POLL: Duration = Duration::from_micros(50);

/// A host is quiet when a thread sleeping 25 µs at a time wakes on
/// average less than this late. A quiet 2-vCPU virtual machine gives
/// 30–50 µs; when other tenants take the cores, 60 µs to over 500 µs.
const QUIET_LAG: Duration = Duration::from_micros(50);

/// Most one run waits, over all its phases, for the host to become quiet.
const QUIET_BUDGET: Duration = Duration::from_secs(45);

/// Most all runs in one checkout wait together; the running total is
/// kept in [`WAIT_LEDGER`]. Stretches of contention can last minutes,
/// and a series of runs must still end in bounded time.
const SHARED_QUIET_BUDGET: Duration = Duration::from_secs(900);

/// File holding the seconds every run in this checkout has waited.
const WAIT_LEDGER: &str = ".bench_out/quiet_wait_s";

static WAITED_MS: AtomicU64 = AtomicU64::new(0);

/// Waits (within [`QUIET_BUDGET`] and what is left of
/// [`SHARED_QUIET_BUDGET`]) until the host is quiet, so that a phase does
/// not start inside a stretch where other tenants hold the cores.
/// Returns the mean wake-up lag last measured.
pub fn await_quiet_host() -> Duration {
    static SHARED_BEFORE: OnceLock<f64> = OnceLock::new();
    let shared_before = *SHARED_BEFORE.get_or_init(|| {
        std::fs::read_to_string(WAIT_LEDGER)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0)
    });
    loop {
        let t0 = Instant::now();
        let mut lag = Duration::ZERO;
        let n = 2_000u32;
        for i in 0..n {
            let due = t0 + Duration::from_micros(25) * (i + 1);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag += Instant::now().saturating_duration_since(due);
        }
        let mean = lag / n;
        let waited = Duration::from_millis(WAITED_MS.load(Ordering::Relaxed));
        let shared = Duration::from_secs_f64(shared_before) + waited;
        if mean <= QUIET_LAG || waited >= QUIET_BUDGET || shared >= SHARED_QUIET_BUDGET {
            return mean;
        }
        std::thread::sleep(Duration::from_secs(1));
        let spent = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
        WAITED_MS.fetch_add(spent, Ordering::Relaxed);
        let total = shared_before + waited_s();
        let _ = std::fs::write(WAIT_LEDGER, format!("{total:.3}\n"));
    }
}

/// Seconds this run has spent waiting for a quiet host.
pub fn waited_s() -> f64 {
    WAITED_MS.load(Ordering::Relaxed) as f64 / 1e3
}

/// Latency samples the collector thread takes: `(seq, ns)` from the
/// intended send instant of each fixed-rate event to its tap receipt.
pub struct Collected {
    pub latencies: Vec<(u64, u64)>,
    /// First seq of each fixed-rate segment, ascending.
    pub segment_starts: Vec<u64>,
}

/// Length of one latency window of the fixed-rate phase.
pub const WINDOW_S: f64 = 0.25;

impl Collected {
    /// All samples in µs, ascending.
    pub fn sorted_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies
            .iter()
            .map(|&(_, n)| n as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile of each [`WINDOW_S`] window of intended send
    /// time, in µs; the first quartile over the windows. On a shared
    /// virtual machine other tenants stall threads for milliseconds at a
    /// time, in stretches that hit a varying share of a run's windows;
    /// the first quartile moves only when more than three quarters of the
    /// windows are hit, while a slower program moves every window.
    pub fn windowed_us(&self, rate: f64, q: f64) -> f64 {
        let mut w = self.windows_us(rate, q);
        w.sort_by(f64::total_cmp);
        crate::quantile(&w, 0.25)
    }

    /// The `q`-quantile of each window, in µs, in time order. The first
    /// window of each segment is warm-up and skipped.
    pub fn windows_us(&self, rate: f64, q: f64) -> Vec<f64> {
        let per_window = (rate * WINDOW_S).max(1.0) as u64;
        let mut windows: BTreeMap<(usize, u64), Vec<f64>> = BTreeMap::new();
        for &(seq, ns) in &self.latencies {
            let seg = self.segment_starts.partition_point(|&first| first <= seq) - 1;
            let w = (seq - self.segment_starts[seg]) / per_window;
            if w > 0 {
                windows.entry((seg, w)).or_default().push(ns as f64 / 1e3);
            }
        }
        windows
            .into_values()
            .map(|mut v| {
                v.sort_by(f64::total_cmp);
                crate::quantile(&v, q)
            })
            .collect()
    }
}

/// Segment starts of the fixed-rate phase: `(first seq, start instant)`.
type Segments = Arc<Mutex<Vec<(u64, Instant)>>>;

/// The collector thread: receives every tapped delivery and stamps it.
pub struct Collector {
    handle: JoinHandle<Collected>,
    segments: Segments,
}

impl Collector {
    /// Spawns the collector over `rx`. Latency is recorded for seqs below
    /// `fixed`, timed from the intended send instant `start + (seq −
    /// first) / rate` of the fixed-rate segment holding `seq`. The sample
    /// buffer of `capacity` entries is allocated and touched here, so it
    /// is resident before any memory baseline.
    pub fn spawn(rx: Receiver<Envelope>, fixed: usize, rate: f64, capacity: usize) -> Self {
        let mut latencies = vec![(1u64, 1u64); capacity];
        latencies.clear();
        let segments: Segments = Arc::default();
        let shared = Arc::clone(&segments);
        let handle = std::thread::Builder::new()
            .name("bench-collector".into())
            .spawn(move || {
                let mut latencies = latencies;
                let step = 1e9 / rate;
                for env in rx {
                    let now = Instant::now();
                    let seq = env.seq().0;
                    if seq as usize >= fixed {
                        continue;
                    }
                    let (first, t0) = *shared
                        .lock()
                        .expect("collector segment lock")
                        .iter()
                        .rev()
                        .find(|(first, _)| *first <= seq)
                        .expect("a segment starts before its deliveries");
                    let due = t0 + Duration::from_nanos(((seq - first) as f64 * step) as u64);
                    let ns = u64::try_from(now.saturating_duration_since(due).as_nanos());
                    latencies.push((seq, ns.unwrap_or(u64::MAX)));
                }
                let segments = shared.lock().expect("collector segment lock");
                Collected {
                    latencies,
                    segment_starts: segments.iter().map(|&(first, _)| first).collect(),
                }
            })
            .expect("spawn collector thread");
        Self { handle, segments }
    }

    pub fn join(self) -> Collected {
        self.handle.join().expect("collector thread panicked")
    }
}

pub struct Started {
    pub rt: Runtime,
    pub handles: Vec<RtSubscriberHandle>,
    pub setup_s: f64,
    durable_dir: Option<PathBuf>,
}

/// Starts a runtime over the workload and places every subscriber.
/// `setup_s` runs from `Runtime::start` to the last placement.
pub fn start(
    inputs: &Inputs,
    tap: Option<&Sender<Envelope>>,
    stage_sample_every: u64,
    out_dir: &std::path::Path,
    mut spans: Option<&mut Spans>,
) -> Started {
    let mut cfg = RtConfig::new(inputs.overlay.clone(), 1);
    cfg.placement_timeout = Duration::from_secs(60);
    cfg.stage_sample_every = stage_sample_every;
    let durable_dir = inputs.overlay.durability_enabled.then(|| {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        out_dir.join(format!("wal-{}-{n}", std::process::id()))
    });
    cfg.durable_dir.clone_from(&durable_dir);
    let t0 = Instant::now();
    let mut rt = Runtime::start(cfg, Arc::clone(&inputs.registry)).expect("start runtime");
    for adv in &inputs.adverts {
        rt.advertise(adv.clone());
    }
    let handles = inputs
        .subs
        .iter()
        .map(|sub| {
            let a = Instant::now();
            let h = match sub.kind {
                SubKind::Tapped => rt.add_subscriber_tapped(
                    sub.filters[0].clone(),
                    tap.expect("tapped subscribers need a collector").clone(),
                ),
                SubKind::Host => rt.add_subscriber_any(sub.filters.clone()),
                SubKind::Durable => rt.add_durable_subscriber(sub.filters[0].clone()),
            }
            .expect("place subscriber");
            if let Some(s) = spans.as_deref_mut() {
                s.record("rt.add_subscriber", a, Instant::now(), None, None);
            }
            h
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    Started {
        rt,
        handles,
        setup_s,
        durable_dir,
    }
}

/// Outcome of one fixed-rate segment.
pub struct FixedPhase {
    /// Largest and mean lag of actual publish behind the schedule.
    pub lag_max_us: f64,
    pub lag_mean_us: f64,
    /// Mean wake-up lag of the quiet-host check before the segment.
    pub host_lag_us: f64,
    pub drained: bool,
}

/// Publishes the fixed-rate events `seqs` at `inputs.fixed_rate` as one
/// segment, paced by sleeping after a quiet-host check, then waits for
/// every expected delivery.
pub fn fixed_phase(
    inputs: &Inputs,
    st: &Started,
    collector: &Collector,
    seqs: Range<usize>,
    mut spans: Option<&mut Spans>,
) -> FixedPhase {
    let publisher = st.rt.publisher();
    let before = st.rt.stats().delivered();
    let step = 1e9 / inputs.fixed_rate;
    let (mut lag_max, mut lag_sum) = (Duration::ZERO, Duration::ZERO);
    let host_lag = await_quiet_host();
    let t0 = Instant::now();
    collector
        .segments
        .lock()
        .expect("collector segment lock")
        .push((seqs.start as u64, t0));
    for (i, env) in inputs.fixed[seqs.clone()].iter().enumerate() {
        let due = t0 + Duration::from_nanos((i as f64 * step) as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let env = env.clone();
        let a = Instant::now();
        publisher.publish(env);
        if let Some(s) = spans.as_deref_mut() {
            s.record(
                "rt.publish",
                a,
                Instant::now(),
                None,
                Some((seqs.start + i) as u64),
            );
        }
        let lag = a.saturating_duration_since(due);
        lag_max = lag_max.max(lag);
        lag_sum += lag;
    }
    let target = before + inputs.expected_in(seqs.clone());
    let drained = wait_for(st, target).is_some();
    FixedPhase {
        lag_max_us: lag_max.as_secs_f64() * 1e6,
        lag_mean_us: lag_sum.as_secs_f64() * 1e6 / seqs.len().max(1) as f64,
        host_lag_us: host_lag.as_secs_f64() * 1e6,
        drained,
    }
}

/// Outcome of the saturation phase.
pub struct Saturation {
    pub round_eps: Vec<f64>,
    pub published: u64,
    pub bytes: u64,
    pub frames: u64,
    pub allocs: u64,
    pub failed_rounds: u32,
    /// Largest mean wake-up lag of the quiet-host checks.
    pub host_lag_us: f64,
}

/// Saturation rounds between quiet-host checks.
const RECHECK_ROUNDS: usize = 10;

/// Floods the saturation pool in rounds of `inputs.round` events until
/// `budget` is spent (or `max_rounds` ran); each round's clock runs from
/// its first publish to its last expected delivery.
pub fn saturation(
    inputs: &Inputs,
    st: &Started,
    budget: Duration,
    max_rounds: usize,
) -> Saturation {
    let host_lag = await_quiet_host();
    let publisher = st.rt.publisher();
    let stats = st.rt.stats();
    let base = inputs.fixed.len();
    let (bytes0, frames0, allocs0) = (
        stats.bytes_sent(),
        stats.frames_sent(),
        crate::alloc::count(),
    );
    let mut out = Saturation {
        round_eps: Vec::new(),
        published: 0,
        bytes: 0,
        frames: 0,
        allocs: 0,
        failed_rounds: 0,
        host_lag_us: host_lag.as_secs_f64() * 1e6,
    };
    let began = Instant::now();
    for (r, chunk) in inputs.sat.chunks_exact(inputs.round).enumerate() {
        if r >= max_rounds || (r > 0 && began.elapsed() >= budget) {
            break;
        }
        if r > 0 && r % RECHECK_ROUNDS == 0 {
            out.host_lag_us = out.host_lag_us.max(await_quiet_host().as_secs_f64() * 1e6);
        }
        let lo = base + r * inputs.round;
        let target = stats.delivered() + inputs.expected_in(lo..lo + chunk.len());
        let start = Instant::now();
        for env in chunk {
            publisher.publish(env.clone());
        }
        out.published += chunk.len() as u64;
        match wait_for(st, target) {
            Some(end) => out
                .round_eps
                .push(chunk.len() as f64 / (end - start).as_secs_f64()),
            None => {
                out.failed_rounds += 1;
                break;
            }
        }
    }
    out.bytes = stats.bytes_sent() - bytes0;
    out.frames = stats.frames_sent() - frames0;
    out.allocs = crate::alloc::count() - allocs0;
    out
}

/// Waits until `target` deliveries have been accepted; returns the
/// instant it saw them, or `None` after [`DRAIN_TIMEOUT`].
fn wait_for(st: &Started, target: u64) -> Option<Instant> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        if st.rt.stats().delivered() >= target {
            return Some(Instant::now());
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(POLL);
    }
}

/// What [`finish`] returns.
pub struct Finished {
    pub audit: Audit,
    /// Taken just before `shutdown()`.
    pub snapshot: RtSnapshot,
    pub report: RtReport,
    /// Each subscriber's overlay node id, in the order the inputs list them.
    pub nodes: Vec<ActorId>,
}

/// Per-run delivery audit against the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Audit {
    pub expected: u64,
    pub confirmed: u64,
    pub missing: u64,
    pub duplicate: u64,
    pub unexpected: u64,
    pub errors: u64,
    /// Σ `SubscriberNode::record().received` over every subscriber.
    pub received: u64,
}

impl Audit {
    /// Adds another runtime's audit to this one.
    pub fn absorb(&mut self, other: &Audit) {
        self.expected += other.expected;
        self.confirmed += other.confirmed;
        self.missing += other.missing;
        self.duplicate += other.duplicate;
        self.unexpected += other.unexpected;
        self.errors += other.errors;
        self.received += other.received;
    }

    pub fn failed(&self) -> u64 {
        self.missing + self.duplicate + self.unexpected + self.errors
    }
}

/// Shuts the runtime down and compares every subscriber's deliveries
/// exactly with the oracle over the `published` seq ranges.
/// The snapshot is taken first: the table gauges read 0 after shutdown.
pub fn finish(inputs: &Inputs, st: Started, published: &[Range<usize>]) -> Finished {
    let snapshot = st.rt.snapshot();
    let report = st.rt.shutdown();
    if let Some(dir) = &st.durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); st.handles.len()];
    for seq in published.iter().cloned().flatten() {
        for &s in inputs.expected(seq) {
            want[s as usize].push(seq as u64);
        }
    }
    let mut audit = Audit::default();
    for (i, h) in st.handles.iter().enumerate() {
        let mut got: Vec<u64> = report.deliveries(*h).iter().map(|s| s.0).collect();
        got.sort_unstable();
        let w = &want[i];
        audit.expected += w.len() as u64;
        audit.received += report.subscribers[i].record().received;
        let (mut a, mut b) = (0, 0);
        while a < w.len() || b < got.len() {
            if b > 0 && b < got.len() && got[b] == got[b - 1] {
                audit.duplicate += 1;
                b += 1;
            } else if b == got.len() || (a < w.len() && w[a] < got[b]) {
                audit.missing += 1;
                a += 1;
            } else if a == w.len() || got[b] < w[a] {
                audit.unexpected += 1;
                b += 1;
            } else {
                audit.confirmed += 1;
                a += 1;
                b += 1;
            }
        }
    }
    let stats = &report.stats;
    audit.errors = stats.decode_errors()
        + stats.encode_errors()
        + stats.frames_dropped()
        + report.crashes.len() as u64;
    Finished {
        audit,
        snapshot,
        report,
        nodes: st.handles.iter().map(|h| h.node()).collect(),
    }
}
