//! Wall-clock fault injection for the runtime.
//!
//! The simulator's chaos machinery (PR 1's deterministic fault plans)
//! runs on virtual time; [`RtFaultPlan`] is its wall-clock counterpart,
//! giving the supervised runtime reproducible *failure inputs* even
//! though thread interleavings stay nondeterministic:
//!
//! * **panic-at-nth-frame** per broker shard — the shard thread panics
//!   when its generation-local received-frame count reaches `n`; a
//!   repeating variant re-arms on every supervised restart (a crash
//!   storm that exercises the restart budget);
//! * **stalled-shard injection** — the shard thread sleeps in place at
//!   the nth frame, freezing its heartbeat so the supervisor's stall
//!   detector (not the panic path) has to replace it;
//! * **frame drops on intra-process links** — data frames from node
//!   `from` to node `to` are dropped with a seeded Bernoulli stream
//!   (split-mix hash of `(seed, from, to, per-link counter)`), so the
//!   *drop distribution* reproduces across runs even though which wall
//!   -clock instant each drop lands at does not. The deterministic
//!   simulator remains the reference for schedule-exact chaos replay.
//!
//! Frame counts are of received *wire* frames, one per message: a
//! coalesced channel frame advances them once per message it carries,
//! so a plan hits the same message however the sender batched it.
//!
//! Injected faults are counted in `rt.faults_injected`
//! ([`crate::RtStats::faults_injected`]); injected link drops also add
//! to the `rt.frames_dropped` loss ledger, since unlike panics and
//! stalls (whose in-flight frames the supervisor requeues) a dropped
//! frame is really gone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::error::RtError;

/// What to inject into one broker shard's frame loop.
#[derive(Debug, Clone, Copy, Default)]
struct ShardFault {
    /// Panic when the generation-local received-frame count reaches
    /// this 1-based value; `0` disables.
    panic_at: u64,
    /// Re-arm the panic for every restarted generation (crash storm).
    repeat_panic: bool,
    /// Stall (sleep in place) at this 1-based frame count; `0` disables.
    stall_at: u64,
    /// How long the injected stall sleeps.
    stall_for: Duration,
}

/// A seeded wall-clock fault plan for [`crate::RtConfig::fault_plan`].
///
/// Built with the fluent methods below and handed to the runtime at
/// start; the same plan against the same workload reproduces the same
/// injected-fault schedule per shard (frame counts are generation-local
/// and deterministic per shard inbox) and the same link-drop
/// distribution.
#[derive(Debug, Clone, Default)]
pub struct RtFaultPlan {
    seed: u64,
    shards: HashMap<(usize, usize), ShardFault>,
    links: HashMap<(usize, usize), f64>,
}

impl RtFaultPlan {
    /// An empty plan whose link-drop streams are seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Panics broker `broker`'s matcher shard `shard` once, when the
    /// thread's received-frame count reaches `nth_frame` (1-based).
    /// Restarted generations run clean.
    #[must_use]
    pub fn panic_shard(mut self, broker: usize, shard: usize, nth_frame: u64) -> Self {
        let f = self.shards.entry((broker, shard)).or_default();
        f.panic_at = nth_frame;
        f.repeat_panic = false;
        self
    }

    /// Like [`RtFaultPlan::panic_shard`], but every supervised restart
    /// re-arms the panic: the shard crashes at its nth frame in *every*
    /// generation until the restart budget runs out or the load stops.
    #[must_use]
    pub fn panic_shard_every(mut self, broker: usize, shard: usize, nth_frame: u64) -> Self {
        let f = self.shards.entry((broker, shard)).or_default();
        f.panic_at = nth_frame;
        f.repeat_panic = true;
        self
    }

    /// Stalls broker `broker`'s shard `shard` once at its `nth_frame`:
    /// the thread sleeps `dur` in place with the frame unprocessed,
    /// freezing its heartbeat. With
    /// [`crate::SupervisionConfig::stall_timeout`] below `dur`, the
    /// supervisor fences and replaces the shard while it sleeps; the
    /// fenced zombie hands its trapped frames back when it wakes.
    #[must_use]
    pub fn stall_shard(
        mut self,
        broker: usize,
        shard: usize,
        nth_frame: u64,
        dur: Duration,
    ) -> Self {
        let f = self.shards.entry((broker, shard)).or_default();
        f.stall_at = nth_frame;
        f.stall_for = dur;
        self
    }

    /// Drops data frames sent from node `from` to node `to` with
    /// probability `probability` (control frames always get through —
    /// dropping them would wedge placement rather than test loss).
    #[must_use]
    pub fn drop_link(mut self, from: usize, to: usize, probability: f64) -> Self {
        self.links.insert((from, to), probability);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), RtError> {
        for p in self.links.values() {
            if !(0.0..=1.0).contains(p) {
                return Err(RtError::UnsupportedFeature(
                    "fault-plan link drop probabilities must lie in [0, 1]",
                ));
            }
        }
        for f in self.shards.values() {
            if f.stall_at != 0 && f.stall_for.is_zero() {
                return Err(RtError::UnsupportedFeature(
                    "a zero-length injected stall is unobservable; give \
                     stall_shard a positive duration",
                ));
            }
        }
        Ok(())
    }
}

/// What [`FaultState::frame_action`] tells a shard thread to do with the
/// frame it just received.
pub(crate) enum FaultAction {
    /// Process normally.
    Pass,
    /// Panic now (the caller raises it so the panic site carries the
    /// shard's own context).
    Panic,
    /// Sleep in place for the duration, then re-check the fence.
    Stall(Duration),
}

/// The armed, shared form of an [`RtFaultPlan`]: one-shot budgets become
/// atomics so restarted generations and the router can consult the plan
/// concurrently. An empty state (no plan configured) answers every query
/// with "no fault" at the cost of two hash probes.
pub(crate) struct FaultState {
    seed: u64,
    shards: HashMap<(usize, usize), ShardFault>,
    /// Remaining injected panics per shard (`u64::MAX` for storms).
    panics: HashMap<(usize, usize), AtomicU64>,
    /// Remaining injected stalls per shard.
    stalls: HashMap<(usize, usize), AtomicU64>,
    /// Per-link drop probability and Bernoulli-stream counter.
    links: HashMap<(usize, usize), (f64, AtomicU64)>,
    /// Set once teardown begins: the plan models faults against a
    /// *running, supervised* system, so a storm must not crash a shard
    /// after the supervisor has been told to stop (nobody would restart
    /// it and the crash would surface as an unrecovered failure).
    disarmed: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: Option<RtFaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        let mut panics = HashMap::new();
        let mut stalls = HashMap::new();
        for (&key, f) in &plan.shards {
            if f.panic_at != 0 {
                let budget = if f.repeat_panic { u64::MAX } else { 1 };
                panics.insert(key, AtomicU64::new(budget));
            }
            if f.stall_at != 0 {
                stalls.insert(key, AtomicU64::new(1));
            }
        }
        let links = plan
            .links
            .iter()
            .map(|(&key, &p)| (key, (p, AtomicU64::new(0))))
            .collect();
        Self {
            seed: plan.seed,
            shards: plan.shards,
            panics,
            stalls,
            links,
            disarmed: AtomicBool::new(false),
        }
    }

    /// Stops all further injection. Called when runtime teardown
    /// begins: the shards processed during the poison sweep run with
    /// the supervisor already stopped, so an injected panic there
    /// would be unrecoverable by construction rather than by the
    /// scenario under test.
    pub(crate) fn disarm(&self) {
        self.disarmed.store(true, Ordering::Relaxed);
    }

    /// Whether the plan ever arms per-shard faults (panics or stalls).
    /// The supervisor uses this to decide if its shutdown sweep needs a
    /// grace window for exit notices from panics still unwinding.
    pub(crate) fn injects_shard_faults(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Consulted by a node thread before each received wire frame
    /// (`count` is the generation-local 1-based frame number).
    pub(crate) fn frame_action(&self, broker: usize, shard: usize, count: u64) -> FaultAction {
        if self.disarmed.load(Ordering::Relaxed) {
            return FaultAction::Pass;
        }
        let key = (broker, shard);
        let Some(f) = self.shards.get(&key) else {
            return FaultAction::Pass;
        };
        if f.panic_at == count && self.take_one(&self.panics, key) {
            return FaultAction::Panic;
        }
        if f.stall_at == count && self.take_one(&self.stalls, key) {
            return FaultAction::Stall(f.stall_for);
        }
        FaultAction::Pass
    }

    /// Consumes one unit of a shard's fault budget; `false` when spent.
    fn take_one(&self, budgets: &HashMap<(usize, usize), AtomicU64>, key: (usize, usize)) -> bool {
        let Some(budget) = budgets.get(&key) else {
            return false;
        };
        budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                if v == u64::MAX {
                    Some(v) // storms never deplete
                } else {
                    v.checked_sub(1)
                }
            })
            .is_ok()
    }

    /// Whether the next data frame on the `from → to` link should be
    /// dropped. Draws from the link's seeded Bernoulli stream; links
    /// without a configured fault never consult the RNG.
    pub(crate) fn should_drop(&self, from: usize, to: usize) -> bool {
        if self.disarmed.load(Ordering::Relaxed) {
            return false;
        }
        let Some((p, counter)) = self.links.get(&(from, to)) else {
            return false;
        };
        let n = counter.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(
            self.seed ^ ((from as u64) << 40) ^ ((to as u64) << 20) ^ n.wrapping_mul(0xA5A5_A5A5),
        );
        // Top 53 bits → uniform in [0, 1).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        draw < *p
    }
}

/// SplitMix64: the standard 64-bit finalizer-style mixer; full-period,
/// stateless, and good enough to decorrelate the per-link streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_panic_fires_once_then_depletes() {
        let state = FaultState::new(Some(RtFaultPlan::new(7).panic_shard(1, 0, 3)));
        assert!(matches!(state.frame_action(1, 0, 1), FaultAction::Pass));
        assert!(matches!(state.frame_action(1, 0, 3), FaultAction::Panic));
        // A restarted generation reaching frame 3 again runs clean.
        assert!(matches!(state.frame_action(1, 0, 3), FaultAction::Pass));
        // Other shards are untouched.
        assert!(matches!(state.frame_action(0, 0, 3), FaultAction::Pass));
    }

    #[test]
    fn repeating_panic_survives_generations() {
        let state = FaultState::new(Some(RtFaultPlan::new(7).panic_shard_every(0, 1, 2)));
        for _ in 0..5 {
            assert!(matches!(state.frame_action(0, 1, 2), FaultAction::Panic));
        }
    }

    #[test]
    fn disarm_silences_a_storm_and_link_drops() {
        let state = FaultState::new(Some(
            RtFaultPlan::new(7)
                .panic_shard_every(0, 1, 2)
                .drop_link(0, 1, 1.0),
        ));
        assert!(state.injects_shard_faults());
        assert!(matches!(state.frame_action(0, 1, 2), FaultAction::Panic));
        assert!(state.should_drop(0, 1));
        state.disarm();
        assert!(matches!(state.frame_action(0, 1, 2), FaultAction::Pass));
        assert!(!state.should_drop(0, 1));
    }

    #[test]
    fn stall_fires_once_with_duration() {
        let state = FaultState::new(Some(RtFaultPlan::new(7).stall_shard(
            0,
            0,
            1,
            Duration::from_millis(50),
        )));
        match state.frame_action(0, 0, 1) {
            FaultAction::Stall(d) => assert_eq!(d, Duration::from_millis(50)),
            _ => panic!("expected a stall"),
        }
        assert!(matches!(state.frame_action(0, 0, 1), FaultAction::Pass));
    }

    #[test]
    fn link_drops_track_the_configured_probability() {
        let state = FaultState::new(Some(RtFaultPlan::new(42).drop_link(5, 6, 0.25)));
        let n = 10_000;
        let dropped = (0..n).filter(|_| state.should_drop(5, 6)).count();
        let rate = dropped as f64 / f64::from(n);
        assert!(
            (rate - 0.25).abs() < 0.03,
            "drop rate {rate} strays too far from 0.25"
        );
        // Unconfigured links never drop.
        assert!((0..100).all(|_| !state.should_drop(6, 5)));
    }

    #[test]
    fn same_seed_reproduces_the_drop_stream() {
        let a = FaultState::new(Some(RtFaultPlan::new(9).drop_link(0, 1, 0.5)));
        let b = FaultState::new(Some(RtFaultPlan::new(9).drop_link(0, 1, 0.5)));
        let sa: Vec<bool> = (0..256).map(|_| a.should_drop(0, 1)).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.should_drop(0, 1)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn plan_validation_rejects_bad_probabilities() {
        assert!(RtFaultPlan::new(0).drop_link(0, 1, 1.5).validate().is_err());
        assert!(RtFaultPlan::new(0).drop_link(0, 1, 0.5).validate().is_ok());
    }

    #[test]
    fn empty_state_answers_no_fault() {
        let state = FaultState::new(None);
        assert!(matches!(state.frame_action(0, 0, 1), FaultAction::Pass));
        assert!(!state.should_drop(0, 1));
    }
}
