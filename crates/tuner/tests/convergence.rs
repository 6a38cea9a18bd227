//! Convergence properties of the adaptive contention controller.
//!
//! These tests close the loop around [`Tuner::tick`] with a simulated
//! engine: each epoch the simulation plays one round of traffic into the
//! telemetry registry and the mock sink exactly as the real engine would —
//! an *unsplit* hot key conflicts (heat-sketch hits), a *split* hot key
//! stops conflicting by design and shows split-phase write activity
//! instead, and a silent key shows neither. The tuner only sees those
//! signals, so the properties here are end-to-end for the control logic:
//!
//! * **stationary convergence** — on a fixed workload the split set reaches
//!   exactly the hot set and then never changes (no promote/demote
//!   oscillation, the failure mode the hysteresis exists to prevent);
//! * **step-change re-convergence** — when the hot set migrates, the new
//!   keys are promoted immediately and the stale labels are demoted within
//!   `demote_idle_epochs + 1` epochs of the change.

use doppel_common::{
    Key, OpKind, StatsSnapshot, TuneObservation, TuneSink, TuneThresholds, TunerConfig,
};
use doppel_telemetry::Registry;
use doppel_tuner::Tuner;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// An engine stand-in with the same contract the tuner sees in production.
#[derive(Default)]
struct SimSink {
    state: Mutex<SimState>,
}

#[derive(Default)]
struct SimState {
    split: Vec<(Key, OpKind)>,
    activity: HashMap<Key, u64>,
    stats: StatsSnapshot,
    phase_len_us: u64,
    thresholds: Option<TuneThresholds>,
    /// Tokens the classifier's conflict memory can resolve (token → key).
    resolvable: HashMap<u64, Key>,
}

impl SimSink {
    fn split_tokens(&self) -> HashSet<u64> {
        self.state.lock().split.iter().map(|(k, _)| k.heat_token()).collect()
    }
}

impl TuneSink for SimSink {
    fn observe(&self) -> TuneObservation {
        let s = self.state.lock();
        TuneObservation {
            stats: s.stats,
            split_keys: s.split.clone(),
            split_activity: s
                .split
                .iter()
                .map(|(k, _)| (*k, s.activity.get(k).copied().unwrap_or(0)))
                .collect(),
            phase_len: Duration::from_micros(s.phase_len_us),
            thresholds: s
                .thresholds
                .unwrap_or(TuneThresholds { split_min_conflicts: 12, unsplit_stash_ratio: 8.0 }),
        }
    }

    fn promote(&self, token: u64) -> Option<(Key, OpKind)> {
        let mut s = self.state.lock();
        let key = *s.resolvable.get(&token)?;
        if s.split.iter().any(|(k, _)| *k == key) {
            return None;
        }
        s.split.push((key, OpKind::Add));
        Some((key, OpKind::Add))
    }

    fn demote(&self, key: Key) -> bool {
        let mut s = self.state.lock();
        let before = s.split.len();
        s.split.retain(|(k, _)| *k != key);
        s.split.len() < before
    }

    fn set_thresholds(&self, t: TuneThresholds) {
        self.state.lock().thresholds = Some(t);
    }
}

const PROMOTE_MIN_HITS: u64 = 10;
const DEMOTE_IDLE_EPOCHS: u32 = 2;

fn cfg() -> TunerConfig {
    TunerConfig {
        promote_min_hits: PROMOTE_MIN_HITS,
        demote_idle_epochs: DEMOTE_IDLE_EPOCHS,
        ..TunerConfig::default()
    }
}

/// One epoch of simulated traffic: each `(id, rate)` key is hammered at
/// `rate` conflicts per epoch. While unsplit it feeds the heat sketch (and
/// the classifier's conflict memory, so the token resolves); once split it
/// stops conflicting and accrues split-phase write activity instead.
fn play_epoch(sink: &SimSink, registry: &Registry, traffic: &[(u64, u64)]) {
    for &(id, rate) in traffic {
        let key = Key::raw(id);
        let is_split = sink.state.lock().split.iter().any(|(k, _)| *k == key);
        if is_split {
            *sink.state.lock().activity.entry(key).or_insert(0) += rate;
        } else {
            sink.state.lock().resolvable.insert(key.heat_token(), key);
            for _ in 0..rate {
                registry.heat().record(key.heat_token());
            }
        }
    }
}

fn new_tuner(sink: &Arc<SimSink>) -> (Tuner, Arc<Registry>) {
    sink.state.lock().phase_len_us = 20_000;
    let registry = Arc::new(Registry::new());
    let tuner =
        Tuner::new(cfg(), Arc::clone(sink) as Arc<dyn TuneSink>, Arc::clone(&registry));
    (tuner, registry)
}

proptest! {
    /// Stationary workload: hot keys conflict above the promote threshold
    /// every epoch, cold keys stay below it. The split set must converge to
    /// exactly the hot set and then freeze — zero further decisions, which
    /// rules out promote/demote oscillation and threshold hunting.
    #[test]
    fn stationary_workload_converges_to_a_fixed_split_set(
        hot_rates in prop::collection::vec(PROMOTE_MIN_HITS..=4 * PROMOTE_MIN_HITS, 1..5),
        cold_rates in prop::collection::vec(0..PROMOTE_MIN_HITS, 0..5),
    ) {
        let sink = Arc::new(SimSink::default());
        let (mut tuner, registry) = new_tuner(&sink);
        // Disjoint id ranges keep hot and cold keys distinct.
        let traffic: Vec<(u64, u64)> = hot_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (1 + i as u64, r))
            .chain(cold_rates.iter().enumerate().map(|(i, &r)| (100 + i as u64, r)))
            .collect();
        let hot: HashSet<u64> = (1..=hot_rates.len() as u64).collect();

        // A heat delta of `rate >= promote_min_hits` promotes on the very
        // first tick, so convergence is immediate.
        play_epoch(&sink, &registry, &traffic);
        let first = tuner.tick();
        prop_assert_eq!(
            first.iter().filter(|d| d.action.starts_with("promote")).count(),
            hot.len(),
            "every hot key promotes on the first epoch: {:?}",
            first
        );
        prop_assert_eq!(sink.split_tokens(), hot.clone());

        // Steady state: the workload does not change, so neither may the
        // controller. Any decision here is oscillation.
        for epoch in 2..=12u64 {
            play_epoch(&sink, &registry, &traffic);
            let decisions = tuner.tick();
            prop_assert!(
                decisions.is_empty(),
                "stationary epoch {} must be quiet, got {:?}",
                epoch,
                decisions
            );
            prop_assert_eq!(sink.split_tokens(), hot.clone());
        }
    }

    /// Step change: after converging on hot set A, all traffic migrates to
    /// a disjoint hot set B. The controller must promote B on the first
    /// post-change epoch and demote every stale A label within the
    /// hysteresis window, ending with the split set equal to exactly B.
    #[test]
    fn step_change_reconverges_within_the_hysteresis_window(
        a_rates in prop::collection::vec(PROMOTE_MIN_HITS..=4 * PROMOTE_MIN_HITS, 1..4),
        b_rates in prop::collection::vec(PROMOTE_MIN_HITS..=4 * PROMOTE_MIN_HITS, 1..4),
        settle_epochs in 9u64..14,
    ) {
        let sink = Arc::new(SimSink::default());
        let (mut tuner, registry) = new_tuner(&sink);
        let a: Vec<(u64, u64)> =
            a_rates.iter().enumerate().map(|(i, &r)| (1 + i as u64, r)).collect();
        let b: Vec<(u64, u64)> =
            b_rates.iter().enumerate().map(|(i, &r)| (50 + i as u64, r)).collect();
        let a_tokens: HashSet<u64> = a.iter().map(|&(id, _)| id).collect();
        let b_tokens: HashSet<u64> = b.iter().map(|&(id, _)| id).collect();

        // Phase A: converge, then hold long enough that the labels are not
        // "churn" when they are eventually demoted (a genuine hot set that
        // later moved, not a promotion that failed to pay off).
        for _ in 0..settle_epochs {
            play_epoch(&sink, &registry, &a);
            tuner.tick();
        }
        prop_assert_eq!(sink.split_tokens(), a_tokens.clone());

        // Step change: all traffic now hits B; A goes completely silent.
        // B's heat delta crosses the threshold on the first changed epoch.
        play_epoch(&sink, &registry, &b);
        let first = tuner.tick();
        prop_assert_eq!(
            first.iter().filter(|d| d.action.starts_with("promote")).count(),
            b_tokens.len(),
            "the new hot set promotes on the first post-change epoch: {:?}",
            first
        );

        // Stale A labels need demote_idle_epochs consecutive idle epochs;
        // give the controller exactly that window and require full
        // re-convergence by the end of it.
        let mut demotions = 0;
        for _ in 0..DEMOTE_IDLE_EPOCHS {
            play_epoch(&sink, &registry, &b);
            demotions += tuner
                .tick()
                .iter()
                .filter(|d| d.action.starts_with("demote"))
                .count();
        }
        prop_assert_eq!(demotions, a_tokens.len(), "every stale label is demoted");
        prop_assert_eq!(sink.split_tokens(), b_tokens.clone());

        // And the new fixpoint is stable: quiet epochs from here on.
        for _ in 0..6 {
            play_epoch(&sink, &registry, &b);
            let decisions = tuner.tick();
            prop_assert!(decisions.is_empty(), "post-migration steady state, got {:?}", decisions);
            prop_assert_eq!(sink.split_tokens(), b_tokens.clone());
        }
    }
}
