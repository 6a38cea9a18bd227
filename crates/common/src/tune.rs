//! Tuning hooks: the interface between the adaptive contention controller
//! (the `doppel_tuner` crate) and the engine it steers.
//!
//! The paper hand-tunes its knobs — a 20 ms phase length, fixed split
//! thresholds, manually labelled hot records for some experiments (§5.5,
//! §8.1). The tuner closes that loop: every epoch it reads the live signals
//! (the telemetry heat sketch, engine counters, the stash-replay latency
//! histogram) and applies decisions through a [`TuneSink`]. The trait lives
//! here, next to [`crate::config::DoppelConfig`], so the controller crate
//! depends only on the common vocabulary — not on the engine — and tests can
//! drive the control logic against a mock sink.

use crate::key::Key;
use crate::ops::OpKind;
use crate::stats::StatsSnapshot;
use std::time::Duration;

/// The classifier thresholds the tuner may adjust at runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneThresholds {
    /// Minimum sampled conflicts per joined phase before a record is split
    /// (mirrors [`crate::config::DoppelConfig::split_min_conflicts`]).
    pub split_min_conflicts: u64,
    /// Stash-to-write ratio above which a split record is moved back
    /// (mirrors [`crate::config::DoppelConfig::unsplit_stash_ratio`]).
    pub unsplit_stash_ratio: f64,
}

/// Everything the engine reports when the tuner samples it.
#[derive(Clone, Debug)]
pub struct TuneObservation {
    /// The engine's cumulative counters.
    pub stats: StatsSnapshot,
    /// The current split set with each key's selected operation.
    pub split_keys: Vec<(Key, OpKind)>,
    /// Cumulative split-phase writes per currently-split key — the paper's
    /// write-sampling signal ("split records in the split phase will not
    /// cause conflicts", §5.5), which is why heat alone cannot decide
    /// demotion: a split key's conflict heat goes cold by design.
    pub split_activity: Vec<(Key, u64)>,
    /// The engine's configured phase length (reported, not steered: the
    /// coordinator bounds stash waits per phase on its own).
    pub phase_len: Duration,
    /// The classifier thresholds currently in effect.
    pub thresholds: TuneThresholds,
}

/// The engine-side hook the tuner applies decisions through.
///
/// Implemented by `DoppelDb`; every method must be cheap and safe to call
/// from the tuner's own thread while workers run.
pub trait TuneSink: Send + Sync {
    /// Samples the engine's current state.
    fn observe(&self) -> TuneObservation;
    /// Promotes the record behind heat-sketch `token` to split. Returns the
    /// resolved key and operation, or `None` when the token cannot be
    /// resolved (evicted from the conflict sample), the key is already
    /// split, or the split-record cap is reached.
    fn promote(&self, token: u64) -> Option<(Key, OpKind)>;
    /// Moves `key` back to reconciled state. Returns `false` when the key
    /// was not split.
    fn demote(&self, key: Key) -> bool;
    /// Installs new classifier thresholds.
    fn set_thresholds(&self, thresholds: TuneThresholds);
}

/// One decision the tuner took, kept in a bounded history for
/// `GetStats` / `doppel-stat` and mirrored onto the trace timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneDecision {
    /// The tuner epoch (tick number) the decision was taken in.
    pub epoch: u64,
    /// Short machine-readable action, e.g. `promote Raw/7`,
    /// `threshold split_min_conflicts=6`.
    pub action: String,
    /// Human-readable justification, e.g. `61 conflicts in epoch`.
    pub reason: String,
}

impl std::fmt::Display for TuneDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} ({})", self.epoch, self.action, self.reason)
    }
}
