//! The background coordinator thread (§5.4).
//!
//! "The Doppel coordinator usually starts a phase change every 20
//! milliseconds, but feedback mechanisms allow it to flexibly adjust to the
//! workload. If, in a joined phase, no records appear contended — or they
//! contend on unsplittable operations — the coordinator delays the next
//! split phase. … Finally, if, in a split phase, workers have to abort and
//! stash too many transactions, the coordinator hurries the next joined
//! phase."
//!
//! Here the hurry rule is a bound on each stashed transaction's wait: a split
//! phase ends after `phase_len`, or once the first transaction stashed in it
//! has waited `phase_len ×` [`PhaseFeedback::max_stash_wait_fraction`],
//! whichever comes first. Stashed transactions replay at the start of the
//! next joined phase, so no stash waits much longer than that bound (5 ms at
//! the default 20 ms phases). A split phase that stashes nothing runs its
//! full length, so write-only traffic keeps absorbing writes in per-core
//! slices for the whole phase.
//!
//! The coordinator only *initiates* transitions; the release itself is
//! performed by the last worker to acknowledge (see [`crate::phase`]).
//!
//! [`PhaseFeedback::max_stash_wait_fraction`]: doppel_common::PhaseFeedback::max_stash_wait_fraction

use crate::phase::Phase;
use crate::shared::DoppelShared;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity at which the coordinator polls for shutdown and feedback.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Runs the coordinator loop until shutdown is requested. Intended to be the
/// body of a dedicated thread spawned by [`crate::DoppelDb::spawn_coordinator`].
pub fn run(shared: Arc<DoppelShared>) {
    let phase_len = shared.config.phase_len;
    while !shared.is_shutdown() {
        // ---- Joined phase ----
        sleep_observing_shutdown(&shared, phase_len);
        if shared.is_shutdown() {
            break;
        }
        if !should_start_split(&shared) {
            // Delay the split phase; re-examine after another phase length.
            continue;
        }

        // ---- Transition joined → split ----
        let seq = shared.phase.request(Phase::Split);
        if !wait_for_release(&shared, seq) {
            break;
        }

        // If classification produced an empty split set there is nothing to
        // do in a split phase; go straight back to joined.
        if !shared.registry.current().is_empty() {
            run_split_phase(&shared, phase_len);
            if shared.is_shutdown() {
                break;
            }
        }

        // ---- Transition split → joined ----
        let seq = shared.phase.request(Phase::Joined);
        if !wait_for_release(&shared, seq) {
            break;
        }
    }
}

/// Decides whether contention justifies a split phase. Splitting is worth it
/// when records are already split (they need split phases to keep absorbing
/// writes) or when the joined phase accumulated conflicts on splittable
/// operations.
fn should_start_split(shared: &DoppelShared) -> bool {
    if !shared.config.enable_splitting {
        return false;
    }
    if !shared.config.feedback.delay_split_when_uncontended {
        return true;
    }
    if shared.classifier.lock().split_count() > 0 {
        return true;
    }
    // The live (possibly tuned) threshold, not the configured one.
    shared.splittable_conflicts.load(Ordering::Relaxed)
        >= shared.split_gate_conflicts.load(Ordering::Relaxed)
}

/// Lets the split phase run for `phase_len`, ending it early once the first
/// transaction stashed in it has waited the configured fraction of a phase
/// ("hurry the next joined phase"). The first stash is noticed on the next
/// poll, so the bound overshoots by at most one poll interval.
fn run_split_phase(shared: &DoppelShared, phase_len: Duration) {
    let start = Instant::now();
    let max_stash_wait = phase_len.mul_f64(shared.config.feedback.max_stash_wait_fraction);
    let mut first_stash_seen: Option<Instant> = None;
    loop {
        std::thread::sleep(POLL_INTERVAL);
        if shared.is_shutdown() || start.elapsed() >= phase_len {
            return;
        }
        if let Some(seen) = first_stash_seen {
            if seen.elapsed() >= max_stash_wait {
                return;
            }
        } else if shared.phase_stashed.load(Ordering::Relaxed) > 0 {
            first_stash_seen = Some(Instant::now());
        }
    }
}

/// Sleeps for `duration`, waking early on shutdown.
fn sleep_observing_shutdown(shared: &DoppelShared, duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        if shared.is_shutdown() {
            return;
        }
        std::thread::sleep(POLL_INTERVAL.min(duration));
    }
}

/// Waits until transition `seq` has been released (by the last acknowledging
/// worker). Returns `false` if shutdown was requested while waiting.
fn wait_for_release(shared: &DoppelShared, seq: u64) -> bool {
    loop {
        if shared.phase.released_seq() >= seq {
            return true;
        }
        if shared.is_shutdown() {
            return false;
        }
        // The coordinator cannot complete the transition itself (workers must
        // acknowledge first), but calling this is harmless and covers the
        // case where the last acknowledgement raced with our check.
        shared.try_complete_transition();
        std::thread::sleep(POLL_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::DoppelConfig;

    #[test]
    fn split_decision_follows_feedback_rules() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.split_min_conflicts = 10;
        let shared = DoppelShared::new(cfg);
        // Nothing contended, nothing split → delay.
        assert!(!should_start_split(&shared));
        // Contention on splittable operations → go.
        shared.splittable_conflicts.store(50, Ordering::Relaxed);
        assert!(should_start_split(&shared));
        // Already-split records keep split phases coming even without fresh
        // conflicts.
        shared.splittable_conflicts.store(0, Ordering::Relaxed);
        shared
            .classifier
            .lock()
            .label_split(doppel_common::Key::raw(1), doppel_common::OpKind::Add);
        assert!(should_start_split(&shared));
    }

    #[test]
    fn splitting_disabled_never_starts_split() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.enable_splitting = false;
        let shared = DoppelShared::new(cfg);
        shared.splittable_conflicts.store(1_000_000, Ordering::Relaxed);
        assert!(!should_start_split(&shared));
    }

    #[test]
    fn delay_feedback_can_be_disabled() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.feedback.delay_split_when_uncontended = false;
        let shared = DoppelShared::new(cfg);
        assert!(should_start_split(&shared), "without the delay rule, split phases always run");
    }

    #[test]
    fn sleep_observes_shutdown_quickly() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        shared.request_shutdown();
        let start = Instant::now();
        sleep_observing_shutdown(&shared, Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn wait_for_release_bails_on_shutdown() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        shared.phase.register_worker(0);
        let seq = shared.phase.request(Phase::Split);
        shared.request_shutdown();
        assert!(!wait_for_release(&shared, seq));
    }
}
