//! Doppel worker: the per-core execution handle.
//!
//! "Doppel runs one worker thread per core" (§6). A worker:
//!
//! * executes transactions in the current phase (joined = OCC, split =
//!   OCC + per-core slices);
//! * checks the global phase variable between transactions, acknowledges
//!   pending transitions, merges its slices when leaving a split phase
//!   (reconciliation, Figure 4) and drains its stash when entering a joined
//!   phase;
//! * samples conflicts, slice writes and stashes for the classifier;
//! * stashes transactions that touch split data incompatibly and replays
//!   them in the next joined phase.

use crate::phase::Phase;
use crate::shared::DoppelShared;
use crate::slices::Slice;
use crate::split_registry::SplitSet;
use crate::txn::{DoppelTx, TxBuffers};
use doppel_common::{
    CommitSink, Completion, CoreId, EngineStats, Key, Outcome, Procedure, Ticket, TidGenerator,
    TxError, TxHandle,
};
use doppel_telemetry::trace::{self, EventKind};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Maximum inline retries for a stashed transaction replayed during a joined
/// phase before its failure is reported back to the caller.
const STASH_REPLAY_RETRIES: u32 = 64;

struct StashedTxn {
    ticket: Ticket,
    proc: Arc<dyn Procedure>,
    /// When the transaction was stashed: its replay completion reports the
    /// full stash-to-resolution latency (the cost a deferred client paid).
    stashed_at: Instant,
}

/// Per-core execution handle of a [`crate::DoppelDb`].
pub struct DoppelWorker {
    core: CoreId,
    shared: Arc<DoppelShared>,
    tid_gen: TidGenerator,
    local_phase: Phase,
    acked_seq: u64,
    split_set: Arc<SplitSet>,
    /// Per-core slices for split records.
    slices: HashMap<Key, Slice>,
    stash: VecDeque<StashedTxn>,
    completions: Vec<Completion>,
    next_ticket: u64,
    /// xorshift state for conflict sampling.
    rng_state: u64,
    /// Durability sink, captured at worker creation so neither the commit
    /// path nor reconciliation reads the shared sink cell (attach the sink
    /// before creating handles).
    sink: Option<Arc<dyn CommitSink>>,
    /// Transaction buffers (OCC sets, split write set, intent list) reused
    /// across transactions so steady-state execution allocates no
    /// per-transaction bookkeeping.
    tx_bufs: TxBuffers,
}

impl DoppelWorker {
    /// Creates the worker for `core` and registers it with the phase
    /// barrier.
    pub fn new(shared: Arc<DoppelShared>, core: CoreId) -> Self {
        shared.phase.register_worker(core);
        DoppelWorker {
            core,
            tid_gen: TidGenerator::new(core),
            local_phase: Phase::Joined,
            acked_seq: 0,
            split_set: SplitSet::empty(),
            slices: HashMap::new(),
            stash: VecDeque::new(),
            completions: Vec::new(),
            next_ticket: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15 ^ ((core as u64 + 1) << 17),
            sink: shared.commit_sink(),
            tx_bufs: TxBuffers::default(),
            shared,
        }
    }

    /// The phase this worker is currently executing in.
    pub fn phase(&self) -> Phase {
        self.local_phase
    }

    /// Number of records with a non-empty slice on this worker.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    fn fresh_ticket(&mut self) -> Ticket {
        self.next_ticket += 1;
        Ticket(((self.core as u64) << 48) | self.next_ticket)
    }

    fn should_sample(&mut self) -> bool {
        let rate = self.shared.config.conflict_sample_rate;
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        // xorshift64* — cheap, deterministic per worker.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        r < rate
    }

    /// Attributes a conflict abort to `(key, op)` for the classifier.
    fn sample_conflict(&mut self, key: Key, op: doppel_common::OpKind) {
        // The heat sketch is unsampled (a few relaxed atomics): the hot-key
        // table should reflect every conflict, not the classifier's sample.
        self.shared.telemetry.heat().record(key.heat_token());
        if self.should_sample() {
            self.shared.samplers[self.core].lock().record_conflict(key, op);
            if op.splittable() {
                self.shared.splittable_conflicts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn record_commit(&mut self) {
        EngineStats::bump(&self.shared.stats.commits);
        self.shared.samplers[self.core].lock().record_commit();
    }

    /// Runs one transaction in joined mode (plain OCC).
    fn run_joined(&mut self, proc: &dyn Procedure) -> Outcome {
        // Hold a local clone of the shared state so the transaction's borrow
        // of the store does not pin `self`.
        let shared = Arc::clone(&self.shared);
        let bufs = std::mem::take(&mut self.tx_bufs);
        let mut tx = DoppelTx::joined_with(&shared.store, self.core, bufs);
        let outcome = match proc.run(&mut tx) {
            Err(e) => self.handle_body_error(&tx, e),
            Ok(()) => match tx.commit_occ_durable(&mut self.tid_gen, self.sink.as_deref()) {
                Ok((tid, receipt)) => {
                    self.shared.stats.absorb_log(&receipt);
                    self.record_commit();
                    Outcome::Committed(tid)
                }
                Err(e) => self.handle_commit_error(&tx, e),
            },
        };
        self.tx_bufs = tx.into_buffers();
        outcome
    }

    /// Runs one transaction in split mode (OCC for reconciled data, per-core
    /// slices for split data).
    fn run_split(&mut self, proc: &Arc<dyn Procedure>) -> Outcome {
        let shared = Arc::clone(&self.shared);
        let bufs = std::mem::take(&mut self.tx_bufs);
        let mut tx =
            DoppelTx::split_with(&shared.store, self.core, Arc::clone(&self.split_set), bufs);
        let outcome = match proc.run(&mut tx) {
            Err(TxError::Stash { key, attempted }) => {
                // Stash the transaction for the next joined phase (§5.2).
                self.shared.samplers[self.core].lock().record_stash(key, attempted);
                EngineStats::bump(&self.shared.stats.stashes);
                self.shared.phase_stashed.fetch_add(1, Ordering::Relaxed);
                let ticket = self.fresh_ticket();
                trace::instant(EventKind::TxnStash, self.core as u64);
                self.stash.push_back(StashedTxn {
                    ticket,
                    proc: Arc::clone(proc),
                    stashed_at: Instant::now(),
                });
                Outcome::Stashed(ticket)
            }
            Err(e) => self.handle_body_error(&tx, e),
            // The OCC (reconciled) part of the write set logs conventionally;
            // split writes are not logged per-operation — each worker emits
            // one merged-delta record per split key at reconciliation
            // instead. A mixed transaction therefore becomes durable in two
            // pieces: its reconciled writes at commit, its split writes when
            // the next reconciliation's delta records reach disk (see the
            // "Durability" section of the README for the contract).
            Ok(()) => match tx.commit_occ_durable(&mut self.tid_gen, self.sink.as_deref()) {
                Ok((tid, receipt)) => {
                    self.shared.stats.absorb_log(&receipt);
                    // Apply the split write set to the per-core slices
                    // (Figure 3, part 3). Slices are invisible to other
                    // cores, so no locks or version checks are needed.
                    for (key, op) in tx.drain_split_writes() {
                        let slice =
                            self.slices.entry(key).or_insert_with(|| Slice::new(op.kind()));
                        slice
                            .apply(&op)
                            .expect("selected operation always matches its slice kind");
                        EngineStats::bump(&self.shared.stats.slice_ops);
                        self.shared.samplers[self.core].lock().record_split_write(key);
                    }
                    self.record_commit();
                    Outcome::Committed(tid)
                }
                Err(e) => self.handle_commit_error(&tx, e),
            },
        };
        self.tx_bufs = tx.into_buffers();
        outcome
    }

    fn handle_body_error(&mut self, tx: &DoppelTx<'_>, e: TxError) -> Outcome {
        match &e {
            TxError::UserAbort { .. } => EngineStats::bump(&self.shared.stats.user_aborts),
            TxError::Conflict { key } | TxError::LockBusy { key } => {
                let intent = tx.intent_for(key);
                self.sample_conflict(*key, intent);
                EngineStats::bump(&self.shared.stats.conflicts);
            }
            _ => EngineStats::bump(&self.shared.stats.user_aborts),
        }
        Outcome::Aborted(e)
    }

    fn handle_commit_error(&mut self, tx: &DoppelTx<'_>, e: TxError) -> Outcome {
        if let TxError::Conflict { key } | TxError::LockBusy { key } = &e {
            let intent = tx.intent_for(key);
            self.sample_conflict(*key, intent);
        }
        EngineStats::bump(&self.shared.stats.conflicts);
        Outcome::Aborted(e)
    }

    /// Merges this worker's slices into the global store (Figure 4): for
    /// every slice, lock the global record, merge-apply, bump the TID and
    /// unlock. Called while acknowledging a split→joined transition.
    ///
    /// Durability rides on this step: with a commit sink attached, the worker
    /// appends **one merged-delta record per split key** — not one record per
    /// split-phase operation — while still holding the record lock. This is
    /// the paper's durability dividend: split-phase logging costs O(split
    /// keys) records per phase instead of O(operations), and split-phase
    /// commit acknowledgements become durable when their reconciliation
    /// deltas reach disk.
    fn reconcile(&mut self) {
        if self.slices.is_empty() {
            return;
        }
        let started = Instant::now();
        // Drain in place (instead of `mem::take`) so the slice map's table
        // allocation survives into the next split phase.
        for (key, slice) in self.slices.drain() {
            let merge_ops = slice.into_merge_ops();
            if merge_ops.is_empty() {
                continue;
            }
            let record = self.shared.store.get_or_create(key);
            record.lock_spin();
            for op in &merge_ops {
                // A type mismatch can only happen if the application wrote a
                // value of a different type to this key outside the split
                // phase; the merge skips such records rather than corrupting
                // them.
                let _ = record.apply_locked(op);
            }
            let tid = self.tid_gen.next_after([record.tid()]);
            if let Some(sink) = &self.sink {
                let receipt = sink.log_merged_delta(tid, key, &merge_ops);
                self.shared.stats.absorb_log(&receipt);
            }
            record.publish_and_unlock(tid);
            EngineStats::bump(&self.shared.stats.slices_merged);
        }
        self.shared.hist_reconcile.record(self.core, started.elapsed());
        trace::span_since(EventKind::Reconcile, self.core as u64, started);
    }

    /// Replays stashed transactions in joined mode ("each worker restarts any
    /// transactions it stashed in the split phase", §5.4). Conflicting
    /// replays are retried a bounded number of times; persistent failures are
    /// reported as completions so the caller can resubmit.
    fn drain_stash(&mut self) {
        if self.stash.is_empty() {
            return;
        }
        // Replay directly off the deque: joined-phase execution never pushes
        // to the stash, so popping while replaying is safe and avoids
        // collecting into a temporary list.
        while let Some(entry) = self.stash.pop_front() {
            let mut attempts = 0u32;
            loop {
                match self.run_joined(entry.proc.as_ref()) {
                    Outcome::Committed(tid) => {
                        EngineStats::bump(&self.shared.stats.stash_commits);
                        self.shared.hist_stash_replay.record(self.core, entry.stashed_at.elapsed());
                        trace::span_since(EventKind::StashReplay, 1, entry.stashed_at);
                        self.completions.push(Completion { ticket: entry.ticket, result: Ok(tid) });
                        break;
                    }
                    Outcome::Aborted(e) if e.is_retryable() && attempts < STASH_REPLAY_RETRIES => {
                        attempts += 1;
                        for _ in 0..(1u32 << attempts.min(6)) {
                            std::hint::spin_loop();
                        }
                    }
                    Outcome::Aborted(e) => {
                        self.shared.hist_stash_replay.record(self.core, entry.stashed_at.elapsed());
                        trace::span_since(EventKind::StashReplay, 0, entry.stashed_at);
                        self.completions
                            .push(Completion { ticket: entry.ticket, result: Err(e) });
                        break;
                    }
                    Outcome::Stashed(_) => {
                        unreachable!("joined-phase execution never stashes")
                    }
                }
            }
        }
    }

    /// The safepoint: observe pending phase transitions, do the pre-ack work
    /// (reconcile / drain), acknowledge, wait for the release and switch the
    /// local phase.
    fn safepoint_inner(&mut self) {
        loop {
            let target = self.shared.phase.target();
            if target.seq <= self.acked_seq {
                return;
            }
            // Pre-acknowledgement work (§5.4):
            match self.local_phase {
                Phase::Split => {
                    // Leaving the split phase: merge per-core slices into the
                    // global store before acknowledging.
                    self.reconcile();
                }
                Phase::Joined => {
                    // Entering a split phase: finish previously stashed
                    // transactions first ("our workers delay acknowledging a
                    // split phase until they have committed or aborted all
                    // previously-stashed transactions").
                    self.drain_stash();
                }
            }
            self.shared.phase.ack(self.core, target.seq);
            self.acked_seq = target.seq;
            // The last worker to acknowledge completes the transition.
            self.shared.try_complete_transition();

            // Wait for permission to proceed.
            while self.shared.phase.released_seq() < target.seq {
                if self.shared.is_shutdown() {
                    return;
                }
                self.shared.try_complete_transition();
                std::thread::yield_now();
            }

            // Enter the new phase.
            self.local_phase = target.phase;
            match target.phase {
                Phase::Split => {
                    self.split_set = self.shared.registry.current();
                    debug_assert!(self.slices.is_empty(), "slices must be empty at split entry");
                }
                Phase::Joined => {
                    // Restart stashed transactions now that the joined phase
                    // has begun.
                    self.drain_stash();
                }
            }
            // Loop: another transition may already be pending.
        }
    }
}

impl Drop for DoppelWorker {
    fn drop(&mut self) {
        // A worker that goes away mid-split-phase must not lose the updates
        // buffered in its slices: merge them (merging early is safe — split
        // records cannot be read by anyone until the next joined phase) and
        // stop blocking phase transitions.
        self.reconcile();
        self.shared.phase.unregister_worker(self.core);
        self.shared.try_complete_transition();
    }
}

impl TxHandle for DoppelWorker {
    fn core(&self) -> CoreId {
        self.core
    }

    fn execute(&mut self, proc: Arc<dyn Procedure>) -> Outcome {
        self.safepoint_inner();
        if self.shared.is_shutdown() {
            return Outcome::Aborted(TxError::Shutdown);
        }
        match self.local_phase {
            Phase::Joined => self.run_joined(proc.as_ref()),
            Phase::Split => self.run_split(&proc),
        }
    }

    fn safepoint(&mut self) {
        self.safepoint_inner();
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn stash_len(&self) -> usize {
        self.stash.len()
    }
}

/// Tests for the worker live in the crate-level tests of `db.rs`, which can
/// drive full phase cycles; the unit tests here cover the pieces that do not
/// need a running database.
#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::DoppelConfig;

    #[test]
    fn tickets_are_unique_and_encode_core() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(2)));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 1);
        let a = w.fresh_ticket();
        let b = w.fresh_ticket();
        assert_ne!(a, b);
        assert_eq!(a.0 >> 48, 1);
    }

    #[test]
    fn sampling_rate_extremes() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.conflict_sample_rate = 1.0;
        let shared = Arc::new(DoppelShared::new(cfg));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        assert!(w.should_sample());

        let mut cfg = DoppelConfig::with_workers(1);
        cfg.conflict_sample_rate = 0.0;
        let shared = Arc::new(DoppelShared::new(cfg));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        assert!(!w.should_sample());
    }

    #[test]
    fn fractional_sampling_is_roughly_proportional() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.conflict_sample_rate = 0.25;
        let shared = Arc::new(DoppelShared::new(cfg));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        let hits = (0..10_000).filter(|_| w.should_sample()).count();
        assert!((1_500..3_500).contains(&hits), "got {hits} samples out of 10000");
    }

    #[test]
    fn new_worker_starts_joined_with_empty_state() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        let w = DoppelWorker::new(Arc::clone(&shared), 0);
        assert_eq!(w.phase(), Phase::Joined);
        assert_eq!(w.slice_count(), 0);
        assert_eq!(w.stash_len(), 0);
        assert_eq!(w.core(), 0);
    }
}
