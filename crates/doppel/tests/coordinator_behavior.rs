//! Tests of the coordinator feedback rules (§5.4) and of worker lifecycle
//! corner cases that the in-module unit tests cannot cover.

use doppel_common::{DoppelConfig, Engine, Key, OpKind, Outcome, ProcedureFn, TxError, Value};
use doppel_db::{DoppelDb, Phase};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// "If, in a joined phase, no records appear contended … the coordinator
/// delays the next split phase": an uncontended workload must never enter a
/// split phase even though the coordinator is running.
#[test]
fn uncontended_workload_never_enters_split_phases() {
    let db = Arc::new(DoppelDb::start(DoppelConfig {
        workers: 2,
        phase_len: Duration::from_millis(2),
        ..DoppelConfig::default()
    }));
    for k in 0..10_000u64 {
        db.load(Key::raw(k), Value::Int(0));
    }
    let mut handles = Vec::new();
    for core in 0..2usize {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.handle(core);
            // Each worker touches its own disjoint key range: zero conflicts.
            let base = core as u64 * 5_000;
            for i in 0..20_000u64 {
                let key = Key::raw(base + (i % 5_000));
                let proc = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(key, 1)));
                match w.execute(proc) {
                    Outcome::Committed(_) => {}
                    Outcome::Aborted(TxError::Shutdown) => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    db.shutdown();
    let stats = db.stats();
    assert_eq!(stats.split_phases, 0, "nothing was contended, so no split phase should run");
    assert_eq!(stats.total_splits, 0);
    assert!(stats.commits >= 40_000 - 2);
}

/// "If, in a split phase, workers have to abort and stash too many
/// transactions, the coordinator hurries the next joined phase": with a
/// read-only workload against a manually split key, split phases must end
/// well before the nominal phase length.
#[test]
fn stash_storm_hurries_the_joined_phase() {
    let phase_len = Duration::from_millis(200);
    let db = Arc::new(DoppelDb::start(DoppelConfig {
        workers: 1,
        phase_len,
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        // End the split phase 10 ms after its first stash.
        feedback: doppel_common::PhaseFeedback {
            max_stash_wait_fraction: 0.05,
            ..Default::default()
        },
        ..DoppelConfig::default()
    }));
    let hot = Key::raw(0);
    db.load(hot, Value::Int(1));
    db.label_split(hot, OpKind::Add);

    let worker_db = Arc::clone(&db);
    let worker = std::thread::spawn(move || {
        let mut w = worker_db.handle(0);
        let started = Instant::now();
        let mut first_stash_completion: Option<Duration> = None;
        let mut submitted = 0u64;
        // Reads of the split key: all of them stash during split phases.
        while started.elapsed() < Duration::from_millis(600) {
            let proc = Arc::new(ProcedureFn::read_only("read-hot", move |tx| {
                tx.get(Key::raw(0)).map(|_| ())
            }));
            match w.execute(proc) {
                Outcome::Aborted(TxError::Shutdown) => break,
                _ => submitted += 1,
            }
            for completion in w.take_completions() {
                if completion.result.is_ok() && first_stash_completion.is_none() {
                    first_stash_completion = Some(started.elapsed());
                }
            }
        }
        (submitted, first_stash_completion)
    });
    let (submitted, first_completion) = worker.join().unwrap();
    let split_phases = split_phase_hist(&db);
    db.shutdown();

    assert!(submitted > 0);
    let stats = db.stats();
    if stats.stashes > 0 {
        // At least one split phase stashed reads; the wait bound must have
        // cut that split phase short, so the first stashed read completed
        // well before a full 200 ms phase elapsed on top of the joined phase.
        let completed_at = first_completion.expect("a stashed read should have completed");
        assert!(
            completed_at < Duration::from_millis(550),
            "stashed reads waited {completed_at:?}, the split phase was not hurried"
        );
        let longest = Duration::from_nanos(split_phases.max_ns());
        assert!(longest < phase_len / 2, "a stashing split phase ran {longest:?}");
    }
}

/// The wait bound only fires on stashes: split-key writes never stash, so
/// every split phase runs its full nominal length.
#[test]
fn stash_free_split_phases_run_their_full_length() {
    let phase_len = Duration::from_millis(20);
    let db =
        Arc::new(DoppelDb::start(DoppelConfig { workers: 2, phase_len, ..Default::default() }));
    let hot = Key::raw(0);
    db.load(hot, Value::Int(0));
    db.label_split(hot, OpKind::Add);

    let workers: Vec<_> = (0..2usize)
        .map(|core| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut w = db.handle(core);
                let incr = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(hot, 1)));
                let started = Instant::now();
                while started.elapsed() < Duration::from_millis(400) {
                    w.execute(incr.clone());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Read before shutdown, which may cut the last split phase short.
    let split_phases = split_phase_hist(&db);
    db.shutdown();

    assert_eq!(db.stats().stashes, 0, "split-key writes never stash");
    assert!(split_phases.count() >= 3, "only {} split phases ran", split_phases.count());
    let shortest = Duration::from_nanos(split_phases.quantile_ns(0.0));
    assert!(
        shortest >= phase_len.mul_f64(0.9),
        "a stash-free split phase ended after {shortest:?} of a {phase_len:?} phase"
    );
}

/// The wait bound is per stashed transaction: a read stashed in a 200 ms
/// split phase replays within `phase_len × max_stash_wait_fraction` (50 ms at
/// the default fraction) plus scheduling slack, not after the whole phase.
#[test]
fn stashed_read_waits_at_most_the_configured_fraction() {
    let phase_len = Duration::from_millis(200);
    let config = DoppelConfig { workers: 1, phase_len, ..DoppelConfig::default() };
    let bound = phase_len.mul_f64(config.feedback.max_stash_wait_fraction);
    let db = Arc::new(DoppelDb::start(config));
    let hot = Key::raw(0);
    db.load(hot, Value::Int(0));
    db.label_split(hot, OpKind::Add);

    let worker_db = Arc::clone(&db);
    let worker = std::thread::spawn(move || {
        let mut w = worker_db.handle(0);
        let incr = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(hot, 1)));
        let read = Arc::new(ProcedureFn::read_only("read", move |tx| tx.get(hot).map(|_| ())));
        let mut stashed_at = std::collections::HashMap::new();
        let mut waits = Vec::new();
        let started = Instant::now();
        // Writes keep the key split (stashes stay below the unsplit ratio);
        // the reads stash in every split phase. The pause keeps each phase's
        // stash small, so replaying it adds nothing measurable to the wait.
        while started.elapsed() < Duration::from_millis(900) {
            std::thread::sleep(Duration::from_millis(1));
            if let Outcome::Aborted(TxError::Shutdown) = w.execute(incr.clone()) {
                break;
            }
            if let Outcome::Stashed(ticket) = w.execute(read.clone()) {
                stashed_at.insert(ticket, Instant::now());
            }
            for completion in w.take_completions() {
                assert!(completion.result.is_ok(), "{completion:?}");
                if let Some(at) = stashed_at.remove(&completion.ticket) {
                    waits.push(at.elapsed());
                }
            }
        }
        waits
    });
    let waits = worker.join().unwrap();
    db.shutdown();

    assert!(!waits.is_empty(), "no stashed read completed");
    let longest = waits.iter().max().unwrap();
    let slack = phase_len / 8;
    assert!(
        *longest <= bound + slack,
        "a stashed read waited {longest:?}; bound {bound:?} + slack {slack:?}"
    );
}

fn split_phase_hist(db: &DoppelDb) -> doppel_telemetry::Histogram {
    let registry = db.telemetry().expect("doppel always has a telemetry registry");
    registry.snapshot().hist("phase_split").cloned().unwrap_or_default()
}

/// Workers that disappear mid-split-phase must not lose slice updates or hang
/// the remaining workers' phase transitions.
#[test]
fn worker_dropped_mid_split_phase_flushes_and_unblocks() {
    let db = DoppelDb::new(DoppelConfig {
        workers: 2,
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        ..DoppelConfig::default()
    });
    let hot = Key::raw(0);
    db.load(hot, Value::Int(0));
    db.label_split(hot, OpKind::Add);

    let w0 = db.handle(0);
    let w1 = db.handle(1);
    db.request_phase(Phase::Split);

    // A worker waiting for the transition release blocks until every other
    // worker has acknowledged, so the two workers must pass their safepoints
    // on separate threads.
    let run_split_phase_work = |mut w: Box<dyn doppel_common::TxHandle>| {
        std::thread::spawn(move || {
            w.safepoint();
            let incr = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(Key::raw(0), 1)));
            for _ in 0..10 {
                assert!(w.execute(incr.clone()).is_committed());
            }
            w
        })
    };
    let t0 = run_split_phase_work(w0);
    let t1 = run_split_phase_work(w1);
    let mut w0 = t0.join().unwrap();
    let w1 = t1.join().unwrap();
    assert_eq!(db.current_phase(), Phase::Split);

    // Worker 1 goes away while the split phase is still running (its slice
    // holds 10 buffered increments).
    drop(w1);

    // The remaining worker can still drive the database back to joined.
    db.request_phase(Phase::Joined);
    w0.safepoint();
    assert_eq!(db.current_phase(), Phase::Joined);
    assert_eq!(
        db.global_get(hot).unwrap().as_int().unwrap(),
        20,
        "the dropped worker's slice must have been merged"
    );
}

/// The coordinator shuts down cleanly even while a transition is pending and
/// no worker will ever acknowledge it (e.g. all workers already exited).
#[test]
fn shutdown_with_unacknowledged_transition_does_not_hang() {
    let db = DoppelDb::start(DoppelConfig {
        workers: 2,
        phase_len: Duration::from_millis(1),
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        feedback: doppel_common::PhaseFeedback {
            delay_split_when_uncontended: false,
            ..Default::default()
        },
        ..DoppelConfig::default()
    });
    db.load(Key::raw(0), Value::Int(0));
    {
        // Create a worker so transitions require its acknowledgement, commit a
        // little work, then drop it while the coordinator keeps requesting
        // phases.
        let mut w = db.handle(0);
        let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(0), 1)));
        for _ in 0..100 {
            let _ = w.execute(proc.clone());
        }
    }
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    db.shutdown();
    assert!(started.elapsed() < Duration::from_secs(5), "shutdown must not hang");
}
