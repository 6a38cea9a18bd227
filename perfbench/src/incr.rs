//! `incr1-hot`: the paper's INCR1 (§8.2) on the embedded engine. One
//! million counters, half of all increments on one hot key, two worker
//! threads each calling `TxHandle::execute` on its own core's handle.

use crate::measure::{backoff, Probe, Repeat, Schedule, Tally, RETRY_BUDGET, STOP};
use crate::trace::SpanLog;
use crate::RepeatCtx;
use doppel_common::{DoppelConfig, Engine, Outcome, Procedure, Ticket, TxError, TxHandle, Value};
use doppel_db::DoppelDb;
use doppel_workloads::{Incr1Workload, TxnGenerator, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const KEYS: u64 = 1_000_000;
pub const HOT_FRACTION: f64 = 0.5;
pub const WORKERS: usize = 2;

pub fn run(ctx: &RepeatCtx) -> Repeat {
    // Default configuration of the embedded entry point: the coordinator and
    // the conflict classifier, no tuner, no log.
    let db = DoppelDb::start(DoppelConfig::with_workers(WORKERS));
    let workload = Incr1Workload::new(KEYS, HOT_FRACTION);
    workload.load(&db);
    let setup = ctx.setup_done();

    let schedule = Schedule::new(ctx.traced.clone());
    let telemetry = db.telemetry().expect("Doppel keeps a telemetry registry");
    let probe = || {
        let mut p = Probe::process();
        p.add_scalars(db.stats().named_fields());
        p.add_hists(&telemetry.snapshot().hists);
        p
    };

    let (driven, per_thread) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|core| {
                let generator = workload.generator(core, ctx.seed);
                let handle = db.handle(core);
                let schedule = &schedule;
                let log = SpanLog::new(ctx.origin, core as u32);
                scope.spawn(move || worker(handle, generator, schedule, log))
            })
            .collect();
        let driven = schedule.drive(ctx.window, probe);
        // A worker may wait at a phase barrier for a peer that already
        // stopped; shutting the engine down releases it.
        db.shutdown();
        let per_thread: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("incr worker panicked"))
            .collect();
        (driven, per_thread)
    });
    // The workers' handles are gone, so every per-core slice is reconciled.
    let (tallies, logs): (Vec<_>, Vec<_>) = per_thread.into_iter().unzip();
    for log in logs {
        ctx.spans.lock().expect("span set lock").absorb(log);
    }
    let mut observed = 0i64;
    db.for_each_record(&mut |_, v| {
        if let Value::Int(n) = v {
            observed += n;
        }
    });
    Repeat::new(
        setup,
        &schedule,
        driven,
        tallies,
        observed.max(0) as u64,
        format!("sum of all {KEYS} counters == committed increments"),
        None,
    )
}

struct Pending {
    proc: Arc<dyn Procedure>,
    stage: usize,
    first: Instant,
    attempts: u32,
    due: Instant,
    trace: u64,
}

fn worker(
    mut handle: Box<dyn TxHandle>,
    mut generator: Box<dyn TxnGenerator>,
    schedule: &Schedule,
    mut log: SpanLog,
) -> (Vec<Tally>, SpanLog) {
    let mut tallies = vec![Tally::default(); schedule.stages()];
    let mut retries: Vec<Pending> = Vec::new();
    let mut stashed: HashMap<Ticket, (usize, Instant)> = HashMap::new();
    let mut next_trace = 0u64;
    loop {
        let stage = schedule.stage();
        if stage == STOP && retries.is_empty() {
            break;
        }
        for c in handle.take_completions() {
            if let Some((st, first)) = stashed.remove(&c.ticket) {
                match c.result {
                    Ok(_) => tallies[st].commit(true, first.elapsed(), 1),
                    Err(_) => tallies[st].failed += 1,
                }
            }
        }
        let now = Instant::now();
        let mut txn = match retries.iter().position(|r| r.due <= now) {
            Some(i) => retries.swap_remove(i),
            None if stage == STOP => {
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            None => {
                next_trace += 1;
                tallies[stage].attempted += 1;
                Pending {
                    proc: generator.next_txn().proc,
                    stage,
                    first: now,
                    attempts: 0,
                    due: now,
                    trace: next_trace,
                }
            }
        };
        let start = Instant::now();
        let outcome = handle.execute(Arc::clone(&txn.proc));
        let end = Instant::now();
        let tally = &mut tallies[txn.stage];
        if schedule.is_traced(txn.stage) {
            log.record("doppel.exec", txn.trace, 0, start, end);
            tally.span("doppel.exec", end - start);
        }
        match outcome {
            Outcome::Committed(_) => tally.commit(true, end - txn.first, 1),
            Outcome::Stashed(ticket) => {
                stashed.insert(ticket, (txn.stage, txn.first));
            }
            Outcome::Aborted(TxError::Shutdown) => {
                // Cut by the benchmark's own teardown, not by the system:
                // these transactions were never applied and are not counted.
                tally.attempted -= 1;
                for r in retries.drain(..) {
                    tallies[r.stage].attempted -= 1;
                }
                break;
            }
            Outcome::Aborted(e) if e.is_retryable() && txn.attempts < RETRY_BUDGET => {
                txn.attempts += 1;
                txn.due = end + backoff(txn.attempts);
                retries.push(txn);
            }
            Outcome::Aborted(_) => tally.failed += 1,
        }
    }
    // Stashed increments finish in the next joined phase, which the
    // shutdown may have cut: the engine completes or abandons them when the
    // handle drops, so they count as failed here only if never reported.
    for c in handle.take_completions() {
        if let Some((st, first)) = stashed.remove(&c.ticket) {
            match c.result {
                Ok(_) => tallies[st].commit(true, first.elapsed(), 1),
                Err(_) => tallies[st].failed += 1,
            }
        }
    }
    for (st, _) in stashed.into_values() {
        tallies[st].failed += 1;
    }
    drop(handle);
    (tallies, log)
}
