//! `rubis-c-net`: RUBiS-C over loopback TCP to an in-process `Server` in
//! the default configuration of `doppel-server` (reactor front-end, tuner
//! on, WAL with default group commit), driven by two connections that each
//! pipeline batches of `InvokeProc` calls.

use crate::measure::{
    backoff, take_due, wal_policy, Probe, Repeat, Schedule, Tally, RETRY_BUDGET, STOP,
};
use crate::trace::SpanLog;
use crate::RepeatCtx;
use doppel_common::{Args, Value};
use doppel_rubis::{
    keys, rubis_registry, RubisCallGenerator, RubisData, RubisScale, RubisWorkload, TxnStyle,
};
use doppel_service::{RemoteClient, RemoteOutcome, RemoteTxn, Server, ServerEngine, ServiceConfig};
use doppel_wal::Wal;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SCALE: RubisScale = RubisScale {
    users: 100_000,
    items: 10_000,
    categories: 20,
    regions: 62,
};
pub const ALPHA: f64 = 1.8;
pub const WORKERS: usize = 2;
pub const CONNECTIONS: usize = 2;
pub const PIPELINE: usize = 32;
/// `doppel-server` defaults: phase length and store shards.
pub const PHASE_MS: u64 = 20;
pub const STORE_SHARDS: usize = 1024;

pub fn run(ctx: &RepeatCtx) -> Repeat {
    let wal_dir = ctx.wal_dir("rubis");
    let wal = Arc::new(Wal::open(&wal_dir, wal_policy()).expect("open WAL"));
    let engine = ServerEngine::build("doppel", WORKERS, PHASE_MS, STORE_SHARDS)
        .expect("doppel engine")
        .with_procs(rubis_registry())
        .with_adaptive(true);
    engine.engine.attach_commit_sink(Arc::clone(&wal) as _);
    RubisData::new(SCALE).load(engine.engine.as_ref());
    let server =
        Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind server");
    let addr = server.local_addr();
    let clients: Vec<RemoteClient> = (0..CONNECTIONS)
        .map(|_| RemoteClient::connect(addr).expect("connect"))
        .collect();
    let setup = ctx.setup_done();

    let workload = RubisWorkload::contended(SCALE, ALPHA, TxnStyle::Doppel);
    let schedule = Schedule::new(ctx.traced.clone());
    let probe = || {
        let mut p = Probe::process();
        p.add_snapshot(&server.telemetry_snapshot());
        p.wal_lsn_bytes = wal.end_lsn();
        p
    };
    let (driven, per_thread) = std::thread::scope(|scope| {
        let conns: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(core, client)| {
                let generator = workload.call_generator(core, ctx.seed);
                let schedule = &schedule;
                let log = SpanLog::new(ctx.origin, core as u32);
                scope.spawn(move || connection(client, generator, schedule, log))
            })
            .collect();
        let driven = schedule.drive(ctx.window, probe);
        let per_thread: Vec<_> = conns
            .into_iter()
            .map(|c| c.join().expect("rubis client panicked"))
            .collect();
        (driven, per_thread)
    });
    let (tallies, logs): (Vec<_>, Vec<_>) = per_thread.into_iter().unzip();
    for log in logs {
        ctx.spans.lock().expect("span set lock").absorb(log);
    }
    let observed = read_num_bids(addr);
    server.shutdown();
    drop(server);
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    Repeat::new(
        setup,
        &schedule,
        driven,
        tallies,
        observed,
        format!(
            "sum of num_bids over {} items, read over the wire == committed StoreBid calls",
            SCALE.items
        ),
        Some(wal_dir.display().to_string()),
    )
}

/// Σ num_bids(item) over every item, read back over a fresh connection.
fn read_num_bids(addr: SocketAddr) -> u64 {
    let mut client = RemoteClient::connect(addr).expect("connect for read-back");
    let txns: Vec<RemoteTxn> = (0..SCALE.items)
        .collect::<Vec<_>>()
        .chunks(100)
        .map(|items| {
            items
                .iter()
                .fold(RemoteTxn::new(), |t, i| t.get(keys::num_bids(*i)))
        })
        .collect();
    let mut sum = 0u64;
    for batch in txns.chunks(PIPELINE) {
        let ids = client.submit_many(batch).expect("submit read-back");
        for id in ids {
            match client.wait(id).expect("read-back reply") {
                RemoteOutcome::Committed { values, .. } => {
                    for v in values {
                        if let Some(Value::Int(n)) = v {
                            sum += n.max(0) as u64;
                        }
                    }
                }
                other => panic!("read-back transaction did not commit: {other:?}"),
            }
        }
    }
    sum
}

struct Call {
    name: &'static str,
    args: Args,
    is_write: bool,
    is_bid: bool,
    stage: usize,
    first: Instant,
    attempts: u32,
    due: Instant,
}

fn connection(
    mut client: RemoteClient,
    mut generator: RubisCallGenerator,
    schedule: &Schedule,
    mut log: SpanLog,
) -> (Vec<Tally>, SpanLog) {
    let mut tallies = vec![Tally::default(); schedule.stages()];
    let mut retries: Vec<Call> = Vec::new();
    let mut batch: Vec<Call> = Vec::with_capacity(PIPELINE);
    let mut wire: Vec<(&str, Args)> = Vec::with_capacity(PIPELINE);
    let mut batch_no = 0u64;
    loop {
        let stage = schedule.stage();
        if stage == STOP && retries.is_empty() {
            break;
        }
        // Due retries first, then fresh calls up to the pipeline depth.
        let now = Instant::now();
        batch.clear();
        take_due(&mut retries, &mut batch, PIPELINE, now, |c| c.due);
        while stage != STOP && batch.len() < PIPELINE {
            let call = generator.next_call();
            tallies[stage].attempted += 1;
            batch.push(Call {
                name: call.name,
                args: call.args,
                is_write: call.is_write,
                is_bid: call.name == "rubis.store_bid",
                stage,
                first: now,
                attempts: 0,
                due: now,
            });
        }
        if batch.is_empty() {
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }

        wire.clear();
        wire.extend(batch.iter().map(|c| (c.name, c.args.clone())));
        let traced = schedule.is_traced(stage);
        batch_no += 1;
        let submit_start = Instant::now();
        let ids = client.submit_batch(&wire).expect("submit batch");
        let submit_end = Instant::now();
        for (mut call, id) in batch.drain(..).zip(ids) {
            let outcome = client.wait(id).expect("completion");
            let done = Instant::now();
            let tally = &mut tallies[call.stage];
            // Conflicts, lock waits and backpressure are retried.
            let retryable = match outcome {
                RemoteOutcome::Committed { .. } => {
                    tally.commit(call.is_write, done - call.first, call.is_bid as u64);
                    continue;
                }
                RemoteOutcome::Aborted { code, .. } => code.is_retryable(),
                RemoteOutcome::Rejected { busy } => busy,
            };
            if retryable && call.attempts < RETRY_BUDGET {
                call.attempts += 1;
                call.due = done + backoff(call.attempts);
                retries.push(call);
            } else {
                tally.failed += 1;
            }
        }
        if traced {
            let end = Instant::now();
            let tally = &mut tallies[stage];
            let parent = log.record("wire.batch", batch_no, 0, submit_start, end);
            log.record("wire.submit", batch_no, parent, submit_start, submit_end);
            tally.span("wire.batch", end - submit_start);
            tally.span("wire.submit", submit_end - submit_start);
        }
    }
    (tallies, log)
}
