//! `shard-mix`: uniform counters over two in-process shard servers (each in
//! `doppel-server`'s default configuration with one worker) behind one
//! `ShardRouter`, driven in batches of 256 through `execute_many`: 180
//! single-key adds (direct route), 75 two-shard adds (commutative fast path)
//! and one read-on-one-shard plus add-on-the-other (two-phase commit,
//! volatile votes) in every batch.

use crate::measure::{
    backoff, take_due, wal_policy, Probe, Repeat, Schedule, Tally, RETRY_BUDGET, STOP,
};
use crate::trace::SpanLog;
use crate::RepeatCtx;
use doppel_common::{Key, ShardMap, Value};
use doppel_service::{
    kv_registry, RemoteTxn, Server, ServerEngine, ServiceConfig, ShardOutcome, ShardRouter,
};
use doppel_wal::Wal;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const KEYS: u64 = 200_000;
pub const SHARDS: usize = 2;
pub const WORKERS_PER_SHARD: usize = 1;
pub const BATCH: usize = 256;
/// Transactions per route in every `BATCH`: direct, fast path, two-phase
/// commit. A batch costs one pipelined round trip to each shard plus two
/// more for each of its two-phase commits, which the router runs one after
/// another; the rest is work. The share of a batch spent waiting on thread
/// wake-ups rather than working sets how much the figures measure the host.
/// On a 2-vCPU virtual machine, with 10 % two-phase commits in batches of
/// 64 throughput rose by a quarter when an unrelated busy loop kept the
/// vCPUs from idling and ran from 37K to 64K txn/s on the same code within
/// an hour; with one per batch of 64 the repeats of a run still spread by
/// 5 % (coefficient of variation), and with one per batch of 256 by 3 %.
pub const MIX: (u64, u64, u64) = (180, 75, 1);
const _: () = assert!((MIX.0 + MIX.1 + MIX.2) as usize == BATCH);
/// `doppel-server` defaults: phase length and store shards.
pub const PHASE_MS: u64 = 20;
pub const STORE_SHARDS: usize = 1024;

struct Shard {
    server: Server,
    wal: Arc<Wal>,
}

pub fn run(ctx: &RepeatCtx) -> Repeat {
    let map = ShardMap::new(SHARDS);
    let wal_root = ctx.wal_dir("shard");
    let shards: Vec<Shard> = (0..SHARDS)
        .map(|s| {
            let wal = Arc::new(
                Wal::open(wal_root.join(format!("s{s}")), wal_policy()).expect("open WAL"),
            );
            let engine = ServerEngine::build("doppel", WORKERS_PER_SHARD, PHASE_MS, STORE_SHARDS)
                .expect("doppel engine")
                .with_procs(kv_registry())
                .with_adaptive(true);
            // The log records commits only: as a 2PC vote log it would fsync
            // every prepare and decide whatever the flush policy, putting the
            // disk's fsync latency back on the measured path.
            engine.engine.attach_commit_sink(Arc::clone(&wal) as _);
            for k in (0..KEYS).map(Key::raw).filter(|k| map.shard_of(*k) == s) {
                engine.engine.load(k, Value::Int(0));
            }
            let server =
                Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind shard");
            Shard { server, wal }
        })
        .collect();
    let addrs: Vec<String> = shards
        .iter()
        .map(|s| s.server.local_addr().to_string())
        .collect();
    let router = ShardRouter::connect(&addrs).expect("connect router");
    let setup = ctx.setup_done();

    let schedule = Schedule::new(ctx.traced.clone());
    let probe = || {
        let mut p = Probe::process();
        for s in &shards {
            p.add_snapshot(&s.server.telemetry_snapshot());
            p.wal_lsn_bytes += s.wal.end_lsn();
        }
        p
    };
    let seed = ctx.seed;
    let origin = ctx.origin;
    let (driven, (tallies, log, observed)) = std::thread::scope(|scope| {
        let schedule = &schedule;
        let generator = scope.spawn(move || {
            let mut router = router;
            let (tallies, log) = drive_router(&mut router, seed, schedule, SpanLog::new(origin, 0));
            let observed = read_counters(&mut router);
            (tallies, log, observed)
        });
        let driven = schedule.drive(ctx.window, probe);
        (driven, generator.join().expect("shard generator panicked"))
    });
    ctx.spans.lock().expect("span set lock").absorb(log);
    for s in &shards {
        s.server.shutdown();
    }
    drop(shards);
    let _ = std::fs::remove_dir_all(&wal_root);
    Repeat::new(
        setup,
        &schedule,
        driven,
        vec![tallies],
        observed,
        format!("sum of all {KEYS} counters across {SHARDS} shards == committed add statements"),
        Some(wal_root.display().to_string()),
    )
}

struct Txn {
    txn: RemoteTxn,
    /// Add statements in the transaction (each adds 1).
    adds: u64,
    /// Built for the two-phase-commit route.
    twopc: bool,
    stage: usize,
    first: Instant,
    attempts: u32,
    due: Instant,
}

/// Keys are drawn at random; routes follow the mix evenly over the stream
/// (every batch carries its one two-phase commit), so a batch's latency
/// reflects the system rather than how many slow-route transactions a random
/// draw packed into it.
struct Generator {
    rng: SmallRng,
    map: ShardMap,
    issued: u64,
    fast: u64,
    twopc: u64,
}

impl Generator {
    fn key(&mut self) -> Key {
        Key::raw(self.rng.gen_range(0..KEYS))
    }

    /// A uniform key on a different shard than `other`.
    fn key_off(&mut self, other: Key) -> Key {
        loop {
            let k = self.key();
            if self.map.shard_of(k) != self.map.shard_of(other) {
                return k;
            }
        }
    }

    /// The next transaction, its add statements and whether it takes the
    /// two-phase-commit route.
    fn next(&mut self) -> (RemoteTxn, u64, bool) {
        self.issued += 1;
        let a = self.key();
        if self.twopc < self.issued * MIX.2 / BATCH as u64 {
            self.twopc += 1;
            let b = self.key_off(a);
            (RemoteTxn::new().get(a).add(b, 1), 1, true)
        } else if self.fast < self.issued * MIX.1 / BATCH as u64 {
            self.fast += 1;
            let b = self.key_off(a);
            (RemoteTxn::new().add(a, 1).add(b, 1), 2, false)
        } else {
            (RemoteTxn::new().add(a, 1), 1, false)
        }
    }
}

fn drive_router(
    router: &mut ShardRouter,
    seed: u64,
    schedule: &Schedule,
    mut log: SpanLog,
) -> (Vec<Tally>, SpanLog) {
    let mut gen = Generator {
        rng: SmallRng::seed_from_u64(seed),
        map: router.map(),
        issued: 0,
        fast: 0,
        twopc: 0,
    };
    let mut tallies = vec![Tally::default(); schedule.stages()];
    let mut retries: Vec<Txn> = Vec::new();
    let mut batch: Vec<Txn> = Vec::with_capacity(BATCH);
    let mut txns: Vec<RemoteTxn> = Vec::with_capacity(BATCH);
    let mut batch_no = 0u64;
    loop {
        let stage = schedule.stage();
        if stage == STOP && retries.is_empty() {
            break;
        }
        let now = Instant::now();
        batch.clear();
        take_due(&mut retries, &mut batch, BATCH, now, |c| c.due);
        while stage != STOP && batch.len() < BATCH {
            let (txn, adds, twopc) = gen.next();
            tallies[stage].attempted += 1;
            batch.push(Txn {
                txn,
                adds,
                twopc,
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

        txns.clear();
        txns.extend(batch.iter().map(|t| t.txn.clone()));
        let routes_before = router.routes();
        let start = Instant::now();
        let outcomes = router.execute_many(&txns).expect("execute_many");
        let end = Instant::now();
        let routes = router.routes();
        // Batch-level counts go to the current window (the last one for the
        // retries drained after the stop).
        let batch_stage = stage.min(schedule.stages() - 1);
        let tally = &mut tallies[batch_stage];
        tally.count("route.direct", routes.direct - routes_before.direct);
        tally.count("route.fast", routes.fast_path - routes_before.fast_path);
        tally.count("route.twopc", routes.two_phase - routes_before.two_phase);
        if schedule.is_traced(batch_stage) {
            batch_no += 1;
            log.record("shard.batch", batch_no, 0, start, end);
            tally.span("shard.batch", end - start);
        }
        for (mut t, outcome) in batch.drain(..).zip(outcomes) {
            let tally = &mut tallies[t.stage];
            // A no-vote (LockBusy), a conflict or backpressure is retried.
            let retryable = match outcome {
                ShardOutcome::Committed { .. } => {
                    tally.commit(true, end - t.first, t.adds);
                    continue;
                }
                ShardOutcome::Aborted { code } => code.is_retryable(),
                ShardOutcome::Rejected => true,
            };
            if t.twopc {
                tallies[batch_stage].count("twopc.aborted", 1);
            }
            if retryable && t.attempts < RETRY_BUDGET {
                t.attempts += 1;
                t.due = end + backoff(t.attempts);
                retries.push(t);
            } else {
                tallies[t.stage].failed += 1;
            }
        }
    }
    (tallies, log)
}

/// Σ of every counter, read back through the router with single-shard
/// read-only transactions (direct route).
fn read_counters(router: &mut ShardRouter) -> u64 {
    let map = router.map();
    let mut txns = Vec::new();
    for s in 0..SHARDS {
        let owned: Vec<Key> = (0..KEYS)
            .map(Key::raw)
            .filter(|k| map.shard_of(*k) == s)
            .collect();
        for chunk in owned.chunks(256) {
            txns.push(chunk.iter().fold(RemoteTxn::new(), |t, k| t.get(*k)));
        }
    }
    let mut sum = 0u64;
    for batch in txns.chunks(BATCH) {
        for outcome in router.execute_many(batch).expect("read-back") {
            let Some(values) = outcome.values() else {
                panic!("read-back transaction did not commit: {outcome:?}");
            };
            for v in values {
                if let Some(Value::Int(n)) = v {
                    sum += (*n).max(0) as u64;
                }
            }
        }
    }
    sum
}
