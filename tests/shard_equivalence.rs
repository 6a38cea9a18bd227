//! Sharding is a *placement* decision, not a semantics change.
//!
//! The differential: a fuzzer-generated stream of mixed transactions —
//! commutative writes (fast-path eligible), `Put`s and reads (slow-path) —
//! executed through a [`ShardRouter`] over a live multi-process-shaped
//! cluster (real `Server`s, real TCP, real wire protocol) must leave the
//! union-of-shards store in exactly the state a single-process engine
//! reaches executing the same stream directly, and must return the same
//! `Get` results transaction by transaction. Run once more with every
//! cross-shard write forced through two-phase commit, which must also agree.

use doppel_common::{Engine, Key, Op, ShardMap, Value};
use doppel_service::{
    RemoteProcedure, RemoteTxn, Server, ServerEngine, ServiceConfig, ShardOutcome, ShardRouter,
};
use proptest::prelude::*;
use std::sync::Arc;

const KEYS: u64 = 16;

/// One generated statement over the integer keyspace.
#[derive(Clone, Debug)]
enum Stmt {
    Add(u64, i64),
    Max(u64, i64),
    BitOr(u64, i64),
    Put(u64, i64),
    Get(u64),
}

impl Stmt {
    fn build(self, txn: RemoteTxn) -> RemoteTxn {
        match self {
            Stmt::Add(k, n) => txn.add(Key::raw(k), n),
            Stmt::Max(k, n) => txn.max(Key::raw(k), n),
            Stmt::BitOr(k, n) => txn.write(Key::raw(k), Op::BitOr(n)),
            Stmt::Put(k, n) => txn.put(Key::raw(k), Value::Int(n)),
            Stmt::Get(k) => txn.get(Key::raw(k)),
        }
    }
}

fn arb_txn() -> impl Strategy<Value = Vec<Stmt>> {
    let stmt = (0u64..KEYS, -100i64..100, 0u8..8).prop_map(|(k, n, kind)| match kind {
        0 | 1 => Stmt::Add(k, n),
        2 => Stmt::Max(k, n),
        3 => Stmt::BitOr(k, n & 0xFF),
        4 => Stmt::Put(k, n),
        _ => Stmt::Get(k),
    });
    prop::collection::vec(stmt, 1..4)
}

fn arb_stream() -> impl Strategy<Value = Vec<Vec<Stmt>>> {
    prop::collection::vec(arb_txn(), 0..30)
}

/// A live cluster of in-process servers plus their engines (kept aside so
/// the test can inspect the stores after shutdown).
struct Cluster {
    servers: Vec<Server>,
    engines: Vec<Arc<dyn Engine>>,
    addrs: Vec<String>,
}

fn start_cluster(shards: usize) -> Cluster {
    let mut servers = Vec::new();
    let mut engines: Vec<Arc<dyn Engine>> = Vec::new();
    let mut addrs = Vec::new();
    let map = ShardMap::new(shards);
    for s in 0..shards {
        let engine: Arc<dyn Engine> = Arc::new(doppel_occ::OccEngine::new(1, 32));
        // Each shard preloads exactly the keys it owns, as a real deployment
        // would.
        for k in 0..KEYS {
            if map.shard_of(Key::raw(k)) == s {
                engine.load(Key::raw(k), Value::Int(0));
            }
        }
        let server = Server::start(
            ServerEngine::other(Arc::clone(&engine)),
            ServiceConfig::default(),
            "127.0.0.1:0",
        )
        .expect("server starts");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
        engines.push(engine);
    }
    Cluster { servers, engines, addrs }
}

impl Cluster {
    /// The owning shard's value for every key, in key order — the logical
    /// store the cluster jointly serves.
    fn snapshot(&self) -> Vec<Option<Value>> {
        let map = ShardMap::new(self.engines.len());
        (0..KEYS)
            .map(|k| self.engines[map.shard_of(Key::raw(k))].global_get(Key::raw(k)))
            .collect()
    }

    fn shutdown(&self) {
        for s in &self.servers {
            s.shutdown();
        }
    }
}

/// Runs the stream through a router over a fresh cluster; returns each
/// transaction's `Get` results and the final logical store.
fn run_sharded(
    shards: usize,
    stream: &[Vec<Stmt>],
    force_two_phase: bool,
) -> (Vec<Vec<Option<Value>>>, Vec<Option<Value>>) {
    let cluster = start_cluster(shards);
    let mut router = ShardRouter::connect(&cluster.addrs).expect("router connects");
    router.force_two_phase(force_two_phase);
    let mut values = Vec::new();
    for stmts in stream {
        let txn = stmts.iter().cloned().fold(RemoteTxn::new(), |t, s| s.build(t));
        match router.execute(&txn).expect("routing io") {
            ShardOutcome::Committed { values: v, .. } => values.push(v),
            other => panic!("sharded execution did not commit: {other:?}"),
        }
    }
    cluster.shutdown();
    (values, cluster.snapshot())
}

/// Runs the stream directly on one engine (the reference), through the very
/// same `RemoteProcedure` the servers execute.
fn run_reference(stream: &[Vec<Stmt>]) -> (Vec<Vec<Option<Value>>>, Vec<Option<Value>>) {
    let engine = doppel_occ::OccEngine::new(1, 32);
    for k in 0..KEYS {
        engine.load(Key::raw(k), Value::Int(0));
    }
    let mut handle = engine.handle(0);
    let mut values = Vec::new();
    for stmts in stream {
        let txn = stmts.iter().cloned().fold(RemoteTxn::new(), |t, s| s.build(t));
        let proc = Arc::new(RemoteProcedure::new(txn.stmts().to_vec()));
        assert!(handle.execute(proc.clone()).is_committed(), "reference aborted");
        values.push(proc.take_values());
    }
    drop(handle);
    engine.shutdown();
    let snap = (0..KEYS).map(|k| engine.global_get(Key::raw(k))).collect();
    (values, snap)
}

proptest! {
    /// 2-shard cluster ≡ single engine: same per-transaction reads, same
    /// final store — on the mixed fast/slow routing and with two-phase
    /// commit forced everywhere.
    #[test]
    fn sharded_cluster_equals_single_engine(stream in arb_stream()) {
        let (ref_values, ref_store) = run_reference(&stream);

        let (values, store) = run_sharded(2, &stream, false);
        prop_assert_eq!(&store, &ref_store, "mixed routing diverged on the final store");
        prop_assert_eq!(&values, &ref_values, "mixed routing diverged on reads");

        let (values, store) = run_sharded(2, &stream, true);
        prop_assert_eq!(&store, &ref_store, "forced 2PC diverged on the final store");
        prop_assert_eq!(&values, &ref_values, "forced 2PC diverged on reads");
    }
}

/// Deterministic 4-shard smoke: all three routing paths fire and the
/// cluster agrees with a hand-computed model.
#[test]
fn four_shard_routing_paths_agree_with_model() {
    let cluster = start_cluster(4);
    let mut router = ShardRouter::connect(&cluster.addrs).expect("router connects");
    assert_eq!(router.shards(), 4);

    // Commutative fan-out: +1 to every key in one transaction (keys span
    // all four shards), fifty times.
    let everyone = (0..KEYS).fold(RemoteTxn::new(), |t, k| t.add(Key::raw(k), 1));
    for _ in 0..50 {
        assert!(router.execute(&everyone).expect("io").is_committed());
    }
    // Slow path: a cross-shard read-modify-write shape (Get + Put + Add).
    let mixed = RemoteTxn::new().get(Key::raw(0)).put(Key::raw(1), Value::Int(500)).add(Key::raw(2), 7);
    let out = router.execute(&mixed).expect("io");
    assert_eq!(out.values(), Some(&[Some(Value::Int(50))][..]), "2PC read saw the fan-out total");
    // Direct path: single-key transactions.
    for _ in 0..5 {
        assert!(router.execute(&RemoteTxn::new().add(Key::raw(3), 10)).expect("io").is_committed());
    }
    let routes = router.routes();
    assert!(routes.fast_path >= 50, "fan-outs took the fast path: {routes:?}");
    assert!(routes.two_phase >= 1, "the mixed txn took the slow path: {routes:?}");
    assert!(routes.direct >= 5, "single-key txns routed direct: {routes:?}");

    // Model: key0 = 50, key1 = 500 (Put), key2 = 50 + 7, key3 = 50 + 50.
    let store = cluster.snapshot();
    cluster.shutdown();
    assert_eq!(store[0], Some(Value::Int(50)));
    assert_eq!(store[1], Some(Value::Int(500)));
    assert_eq!(store[2], Some(Value::Int(57)));
    assert_eq!(store[3], Some(Value::Int(100)));
}

/// The pipelined batch API agrees with one-at-a-time execution.
#[test]
fn execute_many_matches_sequential_outcomes() {
    let cluster = start_cluster(3);
    let mut router = ShardRouter::connect(&cluster.addrs).expect("router connects");
    let txns: Vec<RemoteTxn> = (0..40)
        .map(|i| {
            RemoteTxn::new()
                .add(Key::raw(i % KEYS), 2)
                .add(Key::raw((i + 3) % KEYS), 5)
        })
        .collect();
    let outcomes = router.execute_many(&txns).expect("batch io");
    assert_eq!(outcomes.len(), txns.len());
    assert!(outcomes.iter().all(|o| o.is_committed()), "batch commits everywhere");

    // Every key's total matches the model sum.
    let mut model = vec![0i64; KEYS as usize];
    for i in 0..40u64 {
        model[(i % KEYS) as usize] += 2;
        model[((i + 3) % KEYS) as usize] += 5;
    }
    let store = cluster.snapshot();
    cluster.shutdown();
    for (k, expected) in model.into_iter().enumerate() {
        assert_eq!(store[k], Some(Value::Int(expected)), "key {k}");
    }
}

/// Two routers in one process over the same shards, each running many 2PCs
/// at once: their txids must never collide, or a shard would take one
/// router's prepare for a re-delivery of the other's, or skip a commit whose
/// marker the other router already wrote. Every committed add must land
/// exactly once.
#[test]
fn concurrent_routers_never_share_two_phase_txids() {
    const TXNS_PER_ROUTER: usize = 10_000;
    let cluster = start_cluster(2);
    // Each router adds to its own pair of keys, one per shard, so the two
    // never contend on locks: every 2PC should commit.
    let map = ShardMap::new(2);
    let keys_on = |shard: usize| -> Vec<Key> {
        (0..KEYS).map(Key::raw).filter(|k| map.shard_of(*k) == shard).collect()
    };
    let (on0, on1) = (keys_on(0), keys_on(1));
    // Built back to back, as two generator threads of one client would.
    let routers: Vec<ShardRouter> = (0..2)
        .map(|_| {
            let mut r = ShardRouter::connect(&cluster.addrs).expect("router connects");
            r.force_two_phase(true);
            r
        })
        .collect();
    let threads: Vec<_> = routers
        .into_iter()
        .enumerate()
        .map(|(i, mut router)| {
            let txn = RemoteTxn::new().add(on0[i], 1).add(on1[i], 1);
            std::thread::spawn(move || {
                let mut committed = 0i64;
                for _ in 0..TXNS_PER_ROUTER {
                    if router.execute(&txn).expect("routing io").is_committed() {
                        committed += 1;
                    }
                }
                assert_eq!(router.routes().two_phase, TXNS_PER_ROUTER as u64);
                committed
            })
        })
        .collect();
    let committed: i64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    cluster.shutdown();

    assert!(committed > 0, "no 2PC committed");
    let store = cluster.snapshot();
    let total: i64 = store.iter().map(|v| v.as_ref().and_then(Value::as_int).unwrap_or(0)).sum();
    assert_eq!(total, 2 * committed, "Σ counters != committed adds (two per 2PC)");
}
