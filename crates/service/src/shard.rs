//! Scale-out serving: the shard router.
//!
//! A [`ShardRouter`] fronts a cluster of `doppel-server` processes that
//! jointly serve one logical store, hash-partitioned by
//! [`doppel_common::ShardMap`]. The router is a client-side coordinator — it
//! owns one pipelined [`RemoteClient`] connection per shard and speaks the
//! ordinary framed wire protocol, so the servers need no knowledge of each
//! other.
//!
//! Routing, per transaction:
//!
//! * **Single-shard** — every statement's key lives on one shard: forward the
//!   statement list verbatim and relay the outcome. No overhead beyond one
//!   hash per key.
//! * **Commutative fast path** — every statement is a splittable commutative
//!   write ([`doppel_common::fast_path_op`]): fan the per-shard slices out as
//!   *independent* transactions with **no coordination round**. This is the
//!   paper's insight applied across processes: operations that commute can be
//!   applied as disjoint slices and merged later, so shards never need to
//!   agree on ordering — exactly like split-phase per-core slices inside one
//!   engine. Each slice is atomic and durable on its shard; a slice rejected
//!   by backpressure is retried (safe: it was never applied). The fan-out is
//!   *not* serializable with concurrent readers of multiple shards — the same
//!   trade split-phase reads make, and why any transaction containing a read
//!   takes the slow path.
//! * **Two-phase commit slow path** — anything else (reads, `Put`s, mixed
//!   cross-shard writes): prepare on every participant (which locks the keys,
//!   force-logs the write set to the shard's WAL and votes), then decide.
//!   Commit decisions are re-delivered through reconnects
//!   ([`RemoteClient::connect_retry`]) until every participant acknowledges,
//!   so a shard that crashes between prepare and decide completes the
//!   transaction after restart (see [`crate::twopc`]).

use crate::client::{RemoteClient, RemoteOutcome, RemoteTxn};
use crate::wire::{WireAbort, WireStmt};
use crate::TelemetrySnapshot;
use doppel_common::{fast_path_op, Key, Op, ShardMap, Value};
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Final result of a routed transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardOutcome {
    /// Every shard committed its slice.
    Committed {
        /// `Get` results in statement order (empty on the fast path, which
        /// by construction carries no reads).
        values: Vec<Option<Value>>,
        /// True when any slice was stash-deferred before committing.
        deferred: bool,
    },
    /// The transaction aborted (slow path: all participants were told to
    /// abort; nothing was applied anywhere).
    Aborted {
        /// Why.
        code: WireAbort,
    },
    /// Backpressure outlasted the router's retries.
    Rejected,
}

impl ShardOutcome {
    /// True when the transaction committed everywhere.
    pub fn is_committed(&self) -> bool {
        matches!(self, ShardOutcome::Committed { .. })
    }

    /// The committed `Get` results, when committed.
    pub fn values(&self) -> Option<&[Option<Value>]> {
        match self {
            ShardOutcome::Committed { values, .. } => Some(values),
            _ => None,
        }
    }
}

/// How many transactions each routing path has carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Transactions whose keys all lived on one shard.
    pub direct: u64,
    /// Cross-shard transactions fanned out coordination-free.
    pub fast_path: u64,
    /// Cross-shard transactions that needed two-phase commit.
    pub two_phase: u64,
}

struct Shard {
    addr: String,
    client: RemoteClient,
}

/// A client-side coordinator over one connection per shard.
pub struct ShardRouter {
    map: ShardMap,
    shards: Vec<Shard>,
    force_two_phase: bool,
    decide_deadline: Duration,
    /// High half of every 2PC txid this router issues ([`txid_tag`]).
    txid_tag: u32,
    /// Low half: 2PCs issued so far.
    txid_seq: u32,
    routes: RouteStats,
}

/// How one transaction will execute.
enum Plan {
    Direct(usize),
    Fast(Vec<(usize, Vec<WireStmt>)>),
    TwoPhase,
}

/// One in-flight slice of a fan-out (fast path or direct), with enough kept
/// to resubmit it after a backpressure rejection.
struct Part {
    shard: usize,
    id: u64,
    stmts: Vec<WireStmt>,
}

/// A fresh tag for a new router's 2PC txids, which must be unique across
/// routers and across router restarts: marker keys and vote-log records are
/// keyed by them. Each router owns the 2^32 txids under its tag. Routers in
/// one process take consecutive tags from a per-process base, so they never
/// share one; the base mixes the pid and the start time, so other processes,
/// and this one after a restart, almost surely draw other tags.
fn txid_tag() -> u32 {
    static BASE: OnceLock<u32> = OnceLock::new();
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let base = *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // SplitMix64 finaliser: every input bit reaches the high half.
        let mut z = nanos ^ (u64::from(std::process::id()) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 32) as u32
    });
    base.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Bounded backpressure retries: commutative slices and direct submissions
/// are safe to resubmit (a rejected submission was never applied), but the
/// router must not spin forever against a wedged server.
const BUSY_RETRIES: u32 = 10_000;

impl ShardRouter {
    /// Connects to a cluster, one address per shard. The shard map is the
    /// address list's order and length: every router (and every restart)
    /// must use the same list.
    pub fn connect(addrs: &[impl AsRef<str>]) -> io::Result<ShardRouter> {
        Self::connect_with(addrs, None)
    }

    /// [`ShardRouter::connect`] retrying each shard until `deadline`
    /// (cluster start-up races; see [`RemoteClient::connect_retry`]).
    pub fn connect_retry(addrs: &[impl AsRef<str>], deadline: Duration) -> io::Result<ShardRouter> {
        Self::connect_with(addrs, Some(deadline))
    }

    fn connect_with(
        addrs: &[impl AsRef<str>],
        deadline: Option<Duration>,
    ) -> io::Result<ShardRouter> {
        if addrs.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shard addresses"));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let addr = addr.as_ref().to_string();
            let client = match deadline {
                Some(d) => RemoteClient::connect_retry(addr.as_str(), d)?,
                None => RemoteClient::connect(addr.as_str()).map_err(|e| {
                    io::Error::new(e.kind(), format!("connect to {addr} failed: {e}"))
                })?,
            };
            shards.push(Shard { addr, client });
        }
        Ok(ShardRouter {
            map: ShardMap::new(shards.len()),
            shards,
            force_two_phase: false,
            decide_deadline: Duration::from_secs(30),
            txid_tag: txid_tag(),
            txid_seq: 0,
            routes: RouteStats::default(),
        })
    }

    /// The keyspace partitioning this router uses.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-path transaction counts so far.
    pub fn routes(&self) -> RouteStats {
        self.routes
    }

    /// Forces every multi-statement write transaction through the two-phase
    /// slow path, commutative or not — the baseline the fast path is
    /// measured against.
    pub fn force_two_phase(&mut self, on: bool) {
        self.force_two_phase = on;
    }

    /// How long commit decisions are re-delivered (through reconnects)
    /// before the router gives up. Defaults to 30 s.
    pub fn decide_deadline(&mut self, deadline: Duration) {
        self.decide_deadline = deadline;
    }

    fn fresh_txid(&mut self) -> u64 {
        self.txid_seq = self.txid_seq.wrapping_add(1);
        (u64::from(self.txid_tag) << 32) | u64::from(self.txid_seq)
    }

    /// Partitions `stmts` by owning shard (statement order preserved within
    /// each slice) and picks the execution path.
    fn plan(&self, stmts: &[WireStmt]) -> Plan {
        let slices = self.plan_slices(stmts);
        let any_write = stmts.iter().any(|s| matches!(s, WireStmt::Write(..)));
        if self.force_two_phase && any_write {
            return Plan::TwoPhase;
        }
        if slices.len() <= 1 {
            return Plan::Direct(slices.first().map_or(0, |(s, _)| *s));
        }
        let all_fast =
            stmts.iter().all(|s| matches!(s, WireStmt::Write(_, op) if fast_path_op(op)));
        if all_fast {
            Plan::Fast(slices)
        } else {
            Plan::TwoPhase
        }
    }

    /// Executes one transaction through whichever path it plans to.
    pub fn execute(&mut self, txn: &RemoteTxn) -> io::Result<ShardOutcome> {
        let mut out = self.execute_many(std::slice::from_ref(txn))?;
        Ok(out.pop().expect("one outcome per transaction"))
    }

    /// Executes a batch, pipelining the single-shard and fast-path
    /// transactions: every slice of every such transaction is queued onto
    /// its shard's connection before *any* flush, so each shard sees the
    /// whole batch in one read and the shards' group commits overlap instead
    /// of serializing. Slow-path transactions run after the batch,
    /// sequentially (two-phase commit is a round-trip protocol). Outcomes
    /// come back in submission order.
    pub fn execute_many(&mut self, txns: &[RemoteTxn]) -> io::Result<Vec<ShardOutcome>> {
        // Phase A: queue every pipelinable slice, remembering each
        // transaction's parts; slow-path transactions are deferred.
        let mut pending: Vec<Option<Vec<Part>>> = Vec::with_capacity(txns.len());
        let mut touched = vec![false; self.shards.len()];
        for txn in txns {
            match self.plan(txn.stmts()) {
                Plan::Direct(shard) => {
                    self.routes.direct += 1;
                    let stmts = txn.stmts().to_vec();
                    let id = self.shards[shard].client.queue_stmts(stmts.clone())?;
                    touched[shard] = true;
                    pending.push(Some(vec![Part { shard, id, stmts }]));
                }
                Plan::Fast(slices) => {
                    self.routes.fast_path += 1;
                    let mut parts = Vec::with_capacity(slices.len());
                    for (shard, stmts) in slices {
                        let id = self.shards[shard].client.queue_stmts(stmts.clone())?;
                        touched[shard] = true;
                        parts.push(Part { shard, id, stmts });
                    }
                    pending.push(Some(parts));
                }
                Plan::TwoPhase => {
                    self.routes.two_phase += 1;
                    pending.push(None);
                }
            }
        }
        for (shard, touched) in touched.into_iter().enumerate() {
            if touched {
                self.shards[shard].client.flush()?;
            }
        }

        // Phase B: collect, in submission order. Parts rejected by
        // backpressure (or aborted retryably) are resubmitted — commutative
        // slices and whole direct transactions are safe to retry.
        let mut outcomes = Vec::with_capacity(txns.len());
        for (txn, parts) in txns.iter().zip(pending) {
            let Some(parts) = parts else {
                outcomes.push(self.two_phase(txn.stmts())?);
                continue;
            };
            outcomes.push(self.collect_parts(parts)?);
        }
        Ok(outcomes)
    }

    /// Waits for every part of one fanned-out transaction, retrying
    /// backpressure, and merges the outcome.
    fn collect_parts(&mut self, parts: Vec<Part>) -> io::Result<ShardOutcome> {
        let mut values = Vec::new();
        let mut deferred = false;
        let mut aborted: Option<WireAbort> = None;
        let mut rejected = false;
        for part in parts {
            let Part { shard, mut id, stmts } = part;
            let mut attempts = 0;
            loop {
                match self.shards[shard].client.wait(id)? {
                    RemoteOutcome::Committed { values: v, deferred: d, .. } => {
                        values.extend(v);
                        deferred |= d;
                        break;
                    }
                    RemoteOutcome::Aborted { code, .. } if code.is_retryable() => {
                        id = self.shards[shard].client.submit_stmts(stmts.clone())?;
                    }
                    RemoteOutcome::Aborted { code, .. } => {
                        aborted = Some(code);
                        break;
                    }
                    RemoteOutcome::Rejected { busy: true } if attempts < BUSY_RETRIES => {
                        attempts += 1;
                        std::thread::sleep(Duration::from_micros(100));
                        id = self.shards[shard].client.submit_stmts(stmts.clone())?;
                    }
                    RemoteOutcome::Rejected { .. } => {
                        rejected = true;
                        break;
                    }
                }
            }
        }
        if let Some(code) = aborted {
            return Ok(ShardOutcome::Aborted { code });
        }
        if rejected {
            return Ok(ShardOutcome::Rejected);
        }
        Ok(ShardOutcome::Committed { values, deferred })
    }

    /// The slow path: prepare everywhere, merge the votes, decide.
    fn two_phase(&mut self, stmts: &[WireStmt]) -> io::Result<ShardOutcome> {
        let slices = match self.plan_slices(stmts) {
            s if s.is_empty() => return Ok(ShardOutcome::Committed { values: Vec::new(), deferred: false }),
            s => s,
        };
        let txid = self.fresh_txid();

        // Phase one: pipeline the prepares, then gather the votes.
        let mut prepare_ids = Vec::with_capacity(slices.len());
        for (shard, slice) in &slices {
            let id = self.shards[*shard].client.send_prepare(txid, slice.clone())?;
            prepare_ids.push((*shard, id));
        }
        let mut votes = Vec::with_capacity(prepare_ids.len());
        for (shard, id) in prepare_ids {
            let (ok, vals) = self.shards[shard].client.wait_vote(id)?;
            votes.push((shard, ok, vals));
        }

        if votes.iter().any(|(_, ok, _)| !ok) {
            // Abort the yes-voters (no-voters hold nothing).
            for (shard, ok, _) in &votes {
                if *ok {
                    let id = self.shards[*shard].client.send_decide(txid, false)?;
                    self.shards[*shard].client.wait(id)?;
                }
            }
            return Ok(ShardOutcome::Aborted { code: WireAbort::LockBusy });
        }

        // Merge the Get results back into statement order: each shard's vote
        // carries its slice's reads in slice order.
        let mut per_shard: Vec<(usize, std::vec::IntoIter<Option<Value>>)> =
            votes.iter().map(|(s, _, v)| (*s, v.clone().into_iter())).collect();
        let mut values = Vec::new();
        for stmt in stmts {
            if let WireStmt::Get(k) = stmt {
                let owner = self.map.shard_of(*k);
                let vals =
                    per_shard.iter_mut().find(|(s, _)| *s == owner).map(|(_, it)| it.next());
                values.push(vals.flatten().flatten());
            }
        }

        // Phase two: the decision is logged on each participant; commit
        // delivery is retried through reconnects until acknowledged, so a
        // participant crash after its yes-vote only delays the commit.
        for (shard, _, _) in &votes {
            self.deliver_commit(*shard, txid)?;
        }
        Ok(ShardOutcome::Committed { values, deferred: false })
    }

    /// Partition only (no path decision) — used by the slow path.
    fn plan_slices(&self, stmts: &[WireStmt]) -> Vec<(usize, Vec<WireStmt>)> {
        let mut slices: Vec<(usize, Vec<WireStmt>)> = Vec::new();
        for stmt in stmts {
            let k = match stmt {
                WireStmt::Get(k) | WireStmt::Write(k, _) => *k,
            };
            let s = self.map.shard_of(k);
            match slices.iter_mut().find(|(sh, _)| *sh == s) {
                Some((_, v)) => v.push(stmt.clone()),
                None => slices.push((s, vec![stmt.clone()])),
            }
        }
        slices
    }

    /// Delivers a commit decision until the participant acknowledges it,
    /// reconnecting (with backoff) if the shard is down — the recovery path
    /// for a participant that crashed between its vote and the decision.
    fn deliver_commit(&mut self, shard: usize, txid: u64) -> io::Result<()> {
        let start = Instant::now();
        loop {
            let attempt = (|| {
                let id = self.shards[shard].client.send_decide(txid, true)?;
                self.shards[shard].client.wait(id)
            })();
            match attempt {
                Ok(RemoteOutcome::Committed { .. }) => return Ok(()),
                Ok(RemoteOutcome::Aborted { code, .. }) if !code.is_retryable() => {
                    // The participant refused a commit it never prepared:
                    // unrecoverable protocol state (e.g. a volatile shard
                    // restarted and forgot its vote).
                    return Err(io::Error::other(format!(
                        "shard {shard} ({}) cannot commit txid {txid:#x}: {code:?}",
                        self.shards[shard].addr
                    )));
                }
                // Retryable abort / backpressure: re-deliver below.
                Ok(_) => {}
                Err(_) => {
                    // Connection died (participant crash?). Reconnect within
                    // what remains of the deadline and re-deliver.
                    let remaining = self.decide_deadline.saturating_sub(start.elapsed());
                    let addr = self.shards[shard].addr.clone();
                    self.shards[shard].client =
                        RemoteClient::connect_retry(addr.as_str(), remaining)?;
                }
            }
            if start.elapsed() >= self.decide_deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "commit decision for txid {txid:#x} undeliverable to shard {shard} ({}) within {:?}",
                        self.shards[shard].addr, self.decide_deadline
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Labels `key` split on its owning shard (Doppel-served shards only;
    /// others acknowledge and ignore).
    pub fn label_split(&mut self, key: Key, op: Op) -> io::Result<()> {
        let shard = self.map.shard_of(key);
        self.shards[shard].client.label_split(key, op)
    }

    /// Pings every shard.
    pub fn ping_all(&mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.client.ping()?;
        }
        Ok(())
    }

    /// Per-shard telemetry snapshots, in shard order.
    pub fn stats_all(&mut self) -> io::Result<Vec<TelemetrySnapshot>> {
        self.shards.iter_mut().map(|s| s.client.stats()).collect()
    }

    /// The cluster view: every shard's snapshot folded into one (scalars
    /// sum, histograms merge; see [`TelemetrySnapshot::merge`]).
    pub fn stats_merged(&mut self) -> io::Result<TelemetrySnapshot> {
        let mut merged = TelemetrySnapshot::default();
        for snap in self.stats_all()? {
            merged.merge(&snap);
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_tags_are_distinct_within_a_process() {
        let tags: Vec<u32> = (0..64).map(|_| txid_tag()).collect();
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "routers in one process shared a txid tag");
    }
}
