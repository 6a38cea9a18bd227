//! Metric definitions: the end-to-end figures a user of the system sees,
//! and the per-layer ledger the traced run derives from spans and counters
//! read at each layer's boundary.

use crate::measure::WindowObs;
use crate::sys::TICKS_PER_SEC;
use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Spec = (&'static str, &'static str);

/// Every end-to-end metric, printed by name and unit on every untraced run.
pub const END_TO_END: &[Spec] = &[
    ("throughput_tps", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("fail_ratio", "ratio"),
    ("setup_s", "s"),
    ("setup_rss_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics of the final JSON line (and `BENCHMARK.json`):
/// those every workload has, that are never zero, and that hold still
/// between runs of the same code. The read latencies are absent where a
/// workload has no read-only transactions (`incr1-hot`, `shard-mix`), and
/// `fail_ratio` is zero on a healthy run. `write_p99_us` is the first figure
/// to move when the shared host slows down: on `shard-mix` its spread over
/// ten runs reached 30 % where throughput's reached 17 %. `peak_rss_mb`, the
/// whole run's peak, grows with the rows and log records a faster run
/// commits in its fixed time, so memory is gated as `setup_rss_mb`, the peak
/// when the first set-up finishes. All are printed above the result line and
/// kept in the run record.
pub const GATED: &[&str] = &["throughput_tps", "write_p50_us", "setup_s", "setup_rss_mb"];

/// The per-layer ledger, in print order. A layer a workload does not cross
/// reads 0 (no WAL bytes on the embedded engine, no router on RUBiS, ...).
pub const PER_LAYER: &[Spec] = &[
    ("doppel.exec_p50_us", "us"),
    ("doppel.exec_p99_us", "us"),
    ("doppel.conflict_ratio", "ratio"),
    ("doppel.slice_ops_per_commit", "ops/commit"),
    ("doppel.split_phases", "count"),
    ("doppel.reconcile_p99_us", "us"),
    ("doppel.stash_ratio", "ratio"),
    ("doppel.stash_replay_p99_us", "us"),
    ("doppel.phase_split_p50_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.exec_p50_us", "us"),
    ("service.avg_batch", "txn/batch"),
    ("service.busy_rejections", "count"),
    ("wire.batch_rtt_p50_us", "us"),
    ("wire.batch_rtt_p99_us", "us"),
    ("wire.submit_us", "us"),
    ("wire.self_us_per_txn", "us/txn"),
    ("wal.bytes_per_txn", "B/txn"),
    ("wal.records_per_txn", "rec/txn"),
    ("wal.fsyncs_per_ktxn", "fsync/ktxn"),
    ("wal.records_per_fsync", "rec/fsync"),
    ("shard.batch_p50_us", "us"),
    ("shard.batch_p99_us", "us"),
    ("shard.direct_share", "ratio"),
    ("shard.fast_share", "ratio"),
    ("shard.twopc_share", "ratio"),
    ("shard.twopc_abort_ratio", "ratio"),
    ("tuner.epochs", "count"),
    ("tuner.decisions", "count"),
    ("tuner.split_keys", "count"),
    ("tuner.phase_len_us", "us"),
    ("proc.allocs_per_txn", "allocs/txn"),
    ("proc.alloc_bytes_per_txn", "B/txn"),
    ("proc.cpu_us_per_txn", "us/txn"),
    ("proc.tracing_overhead", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end figures of one window (read latencies only with samples).
pub fn end_to_end(w: &WindowObs) -> BTreeMap<&'static str, f64> {
    let t = &w.tally;
    let mut m = BTreeMap::new();
    m.insert(
        "throughput_tps",
        t.committed as f64 / w.elapsed.as_secs_f64(),
    );
    for (name, hist, q) in [
        ("write_p50_us", &t.writes, 0.5),
        ("write_p99_us", &t.writes, 0.99),
        ("read_p50_us", &t.reads, 0.5),
        ("read_p99_us", &t.reads, 0.99),
    ] {
        if let Some(v) = hist.quantile_us(q) {
            m.insert(name, v);
        }
    }
    m.insert("fail_ratio", ratio(t.failed as f64, t.attempted as f64));
    m
}

/// Sample counts behind the end-to-end latencies.
pub fn end_to_end_bases(w: &WindowObs) -> Vec<(String, f64)> {
    let t = &w.tally;
    [
        ("attempted", t.attempted as f64),
        ("committed", t.committed as f64),
        ("failed", t.failed as f64),
        ("write_samples", t.writes.count() as f64),
        ("read_samples", t.reads.count() as f64),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// The per-layer ledger of one traced window, and the base counts its
/// ratios are built from. `proc.tracing_overhead` compares windows and is
/// filled in by the caller.
pub fn per_layer(w: &WindowObs) -> (BTreeMap<&'static str, f64>, Vec<(String, f64)>) {
    let t = &w.tally;
    let p = &w.probe;
    let txns = t.committed as f64;
    let span_q = |name: &str, q: f64| t.spans.get(name).and_then(|h| h.quantile_us(q));
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0) as f64;
    let s = |name: &str| p.scalar(name) as f64;
    let hq = |name: &str, q: f64| p.hist_quantile_us(name, q);

    let commits = s("commits");
    let attempts = commits + s("conflicts") + s("user_aborts");
    let routes = count("route.direct") + count("route.fast") + count("route.twopc");
    let tuner = p.tuner.unwrap_or_default();
    // The engine's execute boundary: the benchmark's own span where it calls
    // `TxHandle::execute` (embedded), the service worker's `exec` histogram
    // where a server does.
    let exec = |q: f64| span_q("doppel.exec", q).or_else(|| hq("exec", q));

    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, v: Option<f64>| {
        m.insert(name, v.unwrap_or(0.0));
    };
    put("doppel.exec_p50_us", exec(0.5));
    put("doppel.exec_p99_us", exec(0.99));
    put(
        "doppel.conflict_ratio",
        Some(ratio(s("conflicts"), attempts)),
    );
    put(
        "doppel.slice_ops_per_commit",
        Some(ratio(s("slice_ops"), commits)),
    );
    put("doppel.split_phases", Some(s("split_phases")));
    put("doppel.reconcile_p99_us", hq("reconcile", 0.99));
    put("doppel.stash_ratio", Some(ratio(s("stashes"), commits)));
    put("doppel.stash_replay_p99_us", hq("stash_replay", 0.99));
    put("doppel.phase_split_p50_us", hq("phase_split", 0.5));
    put("service.queue_wait_p50_us", hq("queue_wait", 0.5));
    put("service.queue_wait_p99_us", hq("queue_wait", 0.99));
    put("service.exec_p50_us", hq("exec", 0.5));
    put(
        "service.avg_batch",
        Some(ratio(s("queue_enqueued"), s("queue_batches"))),
    );
    put("service.busy_rejections", Some(s("queue_busy_rejections")));
    put("wire.batch_rtt_p50_us", span_q("wire.batch", 0.5));
    put("wire.batch_rtt_p99_us", span_q("wire.batch", 0.99));
    put("wire.submit_us", span_q("wire.submit", 0.5));
    // Client-observed latency not spent queued, executing or stashed on the
    // server: the reactor, the wire and the client library (and retry
    // backoff), per committed transaction.
    let wire_self = if t.spans.contains_key("wire.batch") {
        let client_us = t.writes.sum_us() + t.reads.sum_us();
        let server_us =
            p.hist_sum_us("queue_wait") + p.hist_sum_us("exec") + p.hist_sum_us("stash_replay");
        Some(ratio(client_us - server_us, txns))
    } else {
        None
    };
    put("wire.self_us_per_txn", wire_self);
    put("wal.bytes_per_txn", Some(ratio(s("log_bytes"), txns)));
    put("wal.records_per_txn", Some(ratio(s("log_records"), txns)));
    put(
        "wal.fsyncs_per_ktxn",
        Some(ratio(1000.0 * s("fsyncs"), txns)),
    );
    put(
        "wal.records_per_fsync",
        Some(ratio(s("log_records"), s("fsyncs"))),
    );
    put("shard.batch_p50_us", span_q("shard.batch", 0.5));
    put("shard.batch_p99_us", span_q("shard.batch", 0.99));
    put(
        "shard.direct_share",
        Some(ratio(count("route.direct"), routes)),
    );
    put("shard.fast_share", Some(ratio(count("route.fast"), routes)));
    put(
        "shard.twopc_share",
        Some(ratio(count("route.twopc"), routes)),
    );
    put(
        "shard.twopc_abort_ratio",
        Some(ratio(count("twopc.aborted"), count("route.twopc"))),
    );
    put("tuner.epochs", Some(tuner.epochs as f64));
    put("tuner.decisions", Some(tuner.decisions as f64));
    put("tuner.split_keys", Some(tuner.split_keys as f64));
    put("tuner.phase_len_us", Some(tuner.phase_len_us as f64));
    put("proc.allocs_per_txn", Some(ratio(p.allocs as f64, txns)));
    put(
        "proc.alloc_bytes_per_txn",
        Some(ratio(p.alloc_bytes as f64, txns)),
    );
    let cpu_us = p.cpu_ticks as f64 * 1e6 / TICKS_PER_SEC as f64;
    put("proc.cpu_us_per_txn", Some(ratio(cpu_us, txns)));

    let mut bases: Vec<(String, f64)> = [
        ("txns_committed", txns),
        ("engine.commits", commits),
        ("engine.attempts", attempts),
        ("engine.conflicts", s("conflicts")),
        ("engine.slice_ops", s("slice_ops")),
        ("engine.stashes", s("stashes")),
        ("queue.enqueued", s("queue_enqueued")),
        ("queue.batches", s("queue_batches")),
        ("wal.log_records", s("log_records")),
        ("wal.log_bytes", s("log_bytes")),
        ("wal.fsyncs", s("fsyncs")),
        ("wal.lsn_bytes", p.wal_lsn_bytes as f64),
        ("twopc.prepares", s("twopc_prepares")),
        ("twopc.vote_no", s("twopc_vote_no")),
        ("route.total", routes),
        ("proc.allocs", p.allocs as f64),
        ("proc.alloc_bytes", p.alloc_bytes as f64),
        ("proc.cpu_us", cpu_us),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    bases.extend(
        t.spans
            .iter()
            .map(|(n, h)| (format!("spans.{n}"), h.count() as f64)),
    );
    bases.extend(t.counts.iter().map(|(n, v)| (n.to_string(), *v as f64)));
    (m, bases)
}
