//! What every workload shares: the latency histogram, the per-window tally
//! the load generators fill, the schedule the main thread drives them with,
//! and the counter probe read at window boundaries.

use crate::sys;
use doppel_common::DurabilityConfig;
use doppel_service::TelemetrySnapshot;
use doppel_telemetry::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Unmeasured load before the first window: lets caches fill, the Doppel
/// classifier split the hot key and the tuner learn its labels.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Flush policy of both networked workloads' write-ahead logs: records are
/// encoded, checksummed and appended to the log's group-commit batch, and
/// the batch is written and fsynced when the log closes at teardown, outside
/// every measured window. The log lives inside the checkout, whose disk's
/// fsync latency drifts far more between runs than any change a benchmark
/// should resolve; this keeps device time out of the figures while the
/// log's own work stays in them.
pub fn wal_policy() -> DurabilityConfig {
    DurabilityConfig {
        group_commit_batch: 1 << 30,
        group_commit_interval: Duration::from_secs(24 * 3600),
        crash_at_byte: None,
    }
}

/// Retry budget per logical transaction; a transaction that spends it counts
/// as failed.
pub const RETRY_BUDGET: u32 = 100;

/// Capped exponential backoff after `attempts` retryable aborts — the same
/// curve the repository's `Driver` uses (2 µs doubling, 4.096 ms cap).
pub fn backoff(attempts: u32) -> Duration {
    Duration::from_micros(2u64.pow(attempts.min(12)).min(4_096))
}

/// Moves the retries in `retries` that are due by `now` into `batch`, up to
/// `max` entries in `batch`.
pub fn take_due<T>(
    retries: &mut Vec<T>,
    batch: &mut Vec<T>,
    max: usize,
    now: Instant,
    due: impl Fn(&T) -> Instant,
) {
    let mut i = 0;
    while i < retries.len() && batch.len() < max {
        if due(&retries[i]) <= now {
            batch.push(retries.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Values below this many nanoseconds get a bucket each.
const EXACT: u64 = 2048;
const SUB_BITS: u32 = 10;
/// Sub-buckets per power of two above `EXACT`: 0.1 % resolution.
const SUB: u64 = 1 << SUB_BITS;
/// Observations are clamped below 2^40 ns (about 18 minutes).
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = (EXACT + (40 - 11) * SUB) as usize;

/// Log-linear latency histogram with nanosecond buckets below 2 µs and
/// 0.1 % relative resolution above, so quantiles read as measured rather
/// than snapped to a coarse grid. Its footprint is fixed (allocated on the
/// first observation), so the harness's memory does not grow with
/// throughput.
#[derive(Clone, Default)]
pub struct LogHist {
    counts: Vec<u32>,
    n: u64,
    sum_ns: u128,
}

fn bucket(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns < EXACT {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let mantissa = (ns >> (msb - SUB_BITS)) - SUB;
    (EXACT + (msb as u64 - 11) * SUB + mantissa) as usize
}

/// Midpoint of bucket `i`, in nanoseconds.
fn bucket_value(i: usize) -> f64 {
    let i = i as u64;
    if i < EXACT {
        return i as f64;
    }
    let j = i - EXACT;
    let shift = 1 + j / SUB;
    let lo = (SUB + j % SUB) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl LogHist {
    pub fn record_ns(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(MAX_NS as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_us(&self) -> f64 {
        self.sum_ns as f64 / 1e3
    }

    pub fn merge(&mut self, other: &LogHist) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank quantile in microseconds; `None` without samples.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += *c as u64;
            if seen >= rank {
                return Some(bucket_value(i) / 1e3);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

// ---------------------------------------------------------------------------
// Per-window tally (filled by load generators)
// ---------------------------------------------------------------------------

/// What one load generator observed in one window. Transactions belong to
/// the window in which they were first submitted; retries and stash waits
/// stay with them.
#[derive(Clone, Default)]
pub struct Tally {
    /// Logical transactions submitted.
    pub attempted: u64,
    /// Logical transactions that committed (a retry is not a second one).
    pub committed: u64,
    /// Logical transactions that never committed.
    pub failed: u64,
    /// The unit the workload's correctness check sums: committed
    /// increments, StoreBid calls or add statements.
    pub units: u64,
    /// First submission to final commit, transactions that write.
    pub writes: LogHist,
    /// The same for read-only transactions.
    pub reads: LogHist,
    /// Durations of the benchmark's own spans, by span name (traced windows).
    pub spans: BTreeMap<&'static str, LogHist>,
    /// Workload-specific counts read at the generator's layer boundary.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tally {
    pub fn commit(&mut self, is_write: bool, latency: Duration, units: u64) {
        self.committed += 1;
        self.units += units;
        if is_write {
            self.writes.record(latency);
        } else {
            self.reads.record(latency);
        }
    }

    pub fn span(&mut self, name: &'static str, d: Duration) {
        self.spans.entry(name).or_default().record(d);
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.failed += other.failed;
        self.units += other.units;
        self.writes.merge(&other.writes);
        self.reads.merge(&other.reads);
        for (name, h) in &other.spans {
            self.spans.entry(name).or_default().merge(h);
        }
        for (name, n) in &other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule (main thread → load generators)
// ---------------------------------------------------------------------------

/// Stage 0 is the warm-up, stages `1..=n` the measured windows.
pub const STOP: usize = usize::MAX;

/// The stage the load generators are in, and which windows are traced.
pub struct Schedule {
    stage: AtomicUsize,
    traced: Vec<bool>,
}

impl Schedule {
    pub fn new(traced: Vec<bool>) -> Schedule {
        Schedule {
            stage: AtomicUsize::new(0),
            traced,
        }
    }

    /// Stages a generator keeps a tally for: warm-up plus every window.
    pub fn stages(&self) -> usize {
        self.traced.len() + 1
    }

    pub fn stage(&self) -> usize {
        self.stage.load(Ordering::Acquire)
    }

    pub fn is_traced(&self, stage: usize) -> bool {
        stage >= 1 && self.traced.get(stage - 1).copied().unwrap_or(false)
    }

    fn set(&self, stage: usize) {
        self.stage.store(stage, Ordering::Release);
    }

    /// Runs the warm-up and every window of length `window` from the
    /// calling thread, probing counters at each boundary. Returns, per
    /// window, its length and the probe delta across it. Leaves the
    /// schedule at [`STOP`].
    pub fn drive(
        &self,
        window: Duration,
        mut probe: impl FnMut() -> Probe,
    ) -> Vec<(Duration, Probe)> {
        std::thread::sleep(WARMUP);
        let mut out = Vec::with_capacity(self.traced.len());
        let mut before = probe();
        let mut started = Instant::now();
        self.set(1);
        for i in 1..=self.traced.len() {
            std::thread::sleep(window);
            let after = probe();
            let now = Instant::now();
            self.set(if i == self.traced.len() { STOP } else { i + 1 });
            out.push((now - started, after.delta(&before)));
            before = after;
            started = now;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Counter probe (read at window boundaries through public APIs)
// ---------------------------------------------------------------------------

/// The adaptive tuner's state at a window's end.
#[derive(Clone, Copy, Default)]
pub struct TunerState {
    pub epochs: u64,
    pub decisions: u64,
    pub split_keys: u64,
    pub phase_len_us: u64,
}

/// Cumulative counters of the system under test and of this process; the
/// difference of two probes is a window's worth.
#[derive(Clone, Default)]
pub struct Probe {
    /// Engine, queue and 2PC counters by name (summed across servers).
    pub scalars: BTreeMap<String, u64>,
    /// Engine and service histograms by name (merged across servers).
    pub hists: BTreeMap<String, Histogram>,
    /// Tuner state (end-of-window values, not deltas).
    pub tuner: Option<TunerState>,
    /// Bytes appended to the write-ahead logs, 2PC vote records included.
    pub wal_lsn_bytes: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub cpu_ticks: u64,
}

impl Probe {
    /// A probe holding this process's allocation and CPU counters.
    pub fn process() -> Probe {
        let (allocs, alloc_bytes) = doppel_common::alloc::alloc_totals();
        Probe {
            allocs,
            alloc_bytes,
            cpu_ticks: sys::cpu_ticks(),
            ..Probe::default()
        }
    }

    pub fn add_scalars<'a>(&mut self, scalars: impl IntoIterator<Item = (&'a str, u64)>) {
        for (name, v) in scalars {
            *self.scalars.entry(name.to_string()).or_default() += v;
        }
    }

    pub fn add_hists(&mut self, hists: &[(String, Histogram)]) {
        for (name, h) in hists {
            match self.hists.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Folds in one server's telemetry snapshot.
    pub fn add_snapshot(&mut self, snap: &TelemetrySnapshot) {
        self.add_scalars(snap.scalars.iter().map(|(n, v)| (n.as_str(), *v)));
        self.add_hists(&snap.hists);
        if let Some(t) = &snap.tuner {
            let mine = self.tuner.get_or_insert_with(TunerState::default);
            mine.epochs = mine.epochs.max(t.epochs);
            mine.decisions += t.decisions.len() as u64;
            mine.split_keys += t.split_keys.len() as u64;
            mine.phase_len_us = mine.phase_len_us.max(t.phase_len_us);
        }
    }

    pub fn scalar(&self, name: &str) -> u64 {
        self.scalars.get(name).copied().unwrap_or(0)
    }

    pub fn hist_quantile_us(&self, name: &str, q: f64) -> Option<f64> {
        self.hists
            .get(name)
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_ns(q) as f64 / 1e3)
    }

    pub fn hist_sum_us(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .map_or(0.0, |h| h.sum_ns() as f64 / 1e3)
    }

    /// `self − before`, counter by counter; gauges and tuner state keep
    /// `self`'s value.
    pub fn delta(&self, before: &Probe) -> Probe {
        let scalars = self
            .scalars
            .iter()
            .map(|(n, v)| {
                let gauge = n == "split_records" || n == "queue_depth";
                let d = if gauge {
                    *v
                } else {
                    v.saturating_sub(before.scalar(n))
                };
                (n.clone(), d)
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(n, h)| {
                let d = before
                    .hists
                    .get(n)
                    .map_or_else(|| h.clone(), |b| h.delta(b));
                (n.clone(), d)
            })
            .collect();
        Probe {
            scalars,
            hists,
            tuner: self.tuner,
            wal_lsn_bytes: self.wal_lsn_bytes.saturating_sub(before.wal_lsn_bytes),
            allocs: self.allocs.saturating_sub(before.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(before.alloc_bytes),
            cpu_ticks: self.cpu_ticks.saturating_sub(before.cpu_ticks),
        }
    }
}

/// One measured window: its length, what the generators saw, and what the
/// system's counters moved by.
pub struct WindowObs {
    pub traced: bool,
    pub elapsed: Duration,
    pub tally: Tally,
    pub probe: Probe,
}

/// What one repeat (set-up, warm-up, windows, check, teardown) produced.
pub struct Repeat {
    pub setup: Duration,
    /// Peak resident memory of the process when set-up finished, in MiB.
    pub setup_peak_rss_mb: f64,
    pub windows: Vec<WindowObs>,
    /// Logical transactions over the whole repeat, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Units committed over the whole repeat, as counted by the generators.
    pub expected_units: u64,
    /// The same units summed from state read back after the run.
    pub observed_units: u64,
    /// Human-readable description of the check.
    pub check: String,
    /// Where the write-ahead log lived, for durable workloads.
    pub wal_dir: Option<String>,
}

impl Repeat {
    /// Pairs the driven windows with the generators' per-stage tallies
    /// (stage 0, the warm-up, is not a window) and totals the repeat.
    pub fn new(
        (setup, setup_peak_rss_mb): (Duration, f64),
        schedule: &Schedule,
        driven: Vec<(Duration, Probe)>,
        per_thread: Vec<Vec<Tally>>,
        observed_units: u64,
        check: String,
        wal_dir: Option<String>,
    ) -> Repeat {
        let mut stages = vec![Tally::default(); schedule.stages()];
        for tallies in per_thread {
            for (acc, t) in stages.iter_mut().zip(&tallies) {
                acc.merge(t);
            }
        }
        let windows = driven
            .into_iter()
            .zip(stages.iter().skip(1))
            .enumerate()
            .map(|(i, ((elapsed, probe), tally))| WindowObs {
                traced: schedule.is_traced(i + 1),
                elapsed,
                tally: tally.clone(),
                probe,
            })
            .collect();
        Repeat {
            setup,
            setup_peak_rss_mb,
            windows,
            attempted: stages.iter().map(|t| t.attempted).sum(),
            failed: stages.iter().map(|t| t.failed).sum(),
            expected_units: stages.iter().map(|t| t.units).sum(),
            observed_units,
            check,
            wal_dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            1 << 20,
            123_456_789,
            MAX_NS,
        ] {
            let b = bucket(ns);
            assert!(b >= last && b < BUCKETS, "{ns} -> {b}");
            last = b;
            let v = bucket_value(b);
            assert!(
                (v - ns as f64).abs() <= ns as f64 / 1000.0 + 0.5,
                "{ns} ~ {v}"
            );
        }
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut h = LogHist::default();
        for ns in 1..=1000u64 {
            h.record_ns(ns * 1000);
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((p50 - 500.0).abs() < 1.0, "{p50}");
        assert!((p99 - 990.0).abs() < 1.0, "{p99}");
        assert!(LogHist::default().quantile_us(0.5).is_none());
    }
}
