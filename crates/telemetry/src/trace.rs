//! Phase-timeline tracing: per-thread event rings exported as Chrome
//! trace-event JSON.
//!
//! The paper's behavior is fundamentally *temporal* — when did the split
//! phase start, how long did reconciliation stall worker 3, when was this
//! transaction stashed and when was it replayed — and counters cannot show
//! it. This module records timestamped events into fixed-size per-thread
//! ring buffers and exports them in the Chrome trace-event format, so
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) render the phase
//! timeline directly.
//!
//! Two off switches, layered:
//!
//! * **Runtime**: tracing is disabled by default; [`set_enabled`] flips one
//!   global atomic. Disabled, every emit is a single relaxed load and a
//!   branch — no ring registration, no clock read, no allocation.
//! * **Compile time**: building `doppel_telemetry` without the `trace`
//!   feature replaces every emit with an empty `#[inline(always)]` function.
//!
//! Rings hold a fixed number of events and overwrite the oldest on wrap
//! (recent history wins: the interesting window is usually the last few
//! phases before the dump). Dropped-event counts are reported in the export.

use std::time::Instant;

/// What happened. The discriminant is stored per event; names and Chrome
/// phase types live in [`EventKind::name`] / [`EventKind::is_span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A joined phase (span: start → transition release).
    PhaseJoined = 0,
    /// A split phase (span).
    PhaseSplit = 1,
    /// One worker's reconciliation: merging its per-core slices (span).
    Reconcile = 2,
    /// One stashed transaction's replay in a joined phase (span; arg =
    /// replay outcome, 1 committed / 0 aborted).
    StashReplay = 3,
    /// A transaction was enqueued to a core's submission queue (instant;
    /// arg = core).
    TxnEnqueue = 4,
    /// A transaction's execution on a worker (span; arg = core).
    TxnExec = 5,
    /// A transaction committed (instant; arg = core).
    TxnCommit = 6,
    /// A transaction aborted (instant; arg = core).
    TxnAbort = 7,
    /// A transaction was stashed for later replay (instant; arg = core).
    TxnStash = 8,
    /// A WAL group-commit fsync (span; arg = records in the batch).
    WalFsync = 9,
    /// The reactor shed a connection (instant; arg = connection token).
    ReactorShed = 10,
    /// The adaptive tuner took a decision — promote/demote a split label or
    /// retune thresholds (instant; arg = tuner epoch). Correlate with the decision history in `doppel-stat`.
    TunerDecision = 11,
}

impl EventKind {
    /// The event name shown on the Perfetto timeline.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseJoined => "phase.joined",
            EventKind::PhaseSplit => "phase.split",
            EventKind::Reconcile => "reconcile",
            EventKind::StashReplay => "stash.replay",
            EventKind::TxnEnqueue => "txn.enqueue",
            EventKind::TxnExec => "txn.exec",
            EventKind::TxnCommit => "txn.commit",
            EventKind::TxnAbort => "txn.abort",
            EventKind::TxnStash => "txn.stash",
            EventKind::WalFsync => "wal.fsync",
            EventKind::ReactorShed => "reactor.shed",
            EventKind::TunerDecision => "tuner.decision",
        }
    }

    /// True for events with a duration (Chrome `"ph":"X"`); false for
    /// instants (`"ph":"i"`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::PhaseJoined
                | EventKind::PhaseSplit
                | EventKind::Reconcile
                | EventKind::StashReplay
                | EventKind::TxnExec
                | EventKind::WalFsync
        )
    }

    /// The trace category (Perfetto groups and filters by it).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::PhaseJoined | EventKind::PhaseSplit => "phase",
            EventKind::Reconcile | EventKind::StashReplay => "reconcile",
            EventKind::WalFsync => "wal",
            EventKind::ReactorShed => "net",
            EventKind::TunerDecision => "tuner",
            _ => "txn",
        }
    }
}

#[cfg(feature = "trace")]
mod imp {
    use super::EventKind;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Instant;

    /// Events kept per thread before the oldest is overwritten.
    const RING_CAPACITY: usize = 8192;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    /// The single time origin every ring timestamps against.
    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    #[derive(Clone, Copy)]
    struct Event {
        ts_ns: u64,
        dur_ns: u64,
        kind: EventKind,
        arg: u64,
    }

    struct RingInner {
        events: Vec<Event>,
        /// Next write position; wraps at capacity.
        head: usize,
        /// Total events ever written (≥ `events.len()`).
        written: u64,
    }

    struct Ring {
        name: String,
        inner: Mutex<RingInner>,
    }

    impl Ring {
        fn push(&self, ev: Event) {
            // Single-writer in practice (the owning thread); the mutex is
            // uncontended except against a concurrent export.
            let mut inner = self.inner.lock();
            if inner.events.len() < RING_CAPACITY {
                inner.events.push(ev);
            } else {
                let head = inner.head;
                inner.events[head] = ev;
            }
            inner.head = (inner.head + 1) % RING_CAPACITY;
            inner.written += 1;
        }
    }

    fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static THREAD_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    }

    fn with_ring(f: impl FnOnce(&Ring)) {
        THREAD_RING.with(|cell| {
            let ring = cell.get_or_init(|| {
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| "unnamed".to_owned());
                let ring = Arc::new(Ring {
                    name,
                    inner: Mutex::new(RingInner {
                        events: Vec::with_capacity(RING_CAPACITY),
                        head: 0,
                        written: 0,
                    }),
                });
                rings().lock().push(Arc::clone(&ring));
                ring
            });
            f(ring);
        });
    }

    /// True when tracing is currently recording.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (process-wide).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
        if on {
            // Pin the epoch now so the first events don't race to define t=0.
            epoch();
        }
    }

    /// Records an instantaneous event.
    #[inline]
    pub fn instant(kind: EventKind, arg: u64) {
        if !enabled() {
            return;
        }
        let ts_ns = now_ns();
        with_ring(|r| r.push(Event { ts_ns, dur_ns: 0, kind, arg }));
    }

    /// Records a span that started at `start` and ends now.
    #[inline]
    pub fn span_since(kind: EventKind, arg: u64, start: Instant) {
        if !enabled() {
            return;
        }
        let end = now_ns();
        let dur_ns = start.elapsed().as_nanos().min(end as u128) as u64;
        with_ring(|r| {
            r.push(Event { ts_ns: end.saturating_sub(dur_ns), dur_ns, kind, arg })
        });
    }

    /// Total events recorded so far across all threads (monotonic; counts
    /// overwritten events too). Test and introspection hook.
    pub fn events_recorded() -> u64 {
        rings().lock().iter().map(|r| r.inner.lock().written).sum()
    }

    /// Exports everything recorded so far as a Chrome trace-event JSON
    /// document (the `{"traceEvents": [...]}` object form Perfetto loads).
    pub fn export_chrome_json() -> String {
        let rings = rings().lock();
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(s);
        };
        for (tid, ring) in rings.iter().enumerate() {
            // Thread-name metadata first, so the timeline shows real names.
            let name: String = ring.name.chars().filter(|c| *c != '"' && *c != '\\').collect();
            emit(
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut out,
            );
            let inner = ring.inner.lock();
            let dropped = inner.written.saturating_sub(inner.events.len() as u64);
            if dropped > 0 {
                emit(
                    &format!(
                        "{{\"name\":\"events_dropped\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0,\
                         \"pid\":1,\"tid\":{tid},\"args\":{{\"count\":{dropped}}}}}"
                    ),
                    &mut out,
                );
            }
            // Oldest-first: the ring wraps at `head`.
            let n = inner.events.len();
            let start = if n < RING_CAPACITY { 0 } else { inner.head };
            for i in 0..n {
                let ev = inner.events[(start + i) % n];
                let ts = ev.ts_ns as f64 / 1e3; // Chrome wants microseconds
                let name = ev.kind.name();
                let cat = ev.kind.category();
                let line = if ev.kind.is_span() {
                    let dur = ev.dur_ns as f64 / 1e3;
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts:.3},\
                         \"dur\":{dur:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                        ev.arg
                    )
                } else {
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                        ev.arg
                    )
                };
                emit(&line, &mut out);
            }
        }
        out.push_str("]}");
        out
    }

    #[cfg(test)]
    pub(super) fn ring_capacity() -> usize {
        RING_CAPACITY
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    //! The compiled-out variant: every entry point is an empty inline
    //! function, so instrumented call sites cost nothing at all.
    use super::EventKind;
    use std::time::Instant;

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    #[inline(always)]
    pub fn instant(_kind: EventKind, _arg: u64) {}

    #[inline(always)]
    pub fn span_since(_kind: EventKind, _arg: u64, _start: Instant) {}

    #[inline(always)]
    pub fn events_recorded() -> u64 {
        0
    }

    pub fn export_chrome_json() -> String {
        "{\"traceEvents\":[]}".to_owned()
    }
}

pub use imp::{enabled, events_recorded, export_chrome_json, instant, set_enabled, span_since};

/// A span guard: captures the start time on construction (only when tracing
/// is enabled) and emits the span on [`Span::end`] or drop.
///
/// # Examples
///
/// ```
/// use doppel_telemetry::trace::{self, EventKind};
///
/// {
///     let _span = trace::Span::start(EventKind::Reconcile, 3);
///     // ... the work being traced ...
/// } // span emitted here (if tracing is enabled)
/// ```
pub struct Span {
    kind: EventKind,
    arg: u64,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span. When tracing is disabled this does not read the clock.
    #[inline]
    pub fn start(kind: EventKind, arg: u64) -> Span {
        let start = if enabled() { Some(Instant::now()) } else { None };
        Span { kind, arg, start }
    }

    /// Ends the span now (equivalent to dropping it).
    #[inline]
    pub fn end(self) {}
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            span_since(self.kind, self.arg, start);
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use std::time::Duration;

    // The trace switch is process-global, so every test touching it runs
    // under this lock (cargo runs tests in one process, many threads).
    fn guard() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        let before = events_recorded();
        for _ in 0..64 {
            instant(EventKind::TxnCommit, 1);
            span_since(EventKind::TxnExec, 1, Instant::now());
            Span::start(EventKind::Reconcile, 0).end();
        }
        assert_eq!(events_recorded(), before, "disabled tracing must be a no-op");
    }

    #[test]
    fn records_and_exports_events() {
        let _g = guard();
        set_enabled(true);
        let before = events_recorded();
        instant(EventKind::TxnStash, 7);
        span_since(EventKind::PhaseSplit, 0, Instant::now() - Duration::from_millis(1));
        set_enabled(false);
        assert!(events_recorded() >= before + 2);
        let json = export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"txn.stash\""), "{json}");
        assert!(json.contains("\"phase.split\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
    }

    #[test]
    fn ring_wraps_keeping_recent_events() {
        let _g = guard();
        // A dedicated thread gets a fresh ring, so the wraparound arithmetic
        // is observable via the total-written counter and the export.
        let cap = imp::ring_capacity() as u64;
        set_enabled(true);
        // Distinctive arg range so other tests' rings cannot collide.
        let base = 9_000_000u64;
        let handle = std::thread::Builder::new()
            .name("trace-wrap-test".into())
            .spawn(move || {
                for i in 0..(cap + 10) {
                    instant(EventKind::TxnCommit, base + i);
                }
            })
            .unwrap();
        handle.join().unwrap();
        set_enabled(false);
        let json = export_chrome_json();
        // The oldest 10 events were overwritten: the first arg is gone, the
        // newest is kept, and the drop marker reports the overwrite.
        assert!(!json.contains(&format!("{{\"arg\":{base}}}")), "oldest event survived wrap");
        assert!(json.contains(&format!("{{\"arg\":{}}}", base + cap + 9)), "newest event missing");
        assert!(json.contains("\"events_dropped\""), "dropped marker missing");
    }
}
