//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer, kept in memory (bounded) and written out at the end as
//! Chrome trace-event JSON (loadable in Perfetto).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per generator thread and repeat; later spans still feed the
/// span histograms but are not written to the file.
pub const SPANS_PER_THREAD: usize = 10_000;

/// One recorded span. Spans of one logical request share `trace`; `parent`
/// is the id of the span that caused this one (0 for a root).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A per-thread span log.
pub struct SpanLog {
    origin: Instant,
    thread: u32,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: u32) -> SpanLog {
        SpanLog {
            origin,
            thread,
            next_id: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a span and returns its id (to parent child spans on).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next_id += 1;
        let id = ((self.thread as u64) << 48) | self.next_id;
        if self.spans.len() < SPANS_PER_THREAD {
            self.spans.push(Span {
                name,
                trace,
                id,
                parent,
                thread: self.thread,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
        id
    }
}

/// Every thread's spans, gathered after the run.
#[derive(Default)]
pub struct SpanSet {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanSet {
    pub fn absorb(&mut self, log: SpanLog) {
        self.spans.extend(log.spans);
        self.dropped += log.dropped;
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"trace\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.trace,
                s.id,
                s.parent
            )?;
        }
        write!(
            out,
            "\n],\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped
        )?;
        out.flush()
    }
}
