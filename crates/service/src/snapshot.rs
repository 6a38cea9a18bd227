//! The self-describing telemetry bundle shipped in a `StatsReply`.
//!
//! A [`TelemetrySnapshot`] deliberately carries *named* values rather than a
//! fixed struct layout: every scalar is a `(name, value)` pair and every
//! histogram a `(name, Histogram)` pair, so `doppel-stat` (and any future
//! consumer) renders whatever the server sends without the client and server
//! having to agree on a field list. Adding a metric on the server is a
//! one-sided change.
//!
//! Histograms travel as their exact bucket arrays (sparsely encoded — only
//! non-zero buckets are shipped), so the client can compute any quantile and
//! *delta* two polls bucket-wise for interval percentiles, which a
//! pre-digested `p99` figure would not allow.

use doppel_common::{ProcStatsSnapshot, StatsSnapshot, TuneDecision};
use doppel_telemetry::{Histogram, HotKey, MetricsSnapshot};
use doppel_wal::codec::{put_slice, put_u32, put_u64, Dec};
use doppel_wal::CodecError;

/// Everything a server knows about itself, snapshotted at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Named scalar values: the engine's [`StatsSnapshot`] counters, the
    /// front-end's network counters, queue depths — flattened into one
    /// self-describing list.
    pub scalars: Vec<(String, u64)>,
    /// Named latency histograms (phase durations, stash replay, queue wait,
    /// execution), as full bucket arrays.
    pub hists: Vec<(String, Histogram)>,
    /// The hottest keys by sampled conflict hits, descending. Keys are the
    /// lossy [`doppel_common::Key::heat_token`] packing.
    pub hot_keys: Vec<HotKey>,
    /// The engine's current phase: `"joined"`, `"split"`, or `"-"` for
    /// engines without phase reconciliation.
    pub phase: String,
    /// Per-procedure counters from the server's procedure registry.
    pub procs: Vec<ProcStatsSnapshot>,
    /// The adaptive contention controller's live state, when the server runs
    /// with `--adaptive`. `None` on non-Doppel engines, servers started
    /// without the tuner, and snapshots from older servers (the section is
    /// a trailing extension of the wire format).
    pub tuner: Option<TunerSnapshot>,
}

/// What the adaptive tuner reports about itself: where the control loop has
/// steered the engine and the recent decisions that got it there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TunerSnapshot {
    /// Control-loop epochs completed since the server started.
    pub epochs: u64,
    /// The engine's configured phase length, in microseconds. Zero in a
    /// merged multi-shard view whose shards disagree (rendered as `"mixed"`).
    pub phase_len_us: u64,
    /// The current split set as lossy [`doppel_common::Key::heat_token`]
    /// packings, matching the encoding of `hot_keys`.
    pub split_keys: Vec<u64>,
    /// The most recent decisions, oldest first, each with a reason string.
    pub decisions: Vec<TuneDecision>,
}

impl TelemetrySnapshot {
    /// The scalar named `name`, when present.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, when present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Folds a [`MetricsSnapshot`] (a registry's worth of metrics) into this
    /// bundle.
    pub fn absorb_metrics(&mut self, m: MetricsSnapshot) {
        let mut base = MetricsSnapshot {
            scalars: std::mem::take(&mut self.scalars),
            hists: std::mem::take(&mut self.hists),
            hot_keys: std::mem::take(&mut self.hot_keys),
        };
        base.absorb(m);
        self.scalars = base.scalars;
        self.hists = base.hists;
        self.hot_keys = base.hot_keys;
    }

    /// Overlays the engine's counter snapshot as named scalars.
    pub fn absorb_stats(&mut self, stats: &StatsSnapshot) {
        for (name, value) in stats.named_fields() {
            self.scalars.push((name.to_string(), value));
        }
    }

    /// Folds another server's snapshot into this one, producing a cluster
    /// view: scalars sum by name, histograms merge bucket-wise, hot keys
    /// re-rank, per-procedure counters sum by procedure. Phases that differ
    /// across shards render as `"mixed"`.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.absorb_metrics(MetricsSnapshot {
            scalars: other.scalars.clone(),
            hists: other.hists.clone(),
            hot_keys: other.hot_keys.clone(),
        });
        for p in &other.procs {
            match self.procs.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.invocations += p.invocations;
                    q.commits += p.commits;
                    q.aborts += p.aborts;
                    q.deferrals += p.deferrals;
                }
                None => self.procs.push(p.clone()),
            }
        }
        if self.phase.is_empty() {
            self.phase = other.phase.clone();
        } else if self.phase != other.phase {
            self.phase = "mixed".into();
        }
        match (&mut self.tuner, &other.tuner) {
            (Some(mine), Some(theirs)) => {
                mine.epochs = mine.epochs.max(theirs.epochs);
                if mine.phase_len_us != theirs.phase_len_us {
                    mine.phase_len_us = 0; // shards disagree; render as "mixed"
                }
                for k in &theirs.split_keys {
                    if !mine.split_keys.contains(k) {
                        mine.split_keys.push(*k);
                    }
                }
                mine.decisions.extend(theirs.decisions.iter().cloned());
                mine.decisions.sort_by_key(|d| d.epoch);
                let excess = mine.decisions.len().saturating_sub(MERGED_DECISION_CAP);
                mine.decisions.drain(..excess);
            }
            (None, Some(theirs)) => self.tuner = Some(theirs.clone()),
            _ => {}
        }
    }
}

/// How many decisions a merged multi-shard view keeps (per-server history is
/// already bounded by `TunerConfig::decision_history`).
const MERGED_DECISION_CAP: usize = 16;

// ------------------------------------------------------------------ encoding

/// Appends a snapshot to `buf` (the body of a `StatsReply`).
pub(crate) fn encode_snapshot(buf: &mut Vec<u8>, s: &TelemetrySnapshot) {
    put_u32(buf, s.scalars.len() as u32);
    for (name, value) in &s.scalars {
        put_slice(buf, name.as_bytes());
        put_u64(buf, *value);
    }
    put_u32(buf, s.hists.len() as u32);
    for (name, hist) in &s.hists {
        put_slice(buf, name.as_bytes());
        put_u64(buf, hist.count());
        let sum = hist.sum_ns();
        put_u64(buf, (sum >> 64) as u64);
        put_u64(buf, sum as u64);
        put_u64(buf, hist.max_ns());
        // Sparse bucket encoding: latency distributions are clustered, so
        // most of the 512 buckets are zero and shipping (index, count)
        // pairs beats the dense array for every realistic histogram.
        let counts = hist.bucket_counts();
        let nonzero = counts.iter().filter(|&&c| c != 0).count();
        put_u32(buf, nonzero as u32);
        for (idx, &c) in counts.iter().enumerate() {
            if c != 0 {
                put_u32(buf, idx as u32);
                put_u32(buf, c);
            }
        }
    }
    put_u32(buf, s.hot_keys.len() as u32);
    for hk in &s.hot_keys {
        put_u64(buf, hk.key);
        put_u64(buf, hk.hits);
    }
    put_slice(buf, s.phase.as_bytes());
    put_u32(buf, s.procs.len() as u32);
    for p in &s.procs {
        put_slice(buf, p.name.as_bytes());
        put_u64(buf, p.invocations);
        put_u64(buf, p.commits);
        put_u64(buf, p.aborts);
        put_u64(buf, p.deferrals);
    }
    // Trailing tuner section: old decoders stop before it, and this decoder
    // treats a missing tail as `None`, so the extension is two-way compatible.
    if let Some(t) = &s.tuner {
        put_u32(buf, 1);
        put_u64(buf, t.epochs);
        put_u64(buf, t.phase_len_us);
        put_u32(buf, t.split_keys.len() as u32);
        for k in &t.split_keys {
            put_u64(buf, *k);
        }
        put_u32(buf, t.decisions.len() as u32);
        for dec in &t.decisions {
            put_u64(buf, dec.epoch);
            put_slice(buf, dec.action.as_bytes());
            put_slice(buf, dec.reason.as_bytes());
        }
    } else {
        put_u32(buf, 0);
    }
}

/// Caps an untrusted element count by what the remaining payload could hold
/// (each element is at least `min_size` bytes), so a hostile header cannot
/// reserve gigabytes before the first element fails to decode.
fn checked_count(d: &Dec<'_>, n: u32, min_size: usize) -> Result<usize, CodecError> {
    let n = n as usize;
    if n > d.remaining() / min_size {
        return Err(CodecError("element count longer than message"));
    }
    Ok(n)
}

fn decode_utf8(d: &mut Dec<'_>) -> Result<String, CodecError> {
    String::from_utf8(d.bytes()?.to_vec()).map_err(|_| CodecError("name is not utf-8"))
}

/// Decodes a snapshot from a `StatsReply` body.
pub(crate) fn decode_snapshot(d: &mut Dec<'_>) -> Result<TelemetrySnapshot, CodecError> {
    // Smallest scalar entry: 4-byte name length + 8-byte value.
    let raw = d.u32()?;
    let n = checked_count(d, raw, 12)?;
    let mut scalars = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = decode_utf8(d)?;
        scalars.push((name, d.u64()?));
    }
    // Smallest histogram entry: name length + total/sum/max + bucket count.
    let raw = d.u32()?;
    let n = checked_count(d, raw, 40)?;
    let mut hists = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = decode_utf8(d)?;
        let total = d.u64()?;
        let sum = ((d.u64()? as u128) << 64) | d.u64()? as u128;
        let max_ns = d.u64()?;
        let raw = d.u32()?;
        let nonzero = checked_count(d, raw, 8)?;
        let mut counts = vec![0u32; doppel_telemetry::hist::BUCKETS];
        for _ in 0..nonzero {
            let idx = d.u32()? as usize;
            if idx >= counts.len() {
                return Err(CodecError("histogram bucket index out of range"));
            }
            counts[idx] = d.u32()?;
        }
        hists.push((name, Histogram::from_parts(&counts, total, sum, max_ns)));
    }
    let raw = d.u32()?;
    let n = checked_count(d, raw, 16)?;
    let mut hot_keys = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        hot_keys.push(HotKey { key: d.u64()?, hits: d.u64()? });
    }
    let phase = decode_utf8(d)?;
    // Smallest proc entry: name length + four u64 counters.
    let raw = d.u32()?;
    let n = checked_count(d, raw, 36)?;
    let mut procs = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        procs.push(ProcStatsSnapshot {
            name: decode_utf8(d)?,
            invocations: d.u64()?,
            commits: d.u64()?,
            aborts: d.u64()?,
            deferrals: d.u64()?,
        });
    }
    // Snapshots from servers predating the tuner end here.
    let tuner = if d.remaining() > 0 && d.u32()? != 0 {
        let epochs = d.u64()?;
        let phase_len_us = d.u64()?;
        let raw = d.u32()?;
        let n = checked_count(d, raw, 8)?;
        let mut split_keys = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            split_keys.push(d.u64()?);
        }
        // Smallest decision: epoch + two slice length prefixes.
        let raw = d.u32()?;
        let n = checked_count(d, raw, 16)?;
        let mut decisions = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            decisions.push(TuneDecision {
                epoch: d.u64()?,
                action: decode_utf8(d)?,
                reason: decode_utf8(d)?,
            });
        }
        Some(TunerSnapshot { epochs, phase_len_us, split_keys, decisions })
    } else {
        None
    };
    Ok(TelemetrySnapshot { scalars, hists, hot_keys, phase, procs, tuner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> TelemetrySnapshot {
        let mut hist = Histogram::new();
        for us in [5u64, 50, 500, 5000] {
            hist.record(Duration::from_micros(us));
        }
        TelemetrySnapshot {
            scalars: vec![("commits".into(), 42), ("conns_accepted".into(), 3)],
            hists: vec![("exec".into(), hist)],
            hot_keys: vec![HotKey { key: 7, hits: 99 }],
            phase: "split".into(),
            procs: vec![ProcStatsSnapshot {
                name: "rubis.store_bid".into(),
                invocations: 10,
                commits: 9,
                aborts: 1,
                deferrals: 2,
            }],
            tuner: Some(TunerSnapshot {
                epochs: 12,
                phase_len_us: 20_000,
                split_keys: vec![7, 9],
                decisions: vec![TuneDecision {
                    epoch: 11,
                    action: "promote key 7".into(),
                    reason: "48 conflicts in epoch".into(),
                }],
            }),
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let mut buf = Vec::new();
        encode_snapshot(&mut buf, &snap);
        let mut d = Dec::new(&buf);
        let back = decode_snapshot(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, snap);
        // The histogram survives with full quantile fidelity.
        let h = back.hist("exec").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), snap.hist("exec").unwrap().max_ns());
    }

    #[test]
    fn hostile_counts_are_rejected_without_reserving() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(decode_snapshot(&mut Dec::new(&buf)).is_err());
        // A bucket index past the histogram's fixed size is corrupt.
        let mut buf = Vec::new();
        put_u32(&mut buf, 0); // scalars
        put_u32(&mut buf, 1); // one histogram
        put_slice(&mut buf, b"h");
        put_u64(&mut buf, 1); // total
        put_u64(&mut buf, 0); // sum hi
        put_u64(&mut buf, 100); // sum lo
        put_u64(&mut buf, 100); // max
        put_u32(&mut buf, 1); // one bucket
        put_u32(&mut buf, 100_000); // out-of-range index
        put_u32(&mut buf, 1);
        assert!(decode_snapshot(&mut Dec::new(&buf)).is_err());
    }

    #[test]
    fn tuner_section_is_a_back_compatible_tail() {
        // A server without the tuner encodes an explicit empty section.
        let mut snap = sample();
        snap.tuner = None;
        let mut buf = Vec::new();
        encode_snapshot(&mut buf, &snap);
        let mut d = Dec::new(&buf);
        let back = decode_snapshot(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back.tuner, None);

        // A snapshot from a server predating the section decodes to `None`
        // rather than erroring: strip the trailing section marker.
        let mut buf = Vec::new();
        encode_snapshot(&mut buf, &snap);
        buf.truncate(buf.len() - 4);
        let back = decode_snapshot(&mut Dec::new(&buf)).unwrap();
        assert_eq!(back.tuner, None);
    }

    #[test]
    fn merge_unions_tuner_state_across_shards() {
        let mut a = sample();
        let mut b = sample();
        let bt = b.tuner.as_mut().unwrap();
        bt.epochs = 30;
        bt.phase_len_us = 10_000;
        bt.split_keys = vec![9, 13];
        bt.decisions = vec![TuneDecision {
            epoch: 29,
            action: "demote key 9".into(),
            reason: "idle 3 epochs".into(),
        }];
        a.merge(&b);
        let t = a.tuner.unwrap();
        assert_eq!(t.epochs, 30);
        assert_eq!(t.phase_len_us, 0, "disagreeing shards render as mixed");
        assert_eq!(t.split_keys, vec![7, 9, 13]);
        assert_eq!(t.decisions.len(), 2);
        assert!(t.decisions.windows(2).all(|w| w[0].epoch <= w[1].epoch));

        // Merging into a shard without a tuner adopts the other's view.
        let mut plain = sample();
        plain.tuner = None;
        plain.merge(&b);
        assert_eq!(plain.tuner, b.tuner);
    }

    #[test]
    fn absorb_helpers_flatten_sources() {
        let mut snap = TelemetrySnapshot::default();
        let stats = StatsSnapshot { commits: 7, stashes: 2, ..Default::default() };
        snap.absorb_stats(&stats);
        assert_eq!(snap.scalar("commits"), Some(7));
        assert_eq!(snap.scalar("stashes"), Some(2));

        let reg = doppel_telemetry::Registry::new();
        reg.histogram("exec").record(0, Duration::from_micros(10));
        reg.counter("ticks").add(3);
        snap.absorb_metrics(reg.snapshot());
        assert_eq!(snap.scalar("ticks"), Some(3));
        assert_eq!(snap.hist("exec").unwrap().count(), 1);
    }
}
