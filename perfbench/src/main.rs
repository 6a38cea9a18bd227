//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload incr1-hot|rubis-c-net|shard-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! A run makes `REPEATS` repeats. Each repeat sets the system up from
//! scratch, warms it up, measures, reads its state back to check the
//! committed work, and tears it down. With `--trace 0` each repeat measures
//! one window of `seconds / REPEATS`; the run prints every end-to-end metric
//! by name and unit, and the last line is the JSON result carrying the gated
//! end-to-end metrics (medians over the repeats). With `--trace 1` each
//! repeat measures one untraced and one traced half-window (alternating
//! order); the run prints the per-layer ledger of the traced windows, writes
//! the spans to `perfbench/out/`, and reports the tracing overhead against
//! the untraced windows. Every run appends a record to
//! `perfbench/out/runs.jsonl`. The exit code is non-zero when a correctness
//! check fails.

mod incr;
mod ledger;
mod measure;
mod report;
mod rubis;
mod shard;
mod sys;
mod trace;

use doppel_common::CountingAlloc;
use ledger::{GATED, PER_LAYER};
use measure::Repeat;
use report::{int, obj, render, text, Json, Stat};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::SpanSet;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups (and measured windows) per run; the result is their median.
const REPEATS: usize = 5;

const USAGE: &str = "usage: perfbench --workload incr1-hot|rubis-c-net|shard-mix --seed N \
                     --seconds S --trace 0|1";

/// What a workload's repeat needs from the run.
pub struct RepeatCtx {
    /// Seed for this repeat's generators (derived from `--seed` alone).
    pub seed: u64,
    /// Length of each measured window.
    pub window: Duration,
    /// Which windows of the repeat are traced, in order.
    pub traced: Vec<bool>,
    /// Process start: the origin of span timestamps.
    pub origin: Instant,
    /// When this repeat's set-up began (process start for the first).
    pub setup_started: Instant,
    pub spans: Arc<Mutex<SpanSet>>,
    pub out_dir: PathBuf,
    pub repeat: usize,
}

impl RepeatCtx {
    /// Marks the end of set-up: its length and the peak memory so far.
    pub fn setup_done(&self) -> (Duration, f64) {
        (self.setup_started.elapsed(), sys::peak_rss_mb())
    }

    /// A fresh write-ahead-log directory for this repeat, inside the
    /// checkout.
    pub fn wal_dir(&self, name: &str) -> PathBuf {
        self.out_dir
            .join("wal")
            .join(format!("{name}-{}-r{}", std::process::id(), self.repeat))
    }
}

struct Workload {
    name: &'static str,
    run: fn(&RepeatCtx) -> Repeat,
    /// Entry point, parameters and the counts a record carries.
    entry: &'static str,
    params: String,
    workers: usize,
    connections: usize,
    pipeline: usize,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "incr1-hot",
            run: incr::run,
            entry: "embedded DoppelDb, TxHandle::execute",
            params: format!(
                "INCR1: {} keys, {:.0}% of increments on one hot key, classifier only",
                incr::KEYS,
                incr::HOT_FRACTION * 100.0
            ),
            workers: incr::WORKERS,
            connections: 0,
            pipeline: 1,
        },
        Workload {
            name: "rubis-c-net",
            run: rubis::run,
            entry: "loopback TCP to an in-process Server, InvokeProc",
            params: format!(
                "RUBiS-C alpha={} (50% StoreBid), {} users, {} items; 2 workers, reactor, tuner \
                 on, WAL as commit sink",
                rubis::ALPHA,
                rubis::SCALE.users,
                rubis::SCALE.items
            ),
            workers: rubis::WORKERS,
            connections: rubis::CONNECTIONS,
            pipeline: rubis::PIPELINE,
        },
        Workload {
            name: "shard-mix",
            run: shard::run,
            entry: "ShardRouter::execute_many over 2 in-process shard Servers",
            params: format!(
                "{} uniform counters; batches of {}: {} direct adds, {} two-shard adds (fast \
                 path), {} read+add across shards (2PC, volatile votes); 1 worker per shard, \
                 reactor, tuner on, WAL as commit sink",
                shard::KEYS,
                shard::BATCH,
                shard::MIX.0,
                shard::MIX.1,
                shard::MIX.2
            ),
            workers: shard::SHARDS * shard::WORKERS_PER_SHARD,
            connections: shard::SHARDS,
            pipeline: shard::BATCH,
        },
    ]
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Seeds for the repeats of a run, derived from the run's seed alone.
fn repeat_seed(seed: u64, repeat: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(repeat as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let origin = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads().into_iter().find(|w| w.name == cli.workload) else {
        let names: Vec<_> = workloads().iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?} (available: {})",
            cli.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("create perfbench/out");

    let windows_per_repeat = if cli.trace { 2 } else { 1 };
    let window = Duration::from_secs_f64(cli.seconds / (REPEATS * windows_per_repeat) as f64);
    let spans = Arc::new(Mutex::new(SpanSet::default()));
    println!(
        "perfbench workload={} seed={} seconds={} trace={} repeats={REPEATS} window={:.3}s",
        workload.name,
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        window.as_secs_f64()
    );
    let repeats: Vec<Repeat> = (0..REPEATS)
        .map(|r| {
            let traced = match (cli.trace, r % 2) {
                (false, _) => vec![false],
                (true, 0) => vec![false, true],
                (true, _) => vec![true, false],
            };
            let ctx = RepeatCtx {
                seed: repeat_seed(cli.seed, r),
                window,
                traced,
                origin,
                setup_started: if r == 0 { origin } else { Instant::now() },
                spans: Arc::clone(&spans),
                out_dir: out_dir.clone(),
                repeat: r,
            };
            (workload.run)(&ctx)
        })
        .collect();
    let peak_rss_mb = sys::peak_rss_mb();

    let mut correct = true;
    for (i, r) in repeats.iter().enumerate() {
        let ok = r.expected_units == r.observed_units;
        correct &= ok;
        println!(
            "check repeat {i}: {}: {} == {} ({})",
            r.check,
            r.observed_units,
            r.expected_units,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    let attempted: u64 = repeats.iter().map(|r| r.attempted).sum();
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    correct &= attempted > 0;

    // End-to-end figures come from the untraced windows only.
    let mut e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut e2e_bases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &repeats {
        e2e.entry("setup_s")
            .or_default()
            .push(r.setup.as_secs_f64());
        for w in r.windows.iter().filter(|w| !w.traced) {
            for (name, v) in ledger::end_to_end(w) {
                e2e.entry(name).or_default().push(v);
            }
            for (name, v) in ledger::end_to_end_bases(w) {
                e2e_bases.entry(name).or_default().push(v);
            }
        }
    }
    e2e.entry("setup_rss_mb")
        .or_default()
        .push(repeats[0].setup_peak_rss_mb);
    e2e.entry("peak_rss_mb").or_default().push(peak_rss_mb);
    let e2e: BTreeMap<&str, Stat> = e2e
        .into_iter()
        .filter_map(|(n, v)| Stat::of(v).map(|s| (n, s)))
        .collect();

    let mut layer: BTreeMap<&str, Stat> = BTreeMap::new();
    let mut layer_bases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    if cli.trace {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut traced_tps = Vec::new();
        for w in repeats.iter().flat_map(|r| &r.windows).filter(|w| w.traced) {
            let (m, bases) = ledger::per_layer(w);
            for (name, v) in m {
                values.entry(name).or_default().push(v);
            }
            for (name, v) in bases {
                layer_bases.entry(name).or_default().push(v);
            }
            traced_tps.push(w.tally.committed as f64 / w.elapsed.as_secs_f64());
        }
        let traced = Stat::of(traced_tps).map_or(0.0, |s| s.median);
        let untraced = e2e.get("throughput_tps").map_or(0.0, |s| s.median);
        let overhead = if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        };
        values.insert("proc.tracing_overhead", vec![overhead]);
        layer_bases.insert("throughput_traced".into(), vec![traced]);
        layer_bases.insert("throughput_untraced".into(), vec![untraced]);
        layer = values
            .into_iter()
            .filter_map(|(n, v)| Stat::of(v).map(|s| (n, s)))
            .collect();
    }

    // Human-readable report: every metric by name and unit.
    for (name, unit) in ledger::END_TO_END {
        match e2e.get(name) {
            Some(s) => println!(
                "{name:<30} {:>14.3} {unit:<10} (q1 {:.3}, q3 {:.3})",
                s.median, s.q1, s.q3
            ),
            None => println!("{name:<30} {:>14} {unit:<10} (no samples)", "absent"),
        }
    }
    print_bases("end-to-end base counts", &e2e_bases);
    if cli.trace {
        for (name, unit) in PER_LAYER {
            let s = &layer[name];
            println!(
                "{name:<30} {:>14.3} {unit:<10} (q1 {:.3}, q3 {:.3})",
                s.median, s.q1, s.q3
            );
        }
        print_bases("per-layer base counts (traced windows)", &layer_bases);
    }

    // Spans and the run record.
    let spans_file = if cli.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.json", workload.name, cli.seed));
        let spans = spans.lock().expect("span set lock");
        match spans.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}, {} beyond the per-thread cap not written",
                spans.spans.len(),
                path.display(),
                spans.dropped
            ),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
        Some(path)
    } else {
        None
    };
    let record = run_record(
        &cli,
        &workload,
        window,
        &repeats,
        attempted,
        failed,
        correct,
        &e2e,
        &e2e_bases,
        &layer,
        &layer_bases,
        spans_file.as_deref(),
    );
    let records = out_dir.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
        .and_then(|mut f| writeln!(f, "{}", render(&record)));
    match appended {
        Ok(()) => println!("record appended to {}", records.display()),
        Err(e) => eprintln!("cannot append the run record to {}: {e}", records.display()),
    }

    // The result line: gated end-to-end metrics, or the per-layer ledger.
    let metrics: Vec<(String, Json)> = if cli.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), metric(layer[n].median, u)))
            .collect()
    } else {
        GATED
            .iter()
            .map(|n| {
                let value = e2e.get(n).map_or(0.0, |s| s.median);
                (n.to_string(), metric(value, ledger::unit_of(n)))
            })
            .collect()
    };
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", render(&result));
    std::io::stdout().flush().ok();
    if !correct {
        eprintln!("correctness check failed");
        std::process::exit(1);
    }
}

fn flush_policy() -> String {
    let p = measure::wal_policy();
    format!(
        "group commit of up to {} records or {:?}: written and fsynced when the log closes \
         at teardown",
        p.group_commit_batch, p.group_commit_interval
    )
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::Float(value)), ("unit", text(unit))])
}

fn print_bases(title: &str, bases: &BTreeMap<String, Vec<f64>>) {
    let parts: Vec<String> = bases
        .iter()
        .map(|(n, v)| {
            format!(
                "{n}={}",
                v.iter()
                    .map(|x| format!("{x:.0}"))
                    .collect::<Vec<_>>()
                    .join("/")
            )
        })
        .collect();
    println!("{title} (per window): {}", parts.join(" "));
}

#[allow(clippy::too_many_arguments)]
fn run_record(
    cli: &Cli,
    workload: &Workload,
    window: Duration,
    repeats: &[Repeat],
    attempted: u64,
    failed: u64,
    correct: bool,
    e2e: &BTreeMap<&str, Stat>,
    e2e_bases: &BTreeMap<String, Vec<f64>>,
    layer: &BTreeMap<&str, Stat>,
    layer_bases: &BTreeMap<String, Vec<f64>>,
    spans_file: Option<&Path>,
) -> Json {
    let stats = |m: &BTreeMap<&str, Stat>| {
        Json::Object(
            m.iter()
                .map(|(n, s)| (n.to_string(), s.json(ledger::unit_of(n))))
                .collect(),
        )
    };
    let bases = |m: &BTreeMap<String, Vec<f64>>| {
        Json::Object(
            m.iter()
                .map(|(n, v)| {
                    (
                        n.clone(),
                        Json::Array(v.iter().map(|x| Json::Float(*x)).collect()),
                    )
                })
                .collect(),
        )
    };
    let wal_dir = repeats.iter().find_map(|r| r.wal_dir.clone());
    let wal = match &wal_dir {
        Some(dir) => {
            let parent = Path::new(dir).parent().unwrap_or(Path::new("."));
            obj([
                ("dir", text(dir.clone())),
                ("filesystem", text(sys::fs_type(parent))),
                ("flush_policy", text(flush_policy())),
            ])
        }
        None => text("none"),
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get()) as u64;
    obj([
        ("workload", text(workload.name)),
        ("entry_point", text(workload.entry)),
        ("params", text(workload.params.clone())),
        ("seed", int(cli.seed)),
        ("seconds", Json::Float(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("repeats", int(REPEATS as u64)),
        ("window_s", Json::Float(window.as_secs_f64())),
        ("warmup_s", Json::Float(measure::WARMUP.as_secs_f64())),
        (
            "git_rev",
            text(sys::git_rev().unwrap_or_else(|| "unknown".into())),
        ),
        ("source_digest", text(sys::source_digest())),
        ("available_parallelism", int(parallelism)),
        ("workers", int(workload.workers as u64)),
        ("connections", int(workload.connections as u64)),
        ("pipeline", int(workload.pipeline as u64)),
        ("wal", wal),
        ("correct", Json::Bool(correct)),
        (
            "checks",
            Json::Array(
                repeats
                    .iter()
                    .map(|r| {
                        text(format!(
                            "{}: {} == {}",
                            r.check, r.observed_units, r.expected_units
                        ))
                    })
                    .collect(),
            ),
        ),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("end_to_end", stats(e2e)),
        ("end_to_end_bases", bases(e2e_bases)),
        ("per_layer", stats(layer)),
        ("per_layer_bases", bases(layer_bases)),
        (
            "spans_file",
            spans_file.map_or(text("none"), |p| text(p.display().to_string())),
        ),
    ])
}
