//! Figure 13: average read-transaction latency in Doppel as a function of the
//! phase length, for three LIKE workloads: uniform (nothing split), skewed
//! 50% writes, and skewed 90% writes. Longer phases mean stashed reads wait
//! longer for the next joined phase, but at most `phase_len / 4`, not a whole
//! phase: the coordinator ends a split phase once its first stashed
//! transaction has waited `phase_len × max_stash_wait_fraction` (default
//! 0.25).
//!
//! Run with `--help` (`cargo run --release --bin fig13 -- --help`)
//! for the full flag list.

use doppel_bench::{emit, run_point, Args, EngineKind, ExperimentConfig};
use doppel_workloads::driver::Workload;
use doppel_workloads::like::LikeWorkload;
use doppel_workloads::report::{Cell, Table};
use std::time::Duration;

fn main() {
    // The phase length is swept, so --phase-ms would be ignored: exclude it.
    let args = Args::from_env_or_usage_excluding(
        "Figure 13: Doppel read latency vs phase length on three LIKE workloads",
        &["phase-ms"],
        &[],
    );
    let mut config = ExperimentConfig::from_args(&args);
    let phase_lengths_ms: Vec<u64> = if args.flag("full") {
        vec![1, 2, 5, 10, 20, 40, 60, 80, 100]
    } else {
        vec![2, 5, 10, 20, 40]
    };
    let users = config.keys;
    let pages = config.keys;

    let mut table = Table::new(
        format!(
            "Figure 13: Doppel average read latency (us) vs phase length ({} cores, {} \
             users/pages, {:.1}s per point)",
            config.cores, users, config.seconds
        ),
        &["phase (ms)", "Uniform", "Skewed", "Skewed Write Heavy"],
    );

    let workloads = [
        LikeWorkload::uniform(users, pages),
        LikeWorkload::skewed(users, pages),
        LikeWorkload::skewed_write_heavy(users, pages),
    ];

    for ms in &phase_lengths_ms {
        config.phase_len = Duration::from_millis(*ms);
        let mut row: Vec<Cell> = vec![Cell::Int(*ms as i64)];
        for workload in &workloads {
            let result = run_point(EngineKind::Doppel, workload, &config);
            eprintln!(
                "  phase={ms}ms {}: mean read {:.0}us ({} stashed)",
                workload.name(),
                result.read_latency.mean_us,
                result.stashed
            );
            row.push(Cell::Micros(result.read_latency.mean_us));
        }
        table.push_row(row);
    }

    emit(&table, "fig13", &args);
}
