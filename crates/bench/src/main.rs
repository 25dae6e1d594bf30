//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p leopard-bench --release --bin experiments -- \
//!     [--full] [<id>...]
//! ```
//!
//! With no ids every experiment runs. `--full` selects the paper-scale parameter sets
//! (slower); the default "quick" profile uses reduced scales suitable for a laptop.
//! Each table is printed to stdout and written to `target/experiments/<id>.csv`, and
//! each experiment's wall clock, engine events/sec and peak RSS go to stderr.
//! Performance is recorded by the repository benchmark (`perfbench/`, the
//! `BENCHMARK.json` command), not by this binary.
//!
//! `--require-nonzero <substr>` makes the binary exit non-zero if any cell in a column
//! whose header contains `<substr>` does not start with a positive number — the CI
//! guard that keeps the "Leopard confirms nothing at paper scale" collapse from
//! silently regressing (used with the `fig9smoke` experiment).
//!
//! `--schedules <N>`, `--chaos-seed <S>` and `--chaos-case <K>` tune the `chaos`
//! experiment: schedule count and master seed of the fuzzed stream, or a
//! single case index — the one-line reproducer the chaos engine prints on a violation
//! (`chaos --chaos-seed S --chaos-case K`) uses the last two.
//!
//! `--max-wall-clock <secs>` makes the binary exit non-zero if the *total* wall clock
//! of the selected experiments exceeds the budget — the CI guard that keeps the quick
//! experiment suite inside its stated time budget (see `EXPERIMENTS.md`), so a
//! performance regression in the simulator or a protocol hot path fails the build
//! instead of quietly making every future benchmark run slower.
//!
//! `--min-events-per-sec <threshold>` makes the binary exit non-zero if any selected
//! experiment's engine events/sec figure lands below the threshold — the CI floor
//! that catches an engine-speed collapse (used with `fig9xlsmoke`; see the note in
//! `.github/workflows/ci.yml` for how the threshold was chosen). Use it only with
//! experiment ids that run a simulation: analytical tables report 0 events/sec and
//! would trip the floor by construction.

use leopard_harness::chaos::ChaosOverrides;
use leopard_harness::experiments::{run_experiment_with, EXPERIMENT_IDS};
use leopard_harness::report::peak_rss_bytes;
use leopard_simnet::global_events_processed;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut require_nonzero: Option<String> = None;
    let mut max_wall_clock: Option<f64> = None;
    let mut min_events_per_sec: Option<f64> = None;
    let mut chaos = ChaosOverrides::default();
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => {}
            "--require-nonzero" => match iter.next() {
                Some(substr) => require_nonzero = Some(substr),
                None => {
                    eprintln!("--require-nonzero requires a column-substring argument");
                    std::process::exit(2);
                }
            },
            "--max-wall-clock" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => max_wall_clock = Some(secs),
                None => {
                    eprintln!("--max-wall-clock requires a seconds argument");
                    std::process::exit(2);
                }
            },
            "--min-events-per-sec" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(floor) => min_events_per_sec = Some(floor),
                None => {
                    eprintln!("--min-events-per-sec requires an events/sec argument");
                    std::process::exit(2);
                }
            },
            "--schedules" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(count) => chaos.schedules = Some(count),
                None => {
                    eprintln!("--schedules requires a count argument");
                    std::process::exit(2);
                }
            },
            "--chaos-seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => chaos.seed = Some(seed),
                None => {
                    eprintln!("--chaos-seed requires a seed argument");
                    std::process::exit(2);
                }
            },
            "--chaos-case" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(case) => chaos.case = Some(case),
                None => {
                    eprintln!("--chaos-case requires a case-index argument");
                    std::process::exit(2);
                }
            },
            _ => requested.push(arg),
        }
    }
    let ids: Vec<&str> = if requested.is_empty() {
        EXPERIMENT_IDS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    let out_dir = PathBuf::from("target/experiments");
    let mut total_wall_clock = 0.0;
    let mut failures = 0usize;
    for id in ids {
        eprintln!("running experiment {id} ({}) ...", if full { "full" } else { "quick" });
        let events_before = global_events_processed();
        let start = Instant::now();
        match run_experiment_with(id, !full, &chaos) {
            Some(table) => {
                let wall_clock_secs = start.elapsed().as_secs_f64();
                total_wall_clock += wall_clock_secs;
                let events = global_events_processed() - events_before;
                let events_per_sec = if wall_clock_secs > 0.0 {
                    events as f64 / wall_clock_secs
                } else {
                    0.0
                };
                let peak_memory_bytes = peak_rss_bytes();
                println!("{}", table.to_text());
                if let Some(substr) = &require_nonzero {
                    failures += check_nonzero_columns(&table, substr);
                }
                match table.write_csv(&out_dir, id) {
                    Ok(path) => eprintln!("  wrote {}", path.display()),
                    Err(error) => eprintln!("  could not write CSV: {error}"),
                }
                eprintln!(
                    "  wall clock: {wall_clock_secs:.3}s ({:.2} Mev/s, peak RSS {} MB)",
                    events_per_sec / 1e6,
                    peak_memory_bytes / 1_000_000
                );
                if let Some(floor) = min_events_per_sec {
                    if events_per_sec < floor {
                        eprintln!(
                            "MIN-EVENTS-PER-SEC FAILED: {id} ran at {:.0} events/sec, floor is {:.0}",
                            events_per_sec, floor
                        );
                        failures += 1;
                    } else {
                        eprintln!(
                            "  events/sec floor ok: {:.0} >= {:.0}",
                            events_per_sec, floor
                        );
                    }
                }
            }
            None => {
                eprintln!("  unknown experiment id: {id}");
                failures += 1;
            }
        }
    }
    if let Some(budget) = max_wall_clock {
        if total_wall_clock > budget {
            eprintln!(
                "MAX-WALL-CLOCK FAILED: experiments took {total_wall_clock:.3}s, budget is {budget:.3}s"
            );
            failures += 1;
        } else {
            eprintln!("wall-clock budget ok: {total_wall_clock:.3}s <= {budget:.3}s");
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Counts cells that are not strictly positive in every column whose header contains
/// `substr`. Cells may carry a stall annotation (`"0.00 [AwaitingReady]"`); only the
/// leading number is parsed, so the diagnostics never hide a failure.
fn check_nonzero_columns(table: &leopard_harness::report::Table, substr: &str) -> usize {
    let mut failures = 0;
    for (column, header) in table.headers.iter().enumerate() {
        // Only numeric columns carry a unit in parentheses; this skips non-numeric
        // companions like "Leopard diagnostics" when matching on "Leopard".
        if !header.contains(substr) || !header.contains('(') {
            continue;
        }
        for row in &table.rows {
            let cell = &row[column];
            let value: f64 = cell
                .split_whitespace()
                .next()
                .and_then(|prefix| prefix.parse().ok())
                .unwrap_or(0.0);
            if value <= 0.0 {
                eprintln!("  REQUIRE-NONZERO FAILED: column {header:?} has cell {cell:?} (row n={})", row[0]);
                failures += 1;
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::check_nonzero_columns;
    use leopard_harness::report::Table;

    fn table(headers: &[&str], rows: &[&[&str]]) -> Table {
        let mut table = Table::new("t", headers);
        for row in rows {
            table.push_row(row.iter().map(|cell| cell.to_string()).collect());
        }
        table
    }

    #[test]
    fn only_a_positive_leading_number_passes() {
        let cases = [("12.3", 0), ("0.00 [AwaitingReady]", 1), ("-", 1), ("never", 1)];
        for (cell, failures) in cases {
            let t = table(&["n", "Leopard (Kreqs/s)"], &[&["4", cell]]);
            assert_eq!(check_nonzero_columns(&t, "Leopard"), failures, "{cell:?}");
        }
    }

    #[test]
    fn a_matching_header_without_a_unit_is_skipped() {
        let t = table(&["n", "Leopard diagnostics"], &[&["4", "0.00 [AwaitingReady]"]]);
        assert_eq!(check_nonzero_columns(&t, "Leopard"), 0);
    }

    #[test]
    fn returns_the_count_of_failing_cells() {
        let t = table(
            &["n", "Leopard (Kreqs/s)", "Leopard p50 (ms)", "HotStuff (Kreqs/s)"],
            &[
                &["4", "12.3", "-", "0.00"],
                &["8", "0.00 [AwaitingReady]", "never", "0.00"],
                &["16", "7.5", "3.2", "0.00"],
            ],
        );
        assert_eq!(check_nonzero_columns(&t, "Leopard"), 3);
        assert_eq!(check_nonzero_columns(&t, "HotStuff"), 3);
        assert_eq!(check_nonzero_columns(&t, "Mir"), 0);
    }
}
