//! Fan-out side-table audit properties (PR 10).
//!
//! The compressed event queue (see `DESIGN.md` §10) interns each logical fan-out
//! once in a per-run side table and queues `{fanout, receiver}` handles in place of
//! the expanded per-copy `{from, to, Arc<message>, size}` events. The expanded
//! representation no longer exists in the code; the constants in
//! `tests/determinism_golden.rs` were captured from it, so the goldens pin the
//! compressed queue to its event stream. This file adds the *property* layer on top
//! of those point checks: across fuzzed seeds, fault schedules and topologies (the
//! chaos generator's space — WAN/LAN, crash windows, region partitions, Byzantine
//! proposers), every run must
//!
//! * pass the fan-out reference audit at the end of the run: every slot's refcount
//!   equals the number of `Arrive`/`Deliver` handles still queued against it (runs
//!   cut off at their deadline legitimately end with handles in flight, so "live
//!   slots == 0" would be the wrong invariant). A leaked reference leaves a slot
//!   out-referenced and fails the audit; a double-free underflows the slot's
//!   refcount and panics inside the table (debug assertions and overflow checks are
//!   active in the test profile) before the audit even runs;
//! * actually use the table (a non-zero peak), and
//! * stay invariant-clean.
//!
//! Crash windows and partitions matter specifically because they drop *individual
//! receivers* out of a fan-out: the dropped copy's reference must come back via the
//! crash-path `release` (never `consume`), and a fan-out whose every copy is dropped
//! at route time must be reclaimed by `release_if_unused` without ever being
//! referenced.

use leopard::harness::chaos::FaultScheduleGenerator;
use leopard::harness::scenario::{run_leopard_scenario_unchecked, ScenarioConfig};
use leopard::simnet::SimDuration;
use leopard::types::NodeId;
use proptest::prelude::*;

/// Runs `config` and checks the audit, table use and invariant verdict; returns the
/// first failure as a message.
fn audit(label: &str, config: &ScenarioConfig) -> Result<(), String> {
    let report = run_leopard_scenario_unchecked(config);
    if !report.sim.fanouts_balanced {
        return Err(format!(
            "{label}: reference audit failed ({} live, peak {})",
            report.sim.fanouts_live, report.sim.fanouts_peak
        ));
    }
    if report.sim.fanouts_peak == 0 {
        return Err(format!("{label}: table never used"));
    }
    if !report.violations.is_empty() {
        return Err(format!(
            "{label}: invariant violations {:?}",
            report.violations
        ));
    }
    Ok(())
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One fuzzed chaos schedule per case: `(n, master_seed, case_index)` select a
    /// schedule from the same generator CI's chaos smoke fuzzes — crash/restart
    /// windows, region partitions (WAN cases), message filters and Byzantine
    /// proposer draws included.
    #[test]
    fn compressed_queue_is_stream_equivalent_and_leak_free(
        n in 4usize..10,
        master_seed in 0u64..1024,
        case in 0usize..64,
    ) {
        let config = FaultScheduleGenerator::new(n, master_seed).schedule(case).to_config();
        let label = format!("n {n}, seed {master_seed}, case {case}");
        if let Err(message) = audit(&label, &config) {
            prop_assert!(false, "{}", message);
        }
    }
}

/// Deterministic regression anchors next to the fuzzed property. Both drop receivers
/// mid-flight, so the crash-path `release` must return exactly the dropped handles:
///
/// * the recovery-wedging chaos schedule (seed 7, case 142 — the PR 7 reproducer),
///   with crashes and partitions;
/// * a leader crash at 300 ms plus a crash-restart of node 3 over 600–1200 ms, which
///   takes the restart path (timer epochs, state transfer) through the table.
#[test]
fn chaos_reproducer_balances_every_slot() {
    let chaos = FaultScheduleGenerator::new(16, 7).schedule(142).to_config();
    let crash_restart = ScenarioConfig::small(7)
        .with_seed(9)
        .with_leader_crash_at(SimDuration::from_millis(300))
        .with_crash_restart(
            NodeId(3),
            SimDuration::from_millis(600),
            SimDuration::from_millis(1200),
        )
        .with_duration(SimDuration::from_secs(4));
    for (label, config) in [
        ("chaos seed 7 case 142", chaos),
        ("small(7) leader crash + crash-restart", crash_restart),
    ] {
        if let Err(message) = audit(label, &config) {
            panic!("{message}");
        }
    }
}
