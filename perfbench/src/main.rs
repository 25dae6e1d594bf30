//! The repository benchmark: end-to-end metrics from untraced scenario runs, and
//! per-layer metrics from a separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! leopard-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

mod host;
mod micro;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Kind, Traced};
use workload::{Built, Outcome, Proto, Workload};

/// `setup_s` is the median of at least this many set-ups…
const SETUP_MIN_REPS: usize = 7;
/// …repeated for at least this long, so that microsecond set-ups are not noise.
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Scenario runs per measurement, however short `--seconds` is.
const MIN_RUNS: u64 = 3;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_kreqs", "Kreq/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_node_bytes_per_req", "B"),
    ("recovery_s", "s"),
];

/// Message categories of each protocol, for the per-category callback metrics.
const LEOPARD_CATEGORIES: [&str; 10] = [
    "datablock",
    "ready",
    "bftblock",
    "vote",
    "proof",
    "query",
    "retrieval",
    "checkpoint",
    "viewchange",
    "statesync",
];
const HOTSTUFF_CATEGORIES: [&str; 3] = ["block", "vote", "newview"];

/// Per-layer metrics, reported with `--trace 1`, in output order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = [
        ("simnet.events", "count"),
        ("simnet.events_per_s", "1/s"),
        ("simnet.self_s", "s"),
        ("simnet.new_s", "s"),
        ("simnet.into_report_s", "s"),
        ("simnet.send.calls", "count"),
        ("simnet.send_s", "s"),
        ("simnet.observe.calls", "count"),
        ("simnet.observe_s", "s"),
        ("simnet.timer.calls", "count"),
        ("simnet.timer_s", "s"),
        ("simnet.observations", "count"),
        ("simnet.fanouts_peak", "count"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for (prefix, categories) in [
        ("core", &LEOPARD_CATEGORIES[..]),
        ("hotstuff", &HOTSTUFF_CATEGORIES[..]),
    ] {
        let callbacks = categories
            .iter()
            .map(|c| format!("on_message.{c}"))
            .chain(["on_timer".into(), "on_start".into()]);
        for callback in callbacks {
            list.push((format!("{prefix}.{callback}.calls"), "count"));
            list.push((format!("{prefix}.{callback}.self_s"), "s"));
        }
        if prefix == "core" {
            list.push(("core.retrieval.useful_ratio".into(), "ratio"));
            list.push(("core.max_cpu_util".into(), "ratio"));
            list.push(("core.views_entered".into(), "count"));
        } else {
            list.push(("hotstuff.leader_cpu_util".into(), "ratio"));
        }
    }
    for (name, unit) in [
        ("crypto.keygen_s", "s"),
        ("crypto.sign_share_ns", "ns"),
        ("crypto.verify_share_ns", "ns"),
        ("crypto.batch_verify_ns", "ns"),
        ("crypto.combine_ns", "ns"),
        ("crypto.verify_combined_ns", "ns"),
        ("crypto.sha256_mb_per_s", "MB/s"),
        ("crypto.merkle_tree_ns", "ns"),
        ("crypto.merkle_verify_ns", "ns"),
        ("erasure.encode_ns", "ns"),
        ("erasure.decode_ns", "ns"),
        ("harness.invariants_s", "s"),
        ("harness.report_s", "s"),
        ("trace.overhead", "ratio"),
    ] {
        list.push((name.to_string(), unit));
    }
    list
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
        spans: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// What one invocation measured.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Counts runs and fails the ones the correctness gate rejects: a panic (including
/// a Leopard invariant violation), nothing confirmed, a failed fan-out audit, a
/// replica that never confirms again, or simulated results that differ from the
/// first passing run of the same case.
struct Gate<'w> {
    workload: &'w Workload,
    attempted: u64,
    failed: u64,
    reference: Option<Outcome>,
}

impl<'w> Gate<'w> {
    fn new(workload: &'w Workload) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            reference: None,
        }
    }

    /// Judges one run; returns its outcome if it passed. The run's report is
    /// dropped here, after the caller stopped its clocks.
    fn judge(
        &mut self,
        label: &str,
        run: std::thread::Result<leopard::simnet::SimulationReport>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let failure = match run {
            Err(_) => Some("panicked (message above)".to_string()),
            Ok(sim) => {
                let outcome = Outcome::of(self.workload, &sim);
                drop(sim);
                match outcome.failure(self.reference.as_ref()) {
                    None => {
                        self.reference.get_or_insert_with(|| outcome.clone());
                        return Some(outcome);
                    }
                    failure => failure,
                }
            }
        };
        self.failed += 1;
        eprintln!(
            "{} seed {}: {label} run failed: {}",
            self.workload.name,
            self.workload.scenario.seed,
            failure.unwrap_or_default()
        );
        None
    }
}

fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// One timed scenario run through the harness's public runner.
fn scenario_run(gate: &mut Gate<'_>) -> Option<(f64, f64, Outcome)> {
    let workload = gate.workload;
    let cpu = host::cpu_secs();
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| workload.run_scenario()));
    let wall = secs(start.elapsed());
    let cpu = host::cpu_secs() - cpu;
    gate.judge("scenario", run)
        .map(|outcome| (wall, cpu, outcome))
}

/// End-to-end metrics: repeated set-ups of the first case, then scenario runs
/// cycling through the cases for `seconds` (at least `MIN_RUNS`, and every case at
/// least once), each judged by its case's gate. Host times are the median over
/// cases of each case's median run; simulated results the median over cases.
fn end_to_end(cases: &[Workload], seconds: u64) -> Report {
    let mut setup = Vec::new();
    let start = Instant::now();
    while setup.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_BUDGET {
        let (built, keygen, new) = cases[0].build(|r| r, |r| r);
        drop(built);
        setup.push(secs(keygen + new));
    }
    let mut gates: Vec<Gate<'_>> = cases.iter().map(Gate::new).collect();
    let mut runs: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); cases.len()];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut attempted, mut peak_rss_mb) = (0, 0.0);
    while attempted < MIN_RUNS.max(cases.len() as u64) || Instant::now() < deadline {
        let case = attempted as usize % cases.len();
        attempted += 1;
        if let Some((wall, cpu, _)) = scenario_run(&mut gates[case]) {
            runs[case].0.push(wall);
            runs[case].1.push(cpu);
        }
        // The peak once every case has run: repeats add only allocator
        // fragmentation, which grows with how many runs the host fits in.
        if attempted == cases.len() as u64 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let failed = gates.iter().map(|gate| gate.failed).sum();
    let report = |metrics| Report {
        attempted,
        failed,
        metrics,
    };
    let Some(outcomes) = gates
        .iter()
        .map(|gate| gate.reference.clone())
        .collect::<Option<Vec<Outcome>>>()
    else {
        return report(Vec::new());
    };
    for (case, (outcome, (walls, _))) in cases.iter().zip(outcomes.iter().zip(&runs)) {
        println!(
            "{} seed {}: {} events, {} confirmed, {} latency samples; wall per run (s): {}",
            case.name,
            case.scenario.seed,
            outcome.events,
            outcome.confirmed,
            outcome.latency_samples,
            walls
                .iter()
                .map(|wall| format!("{wall:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!(
        "{}: {attempted} scenario runs over {} cases, {failed} failed (failed_frac {})",
        cases[0].name,
        cases.len(),
        failed as f64 / attempted as f64
    );
    let per_case =
        |f: &dyn Fn(usize) -> f64| host::median(&mut (0..cases.len()).map(f).collect::<Vec<_>>());
    let values = [
        per_case(&|case| host::median(&mut runs[case].0.clone())),
        per_case(&|case| host::median(&mut runs[case].1.clone())),
        host::median(&mut setup),
        peak_rss_mb,
        per_case(&|case| outcomes[case].goodput_kreqs),
        per_case(&|case| outcomes[case].latency_p50_ms),
        per_case(&|case| outcomes[case].latency_p99_ms),
        per_case(&|case| outcomes[case].max_node_bytes_per_req),
        per_case(&|case| outcomes[case].recovery_s.unwrap_or(0.0)),
    ];
    report(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect(),
    )
}

/// Host time of each phase of one run, as the scenario runner performs them.
#[derive(Default, Clone, Copy)]
struct Phases {
    keygen: f64,
    new: f64,
    run: f64,
    invariants: f64,
    into_report: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.keygen + self.new + self.run + self.invariants + self.into_report
    }
}

/// The scenario runner's steps through the public API, each timed: key generation,
/// `Simulation::new`, `run_until`, `SystemSnapshot::capture` + `check` (Leopard)
/// and `into_report`. With `traced`, replicas are wrapped in [`Traced`].
fn phased_run(gate: &mut Gate<'_>, traced: bool) -> Option<(Phases, Outcome)> {
    let workload = gate.workload;
    let mut phases = Phases::default();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            let (built, keygen, new) = workload.build(Traced::new, Traced::new);
            (phases.keygen, phases.new) = (secs(keygen), secs(new));
            match built {
                Built::Leopard(sim) => run_phases(workload, sim, &mut phases, |_| Vec::new()),
                Built::HotStuff(sim) => run_phases(workload, sim, &mut phases, |_| Vec::new()),
            }
        } else {
            let (built, keygen, new) = workload.build(|r| r, |r| r);
            (phases.keygen, phases.new) = (secs(keygen), secs(new));
            match built {
                Built::Leopard(sim) => {
                    run_phases(workload, sim, &mut phases, |sim| workload.violations(sim))
                }
                Built::HotStuff(sim) => run_phases(workload, sim, &mut phases, |_| Vec::new()),
            }
        }
    }));
    let label = if traced { "traced" } else { "phase-timed" };
    gate.judge(label, run).map(|outcome| (phases, outcome))
}

/// `run_until`, the invariant check and `into_report` of [`phased_run`].
fn run_phases<P: leopard::simnet::Protocol>(
    workload: &Workload,
    mut sim: leopard::simnet::Simulation<P>,
    phases: &mut Phases,
    check: impl Fn(&leopard::simnet::Simulation<P>) -> Vec<String>,
) -> leopard::simnet::SimulationReport {
    let start = Instant::now();
    sim.run_until(workload.deadline(), workload.scenario.max_events);
    phases.run = secs(start.elapsed());
    let start = Instant::now();
    let violations = check(&sim);
    phases.invariants = secs(start.elapsed());
    assert!(
        violations.is_empty(),
        "invariant violations:\n{}",
        violations.join("\n")
    );
    let start = Instant::now();
    let report = sim.into_report();
    phases.into_report = secs(start.elapsed());
    report
}

/// Calls and summed self time (s) per (span kind, category index).
type SelfTimes = BTreeMap<(Kind, u8), (u64, f64)>;

/// The trace's [`SelfTimes`], and the time inside callbacks.
fn self_times(trace: &trace::Trace) -> (SelfTimes, f64) {
    let mut totals: BTreeMap<(Kind, u8), (u64, i64)> = BTreeMap::new();
    let mut callbacks_ns = 0i64;
    for span in trace.iter() {
        let entry = totals.entry((span.kind, span.category)).or_default();
        entry.0 += 1;
        entry.1 += i64::from(span.dur_ns);
        if span.parent == 0 {
            callbacks_ns += i64::from(span.dur_ns);
        } else {
            let parent = trace.get(span.parent);
            totals.entry((parent.kind, parent.category)).or_default().1 -= i64::from(span.dur_ns);
        }
    }
    let totals = totals
        .into_iter()
        .map(|(key, (calls, ns))| (key, (calls, ns as f64 / 1e9)))
        .collect();
    (totals, callbacks_ns as f64 / 1e9)
}

/// Per-layer metrics: scenario runs alternating with phase-timed runs for
/// `seconds` (at least one pair), then one traced run and the crypto/erasure
/// microbenchmarks.
fn per_layer_run(workload: &Workload, seed: u64, seconds: u64, spans: PathBuf) -> Report {
    let mut gate = Gate::new(workload);
    let (mut walls, mut plain) = (Vec::new(), Vec::<Phases>::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while gate.failed == 0 && (walls.is_empty() || Instant::now() < deadline) {
        walls.extend(scenario_run(&mut gate).map(|(wall, _, _)| wall));
        plain.extend(phased_run(&mut gate, false).map(|(phases, _)| phases));
    }
    let traced = if gate.failed == 0 {
        trace::begin();
        let traced = phased_run(&mut gate, true);
        (trace::finish(), traced)
    } else {
        (trace::Trace::default(), None)
    };
    let (trace, Some((traced_phases, outcome))) = traced else {
        return Report {
            attempted: gate.attempted,
            failed: gate.failed,
            metrics: Vec::new(),
        };
    };

    let median_of =
        |f: fn(&Phases) -> f64| host::median(&mut plain.iter().map(f).collect::<Vec<_>>());
    let wall = host::median(&mut walls);
    let plain_run = median_of(|p| p.run);
    let invariants = median_of(|p| p.invariants);
    let report_s = wall - median_of(Phases::total);
    let (totals, callbacks_s) = self_times(&trace);
    let traced_wall = traced_phases.total() + invariants + report_s;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let prefix = match workload.proto {
        Proto::Leopard => "core",
        Proto::HotStuff => "hotstuff",
    };
    let mut context_s = 0.0;
    for (&(kind, category), &(calls, self_s)) in &totals {
        let category = trace
            .categories
            .get(usize::from(category))
            .copied()
            .unwrap_or("");
        let callback = |name: String| (format!("{name}.calls"), format!("{name}.self_s"));
        let context = |name: &str| (format!("{name}.calls"), format!("{name}_s"));
        let (calls_key, time_key) = match kind {
            Kind::OnMessage => callback(format!("{prefix}.on_message.{category}")),
            Kind::OnTimer => callback(format!("{prefix}.on_timer")),
            Kind::OnStart | Kind::OnRestart => callback(format!("{prefix}.on_start")),
            Kind::Send | Kind::Multicast | Kind::Broadcast => context("simnet.send"),
            Kind::Observe => context("simnet.observe"),
            Kind::SetTimer => context("simnet.timer"),
        };
        if calls_key.starts_with("simnet.") {
            context_s += self_s;
        }
        *values.entry(calls_key).or_default() += calls as f64;
        *values.entry(time_key).or_default() += self_s;
    }
    let queries = values
        .get("core.on_message.query.calls")
        .copied()
        .unwrap_or(0.0);
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    set("simnet.events", outcome.events as f64);
    set("simnet.events_per_s", outcome.events as f64 / plain_run);
    set("simnet.self_s", traced_phases.run - callbacks_s);
    set("simnet.new_s", traced_phases.new);
    set("simnet.into_report_s", traced_phases.into_report);
    set("simnet.observations", outcome.observations as f64);
    set("simnet.fanouts_peak", outcome.fanouts_peak as f64);
    if workload.proto == Proto::Leopard {
        set(
            "core.retrieval.useful_ratio",
            if queries > 0.0 {
                outcome.retrievals as f64 / queries
            } else {
                0.0
            },
        );
        set("core.max_cpu_util", outcome.max_cpu_util);
        set("core.views_entered", outcome.views_entered as f64);
    } else {
        set("hotstuff.leader_cpu_util", outcome.leader_cpu_util);
    }
    set("crypto.keygen_s", traced_phases.keygen);
    set("harness.invariants_s", invariants);
    set("harness.report_s", report_s);
    set("trace.overhead", traced_wall / wall);
    let block_bytes = match workload.proto {
        Proto::Leopard => workload.scenario.datablock_size,
        Proto::HotStuff => workload.scenario.hotstuff_batch,
    } * workload.scenario.workload.payload_size;
    let geometry = micro::Geometry {
        n: workload.scenario.n,
        block_bytes,
    };
    for (name, value) in micro::measure(geometry, seed) {
        set(name, value);
    }

    let listed = per_layer();
    for name in values
        .keys()
        .filter(|name| !listed.iter().any(|(known, _)| known == *name))
    {
        eprintln!(
            "{}: {name} has no per-layer metric; it is counted in the accounting below only",
            workload.name
        );
    }
    println!(
        "{}: self-time accounting of the traced run (s): engine {:.3} + callbacks {:.3} + context calls {:.3} \
         + keygen {:.3} + new {:.3} + into_report {:.3} + invariants {:.3} + report {:.3} = {:.3}; \
         untraced wall_s {:.3}; trace.overhead {:.3}",
        workload.name,
        traced_phases.run - callbacks_s,
        callbacks_s - context_s,
        context_s,
        traced_phases.keygen,
        traced_phases.new,
        traced_phases.into_report,
        invariants,
        report_s,
        traced_wall,
        wall,
        traced_wall / wall
    );
    println!(
        "{}: crypto/erasure at n = {}, quorum = {}, block = {} B, beside per-category calls: {}",
        workload.name,
        geometry.n,
        2 * ((geometry.n - 1) / 3) + 1,
        block_bytes,
        totals
            .iter()
            .filter(|((kind, _), _)| *kind == Kind::OnMessage)
            .map(|((_, category), (calls, _))| format!(
                "{} {calls}",
                trace.categories[usize::from(*category)]
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match trace.write(&spans) {
        Ok(()) => println!(
            "{}: wrote {} spans to {}",
            workload.name,
            trace.len(),
            spans.display()
        ),
        Err(error) => eprintln!(
            "{}: could not write spans to {}: {error}",
            workload.name,
            spans.display()
        ),
    }

    Report {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: listed
            .into_iter()
            .map(|(name, unit)| {
                let value = values.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect(),
    }
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb` is that
/// workload's own peak), one after another, each printing its own result line.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = 0;
    for name in workload::NAMES {
        println!("== {name}");
        let mut command = std::process::Command::new(&exe);
        command.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        command.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(spans) = &args.spans {
            command
                .arg("--spans")
                .arg(spans.join(format!("{name}.bin")));
        }
        if !command
            .status()
            .expect("spawn a workload process")
            .success()
        {
            failed += 1;
        }
    }
    i32::from(failed > 0)
}

fn main() {
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("leopard-perfbench: {error}");
        std::process::exit(2);
    });
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(cases) = workload::cases(&args.workload, args.seed) else {
        eprintln!(
            "leopard-perfbench: unknown workload {} (one of: {}, all)",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let report = if args.trace {
        let spans = args.spans.clone().unwrap_or_else(|| {
            let exe = std::env::current_exe().expect("own executable path");
            exe.with_file_name("spans")
                .join(format!("{}.bin", cases[0].name))
        });
        per_layer_run(&cases[0], args.seed, args.seconds, spans)
    } else {
        end_to_end(&cases, args.seconds)
    };
    report.print();
    std::process::exit(i32::from(report.failed > 0));
}
