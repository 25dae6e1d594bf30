//! The benchmark's three workloads, the public-API replay of the scenario runners
//! that the timed phases and the traced run need, and the simulated results every
//! run is checked and reported on.

use leopard::core::config::WorkloadMode;
use leopard::core::{LeopardConfig, LeopardReplica};
use leopard::crypto::provider::CryptoMode;
use leopard::harness::experiments::FIG9GEO_REGIONS;
use leopard::harness::invariants::SystemSnapshot;
use leopard::harness::scenario::{run_hotstuff_scenario, run_leopard_scenario, ScenarioConfig};
use leopard::harness::workload::WorkloadConfig;
use leopard::hotstuff::{HotStuffConfig, HotStuffReplica};
use leopard::simnet::{
    FaultPlan, NetworkConfig, ObservationKind, Protocol, SimDuration, SimTime, Simulation,
    SimulationReport,
};
use leopard::types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["lan-n1000-saturated", "fault-wan-n32", "hotstuff-n600"];

/// Which protocol a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Leopard, through `run_leopard_scenario` (invariant-checked).
    Leopard,
    /// The HotStuff baseline, through `run_hotstuff_scenario`.
    HotStuff,
}

/// One workload: a protocol plus the scenario it runs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Protocol under test.
    pub proto: Proto,
    /// The scenario, seeded from the benchmark seed and the case index.
    pub scenario: ScenarioConfig,
}

/// The cases of workload `name` for benchmark seed `seed`, or `None` for an unknown
/// name. Case `i` runs the workload's scenario with simulation seed `100 * seed + i`.
///
/// How much a run's simulated results (and the work behind them) vary with the
/// simulation seed differs by workload, so each has its own case count: enough
/// cases that the median over them is steady from one benchmark seed to the next.
pub fn cases(name: &str, seed: u64) -> Option<Vec<Workload>> {
    let (name, proto, scenario, cases) = match name {
        // The `fig9xlsmoke` cell: Leopard at n = 1000 on the flat LAN with metered
        // crypto, saturated for 3 s. The engine does most of the host work here. The
        // run is one dissemination wave (each replica's pacing interval is 30.7 s), so
        // its events and host time move by ±30% between simulation seeds; it is left
        // out of BENCHMARK.json and run by name (see README.md).
        "lan-n1000-saturated" => (
            NAMES[0],
            Proto::Leopard,
            ScenarioConfig::paper(1000).with_max_events(400_000_000),
            5,
        ),
        // Real threshold crypto, RS erasure and Merkle on the 4-region WAN, with the
        // initial leader crashing early and one datablock-withholding attacker: the
        // view-change, retrieval and state-transfer paths run, and crypto does most
        // of the host work. Load and batches follow fig13's recovery matrix.
        "fault-wan-n32" => (
            NAMES[1],
            Proto::Leopard,
            ScenarioConfig::paper(32)
                .with_workload(WorkloadConfig {
                    aggregate_rps: 20_000,
                    payload_size: 128,
                })
                .with_batches(200, 10)
                .with_wan_regions(&FIG9GEO_REGIONS)
                .with_crypto_mode(CryptoMode::Real)
                .with_leader_crash_at(SimDuration::from_secs(1))
                .with_selective_attackers(1)
                .with_duration(SimDuration::from_secs(10)),
            12,
        ),
        // The HotStuff baseline at the paper's rate, which overloads it at n = 600:
        // its latency measures backlog growth, so the 30 s simulated duration is part
        // of the workload's definition.
        "hotstuff-n600" => (
            NAMES[2],
            Proto::HotStuff,
            ScenarioConfig::paper(600).with_duration(SimDuration::from_secs(30)),
            1,
        ),
        _ => return None,
    };
    assert_supported(&scenario);
    let cases = (0..cases)
        .map(|case| Workload {
            name,
            proto,
            scenario: scenario
                .clone()
                .with_seed(seed.wrapping_mul(100).wrapping_add(case)),
        })
        .collect();
    Some(cases)
}

/// The replay below covers the scenario features the workloads use; a workload that
/// reaches for another one must extend the replay first. (A replay that drifts from
/// the runner anyway fails the gate, which holds every replay to the runner's
/// simulated results.)
fn assert_supported(s: &ScenarioConfig) {
    assert!(
        s.cores == 1
            && s.slow_replicas == 0
            && s.straggler_fraction == 0.0
            && s.byzantine.is_empty()
            && s.crash_restarts.is_empty()
            && s.partitions.is_empty(),
        "the benchmark's scenario replay does not cover this workload's features"
    );
}

/// A set-up simulation: what `LeopardConfig::shared_keys` / `HotStuffConfig::shared_keys`
/// plus `Simulation::new` produce, for either protocol and either replica wrapper.
pub enum Built<L: Protocol, H: Protocol> {
    /// A Leopard simulation.
    Leopard(Simulation<L>),
    /// A HotStuff simulation.
    HotStuff(Simulation<H>),
}

impl Workload {
    /// Runs the scenario exactly as a user of the harness would, returning its
    /// simulation report. Leopard runs panic on any invariant violation.
    pub fn run_scenario(&self) -> SimulationReport {
        match self.proto {
            Proto::Leopard => run_leopard_scenario(&self.scenario).sim,
            Proto::HotStuff => run_hotstuff_scenario(&self.scenario).sim,
        }
    }

    /// `ScenarioConfig::network`, replayed through public builders.
    fn network(&self) -> NetworkConfig {
        let s = &self.scenario;
        let mut config = match s.bandwidth_mbps {
            Some(mbps) => NetworkConfig::throttled(s.n, mbps),
            None => NetworkConfig::datacenter(s.n),
        };
        if let Some(topology) = s.effective_topology() {
            config = config.with_topology(topology);
        }
        config.with_seed(s.seed)
    }

    /// `ScenarioConfig::faults`, replayed: the selective attackers are the highest
    /// replica ids other than the initial leader.
    fn faults(&self) -> FaultPlan {
        let s = &self.scenario;
        let leader = s.initial_leader();
        let mut plan = if s.selective_attackers > 0 {
            let quorum = 2 * ((s.n - 1) / 3) + 1;
            let attackers = (0..s.n as u32)
                .rev()
                .map(NodeId)
                .filter(|&id| id != leader)
                .take(s.selective_attackers)
                .collect();
            FaultPlan::selective_attack(attackers, "datablock", quorum)
        } else {
            FaultPlan::none()
        };
        if let Some(at) = s.leader_crash_at {
            plan = plan.with_crash(leader, SimTime::ZERO + at);
        }
        plan
    }

    /// `ScenarioConfig::leopard_config`, replayed (saturated pacing and the
    /// scale- and WAN-aware retrieval timeout).
    fn leopard_config(&self) -> LeopardConfig {
        let s = &self.scenario;
        let mut config = LeopardConfig::paper(s.n, s.workload.aggregate_rps);
        config.params.payload_size = s.workload.payload_size;
        config.params.datablock_size = s.datablock_size;
        config.params.bftblock_size = s.bftblock_size;
        config.params.proposers = s.proposers;
        let producers = (s.n - s.proposers.max(1)).max(1) as f64;
        let pacing_secs =
            producers * s.datablock_size as f64 / s.workload.aggregate_rps.max(1) as f64;
        config.workload = WorkloadMode::Saturated {
            pacing: SimDuration::from_secs_f64(pacing_secs),
        };
        config.crypto_mode = s.crypto_mode;
        config.cost_model = s.cost_model;
        if let Some(timeout) = s.progress_timeout {
            config.progress_timeout = timeout;
        }
        config.workload_stop = s.workload_stop;
        let network = self.network();
        let min_uplink_bps = network
            .resolve()
            .links
            .iter()
            .map(|link| {
                if link.uplink_bps == 0 {
                    u64::MAX
                } else {
                    link.uplink_bps
                }
            })
            .min()
            .unwrap_or(u64::MAX);
        let datablock_bytes = (s.datablock_size * s.workload.payload_size) as f64;
        let dissemination_secs = if min_uplink_bps == u64::MAX {
            0.0
        } else {
            (s.n - 1) as f64 * datablock_bytes * 8.0 / min_uplink_bps as f64
        };
        let wan_headroom = network
            .topology
            .as_ref()
            .map(|topology| topology.max_one_way_latency().saturating_mul(4))
            .unwrap_or(SimDuration::ZERO);
        config.retrieval_timeout = config
            .retrieval_timeout
            .max(SimDuration::from_secs_f64(3.0 * dissemination_secs) + wan_headroom);
        config
    }

    /// `ScenarioConfig::hotstuff_config`, replayed.
    fn hotstuff_config(&self) -> HotStuffConfig {
        let s = &self.scenario;
        let mut config = HotStuffConfig::paper(s.n, s.workload.aggregate_rps);
        config.payload_size = s.workload.payload_size;
        config.batch_size = s.hotstuff_batch;
        config.crypto_mode = s.crypto_mode;
        config.cost_model = s.cost_model;
        config
    }

    /// Key generation plus `Simulation::new`, with each replica passed through
    /// `leopard` / `hotstuff`. Returns the simulation and the time key generation
    /// and `Simulation::new` took.
    pub fn build<L: Protocol, H: Protocol>(
        &self,
        leopard: impl Fn(LeopardReplica) -> L,
        hotstuff: impl Fn(HotStuffReplica) -> H,
    ) -> (Built<L, H>, std::time::Duration, std::time::Duration) {
        let s = &self.scenario;
        let (network, faults) = (self.network(), self.faults());
        match self.proto {
            Proto::Leopard => {
                let config = self.leopard_config();
                let start = std::time::Instant::now();
                let keys = LeopardConfig::shared_keys(&config, s.seed);
                let keygen = start.elapsed();
                let start = std::time::Instant::now();
                let sim = Simulation::new(network, faults, |id| {
                    leopard(LeopardReplica::new(id, config.clone(), keys.clone()))
                });
                (Built::Leopard(sim), keygen, start.elapsed())
            }
            Proto::HotStuff => {
                let config = self.hotstuff_config();
                let start = std::time::Instant::now();
                let keys = config.shared_keys(s.seed);
                let keygen = start.elapsed();
                let start = std::time::Instant::now();
                let sim = Simulation::new(network, faults, |id| {
                    hotstuff(HotStuffReplica::new(id, config.clone(), keys.clone()))
                });
                (Built::HotStuff(sim), keygen, start.elapsed())
            }
        }
    }

    /// The simulated end of the run.
    pub fn deadline(&self) -> SimTime {
        SimTime::ZERO + self.scenario.duration
    }

    /// `SystemSnapshot::capture` + `check` with the scenario runner's arguments,
    /// rendered; empty when every invariant holds.
    pub fn violations(&self, sim: &Simulation<LeopardReplica>) -> Vec<String> {
        let s = &self.scenario;
        let stall_bound = s
            .liveness_bound
            .unwrap_or_else(|| self.leopard_config().progress_timeout.saturating_mul(4));
        SystemSnapshot::capture(
            sim,
            s.n,
            s.quiet_after(),
            stall_bound,
            s.disturbance_count(),
            s.effective_view_thrash_bound(),
        )
        .check()
        .iter()
        .map(ToString::to_string)
        .collect()
    }

    /// Replicas that cannot confirm at the end of the run: the crashed initial
    /// leader, if the scenario crashes it.
    fn crashed(&self) -> Option<NodeId> {
        self.scenario
            .leader_crash_at
            .map(|_| self.scenario.initial_leader())
    }
}

/// Everything simulated about one run. Two runs of one workload and seed must agree
/// on all of it, bit for bit, whichever way they were run (scenario runner, timed
/// replay or traced replay).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Events the engine processed.
    pub events: u64,
    /// Requests confirmed by the most advanced replica.
    pub confirmed: u64,
    /// Per traffic category: bytes and messages sent, summed over replicas.
    pub traffic: BTreeMap<&'static str, (u64, u64)>,
    /// Client latency samples recorded.
    pub latency_samples: u64,
    /// Steady-state goodput (warm-up excluded), Kreq/s.
    pub goodput_kreqs: f64,
    /// Median client latency, ms.
    pub latency_p50_ms: f64,
    /// 99th-percentile client latency, ms.
    pub latency_p99_ms: f64,
    /// Bytes sent plus received by the busiest replica, per confirmed request.
    pub max_node_bytes_per_req: f64,
    /// Seconds from the last scheduled disturbance (the start of the run if there
    /// is none) until every replica that can confirm has confirmed again.
    pub recovery_s: Option<f64>,
    /// Distinct views entered by any replica.
    pub views_entered: u64,
    /// Datablock retrievals completed.
    pub retrievals: u64,
    /// Highest per-replica modeled CPU utilization.
    pub max_cpu_util: f64,
    /// The initial leader's modeled CPU utilization.
    pub leader_cpu_util: f64,
    /// Observation-log length at the end of the run.
    pub observations: u64,
    /// Peak fan-out table size.
    pub fanouts_peak: u64,
    /// The engine's fan-out reference audit.
    pub fanouts_balanced: bool,
}

impl Outcome {
    /// Distils a run's simulation report with the harness's own accessors where
    /// they exist (goodput, percentiles, utilization) and fig13's recovery rule.
    pub fn of(workload: &Workload, sim: &SimulationReport) -> Self {
        let s = &workload.scenario;
        let n = s.n;
        let confirmed = sim.metrics.max_confirmed_requests(n);
        let mut traffic = BTreeMap::new();
        for (_, category, bytes, messages) in sim.metrics.traffic.iter_sent() {
            let entry = traffic.entry(category).or_insert((0, 0));
            entry.0 += bytes;
            entry.1 += messages;
        }
        let busiest = (0..n as u32)
            .map(|i| {
                sim.metrics.traffic.sent_bytes(NodeId(i))
                    + sim.metrics.traffic.received_bytes(NodeId(i))
            })
            .max()
            .unwrap_or(0);
        // Exact nearest-rank percentiles over every sample. The report's 1/16-octave
        // histogram would read the same bucket midpoint for every seed of a workload
        // (and hide any move smaller than a bucket).
        let mut latencies = sim.metrics.latency_samples();
        latencies.sort_unstable();
        let ms = |p: f64| {
            let rank =
                ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len().max(1));
            latencies
                .get(rank - 1)
                .map_or(0.0, |&nanos| nanos as f64 / 1e6)
        };

        // fig13's `recovery_secs`: the instant every replica has confirmed at or after
        // the last disturbance. Replicas crashed at the end of the run are skipped.
        let quiet = s.quiet_after();
        let mut first: Vec<Option<SimTime>> = vec![None; n];
        let mut views = BTreeSet::new();
        let mut retrievals = 0;
        for observation in &sim.metrics.observations {
            match observation.kind {
                ObservationKind::RequestsConfirmed { .. } if observation.at >= quiet => {
                    let slot = &mut first[observation.node.as_index()];
                    if slot.is_none_or(|at| observation.at < at) {
                        *slot = Some(observation.at);
                    }
                }
                ObservationKind::ViewChange { view } => {
                    views.insert(view);
                }
                ObservationKind::RetrievalCompleted { .. } => retrievals += 1,
                _ => {}
            }
        }
        let crashed = workload.crashed();
        let recovery_s = first
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(NodeId(i as u32)) != crashed)
            .try_fold(SimTime::ZERO, |worst, (_, at)| at.map(|at| worst.max(at)))
            .map(|worst| worst.saturating_since(quiet).as_secs_f64());

        Self {
            events: sim.events,
            confirmed,
            traffic,
            latency_samples: latencies.len() as u64,
            goodput_kreqs: sim.steady_state_throughput_rps(s.effective_warmup()) / 1e3,
            latency_p50_ms: ms(0.50),
            latency_p99_ms: ms(0.99),
            max_node_bytes_per_req: if confirmed == 0 {
                0.0
            } else {
                busiest as f64 / confirmed as f64
            },
            recovery_s,
            views_entered: views.len() as u64,
            retrievals,
            max_cpu_util: sim.max_compute_utilization(),
            leader_cpu_util: sim.compute_utilization(s.initial_leader()),
            observations: sim.metrics.observations.len() as u64,
            fanouts_peak: sim.fanouts_peak as u64,
            fanouts_balanced: sim.fanouts_balanced,
        }
    }

    /// Why this run counts as failed, if it does. `reference` is the first
    /// successful run of the same workload and seed in this process.
    pub fn failure(&self, reference: Option<&Outcome>) -> Option<String> {
        if self.confirmed == 0 {
            return Some("confirmed nothing".into());
        }
        if !self.fanouts_balanced {
            return Some("fan-out reference audit failed".into());
        }
        if self.recovery_s.is_none() {
            return Some("a replica never confirmed after the last disturbance".into());
        }
        match reference {
            Some(reference) if reference != self => Some(format!(
                "simulated results differ from the first run of this workload:\n  first: {reference:?}\n  this:  {self:?}"
            )),
            _ => None,
        }
    }
}
