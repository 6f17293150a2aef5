//! The three benchmark workloads: input generation from a seed, and the
//! set-up/run code shared by the timed, traced and recording passes.
//!
//! A seed selects one of [`VARIANTS`] input variants (`seed % VARIANTS`).
//! Each variant is a complete, deterministic scenario whose simulated
//! outcome is recorded in `digests.tsv`, so every run can be checked
//! exactly whatever seed it was given.

use gfc_core::units::Time;
use gfc_experiments::common::{sim_config_300k, sim_config_testbed, Scheme};
use gfc_sim::{ClosedLoopWorkload, Network, ShardedNetwork, SimConfig, TraceConfig};
use gfc_telemetry::{Snapshot, TelemetryConfig};
use gfc_topology::cbd::all_pairs_depgraph;
use gfc_topology::fattree::FatTree;
use gfc_topology::{NodeId, Partition, Ring, Routing, Topology};
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input variants per workload; a seed picks `seed % VARIANTS`.
pub const VARIANTS: u64 = 16;

/// The accepted candidate of the k = 8 failure search that starts after
/// seed 4242: the first connected, CBD-free fabric under 5 % link
/// failures. Pinned so that set-up time measures the simulator rather than
/// the search; [`ft8_search`] re-runs the search, and an ignored
/// self-check asserts that it still lands here.
pub const FT8_FAILURE_SEED: u64 = 4649;

/// Simulator seeds of the `ft8_enterprise_pfc` variants (the seed drives
/// the closed-loop flow-size and destination draws). The enterprise size
/// distribution is heavy-tailed, so over 20 simulated ms the event count of
/// a seed ranges ±8 % around the median; these sixteen, taken from a scan
/// of seeds 4242..4306, lie within ±1 % of it, so the variant changes the
/// flows but not the amount of work. 4242 is the historic bench seed.
pub const FT8_WORKLOAD_SEEDS: [u64; VARIANTS as usize] = [
    4242, 4253, 4256, 4258, 4259, 4263, 4273, 4274, 4276, 4279, 4280, 4285, 4290, 4297, 4298, 4302,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 9 ring under buffer-based GFC: three staggered greedy
    /// clockwise flows on the cyclic route.
    Ring3Gfc,
    /// A failed, CBD-free k = 8 fat-tree under PFC with a closed-loop
    /// enterprise workload to inter-rack destinations.
    Ft8EnterprisePfc,
    /// A healthy k = 8 fat-tree with a cross-pod greedy permutation under
    /// buffer-based GFC, on the sharded engine with one worker pinned to
    /// one CPU (see [`crate::measure::pin_single_worker`]).
    Ft8PermW1,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Ring3Gfc, Kind::Ft8EnterprisePfc, Kind::Ft8PermW1];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ring3Gfc => "ring3_gfc",
            Kind::Ft8EnterprisePfc => "ft8_enterprise_pfc",
            Kind::Ft8PermW1 => "ft8_perm_w1",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The fixed simulated horizon of one run.
    pub fn horizon(self) -> Time {
        match self {
            Kind::Ring3Gfc => Time::from_millis(1000),
            Kind::Ft8EnterprisePfc => Time::from_millis(20),
            Kind::Ft8PermW1 => Time::from_millis(8),
        }
    }

    /// The engine the timed runs use.
    pub fn engine(self) -> Engine {
        match self {
            Kind::Ft8PermW1 => Engine::Sharded(1),
            _ => Engine::Seq,
        }
    }

    /// Fixed simulated slices a timed run is cut into. Each slice is timed
    /// on its own, so that a slice the host slowed down can be told apart
    /// from the program (see `passes::timed`). The sharded engine starts its
    /// worker threads on every `run_until`, so its slices are longer.
    pub fn slices(self) -> u64 {
        match self {
            Kind::Ft8PermW1 => 1000,
            _ => 10_000,
        }
    }

    /// Set-ups per measured process: enough that the median is steady,
    /// few enough that set-up stays a small part of the process.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::Ring3Gfc => 100,
            Kind::Ft8EnterprisePfc => 5,
            Kind::Ft8PermW1 => 5,
        }
    }
}

/// Which engine runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential [`Network`].
    Seq,
    /// [`ShardedNetwork`] over the pod partition with this many workers.
    Sharded(usize),
}

impl Engine {
    /// Name used on the command line (`seq`, `w1`, `w2`, ...).
    pub fn name(self) -> String {
        match self {
            Engine::Seq => "seq".into(),
            Engine::Sharded(w) => format!("w{w}"),
        }
    }

    /// Parse [`Engine::name`].
    pub fn parse(s: &str) -> Option<Engine> {
        if s == "seq" {
            return Some(Engine::Seq);
        }
        s.strip_prefix('w').and_then(|w| w.parse().ok()).filter(|&w| w > 0).map(Engine::Sharded)
    }
}

/// A greedy flow the scenario starts explicitly at `start`.
#[derive(Debug, Clone, Copy)]
pub struct GreedyFlow {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Simulated start instant.
    pub start: Time,
}

/// Everything the simulator receives for one workload variant.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The input variant (`seed % VARIANTS`).
    pub variant: u64,
    /// The fabric.
    pub topo: Topology,
    /// Routing, with an empty cache.
    pub routing: Routing,
    /// Simulator configuration (default telemetry).
    pub cfg: SimConfig,
    /// Explicit greedy flows, sorted by start time.
    pub flows: Vec<GreedyFlow>,
    /// Closed-loop workload installed at set-up, if any.
    pub workload: Option<ClosedLoopWorkload>,
    /// Domain partition for the sharded engine, if the workload has one.
    pub partition: Option<Partition>,
    /// The simulated horizon of a run.
    pub horizon: Time,
}

/// The failed k = 8 fat-tree drawn from failure seed `seed`.
pub fn ft8_fabric(seed: u64) -> FatTree {
    let mut ft = FatTree::new(8);
    let mut rng = StdRng::seed_from_u64(seed);
    ft.inject_failures(&mut rng, 0.05);
    ft
}

/// The k = 8 failure search: the first seed after 4242 whose fabric keeps
/// every host connected and has no cyclic buffer dependency. Returns the
/// accepted seed and the number of candidates tried.
pub fn ft8_search() -> (u64, u64) {
    let mut seed = 4242u64;
    let mut tried = 0;
    loop {
        seed += 1;
        tried += 1;
        let ft = ft8_fabric(seed);
        if ft.topo.hosts_connected() && all_pairs_depgraph(&ft.topo).find_cycle().is_none() {
            return (seed, tried);
        }
    }
}

/// Generate the inputs of `kind` for `seed`.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let variant = seed % VARIANTS;
    let horizon = kind.horizon();
    match kind {
        Kind::Ring3Gfc => {
            let ring = Ring::new(3);
            // Staggered starts, 400–775 µs apart: the wedge-forming order of
            // the Fig. 9 testbed, with the spacing varied per variant.
            let stagger = Time::from_micros(400 + 25 * variant);
            let flows = ring
                .clockwise_flows()
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst))| GreedyFlow { src, dst, start: Time(stagger.0 * i as u64) })
                .collect();
            Inputs {
                kind,
                variant,
                routing: Routing::fixed(ring.clockwise_routes()),
                topo: ring.topo,
                cfg: sim_config_testbed(Scheme::GfcBuffer, 9 + variant),
                flows,
                workload: None,
                partition: None,
                horizon,
            }
        }
        Kind::Ft8EnterprisePfc => {
            let ft = ft8_fabric(FT8_FAILURE_SEED);
            assert!(ft.topo.hosts_connected(), "pinned k=8 fabric lost connectivity");
            let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
            Inputs {
                kind,
                variant,
                routing: Routing::spf(),
                cfg: sim_config_300k(Scheme::Pfc, FT8_WORKLOAD_SEEDS[variant as usize]),
                flows: Vec::new(),
                workload: Some(ClosedLoopWorkload {
                    sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
                    dests: DestPolicy::inter_rack(racks),
                    num_hosts: ft.hosts.len(),
                    prio: 0,
                    stop_after: None,
                }),
                partition: None,
                topo: ft.topo,
                horizon,
            }
        }
        Kind::Ft8PermW1 => {
            let ft = FatTree::new(8);
            let h = ft.hosts.len();
            // A rotation by 1..=7 whole pods (16 hosts each): every flow
            // leaves its pod, every host sends once and receives once, and
            // each flow keeps its position within the pod, so the ECMP load
            // (and the event count) is nearly the same for every rotation.
            // Variant 0 is the half rotation.
            let shift = 16 * (1 + (3 + variant as usize) % 7);
            let flows = (0..h)
                .map(|i| GreedyFlow {
                    src: ft.hosts[i],
                    dst: ft.hosts[(i + shift) % h],
                    start: Time::ZERO,
                })
                .collect();
            Inputs {
                kind,
                variant,
                routing: Routing::spf(),
                cfg: sim_config_300k(Scheme::GfcBuffer, 4242 + variant),
                flows,
                workload: None,
                partition: Some(Partition::by_pods(&ft)),
                topo: ft.topo,
                horizon,
            }
        }
    }
}

/// End of slice `k` (1-based) of `slices` equal slices of `horizon`; the
/// last one ends exactly at the horizon.
pub fn slice_end(horizon: Time, slices: u64, k: u64) -> Time {
    Time(horizon.0 / slices * k + if k == slices { horizon.0 % slices } else { 0 })
}

/// A built scenario on either engine.
pub enum Sim {
    /// Sequential engine.
    Seq(Box<Network>),
    /// Sharded engine.
    Sharded(ShardedNetwork),
}

/// A built scenario and its run cursor.
pub struct Scenario {
    /// The simulator.
    pub sim: Sim,
    next_flow: usize,
}

/// Build `inputs` on `engine` with telemetry `tel`: construct the network
/// (preflight included), install the workload, and start every flow due at
/// time zero. This is what `setup_s` times.
pub fn build(inputs: &Inputs, engine: Engine, tel: TelemetryConfig) -> Scenario {
    let mut d = Scenario::new(inputs, engine, tel);
    d.install(inputs);
    d
}

impl Scenario {
    /// Construct the network alone (`Network::new` or
    /// `ShardedNetwork::new`, preflight included).
    pub fn new(inputs: &Inputs, engine: Engine, tel: TelemetryConfig) -> Scenario {
        let mut cfg = inputs.cfg.clone();
        cfg.telemetry = tel;
        let (topo, routing) = (inputs.topo.clone(), inputs.routing.clone());
        let sim = match engine {
            Engine::Seq => {
                Sim::Seq(Box::new(Network::new(topo, routing, cfg, TraceConfig::none())))
            }
            Engine::Sharded(workers) => {
                let part = inputs.partition.as_ref().expect("sharded engine needs a partition");
                Sim::Sharded(ShardedNetwork::new(topo, routing, cfg, part, workers))
            }
        };
        Scenario { sim, next_flow: 0 }
    }

    /// Install the closed-loop workload, if any, and start every explicit
    /// flow due at time zero.
    pub fn install(&mut self, inputs: &Inputs) {
        if let Some(w) = &inputs.workload {
            match &mut self.sim {
                Sim::Seq(net) => net.install_workload(Box::new(w.clone())),
                Sim::Sharded(_) => panic!("sharded engine v1 takes explicit flows only"),
            }
        }
        self.start_due(inputs, Time::ZERO);
    }

    fn start_due(&mut self, inputs: &Inputs, t: Time) {
        while let Some(f) = inputs.flows.get(self.next_flow).filter(|f| f.start <= t) {
            let id = match &mut self.sim {
                Sim::Seq(net) => net.start_flow(f.src, f.dst, None, 0),
                Sim::Sharded(net) => net.start_flow(f.src, f.dst, None, 0),
            };
            id.expect("every benchmark flow has a route");
            self.next_flow += 1;
        }
    }

    /// Advance the simulation to `t`, starting each explicit flow at its
    /// start instant on the way.
    pub fn advance(&mut self, inputs: &Inputs, t: Time) {
        while let Some(start) =
            inputs.flows.get(self.next_flow).map(|f| f.start).filter(|&s| s <= t)
        {
            self.run_until(start);
            self.start_due(inputs, start);
        }
        self.run_until(t);
    }

    fn run_until(&mut self, t: Time) {
        match &mut self.sim {
            Sim::Seq(net) => net.run_until(t),
            Sim::Sharded(net) => net.run_until(t),
        }
    }

    /// The metrics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        match &self.sim {
            Sim::Seq(net) => net.metrics_snapshot(),
            Sim::Sharded(net) => net.metrics_snapshot(),
        }
    }
}
