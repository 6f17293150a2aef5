//! **sharded_scaling** — the scaling curve of the sharded parallel
//! engine on the paper-scale fabric: a k = 16 fat-tree (1024 hosts)
//! under cross-pod permutation traffic, on the sequential engine and at
//! each worker count on [`gfc_sim::ShardedNetwork`] with the pod
//! partition. The points form one interleaved group of
//! [`gfc_bench::measure`]: every round runs each of them once, so the
//! speedup ratios compare runs made within one round of each other,
//! not a whole curve apart. Every sharded run's replay fingerprint
//! (event count + full metrics snapshot) is asserted bit-identical to
//! the sequential run's — the speedup must come from the schedule,
//! never the simulation.
//!
//! Each cell also records what the network costs to build: the best
//! set-up wall time (`setup_ms`: `Network::new`/`ShardedNetwork::new`
//! plus starting every flow) and `rss_growth_mb`, the smallest growth of
//! the process's resident set (`VmRSS`) over its value before the first
//! build, measured right after each build. The allocator may keep memory
//! an earlier build freed, so a cell's figure can include some of it, but
//! never hides the cell's own network.
//!
//! Writes `BENCH_scaling.json` at the repo root and appends one
//! trajectory line (`ft_k16:scaling:seq`, `:w1`, `:w2`, ...) to
//! `BENCH_history.jsonl`, so the speedup curve accumulates next to the
//! `bench_matrix` numbers.
//!
//! Wall-clock speedup is bounded by the machine: with `N` cores the
//! curve flattens at `N` workers, and on a single-core runner the
//! parallel points only measure synchronization overhead (the `w1`
//! point still isolates the per-domain-heap effect). The ≥2× gate on
//! the 8-worker point therefore arms only when the host actually has 8
//! cores — set `GFC_SCALING_REQUIRE=speedup` to force a custom floor.
//!
//! Environment knobs: the shared ones of [`gfc_bench`] (the output
//! defaults to `<repo root>/BENCH_scaling.json`), plus
//! `GFC_SCALING_REQUIRE`.

use gfc_bench::{
    bench_json, cell_json, measure, record_history, rss_mb, run_meta, Cell, Measurement,
};
use gfc_core::units::Time;
use gfc_experiments::common::{sim_config_300k, Scheme};
use gfc_sim::{Network, ShardedNetwork, TraceConfig};
use gfc_topology::fattree::FatTree;
use gfc_topology::{NodeId, Partition, Routing};

/// Worker counts of the scaling curve.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The measured fabric: a healthy k = 16 fat-tree. No failure injection —
/// the curve should measure engine scaling, not a particular degraded
/// topology (the degraded k = 8 case is a `bench_matrix` cell).
fn fabric() -> FatTree {
    FatTree::new(16)
}

/// Cross-pod permutation: host `i` sends to host `i + H/2 (mod H)`, a
/// half-rotation that puts every flow's endpoints eight pods apart, so
/// all traffic crosses the core and every pod domain both sources and
/// sinks. Greedy (unbounded) flows keep the fabric saturated for the
/// whole horizon — steady state, not drain tails.
fn flows(ft: &FatTree) -> Vec<(NodeId, NodeId)> {
    let h = ft.hosts.len();
    (0..h).map(|i| (ft.hosts[i], ft.hosts[(i + h / 2) % h])).collect()
}

fn seq_net(ft: &FatTree) -> Network {
    let cfg = sim_config_300k(Scheme::GfcBuffer, 4242);
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    for &(s, d) in &flows(ft) {
        net.start_flow(s, d, None, 0).expect("cross-pod route");
    }
    net
}

fn sharded_net(ft: &FatTree, part: &Partition, workers: usize) -> ShardedNetwork {
    let cfg = sim_config_300k(Scheme::GfcBuffer, 4242);
    let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg, part, workers);
    for &(s, d) in &flows(ft) {
        net.start_flow(s, d, None, 0).expect("cross-pod route");
    }
    net
}

fn print_point(p: &Measurement, speedup: Option<f64>, rss_base_mb: f64) {
    print!(
        "  {:<22} {:>10} events in {:>9.2} ms wall  =>  {:>11.0} events/sec",
        p.name, p.events, p.wall_ms, p.events_per_sec
    );
    if let Some(x) = speedup {
        print!("  ({x:>5.2}x)");
    }
    println!("  set-up {:>8.2} ms, +{:.1} MB RSS", p.setup_ms, p.rss_mb - rss_base_mb);
}

fn main() {
    let smoke = std::env::var("GFC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let runs: usize =
        std::env::var("GFC_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let mode = if smoke { "smoke" } else { "full" };
    // The k = 16 permutation generates a few million events per simulated
    // millisecond; the smoke horizon keeps the whole curve CI-sized.
    let horizon = if smoke { Time::from_micros(150) } else { Time::from_micros(600) };
    println!("sharded_scaling ({mode}, {runs} runs per point, horizon {horizon:?})");

    let ft = fabric();
    let part = Partition::by_pods(&ft);
    println!(
        "  fat-tree k=16: {} nodes, {} flows, {} domains",
        ft.topo.num_nodes(),
        flows(&ft).len(),
        part.num_domains()
    );

    let (ft, part) = (&ft, &part);
    let mut cells = vec![Cell::new("ft_k16:scaling:seq", horizon, || seq_net(ft))];
    for w in WORKERS {
        cells.push(Cell::new(format!("ft_k16:scaling:w{w}"), horizon, move || {
            sharded_net(ft, part, w)
        }));
    }
    let rss_base = rss_mb();
    let points = measure(&cells, runs);
    let seq = &points[0];
    print_point(seq, None, rss_base);
    for (p, w) in points[1..].iter().zip(WORKERS) {
        // The sharded engine replays the *same simulation* at every
        // worker count.
        assert_eq!(p.events, seq.events, "w{w}: event count diverged from sequential");
        assert_eq!(p.metrics, seq.metrics, "w{w}: metrics snapshot diverged from sequential");
        print_point(p, Some(seq.wall_ms / p.wall_ms), rss_base);
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let max_w = *WORKERS.last().expect("worker list non-empty");
    let best = points.last().expect("points non-empty");
    let speedup = seq.wall_ms / best.wall_ms;
    // Arm the speedup floor only where the hardware can express it.
    let required: Option<f64> = std::env::var("GFC_SCALING_REQUIRE")
        .ok()
        .and_then(|v| v.parse().ok())
        .or(if cores >= max_w { Some(2.0) } else { None });
    match required {
        Some(floor) => {
            println!("  speedup at w{max_w}: {speedup:.2}x (floor {floor:.1}x, {cores} cores)");
            assert!(
                speedup >= floor,
                "scaling floor missed: {speedup:.2}x < {floor:.1}x at {max_w} workers"
            );
        }
        None => println!(
            "  speedup at w{max_w}: {speedup:.2}x ({cores} cores — floor not armed below {max_w})"
        ),
    }

    let meta = run_meta();
    let lines: Vec<String> = points
        .iter()
        .map(|p| {
            let extra = format!(
                "\"setup_ms\": {:.3}, \"rss_growth_mb\": {:.1}, ",
                p.setup_ms,
                p.rss_mb - rss_base
            );
            cell_json(p, &extra)
        })
        .collect();
    let out = std::env::var("GFC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scaling.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, bench_json("sharded_scaling", &meta, mode, runs, &lines))
        .expect("write BENCH_scaling.json");
    println!("wrote {out}");
    record_history("sharded_scaling", &meta, mode, &points);
}
