//! The two passes behind one benchmark invocation: the timed pass
//! (end-to-end metrics, tracing off, one fresh process per run) and the
//! traced pass (per-layer metrics).

use crate::layers;
use crate::measure::{pin_single_worker, run_child, ChildSpec, Record};
use crate::outcome::{self, Outcome};
use crate::spans::Spans;
use crate::stats::{median, percentile, quartiles, sum_of_column_minima};
use crate::workload::{generate, slice_end, Engine, Kind, Scenario, Sim};
use gfc_sim::event::Event;
use gfc_telemetry::{names, MetricValue, Snapshot, TimelineConfig};
use gfc_topology::cbd::all_pairs_depgraph;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Hard limit on one invocation, below the 180 s one may take.
pub const INVOCATION_LIMIT: Duration = Duration::from_secs(160);

/// Measured metrics by name, plus the run accounting of the result line.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Runs attempted.
    pub attempted: usize,
    /// Runs that panicked, timed out or produced a wrong outcome.
    pub failed: usize,
}

impl PassResult {
    fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_owned(), v);
    }

    fn count(&mut self, r: &Result<Record, String>) {
        self.attempted += 1;
        match r {
            Ok(rec) if rec.ok => {}
            Ok(_) => self.failed += 1,
            Err(e) => {
                eprintln!("perfbench: run failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// The timed pass: fresh measured processes, one after another, until
/// `seconds` have passed (or the invocation limit is near). Prints every
/// run and the median and quartiles of each per-process figure.
///
/// The host's speed moves under the load of other tenants, within a run
/// (a slice of the same work takes 1–3× its fastest time) and from minute
/// to minute, so a median of whole-run wall times measures the neighbours
/// as much as the program. `run_s` therefore sums, over the run's fixed
/// simulated slices, each slice's fastest time across the processes whose
/// outcome matched the digest: every slice repeats exactly the same work,
/// so its fastest time is the one least disturbed. `setup_s` likewise is
/// the fastest set-up of all processes. The other metrics are medians.
pub fn timed(kind: Kind, seed: u64, seconds: u64, start: Instant) -> PassResult {
    let budget = Duration::from_secs(seconds);
    let deadline = start + INVOCATION_LIMIT;
    let spec = ChildSpec { kind, seed, engine: kind.engine(), metrics_off: false };
    let mut res = PassResult::default();
    let mut recs: Vec<Record> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let r = run_child(&spec, deadline);
        longest = longest.max(t0.elapsed());
        res.count(&r);
        match r {
            Ok(rec) => {
                println!("run {}: {}", res.attempted, rec.summary());
                if rec.ok {
                    recs.push(rec);
                }
            }
            Err(e) => println!("run {}: failed ({e})", res.attempted),
        }
        let elapsed = start.elapsed();
        if elapsed >= budget || elapsed + longest >= INVOCATION_LIMIT {
            break;
        }
    }
    res.set("pass_share", (res.attempted - res.failed) as f64 / res.attempted as f64);
    if recs.is_empty() {
        for name in ["run_s", "events_per_s", "setup_s", "peak_rss_mb", "goodput_gbps"] {
            res.set(name, 0.0);
        }
        return res;
    }
    let horizon_s = kind.horizon().as_secs_f64();
    let col = |f: &dyn Fn(&Record) -> f64| recs.iter().map(f).collect::<Vec<f64>>();
    let per_process: [(&str, Vec<f64>); 4] = [
        ("wall run_s", col(&|r| r.run_s)),
        ("fastest setup_s", col(&|r| r.setup_s)),
        ("peak_rss_mb", col(&|r| r.rss_mb)),
        ("goodput_gbps", col(&|r| r.delivered_bytes as f64 * 8.0 / horizon_s / 1e9)),
    ];
    for (name, xs) in &per_process {
        let [q1, q2, q3] = quartiles(xs);
        println!("{name} per process: median {q2} q1 {q1} q3 {q3} (n={})", xs.len());
    }
    let slices: Vec<&[u64]> = recs.iter().map(|r| r.slice_ns.as_slice()).collect();
    let run_s = sum_of_column_minima(&slices) as f64 / 1e9;
    println!(
        "run_s: {run_s} (sum of per-slice minima, {} slices, n={})",
        kind.slices(),
        recs.len()
    );
    res.set("run_s", run_s);
    // Every record matched the digest, so all dispatched the same events.
    res.set("events_per_s", recs[0].events as f64 / run_s);
    res.set("setup_s", per_process[1].1.iter().copied().fold(f64::INFINITY, f64::min));
    res.set("peak_rss_mb", median(&per_process[2].1));
    res.set("goodput_gbps", median(&per_process[3].1));
    res
}

/// The values of one engine-probe entry: `probe.<suffix>` on the
/// sequential engine, or `domain<d>.probe.<suffix>` for each domain of the
/// sharded one.
fn probe_values<'a>(snap: &'a Snapshot, suffix: &str) -> impl Iterator<Item = &'a MetricValue> {
    let key = format!("probe.{suffix}");
    snap.entries
        .iter()
        .filter(move |e| {
            e.name == key
                || (e.name.starts_with("domain")
                    && e.name.split_once('.').is_some_and(|(_, r)| r == key))
        })
        .map(|e| &e.value)
}

/// A probe counter, one value per domain.
fn probe_counters(snap: &Snapshot, suffix: &str) -> Vec<u64> {
    probe_values(snap, suffix)
        .filter_map(|v| match *v {
            MetricValue::Counter(c) => Some(c),
            _ => None,
        })
        .collect()
}

/// Largest high-water mark of a probe gauge across domains.
fn probe_gauge_hwm(snap: &Snapshot, suffix: &str) -> u64 {
    probe_values(snap, suffix)
        .filter_map(|v| match *v {
            MetricValue::Gauge { high_water, .. } => Some(high_water),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Count-weighted median of per-domain medians.
fn weighted_median(pairs: &mut [(u64, u64)]) -> u64 {
    pairs.sort_unstable();
    let total: u64 = pairs.iter().map(|p| p.1).sum();
    let mut seen = 0;
    for &(v, w) in pairs.iter() {
        seen += w;
        if 2 * seen >= total {
            return v;
        }
    }
    0
}

/// Directory the traced pass writes its span files to: under the build
/// directory, which is ignored by version control.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::PathBuf::from(target).join("perfbench")
}

/// The traced pass. Fresh processes give the untraced references
/// (default telemetry, metrics off, and for the sharded workload the
/// sequential and two-worker engines); then this process re-runs the
/// workload with the engine probe and timeline sampling on, in fixed
/// simulated slices, checks the traced outcome against the untraced one,
/// and replays each inner layer on inputs taken from that run.
pub fn traced(kind: Kind, seed: u64, start: Instant) -> PassResult {
    let deadline = start + INVOCATION_LIMIT;
    let mut res = PassResult::default();
    let mut spans = Spans::default();
    let engine = kind.engine();
    let child = |engine: Engine, metrics_off: bool, spans: &mut Spans, res: &mut PassResult| {
        let name =
            format!("child.{}{}", engine.name(), if metrics_off { ".metrics_off" } else { "" });
        let (r, _) = spans
            .time(&name, |_| run_child(&ChildSpec { kind, seed, engine, metrics_off }, deadline));
        res.count(&r);
        if let Ok(rec) = &r {
            println!("{name}: {}", rec.summary());
        }
        r.ok()
    };
    let untraced = child(engine, false, &mut spans, &mut res);
    let metrics_off = child(engine, true, &mut spans, &mut res);
    let (seq, w2) = if matches!(engine, Engine::Sharded(_)) {
        (
            child(Engine::Seq, false, &mut spans, &mut res),
            child(Engine::Sharded(2), false, &mut spans, &mut res),
        )
    } else {
        (None, None)
    };
    // Pinned like the timed runs; no child is started after this.
    pin_single_worker(engine);

    let inputs = generate(kind, seed);
    let horizon = inputs.horizon;
    let mut tel = inputs.cfg.telemetry;
    tel.probe = true;
    if engine == Engine::Seq {
        // The sharded engine's v1 contract excludes the timeline layer.
        tel.timeline = TimelineConfig {
            sample_period_ps: horizon.0 / 1000,
            max_samples: 1024,
            spans: false,
            stall_gap_ps: 0,
        };
    }
    const SLICES: u64 = 1000;
    let (mut d, new_idx) = spans.time("network.new", |_| Scenario::new(&inputs, engine, tel));
    let ((), start_idx) = spans.time("network.install", |_| d.install(&inputs));
    let mut slice_ms = Vec::with_capacity(SLICES as usize);
    for k in 1..=SLICES {
        let t = slice_end(horizon, SLICES, k);
        let ((), idx) = spans.time("network.run_until", |_| d.advance(&inputs, t));
        slice_ms.push(spans.get(idx).secs() * 1e3);
    }
    let traced_run_s: f64 = slice_ms.iter().sum::<f64>() / 1e3;
    let (snap, _) = spans.time("network.metrics_snapshot", |_| d.snapshot());
    let got = Outcome::of(&d);
    res.attempted += 1;
    let traced_ok = match outcome::recorded(kind, inputs.variant) {
        Some(want) if want.without_events() == got.without_events() => true,
        Some(want) => {
            eprintln!("perfbench: traced outcome differs from untraced: {}", got.diff(&want));
            false
        }
        None => false,
    };
    if !traced_ok {
        res.failed += 1;
    }
    // The sharded engines must reproduce the sequential outcome exactly.
    if let Some(seq) = &seq {
        for w in [&untraced, &w2].into_iter().flatten() {
            res.attempted += 1;
            if w.digest != seq.digest {
                eprintln!("perfbench: sharded digest {} != sequential {}", w.digest, seq.digest);
                res.failed += 1;
            }
        }
    }

    res.set("network.new_s", spans.get(new_idx).secs());
    res.set("network.start_s", spans.get(start_idx).secs());
    res.set("network.slice_ms.p50", percentile(&slice_ms, 50.0));
    res.set("network.slice_ms.p99", percentile(&slice_ms, 99.0));
    res.set("network.events", got.events as f64);

    // Engine probe: dispatch profile and scheduler occupancy.
    let mut mix = Vec::new();
    for label in Event::CLASS_LABELS {
        mix.push(probe_counters(&snap, &format!("dispatch.{label}.count")).iter().sum::<u64>());
    }
    for class in crate::report::DISPATCH_CLASSES {
        let counts = probe_counters(&snap, &format!("dispatch.{class}.count"));
        let p50s = probe_counters(&snap, &format!("dispatch.{class}.p50_ns"));
        let sums = probe_counters(&snap, &format!("dispatch.{class}.sum_ns"));
        let mut pairs: Vec<(u64, u64)> = p50s.into_iter().zip(counts.iter().copied()).collect();
        res.set(&format!("dispatch.{class}.count"), counts.iter().sum::<u64>() as f64);
        res.set(&format!("dispatch.{class}.p50_ns"), weighted_median(&mut pairs) as f64);
        res.set(&format!("dispatch.{class}.sum_ms"), sums.iter().sum::<u64>() as f64 / 1e6);
    }
    let heap = probe_gauge_hwm(&snap, "queue.heap");
    let lane_arrive = probe_gauge_hwm(&snap, "queue.lane_arrive");
    let lane_ctrl = probe_gauge_hwm(&snap, "queue.lane_ctrl");
    let inline: u64 = probe_counters(&snap, "pool.pushes_inline").iter().sum();
    let pooled: u64 = probe_counters(&snap, "pool.pushes_pooled").iter().sum();
    res.set("event.heap_hwm", heap as f64);
    res.set("event.lane_arrive_hwm", lane_arrive as f64);
    res.set("event.lane_ctrl_hwm", lane_ctrl as f64);
    res.set("event.pool_grown", probe_counters(&snap, "pool.grown").iter().sum::<u64>() as f64);
    res.set("event.inline_share", inline as f64 / (inline + pooled).max(1) as f64);
    let depth = (heap + lane_arrive + lane_ctrl) as usize;
    let (ev, _) =
        spans.time("event.replay", |_| layers::event_queue(&inputs.cfg, &mix, depth, 1_000_000));
    res.set("event.push_pop_ns", ev.ns_per_op);
    res.set("event.replay_ops", ev.ops as f64);

    // Flow-control backends and the rate limiter, over the sampled
    // occupancy and rate traces (sequential engine only).
    let c = |name| snap.counter(name).unwrap_or(0) as f64;
    let samplers = match &d.sim {
        Sim::Seq(net) => net.timeline_samplers(),
        Sim::Sharded(_) => None,
    };
    let steps =
        samplers.map(|s| layers::occupancy_steps(s, inputs.cfg.mtu, 200_000)).unwrap_or_default();
    let rates = samplers.map(|s| layers::sampled_rates(s, 20_000)).unwrap_or_default();
    let (fc, _) = spans.time("fc.replay", |_| layers::fc_backend(&inputs.cfg, &steps, 200_000));
    res.set("fc.rx_update_ns", fc.rx.ns_per_op);
    res.set("fc.tx_ctrl_ns", fc.ctrl.ns_per_op);
    res.set("fc.tx_gate_ns", fc.gate.ns_per_op);
    res.set("fc.replay_ops", fc.rx.ops as f64);
    res.set("fc.ctrl_msgs", c(names::CTRL_MSGS));
    res.set("fc.ctrl_per_kpkt", c(names::CTRL_MSGS) * 1e3 / c(names::DELIVERED_PACKETS).max(1.0));
    res.set("fc.pause_rx", c(names::PAUSE_RX));
    res.set("fc.stage_rx", c(names::STAGE_RX));
    res.set("fc.hold_and_wait", c(names::HOLD_AND_WAIT));
    let (lim, _) = spans.time("limiter.replay", |_| layers::rate_limiter(&inputs.cfg, &rates, 8));
    res.set("limiter.gate_ns", lim.ns_per_op);
    res.set("limiter.replay_ops", lim.ops as f64);
    let enq = c(names::ENQUEUES).max(1.0);
    res.set("limiter.paced_share", c(names::GATE_PACED) / enq);
    res.set("limiter.blocked_share", c(names::GATE_BLOCKED) / enq);

    // Topology, verify and workload layers.
    let pairs = layers::route_pairs(&inputs, 5_000);
    let ((cold, warm), _) =
        spans.time("routing.replay", |_| layers::routing(&inputs, &pairs, 200_000));
    res.set("routing.cold_us", cold.ns_per_op);
    res.set("routing.warm_ns", warm.ns_per_op);
    res.set("routing.lookups", cold.ops as f64);
    let mut depgraph_ms = Vec::new();
    let mut preflight_s = Vec::new();
    for _ in 0..3 {
        let (_, i) = spans.time("topology.all_pairs_depgraph", |_| {
            std::hint::black_box(all_pairs_depgraph(&inputs.topo).find_cycle())
        });
        depgraph_ms.push(spans.get(i).secs() * 1e3);
        let (_, i) = spans.time("verify.preflight", |_| {
            std::hint::black_box(gfc_sim::preflight(&inputs.topo, &inputs.routing, &inputs.cfg))
        });
        preflight_s.push(spans.get(i).secs());
    }
    res.set("topology.depgraph_ms", median(&depgraph_ms));
    res.set("verify.preflight_s", median(&preflight_s));
    let (ws, _) = spans.time("workload.replay", |_| layers::workload_sampler(&inputs, 200_000));
    res.set("workload.sample_ns", ws.ns_per_op);
    let ledger = match &d.sim {
        Sim::Seq(net) => net.ledger().clone(),
        Sim::Sharded(net) => net.ledger(),
    };
    res.set("flowgen.flows_started", (ledger.records().len() + inputs.flows.len()) as f64);
    res.set("flowgen.flows_finished", ledger.finished() as f64);

    // Telemetry and shard layers, from the untraced reference processes.
    let run_s = |r: &Option<Record>| r.as_ref().map_or(f64::NAN, |r| r.run_s);
    res.set("trace_overhead", traced_run_s / run_s(&untraced) - 1.0);
    res.set("telemetry.metrics_overhead", run_s(&untraced) / run_s(&metrics_off) - 1.0);
    if let (Some(seq_r), Some(w1_r), Some(w2_r)) = (&seq, &untraced, &w2) {
        res.set("shard.speedup_w2", seq_r.run_s / w2_r.run_s);
        res.set("shard.w1_overhead", w1_r.run_s / seq_r.run_s - 1.0);
        res.set("shard.new_s", w1_r.setup_s);
        res.set("shard.rss_ratio", w1_r.rss_mb / seq_r.rss_mb);
        // Events each domain dispatched: the per-class counts summed.
        let domains = inputs.partition.as_ref().map_or(1, gfc_topology::Partition::num_domains);
        let mut per_domain = vec![0u64; domains];
        for label in Event::CLASS_LABELS {
            for (d, c) in
                probe_counters(&snap, &format!("dispatch.{label}.count")).iter().enumerate()
            {
                per_domain[d] += c;
            }
        }
        let total: u64 = per_domain.iter().sum();
        let max = per_domain.iter().copied().max().unwrap_or(0);
        res.set("shard.domain_events_max_share", max as f64 / total.max(1) as f64);
    } else {
        // Only the sharded workload enters the shard layer.
        for name in [
            "shard.speedup_w2",
            "shard.w1_overhead",
            "shard.new_s",
            "shard.rss_ratio",
            "shard.domain_events_max_share",
        ] {
            res.set(name, 0.0);
        }
    }

    let dir = out_dir();
    let path = dir.join(format!("spans-{}-{seed}.json", kind.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_chrome_json()))
    {
        Ok(()) => println!("spans: {} written to {}", spans.all().len(), path.display()),
        Err(e) => println!("spans: not written ({}: {e})", path.display()),
    }
    res
}
