//! Render the `gfc-verify` static preflight report for a named scenario.
//!
//! ```text
//! cargo run --example preflight                      # tour of all scenarios
//! cargo run --example preflight -- ring-pfc          # one scenario, lint-style
//! cargo run --example preflight -- ring-pfc --json   # stable JSON
//! cargo run --example preflight -- ring-pfc --sarif  # SARIF 2.1.0
//! cargo run --example preflight -- corpus --sarif-dir target/sarif
//! ```
//!
//! With a scenario name the process exits non-zero when the report has
//! errors, so the analyzer can gate scripts the way a linter gates CI.
//! `corpus` runs every scenario against its expected verdict (exit 1 on
//! any mismatch) and, with `--sarif-dir`, writes one SARIF file per
//! scenario for CI artifact upload.
//!
//! Scenarios:
//!
//! * `default`        — `SimConfig::default_10g` on a 2-to-1 incast (clean);
//! * `ring-pfc`       — the Fig. 9 testbed ring under PFC (deadlock reachable);
//! * `ring-gfc`       — the same ring under buffer-based GFC (CBD but immune);
//! * `fattree`        — the Fig. 11 failed fat-tree under PFC;
//! * `sparse-ring`    — CBD-prone prefilter, exactly deadlock-free (GFC012);
//! * `fattree-updown` — failed fat-tree on complete up/down routes (clean);
//! * `fattree-failed` — k=8 fat-tree, 5% of links failed, buffer GFC: the
//!   all-pairs union cycles, the realizable graph peels empty (clean);
//! * `fattree-failed-pfc` — k=8 fat-tree, 8% failed, PFC (deadlock reachable);
//! * `ring-512`       — 1024-node ring, the susceptible case at scale;
//! * `thm41`          — a conceptual-GFC config violating Theorem 4.1.

use gfc::prelude::*;
use gfc::verify::Report;
use gfc_experiments::common::{sim_config_testbed, Scheme};
use gfc_topology::SparseRing;
use rand::{rngs::StdRng, SeedableRng};

fn analyze(topo: &Topology, routing: &Routing, cfg: &SimConfig) -> Report {
    gfc_sim::preflight(topo, routing, cfg)
}

/// Every corpus scenario with its expected `has_errors()` verdict — the
/// contract the CI SARIF step enforces.
const CORPUS: &[(&str, bool)] = &[
    ("default", false),
    ("ring-pfc", true),
    ("ring-cbfc", true),
    ("ring-gfc", false),
    ("ring-gfc-time", false),
    ("fattree", true),
    ("sparse-ring", false),
    ("fattree-updown", false),
    ("fattree-failed", false),
    ("fattree-failed-pfc", true),
    ("ring-512", true),
    ("thm41", true),
];

fn scenario(name: &str) -> Option<(String, Report)> {
    match name {
        "default" => {
            // The sound out-of-the-box configuration: derived PFC
            // thresholds on a cycle-free incast.
            let inc = Incast::new(2);
            let cfg = SimConfig::default_10g();
            let title = format!("default — {} on a 2-to-1 incast, SPF", cfg.fc.name());
            Some((title, analyze(&inc.topo, &Routing::spf(), &cfg)))
        }
        "ring-pfc" | "ring-cbfc" | "ring-gfc" | "ring-gfc-time" => {
            // The §6.1 testbed ring (Figs. 9/10): clockwise two-hop routes
            // form the Fig. 1 cyclic buffer dependency.
            let scheme = match name {
                "ring-pfc" => Scheme::Pfc,
                "ring-cbfc" => Scheme::Cbfc,
                "ring-gfc" => Scheme::GfcBuffer,
                _ => Scheme::GfcTime,
            };
            let ring = Ring::new(3);
            let routing = Routing::fixed(ring.clockwise_routes());
            let cfg = sim_config_testbed(scheme, 1);
            let title = format!("{name} — Fig. 1 ring, clockwise routes, {}", scheme.name());
            Some((title, analyze(&ring.topo, &routing, &cfg)))
        }
        "fattree" => {
            // The Fig. 11 case study: a k=4 fat-tree with three failed
            // links whose shortest-path re-routes admit a four-link CBD.
            let (ft, _) = gfc_experiments::common::fig11_scenario();
            let cfg = gfc_experiments::common::sim_config_300k(Scheme::Pfc, 1);
            let title = "fattree — Fig. 11 failed k=4 fat-tree, SPF, PFC".to_string();
            Some((title, analyze(&ft.topo, &Routing::spf(), &cfg)))
        }
        "sparse-ring" => {
            // The GFC012 showcase: hosts on alternating switches of a
            // 6-ring. The all-pairs union still cycles (GFC011 cries
            // wolf), but the host-realizable graph peels empty, so the
            // finding is downgraded to Info and PFC is admitted.
            let ring = SparseRing::new(6, 2);
            let cfg = sim_config_testbed(Scheme::Pfc, 1);
            let title = "sparse-ring — 6-ring, hosts on alternating switches, SPF, PFC".to_string();
            Some((title, analyze(&ring.topo, &Routing::spf(), &cfg)))
        }
        "fattree-updown" => {
            // A failed fat-tree whose all-pairs SPF union is CBD-prone,
            // routed entirely on up/down paths: judged on its configured
            // routes (the GFC011 fix), it is clean under PFC.
            let (ft, routes) =
                gfc_topology::fattree::find_updown_showcase(50).expect("showcase fabric");
            let cfg = gfc_experiments::common::sim_config_300k(Scheme::Pfc, 1);
            let title =
                "fattree-updown — failed k=4 fat-tree, complete up/down routes, PFC".to_string();
            Some((title, analyze(&ft.topo, &Routing::fixed(routes), &cfg)))
        }
        "fattree-failed" | "fattree-failed-pfc" => {
            // Random failure draws on a k=8 fat-tree. At 5% (seed 4641)
            // the all-pairs SPF union has a 482-link cyclic SCC, yet every
            // host-realizable dependency drains; at 8% (seed 5) a residual
            // survives peeling and PFC can wedge on it.
            let (p, seed, scheme) = match name {
                "fattree-failed" => (0.05, 4641, Scheme::GfcBuffer),
                _ => (0.08, 5, Scheme::Pfc),
            };
            let mut ft = FatTree::new(8);
            ft.inject_failures(&mut StdRng::seed_from_u64(seed), p);
            let cfg = gfc_experiments::common::sim_config_300k(scheme, 1);
            let title = format!(
                "{name} — k=8 fat-tree, {:.0}% of links failed (seed {seed}), SPF, {}",
                p * 100.0,
                scheme.name()
            );
            Some((title, analyze(&ft.topo, &Routing::spf(), &cfg)))
        }
        "ring-512" => {
            // Scale check: the iterative SCC/peel pipeline over a
            // 1024-node ring. Antipodal ECMP pairs realize the full ring
            // cycle, so PFC is (correctly) rejected here.
            let ring = Ring::new(512);
            let cfg = sim_config_testbed(Scheme::Pfc, 1);
            let title = "ring-512 — 512-switch ring, SPF, PFC".to_string();
            Some((title, analyze(&ring.topo, &Routing::spf(), &cfg)))
        }
        "thm41" => {
            // Fig. 5's impossible parameterization: with τ = 25 µs a
            // 100 KB buffer cannot satisfy B0 ≤ Bm − 4·C·τ.
            let inc = Incast::new(2);
            let mut cfg = SimConfig::default_10g();
            cfg.buffer_bytes = kb(100);
            cfg.fc = FcConfig::conceptual(kb(50), kb(100), Dur::from_micros(25));
            let title = "thm41 — conceptual GFC, B0 beyond the Theorem 4.1 bound".to_string();
            Some((title, analyze(&inc.topo, &Routing::spf(), &cfg)))
        }
        _ => None,
    }
}

fn show(title: &str, report: &Report) {
    println!("== {title}");
    for line in report.render().lines() {
        println!("   {line}");
    }
    println!();
}

/// Run every corpus scenario against its expected verdict; with a
/// `--sarif-dir`, also write `<dir>/<name>.sarif` per scenario.
fn run_corpus(sarif_dir: Option<&str>) -> i32 {
    if let Some(dir) = sarif_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return 2;
        }
    }
    let mut mismatches = 0;
    for &(name, expect_errors) in CORPUS {
        let (title, report) = scenario(name).expect("corpus scenario");
        let verdict = report.verdict();
        let ok = report.has_errors() == expect_errors;
        println!(
            "{} {name:<18} {} — {verdict}",
            if ok { "PASS" } else { "FAIL" },
            if report.has_errors() { "errors " } else { "clean  " },
        );
        if !ok {
            eprintln!(
                "corpus mismatch on {name} ({title}): expected has_errors = {expect_errors}\n{}",
                report.render()
            );
            mismatches += 1;
        }
        if let Some(dir) = sarif_dir {
            let path = format!("{dir}/{name}.sarif");
            if let Err(e) = std::fs::write(&path, report.to_sarif()) {
                eprintln!("cannot write {path}: {e}");
                return 2;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} corpus scenario(s) off their expected verdict");
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            for &(name, _) in CORPUS {
                let (title, report) = scenario(name).expect("built-in scenario");
                show(&title, &report);
            }
        }
        Some("corpus") => {
            let sarif_dir = match args.get(1).map(String::as_str) {
                Some("--sarif-dir") => match args.get(2) {
                    Some(dir) => Some(dir.as_str()),
                    None => {
                        eprintln!("--sarif-dir needs a directory");
                        std::process::exit(2);
                    }
                },
                Some(other) => {
                    eprintln!("unknown corpus flag {other:?} — try --sarif-dir DIR");
                    std::process::exit(2);
                }
                None => None,
            };
            std::process::exit(run_corpus(sarif_dir));
        }
        Some(name) => match scenario(name) {
            Some((title, report)) => {
                match args.get(1).map(String::as_str) {
                    Some("--json") => print!("{}", report.to_json()),
                    Some("--sarif") => print!("{}", report.to_sarif()),
                    Some(flag) => {
                        eprintln!("unknown flag {flag:?} — try --json or --sarif");
                        std::process::exit(2);
                    }
                    None => show(&title, &report),
                }
                if report.has_errors() {
                    std::process::exit(1);
                }
            }
            None => {
                let names: Vec<&str> = CORPUS.iter().map(|&(n, _)| n).collect();
                eprintln!("unknown scenario {name:?} — try: {}, or corpus", names.join(", "));
                std::process::exit(2);
            }
        },
    }
}
