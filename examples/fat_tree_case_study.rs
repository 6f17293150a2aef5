//! The §6.2.2 fat-tree case study (Figs. 11-14): a k=4 fat-tree with
//! three failed links, four flows whose shortest paths form a CBD, and
//! the victim flow.
//!
//! ```text
//! cargo run --release --example fat_tree_case_study
//! ```

use gfc_experiments::common::fig11_scenario;
use gfc_experiments::fig12::FatTreeCaseParams;
use gfc_experiments::{fig12, fig13, fig14};
use gfc_topology::fattree::FIG11_FLOWS;
use gfc_topology::routing::walk_nodes;

fn main() {
    // Show the scenario itself first: the failures and the valley paths.
    let (ft, sc) = fig11_scenario();
    println!("Fig. 11 scenario — k=4 fat-tree, failed links:");
    for &l in &sc.failed {
        let link = ft.topo.link(l);
        println!("  {} - {}", ft.topo.node(link.a).name, ft.topo.node(link.b).name);
    }
    println!("flows (shortest paths after re-routing):");
    for (i, (&(s, _), p)) in FIG11_FLOWS.iter().zip(&sc.paths).enumerate() {
        let names: Vec<String> = walk_nodes(&ft.topo, ft.hosts[s], p)
            .unwrap()
            .iter()
            .map(|&n| ft.topo.node(n).name.clone())
            .collect();
        println!("  F{}: {}", i + 1, names.join(" -> "));
    }
    println!();

    let params = FatTreeCaseParams { seed: 12, ..Default::default() };
    print!("{}", fig12::run(params.clone()).report());
    println!();
    print!("{}", fig13::run(params.clone()).report());
    println!();
    print!("{}", fig14::run(params).report());
}
