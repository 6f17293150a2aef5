//! Golden preflight reports: the full `render()` of four fabrics, pinned
//! byte for byte against `tests/golden/*.txt`.
//!
//! The fabrics cover every branch of the CBD pipeline (GFC011–GFC013):
//!
//! * `healthy_k4_pfc` — a healthy k=4 fat-tree: no cyclic SCC, a clean
//!   peeling certificate;
//! * `failed_k8_p05_s4641_{gfc,pfc}` — a k=8 fat-tree with 5% of its
//!   fabric links failed (`StdRng` seed 4641): the all-pairs union is
//!   cyclic but the realizable graph peels empty, so GFC011 is downgraded
//!   to Info under both schemes;
//! * `failed_k8_p08_s5_pfc` — 8% failed (seed 5) under PFC: genuinely
//!   susceptible, so the GFC011 Errors carry break-set hints and GFC013
//!   ranks a break set per residual component.
//!
//! The SCC cycles, peel counts and break sets in these files are what a
//! change to the dependency-graph construction or the SCC, peel and
//! break-set passes must reproduce exactly.

use gfc_core::fc_config::FcConfig;
use gfc_core::units::{kb, Dur, Rate};
use gfc_topology::{FatTree, Routing, Topology};
use gfc_verify::FabricSpec;
use rand::{rngs::StdRng, SeedableRng};

/// The §6.2.2 fabric: 10G CEE, 300 KB buffers.
fn spec(fc: FcConfig) -> FabricSpec {
    FabricSpec {
        capacity: Rate::from_gbps(10),
        mtu: 1500,
        buffer_bytes: kb(300),
        t_wire: Dur::from_micros(1),
        t_proc: Dur::from_micros(3),
        fc,
        min_rate_unit: Rate::from_kbps(8),
    }
}

fn pfc() -> FcConfig {
    FcConfig::pfc(kb(280), kb(277))
}

fn gfc() -> FcConfig {
    FcConfig::gfc_buffer(kb(300), kb(281))
}

/// A k-ary fat-tree with each fabric link failed with probability `p`.
fn failed_fattree(k: usize, p: f64, seed: u64) -> Topology {
    let mut ft = FatTree::new(k);
    ft.inject_failures(&mut StdRng::seed_from_u64(seed), p);
    ft.topo
}

fn render(topo: &Topology, fc: FcConfig) -> String {
    gfc_verify::preflight(topo, &Routing::spf(), &spec(fc)).render()
}

fn assert_golden(actual: &str, expected: &str, name: &str) {
    assert!(
        actual == expected,
        "preflight report for {name} differs from tests/golden/{name}.txt:\n{actual}"
    );
}

#[test]
fn healthy_k4_pfc() {
    let report = render(&FatTree::new(4).topo, pfc());
    assert_golden(&report, include_str!("golden/healthy_k4_pfc.txt"), "healthy_k4_pfc");
}

#[test]
fn failed_k8_p05_s4641_gfc_and_pfc() {
    let topo = failed_fattree(8, 0.05, 4641);
    assert_golden(
        &render(&topo, gfc()),
        include_str!("golden/failed_k8_p05_s4641_gfc.txt"),
        "failed_k8_p05_s4641_gfc",
    );
    assert_golden(
        &render(&topo, pfc()),
        include_str!("golden/failed_k8_p05_s4641_pfc.txt"),
        "failed_k8_p05_s4641_pfc",
    );
}

#[test]
fn failed_k8_p08_s5_pfc() {
    let report = render(&failed_fattree(8, 0.08, 5), pfc());
    assert_golden(&report, include_str!("golden/failed_k8_p08_s5_pfc.txt"), "failed_k8_p08_s5_pfc");
}
