//! # gfc-verify — static preflight analysis for GFC configurations
//!
//! A lint pass over `(Topology, Routing, FabricSpec)` that checks every
//! soundness condition the paper states *before* a simulation (or a real
//! deployment) runs, and reports findings as stable, lint-style
//! diagnostics:
//!
//! ```text
//! error[GFC011]: cyclic buffer dependency under PFC: once every buffer on
//! the cycle fills, the PAUSE gate freezes all of them — permanent
//! deadlock (Fig. 1)
//!   --> routing: S1→S2 ⇒ S2→S3 ⇒ S3→S1
//!   = help: use a GFC variant (no hold-and-wait, Theorem 4.1/5.1), or
//!           re-route to break the cycle
//! ```
//!
//! ## Checks
//!
//! | code | severity | condition |
//! |---|---|---|
//! | GFC001 | Error | conceptual GFC: `B0 ≤ Bm − 4·C·τ` (Theorem 4.1) |
//! | GFC002 | Error | buffer GFC: `B1 ≤ Bm − 2·C·τ` (§4.2) |
//! | GFC003 | Error | time GFC: `B0 ≤ Bm − (√(τ/T)+1)²·C·T` (Theorem 5.1) |
//! | GFC004 | Error/Warning | PFC XOFF headroom ≥ `C·τ` (Error) / ≥ `2·C·τ + MTU` (Warning) |
//! | GFC005 | Error/Warning | PFC hysteresis: `XON < XOFF`, gap ≥ MTU |
//! | GFC006 | Warning/Info | CBFC credits cover `C·(2·t_w + t_r + T) + MTU` |
//! | GFC007 | Error | stage table: monotone thresholds, `R_k = C·ratio^k`, ratio ≤ 3/4 (Eq. 3), deepest stage > 0 |
//! | GFC008 | Error/Warning/Info | rate-limiter registers: floor ≤ C, floor > 0, stage clamping |
//! | GFC009 | Error/Info | `Bm ≤ buffer` (unused space above `Bm` is a note) |
//! | GFC010 | Error/Warning | feedback period positive, ≥ one MTU time |
//! | GFC011 | Error/Info | CBD susceptibility, one finding per cyclic SCC of the conservative dependency graph |
//! | GFC012 | Error/Info | exact deadlock-freedom: the host-realizable graph peels empty (Info certificate) or leaves a residual (Error under a hard gate) |
//! | GFC013 | Warning | break-set advisory per residual component, ranked by size |
//!
//! GFC011 condenses the conservative (Table 1 prefilter) graph with an
//! iterative Tarjan pass, so a cyclic fabric is reported per strongly
//! connected component with a representative cycle and a break-set hint.
//! GFC012 is exact for this simulator's model (deterministic source
//! routing into shared lossless FIFO buffers): it peels the witnessed
//! dependency graph and can downgrade a cyclic-but-safe GFC011 finding —
//! e.g. the sparse ring, whose all-pairs union cycles but whose
//! host-realizable graph drains — from Error to Info.
//!
//! Reports render as lint text ([`Report::render`]), stable JSON
//! ([`Report::to_json`]), and SARIF 2.1.0 ([`Report::to_sarif`]) for CI
//! upload:
//!
//! ```text
//! cargo run --release --example preflight -- corpus --sarif-dir target/sarif
//! ```
//!
//! The simulator runs this pass from `Network::new` (see the
//! `SimConfig::preflight` policy) and the experiment harness prints the
//! report next to each scenario's runtime deadlock verdict; the crate has
//! no simulator dependency, so the same pass can vet a configuration
//! before it exists anywhere but on paper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checks;
mod diag;
mod spec;

pub use diag::{Code, Diagnostic, Report, Severity, StaticVerdict};
pub use spec::{FabricSpec, PreflightPolicy};

use gfc_topology::{Routing, Topology};

/// Run every check against a fabric: parameter soundness from the spec
/// alone, plus the CBD-susceptibility verdict from topology + routing.
pub fn preflight(topo: &Topology, routing: &Routing, spec: &FabricSpec) -> Report {
    let mut report = Report::new();
    checks::check_parameters(spec, &mut report);
    checks::check_cbd(topo, routing, spec, &mut report);
    report
}

/// Check only the fabric parameters (no topology at hand): GFC001–GFC010.
pub fn preflight_params(spec: &FabricSpec) -> Report {
    let mut report = Report::new();
    checks::check_parameters(spec, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_core::fc_config::FcConfig;
    use gfc_core::theorems;
    use gfc_core::units::{kb, Dur, Rate};
    use gfc_topology::cbd::all_pairs_depgraph;
    use gfc_topology::{Ring, Routing, SparseRing};

    /// The §6.2.2 fabric: 10G CEE, 300 KB buffers, τ ≈ 7.4 µs.
    fn spec_10g(fc: FcConfig) -> FabricSpec {
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

    fn codes(r: &Report, sev: Severity) -> Vec<Code> {
        r.diagnostics().iter().filter(|d| d.severity == sev).map(|d| d.code).collect()
    }

    #[test]
    fn paper_gfc_buffer_config_is_clean() {
        let r = preflight_params(&spec_10g(FcConfig::gfc_buffer(kb(300), kb(281))));
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn theorem_41_violation_is_an_error() {
        // B0 above Bm − 4·C·τ (4·C·τ = 37 KB at 10G): flagged.
        let bm = kb(300);
        let bad_b0 = bm - kb(10);
        let r = preflight_params(&spec_10g(FcConfig::conceptual(
            bad_b0,
            bm,
            Dur::from_micros_f64(7.4),
        )));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc001), "{}", r.render());
        assert!(r.render().contains("Theorem 4.1"), "{}", r.render());
    }

    #[test]
    fn theorem_41_unsatisfiable_buffer_is_an_error() {
        // Fig. 5's impossible case: 100 KB buffer, τ = 25 µs → 4Cτ = 125 KB.
        let mut spec = spec_10g(FcConfig::conceptual(kb(50), kb(100), Dur::from_micros(25)));
        spec.buffer_bytes = kb(100);
        let r = preflight_params(&spec);
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc001), "{}", r.render());
        assert!(r.render().contains("unsatisfiable"), "{}", r.render());
    }

    #[test]
    fn b1_bound_violation_is_an_error() {
        // B1 within 2·C·τ of Bm (2·C·τ = 18.5 KB): stage-1 feedback late.
        let r = preflight_params(&spec_10g(FcConfig::gfc_buffer(kb(300), kb(300) - 1000)));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc002), "{}", r.render());
    }

    #[test]
    fn theorem_51_violation_is_an_error() {
        let c = Rate::from_gbps(10);
        let period = theorems::cbfc_recommended_period(c);
        let r = preflight_params(&spec_10g(FcConfig::gfc_time(kb(290), kb(300), period)));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc003), "{}", r.render());
    }

    #[test]
    fn paper_time_gfc_config_is_clean() {
        let c = Rate::from_gbps(10);
        let period = theorems::cbfc_recommended_period(c);
        let r = preflight_params(&spec_10g(FcConfig::gfc_time(kb(159), kb(300), period)));
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn pfc_overflow_headroom_is_an_error() {
        // XOFF at the very top of the buffer: in-flight data has nowhere
        // to land.
        let r = preflight_params(&spec_10g(FcConfig::pfc(kb(300) - 100, kb(280))));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc004), "{}", r.render());
    }

    #[test]
    fn pfc_tight_headroom_is_a_warning() {
        // Headroom exactly C·τ (the 802.1Qbb minimum): no Error, but the
        // conservative 2·C·τ + MTU provisioning note fires.
        let spec = spec_10g(FcConfig::None);
        let xoff = kb(300) - spec.ctau_bytes();
        let r = preflight_params(&spec_10g(FcConfig::pfc(xoff, xoff - 3000)));
        assert!(!r.has_errors(), "{}", r.render());
        assert!(codes(&r, Severity::Warning).contains(&Code::Gfc004), "{}", r.render());
    }

    #[test]
    fn pfc_degenerate_hysteresis_is_an_error() {
        let r = preflight_params(&spec_10g(FcConfig::pfc(kb(280), kb(280))));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc005), "{}", r.render());
    }

    #[test]
    fn cbfc_undersized_credits_warn() {
        // 16 KB of buffer cannot cover the ~72 KB bandwidth–delay product
        // of a 52.4 µs feedback loop at 10G.
        let c = Rate::from_gbps(10);
        let mut spec = spec_10g(FcConfig::cbfc(theorems::cbfc_recommended_period(c)));
        spec.buffer_bytes = kb(16);
        let r = preflight_params(&spec);
        assert!(codes(&r, Severity::Warning).contains(&Code::Gfc006), "{}", r.render());
    }

    #[test]
    fn stage_ratio_beyond_eq3_is_an_error() {
        let spec = spec_10g(gfc_core::fc_config::FcConfig::GfcBuffer(
            gfc_core::fc_config::GfcBufferParams {
                bm: kb(300),
                b1: kb(281),
                stage_ratio: (7, 8), // > 3/4
            },
        ));
        let r = preflight_params(&spec);
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc007), "{}", r.render());
    }

    #[test]
    fn pacing_floor_above_line_rate_is_an_error() {
        let mut spec = spec_10g(FcConfig::gfc_buffer(kb(300), kb(281)));
        spec.min_rate_unit = Rate::from_gbps(40);
        let r = preflight_params(&spec);
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc008), "{}", r.render());
    }

    #[test]
    fn bm_beyond_buffer_is_an_error() {
        let r = preflight_params(&spec_10g(FcConfig::gfc_buffer(kb(301), kb(281))));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc009), "{}", r.render());
    }

    #[test]
    fn zero_period_is_an_error() {
        let r = preflight_params(&spec_10g(FcConfig::cbfc(Dur::ZERO)));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc010), "{}", r.render());
    }

    #[test]
    fn clockwise_ring_under_pfc_is_flagged() {
        // The Fig. 1/Fig. 9 setup: clockwise two-hop routes on a 3-switch
        // ring form a CBD; PFC's PAUSE gate makes the deadlock reachable.
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc011), "{}", r.render());
        // The exact analysis agrees (GFC012 Error) and the break-set
        // advisory names a way out (GFC013 Warning).
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc012), "{}", r.render());
        assert!(codes(&r, Severity::Warning).contains(&Code::Gfc013), "{}", r.render());
        assert!(r.render().contains("re-routing traffic off"), "{}", r.render());
        let v = r.verdict();
        assert!(v.cbd_prone && v.deadlock_susceptible && !v.exact_deadlock_free);
    }

    #[test]
    fn clockwise_ring_under_dcfit_is_flagged_like_pfc() {
        // DCFIT detects deadlock at runtime but does not prevent it: the
        // static analysis must report it exactly as susceptible as PFC.
        use gfc_core::fc_config::FcConfig;
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let spec = spec_10g(FcConfig::dcfit(kb(280), kb(277)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc011), "{}", r.render());
        assert!(r.render().contains("PAUSE"), "{}", r.render());
        assert!(r.verdict().deadlock_susceptible);
    }

    #[test]
    fn clockwise_ring_under_bfc_is_safe_per_flow() {
        use gfc_core::bfc::BfcConfig;
        use gfc_core::fc_config::FcConfig;
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let spec = spec_10g(FcConfig::Bfc(BfcConfig::derive(kb(300), 1500)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        let v = r.verdict();
        assert!(v.cbd_prone && !v.deadlock_susceptible, "{}", r.render());
        assert!(r.render().contains("per-flow"), "{}", r.render());
    }

    #[test]
    fn bfc_degenerate_hysteresis_is_an_error() {
        use gfc_core::bfc::BfcConfig;
        use gfc_core::fc_config::FcConfig;
        let cfg =
            BfcConfig { flow_xoff: kb(12), flow_xon: kb(12), agg_xoff: kb(280), agg_xon: kb(277) };
        let r = preflight_params(&spec_10g(FcConfig::Bfc(cfg)));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc005), "{}", r.render());
    }

    #[test]
    fn bfc_backstop_without_headroom_is_an_error() {
        use gfc_core::bfc::BfcConfig;
        use gfc_core::fc_config::FcConfig;
        let cfg = BfcConfig {
            flow_xoff: kb(12),
            flow_xon: kb(10),
            agg_xoff: kb(300) - 100,
            agg_xon: kb(290),
        };
        let r = preflight_params(&spec_10g(FcConfig::Bfc(cfg)));
        assert!(codes(&r, Severity::Error).contains(&Code::Gfc004), "{}", r.render());
    }

    #[test]
    fn clockwise_ring_under_gfc_is_safe() {
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let spec = spec_10g(FcConfig::gfc_buffer(kb(300), kb(281)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        let v = r.verdict();
        assert!(v.cbd_prone && !v.deadlock_susceptible);
    }

    #[test]
    fn ring_under_spf_is_cbd_free() {
        // Shortest paths on the triangle use the direct links — no CBD, so
        // even PFC is statically safe here.
        let ring = Ring::new(3);
        let routing = Routing::spf();
        let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        assert!(!r.verdict().cbd_prone);
    }

    #[test]
    fn cycle_rendering_names_switches() {
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let spec = spec_10g(FcConfig::cbfc(theorems::cbfc_recommended_period(Rate::from_gbps(10))));
        let r = preflight(&ring.topo, &routing, &spec);
        let text = r.render();
        assert!(text.contains("→"), "cycle rendering missing: {text}");
        assert!(text.contains("error[GFC011]"), "{text}");
    }

    #[test]
    fn sparse_ring_prefilter_cries_wolf_but_gfc012_downgrades() {
        // Hosts on alternating switches: the all-pairs union still carries
        // both full ring cycles, but no host-realizable flow set sustains
        // them. The conservative GFC011 finding must come out as Info (not
        // Error) with the GFC012 peeling certificate alongside — even
        // under PFC, the hold-and-wait scheme.
        let ring = SparseRing::new(6, 2);
        let routing = Routing::spf();
        let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        let v = r.verdict();
        assert!(v.cbd_prone, "the prefilter should still cry wolf:\n{}", r.render());
        assert!(v.exact_deadlock_free && !v.deadlock_susceptible, "{}", r.render());
        assert!(codes(&r, Severity::Info).contains(&Code::Gfc011), "{}", r.render());
        assert!(codes(&r, Severity::Info).contains(&Code::Gfc012), "{}", r.render());
        assert!(r.render().contains("phantom"), "{}", r.render());
    }

    #[test]
    fn fully_configured_updown_fattree_is_judged_on_its_own_routes() {
        // A failed fat-tree whose all-pairs SPF union is CBD-prone, but
        // with a complete up/down route table configured. The old check
        // unconditionally unioned in the all-pairs fallback and misflagged
        // this fabric under PFC; judging only the configured routes (plus
        // SPF for pairs that actually lack one — none here) reports it
        // deadlock-free, and GFC012 certifies it.
        let (ft, routes) =
            gfc_topology::fattree::find_updown_showcase(50).expect("showcase fabric exists");
        assert!(
            all_pairs_depgraph(&ft.topo).has_cycle(),
            "the showcase must be one the all-pairs basis would misflag"
        );
        let routing = Routing::fixed(routes);
        let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
        let r = preflight(&ft.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        let v = r.verdict();
        assert!(!v.cbd_prone && v.exact_deadlock_free && !v.deadlock_susceptible, "{}", r.render());
    }

    #[test]
    fn partially_configured_static_routing_still_checks_unserved_pairs() {
        // Only one clockwise route configured: the other host pairs fall
        // back to SPF, whose direct-link paths are acyclic on the
        // triangle — so the combined conservative graph stays clean.
        let ring = Ring::new(3);
        let (s, d, p) = ring.clockwise_path(0);
        let routing = Routing::fixed([((s, d), p)].into_iter().collect());
        let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
        let r = preflight(&ring.topo, &routing, &spec);
        assert!(!r.has_errors(), "{}", r.render());
        assert!(!r.verdict().cbd_prone, "{}", r.render());
    }

    #[test]
    fn preflight_scales_without_recursion() {
        // 512 switches + 512 hosts under SPF: the SCC/peel pipeline must
        // complete in a deliberately tiny 256 KB stack (a recursive Tarjan
        // or DFS would overflow at this depth).
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let ring = Ring::new(512);
                let spec = spec_10g(FcConfig::pfc(kb(280), kb(277)));
                let r = preflight(&ring.topo, &Routing::spf(), &spec);
                let v = r.verdict();
                // Internal consistency, whatever the ring's verdict:
                // susceptible ⇒ prone, and exact-free excludes susceptible.
                assert!(!v.deadlock_susceptible || v.cbd_prone);
                assert!(!(v.exact_deadlock_free && v.deadlock_susceptible));
            })
            .expect("spawn");
        handle.join().expect("preflight overflowed the stack");
    }
}
