//! The individual preflight checks (GFC001–GFC011).
//!
//! Every check is total: it never panics on malformed input, it reports.
//! Checks run before the simulator's own `validate()` asserts, so the
//! degenerate cases those asserts would kill (e.g. `B1 ≥ Bm`) must come
//! out of here as Error diagnostics with usable hints instead.

use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::spec::FabricSpec;
use gfc_core::bfc::BfcConfig;
use gfc_core::fc_config::{
    CbfcParams, ConceptualParams, DcfitParams, FcConfig, GfcBufferParams, GfcTimeParams, PfcParams,
};
use gfc_core::mapping::StageTable;
use gfc_core::theorems;
use gfc_core::units::{Dur, Rate};
use gfc_topology::cbd::{depgraph_for_flows, spf_all_pairs_depgraphs, spf_depgraph_for_pairs};
use gfc_topology::render::{self, render_dirlink_cycle};
use gfc_topology::{DepGraph, DirLink, NodeId, Routing, Scc, Topology};

fn push(
    report: &mut Report,
    code: Code,
    severity: Severity,
    subject: String,
    message: String,
    hint: String,
) {
    report.push(Diagnostic { code, severity, subject, message, hint });
}

/// Dispatch the per-scheme threshold checks (GFC001–GFC006, GFC009,
/// GFC010) plus the scheme-independent register check (GFC008).
pub(crate) fn check_parameters(spec: &FabricSpec, report: &mut Report) {
    match spec.fc {
        FcConfig::None => {}
        FcConfig::Pfc(PfcParams { xoff, xon }) => check_pfc(spec, xoff, xon, report),
        // DCFIT is PFC with detection tags riding on the frames: its
        // threshold soundness conditions are PFC's verbatim.
        FcConfig::Dcfit(DcfitParams { xoff, xon }) => check_pfc(spec, xoff, xon, report),
        FcConfig::Cbfc(CbfcParams { period }) => check_cbfc(spec, period, report),
        FcConfig::GfcBuffer(GfcBufferParams { bm, b1, stage_ratio }) => {
            check_bm(spec, bm, report);
            check_buffer_gfc(spec, bm, b1, stage_ratio, report);
        }
        FcConfig::GfcTime(GfcTimeParams { b0, bm, period }) => {
            check_bm(spec, bm, report);
            check_time_gfc(spec, b0, bm, period, report);
        }
        FcConfig::Conceptual(ConceptualParams { b0, bm, tau }) => {
            check_bm(spec, bm, report);
            check_conceptual(spec, b0, bm, tau, report);
        }
        FcConfig::Bfc(cfg) => check_bfc(spec, &cfg, report),
    }
    check_rate_limiter(spec, report);
}

/// GFC001 — Theorem 4.1: conceptual GFC needs `B0 ≤ Bm − 4·C·τ`.
fn check_conceptual(spec: &FabricSpec, b0: u64, bm: u64, tau: Dur, report: &mut Report) {
    if b0 >= bm {
        push(
            report,
            Code::Gfc001,
            Severity::Error,
            format!("fc.b0 = {b0} B, fc.bm = {bm} B"),
            "conceptual GFC needs B0 < Bm: the linear descent of Fig. 4(b) is empty".into(),
            "choose B0 below Bm (Theorem 4.1 admits up to Bm − 4·C·τ)".into(),
        );
        return;
    }
    match theorems::conceptual_b0_bound(bm, spec.capacity, tau) {
        None => push(
            report,
            Code::Gfc001,
            Severity::Error,
            format!("fc.bm = {bm} B, 4·C·τ = {} B", spec.capacity.bytes_in(tau) * 4),
            "Theorem 4.1 is unsatisfiable: Bm is smaller than 4·C·τ, so no B0 avoids hold-and-wait".into(),
            "enlarge the buffer beyond 4·C·τ or shorten the feedback latency τ".into(),
        ),
        Some(bound) if b0 > bound => push(
            report,
            Code::Gfc001,
            Severity::Error,
            format!("fc.b0 = {b0} B"),
            format!(
                "Theorem 4.1 violated: B0 = {b0} B exceeds Bm − 4·C·τ = {bound} B, so a full-rate burst can exhaust the buffer and hold-and-wait"
            ),
            format!("set B0 ≤ {bound} B"),
        ),
        Some(_) => {}
    }
}

/// GFC002 — §4.2: buffer-based GFC needs `B1 ≤ Bm − 2·C·τ`. Returns
/// whether `(bm, b1)` are ordered sanely (gates the stage-table check).
fn check_buffer_gfc(
    spec: &FabricSpec,
    bm: u64,
    b1: u64,
    stage_ratio: (u64, u64),
    report: &mut Report,
) {
    if b1 >= bm {
        push(
            report,
            Code::Gfc002,
            Severity::Error,
            format!("fc.b1 = {b1} B, fc.bm = {bm} B"),
            "buffer-based GFC needs B1 < Bm: there is no room for any rate-reducing stage".into(),
            "choose B1 below Bm (§4.2 admits up to Bm − 2·C·τ)".into(),
        );
        return;
    }
    let tau = spec.tau();
    match theorems::buffer_based_b1_bound(bm, spec.capacity, tau) {
        None => push(
            report,
            Code::Gfc002,
            Severity::Error,
            format!("fc.bm = {bm} B, 2·C·τ = {} B", spec.capacity.bytes_in(tau) * 2),
            "the §4.2 bound is unsatisfiable: Bm is smaller than 2·C·τ".into(),
            "enlarge the buffer beyond 2·C·τ or shorten τ (Eq. 6)".into(),
        ),
        Some(bound) if b1 > bound => push(
            report,
            Code::Gfc002,
            Severity::Error,
            format!("fc.b1 = {b1} B"),
            format!(
                "§4.2 bound violated: B1 = {b1} B exceeds Bm − 2·C·τ = {bound} B, so stage-1 feedback can arrive after the buffer is exhausted"
            ),
            format!("set B1 ≤ {bound} B"),
        ),
        Some(_) => {}
    }
    check_stage_table(spec, bm, b1, stage_ratio, report);
}

/// GFC003 — Theorem 5.1: time-based GFC needs
/// `B0 ≤ Bm − (√(τ/T)+1)²·C·T`.
fn check_time_gfc(spec: &FabricSpec, b0: u64, bm: u64, period: Dur, report: &mut Report) {
    if !check_period(spec, period, report) {
        return;
    }
    if b0 >= bm {
        push(
            report,
            Code::Gfc003,
            Severity::Error,
            format!("fc.b0 = {b0} B, fc.bm = {bm} B"),
            "time-based GFC needs B0 < Bm: the linear descent is empty".into(),
            "choose B0 below Bm (Theorem 5.1 bounds the admissible maximum)".into(),
        );
        return;
    }
    match theorems::time_based_b0_bound(bm, spec.capacity, spec.tau(), period) {
        None => push(
            report,
            Code::Gfc003,
            Severity::Error,
            format!(
                "fc.bm = {bm} B, (√(τ/T)+1)²·C·T = {} B",
                theorems::time_based_margin(spec.capacity, spec.tau(), period)
            ),
            "Theorem 5.1 is unsatisfiable: Bm is smaller than the (√(τ/T)+1)²·C·T reserve".into(),
            "enlarge the buffer, shorten the feedback period T, or shorten τ".into(),
        ),
        Some(bound) if b0 > bound => push(
            report,
            Code::Gfc003,
            Severity::Error,
            format!("fc.b0 = {b0} B"),
            format!("Theorem 5.1 violated: B0 = {b0} B exceeds Bm − (√(τ/T)+1)²·C·T = {bound} B"),
            format!("set B0 ≤ {bound} B"),
        ),
        Some(_) => {}
    }
}

/// GFC004/GFC005 — PFC threshold soundness and hysteresis.
fn check_pfc(spec: &FabricSpec, xoff: u64, xon: u64, report: &mut Report) {
    let ctau = spec.ctau_bytes();
    if xoff > spec.buffer_bytes {
        push(
            report,
            Code::Gfc004,
            Severity::Error,
            format!("fc.xoff = {xoff} B, buffer = {} B", spec.buffer_bytes),
            "XOFF lies beyond the physical buffer: PAUSE can never fire before overflow".into(),
            format!("set XOFF ≤ buffer − C·τ = {} B", spec.buffer_bytes.saturating_sub(ctau)),
        );
    } else {
        let headroom = spec.buffer_bytes - xoff;
        let conservative = 2 * ctau + spec.mtu;
        if headroom < ctau {
            push(
                report,
                Code::Gfc004,
                Severity::Error,
                format!("fc.xoff = {xoff} B (headroom {headroom} B)"),
                format!(
                    "XOFF headroom {headroom} B is below C·τ = {ctau} B: in-flight data arriving after PAUSE overflows the buffer — drops in a lossless fabric"
                ),
                format!("set XOFF ≤ {} B", spec.buffer_bytes - ctau),
            );
        } else if headroom < conservative {
            push(
                report,
                Code::Gfc004,
                Severity::Warning,
                format!("fc.xoff = {xoff} B (headroom {headroom} B)"),
                format!(
                    "XOFF headroom {headroom} B is below the conservative 2·C·τ + MTU = {conservative} B provisioning (§2): no margin if the PAUSE round trip degrades"
                ),
                format!("for worst-case provisioning set XOFF ≤ {} B", spec.buffer_bytes - conservative),
            );
        }
    }
    if xon >= xoff {
        push(
            report,
            Code::Gfc005,
            Severity::Error,
            format!("fc.xon = {xon} B, fc.xoff = {xoff} B"),
            "XON is not below XOFF: the pause gate has no hysteresis and can never resume cleanly"
                .into(),
            "set XON at least one MTU below XOFF (the paper uses a 2·MTU gap)".into(),
        );
    } else if xoff - xon < spec.mtu {
        push(
            report,
            Code::Gfc005,
            Severity::Warning,
            format!("fc.xoff − fc.xon = {} B", xoff - xon),
            format!(
                "XON/XOFF gap is narrower than one MTU ({} B): a single arriving frame re-crosses XOFF and every packet costs a PAUSE/RESUME pair",
                spec.mtu
            ),
            "widen the gap to at least 2·MTU".into(),
        );
    }
}

/// GFC004/GFC005 for BFC: the aggregate XOFF plays PFC XOFF's role (last
/// line of defense against overflow of the shared ingress buffer), so it
/// needs the same `C·τ` headroom; the per-flow and aggregate threshold
/// pairs each need hysteresis to resume cleanly.
fn check_bfc(spec: &FabricSpec, cfg: &BfcConfig, report: &mut Report) {
    let ctau = spec.ctau_bytes();
    if cfg.agg_xoff > spec.buffer_bytes {
        push(
            report,
            Code::Gfc004,
            Severity::Error,
            format!("fc.agg_xoff = {} B, buffer = {} B", cfg.agg_xoff, spec.buffer_bytes),
            "the aggregate XOFF lies beyond the physical buffer: the backstop pause can never fire before overflow".into(),
            format!(
                "set agg_xoff ≤ buffer − C·τ = {} B",
                spec.buffer_bytes.saturating_sub(ctau)
            ),
        );
    } else {
        let headroom = spec.buffer_bytes - cfg.agg_xoff;
        if headroom < ctau {
            push(
                report,
                Code::Gfc004,
                Severity::Error,
                format!("fc.agg_xoff = {} B (headroom {headroom} B)", cfg.agg_xoff),
                format!(
                    "aggregate XOFF headroom {headroom} B is below C·τ = {ctau} B: in-flight data arriving after the backstop pause overflows the buffer"
                ),
                format!("set agg_xoff ≤ {} B", spec.buffer_bytes - ctau),
            );
        }
    }
    for (name, xoff, xon) in
        [("flow", cfg.flow_xoff, cfg.flow_xon), ("agg", cfg.agg_xoff, cfg.agg_xon)]
    {
        if xon >= xoff {
            push(
                report,
                Code::Gfc005,
                Severity::Error,
                format!("fc.{name}_xon = {xon} B, fc.{name}_xoff = {xoff} B"),
                format!(
                    "the {name} pause thresholds have no hysteresis: a paused flow can never resume cleanly"
                ),
                format!("set {name}_xon at least one MTU below {name}_xoff"),
            );
        } else if xoff - xon < spec.mtu {
            push(
                report,
                Code::Gfc005,
                Severity::Warning,
                format!("fc.{name}_xoff − fc.{name}_xon = {} B", xoff - xon),
                format!(
                    "the {name} XON/XOFF gap is narrower than one MTU ({} B): a single arriving frame re-crosses XOFF and every packet costs a pause/resume pair",
                    spec.mtu
                ),
                "widen the gap to at least 2·MTU".into(),
            );
        }
    }
}

/// GFC006 — CBFC credit sizing: the advertised buffer is the credit pool;
/// if it cannot cover the bandwidth–delay product of the feedback loop the
/// link idles waiting for FCPs (throughput loss, not a safety issue).
fn check_cbfc(spec: &FabricSpec, period: Dur, report: &mut Report) {
    if !check_period(spec, period, report) {
        return;
    }
    let rtt = spec.t_wire.mul_u64(2) + spec.t_proc + period;
    let bdp = spec.capacity.bytes_in(rtt) + spec.mtu;
    if spec.buffer_bytes < bdp {
        push(
            report,
            Code::Gfc006,
            Severity::Warning,
            format!("buffer = {} B, C·(2·t_w + t_r + T) + MTU = {bdp} B", spec.buffer_bytes),
            "credits cannot cover one feedback round trip: the sender exhausts the pool and idles until the next FCP — the link cannot sustain line rate".into(),
            format!("provision at least {bdp} B of buffer, or shorten the feedback period"),
        );
    }
    let recommended = theorems::cbfc_recommended_period(spec.capacity);
    if period.0 > recommended.0.saturating_mul(4) {
        push(
            report,
            Code::Gfc006,
            Severity::Info,
            format!("fc.period = {:.1} µs", period.as_micros_f64()),
            format!(
                "feedback period is more than 4× the 65535-byte guidance ({:.1} µs): credit state goes stale between updates",
                recommended.as_micros_f64()
            ),
            "consider the InfiniBand-recommended period (time to send 65535 B)".into(),
        );
    }
}

/// GFC010 — feedback-period sanity, shared by the periodic schemes.
/// Returns false when the period is unusable (dependent checks skip).
fn check_period(spec: &FabricSpec, period: Dur, report: &mut Report) -> bool {
    if period.0 == 0 {
        push(
            report,
            Code::Gfc010,
            Severity::Error,
            "fc.period = 0".into(),
            "a zero feedback period is degenerate: the feedback clock never advances".into(),
            "use a positive period (e.g. the time to send 65535 B)".into(),
        );
        return false;
    }
    let mtu_ser = Dur::for_bytes(spec.mtu, spec.capacity);
    if period < mtu_ser {
        push(
            report,
            Code::Gfc010,
            Severity::Warning,
            format!("fc.period = {:.2} µs", period.as_micros_f64()),
            format!(
                "feedback period is shorter than one MTU serialization ({:.2} µs): control messages outnumber data frames (the Fig. 19 control-bandwidth flood)",
                mtu_ser.as_micros_f64()
            ),
            "lengthen the period to at least a few MTU times".into(),
        );
    }
    true
}

/// GFC009 — `Bm` vs. the physical buffer.
fn check_bm(spec: &FabricSpec, bm: u64, report: &mut Report) {
    if bm > spec.buffer_bytes {
        push(
            report,
            Code::Gfc009,
            Severity::Error,
            format!("fc.bm = {bm} B, buffer = {} B", spec.buffer_bytes),
            "Bm lies beyond the physical buffer: the mapping's zero-rate point is unreachable and overflow precedes it".into(),
            format!("set Bm ≤ {} B (§5.4 sets Bm to the full buffer)", spec.buffer_bytes),
        );
    } else if bm < spec.buffer_bytes {
        push(
            report,
            Code::Gfc009,
            Severity::Info,
            format!("fc.bm = {bm} B, buffer = {} B", spec.buffer_bytes),
            format!(
                "{} B of buffer above Bm are never used by the mapping (headroom for feedback-latency creep)",
                spec.buffer_bytes - bm
            ),
            "intentional headroom is fine; otherwise set Bm to the full buffer (§5.4)".into(),
        );
    }
}

/// GFC007 — stage-table geometry: thresholds strictly increase, rates
/// follow `R_k = C·(num/den)^k` exactly, the deepest stage still trickles,
/// and the ratio respects Eq. (3)'s 3/4 admissibility limit.
fn check_stage_table(
    spec: &FabricSpec,
    bm: u64,
    b1: u64,
    stage_ratio: (u64, u64),
    report: &mut Report,
) {
    let (num, den) = stage_ratio;
    if num == 0 || num >= den {
        push(
            report,
            Code::Gfc007,
            Severity::Error,
            format!("fc.stage_ratio = {num}/{den}"),
            "the stage ratio must lie strictly inside (0, 1)".into(),
            "the paper uses 1/2 (Eq. 4); Eq. (3) admits anything ≤ 3/4".into(),
        );
        return;
    }
    if 4 * num > 3 * den {
        push(
            report,
            Code::Gfc007,
            Severity::Error,
            format!("fc.stage_ratio = {num}/{den}"),
            "stage ratio exceeds 3/4: Eq. (3) no longer holds, so a stage's worst-case inflow outruns the next stage's drain and hold-and-wait returns".into(),
            "use a ratio ≤ 3/4 (the paper selects 1/2)".into(),
        );
    }
    if b1 >= bm {
        return; // already an Error from GFC002; the table cannot be built
    }
    let table = StageTable::with_ratio(bm, b1, spec.capacity, num, den);
    let mut prev: Option<(u64, Rate)> = None;
    for (k, stage) in table.iter() {
        if let Some((pstart, prate)) = prev {
            if stage.start <= pstart {
                push(
                    report,
                    Code::Gfc007,
                    Severity::Error,
                    format!("stage {k} start = {} B", stage.start),
                    format!(
                        "stage thresholds must strictly increase (stage {} starts at {pstart} B)",
                        k - 1
                    ),
                    "this indicates a malformed table; rebuild it from (Bm, B1, C)".into(),
                );
            }
            let expected = Rate((prate.0 as u128 * num as u128 / den as u128) as u64);
            if stage.rate != expected {
                push(
                    report,
                    Code::Gfc007,
                    Severity::Error,
                    format!("stage {k} rate = {} b/s", stage.rate.0),
                    format!(
                        "stage rates must follow R_k = C·({num}/{den})^k (expected {} b/s from stage {})",
                        expected.0,
                        k - 1
                    ),
                    "this indicates a malformed table; rebuild it from (Bm, B1, C)".into(),
                );
            }
        } else if stage.rate != spec.capacity {
            push(
                report,
                Code::Gfc007,
                Severity::Error,
                format!("stage 0 rate = {} b/s", stage.rate.0),
                "stage 0 must map to full line rate C".into(),
                "this indicates a malformed table; rebuild it from (Bm, B1, C)".into(),
            );
        }
        prev = Some((stage.start, stage.rate));
    }
    let deepest = table.rate_for_stage(table.num_stages());
    if deepest == Rate::ZERO {
        push(
            report,
            Code::Gfc007,
            Severity::Error,
            format!("stage {} rate = 0", table.num_stages()),
            "the deepest stage maps to zero: GFC degenerates into a hard gate and the no-hold-and-wait guarantee is void".into(),
            "widen Bm − B1 or use a coarser ratio so the deepest stage stays positive".into(),
        );
    } else if deepest < spec.min_rate_unit {
        push(
            report,
            Code::Gfc008,
            Severity::Info,
            format!(
                "stage {} rate = {} b/s, min_rate_unit = {} b/s",
                table.num_stages(),
                deepest.0,
                spec.min_rate_unit.0
            ),
            "the deepest stages fall below the rate-limiter's minimum unit and clamp to it (§7): the effective table is shallower than N".into(),
            "harmless; raise B1 (fewer stages) or lower min_rate_unit to use the full depth".into(),
        );
    }
}

/// GFC008 — rate-limiter register sanity (§5.3 three-register design,
/// §7 commodity minimum unit).
fn check_rate_limiter(spec: &FabricSpec, report: &mut Report) {
    if spec.min_rate_unit > spec.capacity {
        push(
            report,
            Code::Gfc008,
            Severity::Error,
            format!("min_rate_unit = {} b/s, C = {} b/s", spec.min_rate_unit.0, spec.capacity.0),
            "the pacing floor exceeds line rate: every assignment clamps to C and the limiter can never throttle".into(),
            "set min_rate_unit well below C (commodity gear uses 8 Kb/s, §7)".into(),
        );
    } else if spec.min_rate_unit == Rate::ZERO && spec.fc.is_gfc() {
        push(
            report,
            Code::Gfc008,
            Severity::Warning,
            "min_rate_unit = 0".into(),
            "no pacing floor: the countdown R_c = R_l·(C − R_r)/R_r grows without bound as R_r → 0, beyond any hardware register range".into(),
            "use the §7 commodity floor (8 Kb/s) unless modeling ideal hardware".into(),
        );
    }
}

/// GFC011/GFC012/GFC013 — the CBD pipeline.
///
/// 1. Condense the *conservative* dependency graph (the Table 1 prefilter
///    basis) into strongly connected components and report each cyclic
///    SCC under GFC011, with a representative cycle; an Error finding (hard
///    gate, not exactly deadlock-free) also carries a break-set hint, the
///    only place it is printed.
/// 2. Peel the *witnessed* (host-realizable) graph: deadlock is reachable
///    iff some vertex survives every peeling round. That exact verdict is
///    GFC012, and it can downgrade a cyclic-but-safe GFC011 finding from
///    Error to Info.
/// 3. When the fabric is genuinely susceptible (residual + hard gate),
///    GFC013 ranks break-set advisories per residual component.
pub(crate) fn check_cbd(
    topo: &Topology,
    routing: &Routing,
    spec: &FabricSpec,
    report: &mut Report,
) {
    let (conservative, witnessed) = depgraphs(topo, routing);
    let condensation = conservative.condensation();
    let cyclic: Vec<&Scc> = condensation.cyclic_by_size();
    let peel = witnessed.peel();
    let exact_free = peel.deadlock_free();
    report.cbd_prone = !cyclic.is_empty();
    report.exact_deadlock_free = exact_free;
    report.deadlock_susceptible = !exact_free && spec.fc.has_hard_gate();

    // GFC011 — one finding per cyclic SCC of the conservative graph.
    if cyclic.is_empty() {
        push(
            report,
            Code::Gfc011,
            Severity::Info,
            format!("topology: {} nodes, {} links", topo.num_nodes(), topo.link_ids().count()),
            "no cyclic buffer dependency under this routing: circular wait is impossible for any flow-control scheme".into(),
            "no action needed".into(),
        );
    }
    for scc in &cyclic {
        let cycle = conservative.cycle_in_scc(scc);
        let subject =
            format!("routing: {}", render_dirlink_cycle(topo, &cycle, render::CHAIN_MAX_HOPS));
        if spec.fc.has_hard_gate() {
            if exact_free {
                push(
                    report,
                    Code::Gfc011,
                    Severity::Info,
                    subject,
                    format!(
                        "SCC of {} directed links is cyclic in the all-pairs union, but every dependency a host flow can realize drains (GFC012): the cycle is a phantom of the conservative prefilter",
                        scc.len()
                    ),
                    "no action needed — see the GFC012 peeling certificate".into(),
                );
            } else {
                let break_hint = break_set_hint(topo, &conservative, scc);
                push(
                    report,
                    Code::Gfc011,
                    Severity::Error,
                    subject,
                    format!(
                        "cyclic buffer dependency (SCC of {} directed links) under {}: once every buffer on the cycle fills, the {} gate freezes all of them — permanent deadlock (Fig. 1)",
                        scc.len(),
                        spec.fc.name(),
                        if matches!(spec.fc, FcConfig::Pfc(_) | FcConfig::Dcfit(_)) {
                            "PAUSE"
                        } else {
                            "credit"
                        }
                    ),
                    format!(
                        "use a GFC variant (no hold-and-wait, Theorem 4.1/5.1), or {break_hint}"
                    ),
                );
            }
        } else if spec.fc.is_gfc() {
            push(
                report,
                Code::Gfc011,
                Severity::Info,
                subject,
                format!(
                    "cyclic buffer dependency present, but {} never hold-and-waits: the deepest stage keeps trickling and the cycle drains (Theorem 4.1/5.1)",
                    spec.fc.name()
                ),
                "no action needed while the GFC bounds (GFC001–GFC003) hold".into(),
            );
        } else if matches!(spec.fc, FcConfig::Bfc(_)) {
            push(
                report,
                Code::Gfc011,
                Severity::Info,
                subject,
                "cyclic buffer dependency present, but BFC's gate is per-flow: a paused flow's backpressure chain ends at its destination host (which always drains), so no port-wide circular wait forms".into(),
                "no action needed while flows terminate at hosts; the aggregate backstop still drops under pathological fan-in".into(),
            );
        } else {
            push(
                report,
                Code::Gfc011,
                Severity::Info,
                subject,
                "cyclic buffer dependency present, but the fabric is lossy: overflow drops packets instead of pausing, so no deadlock (at the price of loss)".into(),
                "enable a GFC variant for losslessness without deadlock".into(),
            );
        }
    }

    // GFC012 — the exact verdict from peeling the witnessed graph.
    if exact_free {
        push(
            report,
            Code::Gfc012,
            Severity::Info,
            format!(
                "dependency peeling: {} vertices drained in {} rounds",
                peel.peeled, peel.rounds
            ),
            "exact deadlock-freedom certificate: every host-realizable buffer dependency eventually drains, so no circular wait is sustainable under any flow-control scheme".into(),
            "no action needed".into(),
        );
    } else if spec.fc.has_hard_gate() {
        push(
            report,
            Code::Gfc012,
            Severity::Error,
            format!(
                "dependency peeling: {} of {} vertices survive every round",
                peel.residual.len(),
                peel.peeled + peel.residual.len()
            ),
            format!(
                "exact analysis confirms the threat: {} directed links can sustain a circular wait, and {} hold-and-waits on it",
                peel.residual.len(),
                spec.fc.name()
            ),
            "see GFC013 for the smallest re-routing that breaks each residual component".into(),
        );
    } else {
        push(
            report,
            Code::Gfc012,
            Severity::Info,
            format!(
                "dependency peeling: {} of {} vertices survive every round",
                peel.residual.len(),
                peel.peeled + peel.residual.len()
            ),
            format!(
                "a sustainable circular wait exists, but {} cannot freeze on it",
                if spec.fc.is_gfc() {
                    spec.fc.name()
                } else if matches!(spec.fc, FcConfig::Bfc(_)) {
                    "BFC's per-flow gate"
                } else {
                    "a lossy fabric"
                }
            ),
            "keep the scheme sound (GFC001–GFC003) or accept loss; a hard-gated scheme here would deadlock".into(),
        );
    }

    // GFC013 — break-set advisories, only for genuinely susceptible fabrics.
    if report.deadlock_susceptible {
        for scc in witnessed.condensation().cyclic_by_size() {
            let brk = witnessed.break_set(scc);
            let labels: Vec<String> =
                brk.iter().map(|&v| render::dirlink_label(topo, DirLink::from_index(v))).collect();
            push(
                report,
                Code::Gfc013,
                Severity::Warning,
                format!(
                    "SCC of {} directed links: {}",
                    scc.len(),
                    render_dirlink_cycle(topo, &witnessed.cycle_in_scc(scc), render::CHAIN_MAX_HOPS)
                ),
                format!(
                    "re-routing traffic off {} directed link(s) acyclifies this component: {}",
                    brk.len(),
                    render::render_chain(&labels, ", ", render::CHAIN_MAX_HOPS)
                ),
                "steer the listed links' flows onto an acyclic overlay (up/down or spanning-tree routing), then re-run preflight".into(),
            );
        }
    }
}

/// The two dependency graphs of the CBD pipeline: the conservative one
/// GFC011 condenses, and the witnessed one GFC012 peels.
///
/// SPF routing contributes the full all-pairs equal-cost union (Table 1)
/// and its host-realizable restriction, built in one pass. Static routing
/// contributes its configured paths *exactly*, plus the SPF fallback's
/// DAGs for only those host pairs that actually lack a configured path —
/// a fully configured fabric is judged purely on its own routes instead
/// of being drowned in phantom all-pairs edges. That graph is already
/// flow-exact, so it serves as the witnessed graph too.
fn depgraphs(topo: &Topology, routing: &Routing) -> (DepGraph, DepGraph) {
    match routing {
        Routing::Spf(_) => spf_all_pairs_depgraphs(topo),
        Routing::Static { paths, .. } => {
            let flows: Vec<_> =
                paths.iter().map(|(&(src, _), links)| (src, links.clone())).collect();
            let mut g = depgraph_for_flows(topo, &flows);
            let hosts = topo.hosts();
            let unconfigured: Vec<(NodeId, Vec<NodeId>)> = hosts
                .iter()
                .filter_map(|&dst| {
                    let srcs: Vec<NodeId> = hosts
                        .iter()
                        .copied()
                        .filter(|&src| src != dst && !paths.contains_key(&(src, dst)))
                        .collect();
                    (!srcs.is_empty()).then_some((dst, srcs))
                })
                .collect();
            spf_depgraph_for_pairs(topo, &unconfigured, &mut g);
            (g.clone(), g)
        }
    }
}

/// Break-set fragment for a GFC011 hint, e.g.
/// `re-route off 1 directed link(s): S2→S3`.
fn break_set_hint(topo: &Topology, g: &DepGraph, scc: &Scc) -> String {
    let brk = g.break_set(scc);
    let labels: Vec<String> =
        brk.iter().map(|&v| render::dirlink_label(topo, DirLink::from_index(v))).collect();
    format!(
        "re-route off {} directed link(s): {}",
        brk.len(),
        render::render_chain(&labels, ", ", render::CHAIN_MAX_HOPS)
    )
}
