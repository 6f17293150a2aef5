//! Timeline walkthrough: run the Fig. 1 ring twice — PFC (wedges) and
//! buffer-based GFC (finishes) — with the timeline layer on, then export
//! each run as a Chrome trace-event JSON file for Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, plus the sampler
//! CSV for plotting occupancy curves.
//!
//! ```text
//! cargo run --release --example timeline
//! ```
//!
//! Writes `timeline-{pfc,gfc}.trace.json` and `timeline-{pfc,gfc}.csv`
//! to the working directory. Exits non-zero unless both traces are
//! well-formed JSON containing at least one counter track and one async
//! flow span, and the two runs' span outcomes match the schemes'
//! deadlock verdicts — so CI can use it as a smoke test.

use gfc::prelude::*;
use gfc_sim::config::PumpPolicy;
use gfc_sim::PreflightPolicy;

/// Bytes per flow: big enough that PFC wedges the ring long before any
/// flow completes (the XOFF threshold fills within ~250 µs), small
/// enough that GFC's ~5 Gb/s fair shares finish inside the horizon.
const FLOW_BYTES: u64 = 6_000_000;
const HORIZON_MS: u64 = 20;

fn ring(fc: FcConfig, pump: PumpPolicy) -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.preflight = PreflightPolicy::Acknowledge; // PFC run is deliberately unsound
                                                  // Metrics, flight recorder, forensics, AND the timeline: 10 µs
                                                  // samplers on every port plus per-flow spans.
    cfg.telemetry = TelemetryConfig::full();
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, Some(FLOW_BYTES), 0).expect("clockwise route");
    }
    net
}

fn run(label: &str, fc: FcConfig, pump: PumpPolicy) -> (usize, usize) {
    println!("== {label} on the Fig. 1 ring ==");
    let mut net = ring(fc, pump);
    net.run_until(Time::from_millis(HORIZON_MS));
    let horizon = Time::from_millis(HORIZON_MS).0;

    let spans = net.flow_spans().expect("spans enabled by TelemetryConfig::full()");
    let (finished, stalled) = spans.outcome_counts(horizon);
    println!("spans: {finished} finished, {stalled} stalled at end of run");
    for s in spans.spans() {
        match spans.outcome(s, horizon) {
            SpanOutcome::Finished => println!(
                "  flow {}: {} bytes in {:.2} ms ({} stall intervals)",
                s.id,
                s.delivered,
                s.fct_ps().expect("finished") as f64 / 1e9,
                s.stalls
            ),
            SpanOutcome::StalledAtEnd { idle_ps } => println!(
                "  flow {}: {} bytes delivered, idle for the last {:.2} ms",
                s.id,
                s.delivered,
                idle_ps as f64 / 1e9
            ),
        }
    }
    if let Some(p) = Percentiles::of(&spans.fcts_ps()) {
        println!("FCT percentiles (ms): {}", p.scaled(1e-9));
    }

    let samplers = net.timeline_samplers().expect("samplers enabled");
    println!(
        "samplers: {} tracks x {} samples at {:.0} us cadence ({} decimations)",
        samplers.tracks().len(),
        samplers.len(),
        samplers.period_ps() as f64 / 1e6,
        samplers.decimations()
    );

    let json = net.chrome_trace().to_json();
    let csv = net.timeline_csv().expect("samplers enabled");
    let json_path = format!("timeline-{label}.trace.json");
    let csv_path = format!("timeline-{label}.csv");
    std::fs::write(&json_path, &json).expect("write trace JSON");
    std::fs::write(&csv_path, &csv).expect("write sampler CSV");
    println!(
        "wrote {json_path} ({} KB) and {csv_path} ({} KB)",
        json.len() / 1024,
        csv.len() / 1024
    );

    // Smoke-validate the export: syntactically valid JSON with at least
    // one counter track and one async flow span.
    if let Err(e) = validate_json(&json) {
        eprintln!("{json_path}: invalid JSON: {e}");
        std::process::exit(1);
    }
    let counters = json.matches("\"ph\":\"C\"").count();
    let span_begins = json.matches("\"ph\":\"b\"").count();
    let span_ends = json.matches("\"ph\":\"e\"").count();
    if counters == 0 || span_begins == 0 {
        eprintln!("{json_path}: expected >=1 counter event and >=1 async span, got {counters} / {span_begins}");
        std::process::exit(1);
    }
    if span_begins != span_ends {
        eprintln!("{json_path}: {span_begins} span begins but {span_ends} ends");
        std::process::exit(1);
    }
    println!("trace OK: {counters} counter events, {span_begins} async spans\n");
    (finished, stalled)
}

fn main() {
    let (pfc_fin, pfc_stalled) =
        run("pfc", FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued);
    let (gfc_fin, gfc_stalled) =
        run("gfc", FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin);

    // The spans must tell the two schemes apart: the PFC ring wedges
    // before any 6 MB flow can complete; GFC finishes all three.
    if pfc_fin != 0 || pfc_stalled != 3 {
        eprintln!(
            "PFC run should stall all 3 flows, got {pfc_fin} finished / {pfc_stalled} stalled"
        );
        std::process::exit(1);
    }
    if gfc_fin != 3 || gfc_stalled != 0 {
        eprintln!(
            "GFC run should finish all 3 flows, got {gfc_fin} finished / {gfc_stalled} stalled"
        );
        std::process::exit(1);
    }
    println!("open the .trace.json files in https://ui.perfetto.dev to browse the runs");
}

// ---------------------------------------------------------------------
// Minimal JSON syntax checker (no external crates): validates the whole
// document is one well-formed value. Values are not interpreted.
// ---------------------------------------------------------------------

fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                expect(b, i, b':')?;
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {i}")),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("unexpected byte at offset {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => {
                // Any single escaped byte; \uXXXX consumes 4 more.
                let esc = *b.get(*i).ok_or("truncated escape")?;
                *i += 1;
                if esc == b'u' {
                    for _ in 0..4 {
                        let h = *b.get(*i).ok_or("truncated \\u escape")?;
                        if !h.is_ascii_hexdigit() {
                            return Err(format!("bad \\u escape at offset {i}"));
                        }
                        *i += 1;
                    }
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at offset {i}")),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bare '-' at offset {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("missing fraction digits at offset {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("missing exponent digits at offset {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    Ok(())
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {i}", c as char))
    }
}
