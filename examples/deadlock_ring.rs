//! The §6.1 testbed experiments (Figs. 9 and 10): the three-switch ring
//! with the testbed's 1 MB buffers and 90 µs feedback latency, comparing
//! PFC vs buffer-based GFC and CBFC vs time-based GFC, with the traced
//! queue/rate evolutions of the switch port connecting to H1.
//!
//! ```text
//! cargo run --release --example deadlock_ring
//! ```

use gfc_core::units::Time;
use gfc_experiments::fig09::RingParams;
use gfc_experiments::{fig09, fig10};

fn sparkline(series: &gfc_telemetry::TimeSeries, scale: f64) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .decimated(60)
        .points()
        .iter()
        .map(|&(_, v)| {
            let idx = ((v / scale) * 7.0).round().clamp(0.0, 7.0) as usize;
            GLYPHS[idx]
        })
        .collect()
}

fn main() {
    let params = RingParams { horizon: Time::from_millis(80), ..Default::default() };

    let r9 = fig09::run(params.clone());
    print!("{}", r9.report());
    println!("  PFC queue   {}", sparkline(&r9.pfc.queue, 1_048_576.0));
    println!("  GFC queue   {}", sparkline(&r9.gfc.queue, 1_048_576.0));
    println!("  PFC in-rate {}", sparkline(&r9.pfc.rate, 1e10));
    println!("  GFC in-rate {}", sparkline(&r9.gfc.rate, 1e10));
    println!();

    let r10 = fig10::run(params);
    print!("{}", r10.report());
    println!("  CBFC queue  {}", sparkline(&r10.cbfc.queue, 1_048_576.0));
    println!("  GFC queue   {}", sparkline(&r10.gfc.queue, 1_048_576.0));
}
