//! Command-line entry point; see the library docs for what each mode does.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench child --workload <name> --seed <n> [--engine seq|w<k>] [--telemetry off]
//! perfbench record [--workload <name>]
//! ```

use gfc_telemetry::TelemetryConfig;
use perfbench::measure::measure;
use perfbench::outcome::{table_header, table_line, Outcome};
use perfbench::passes;
use perfbench::report::{end_to_end, per_layer, result_line};
use perfbench::workload::{build, generate, Engine, Kind, VARIANTS};
use std::process::ExitCode;
use std::time::Instant;

/// Parsed `--key value` options.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument {k}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_owned(), v.clone()));
        }
        Ok(Opts(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key).ok_or_else(|| format!("missing --{key}"))?;
        v.parse().map_err(|_| format!("--{key} wants a whole number, got {v}"))
    }

    fn workload(&self) -> Result<Kind, String> {
        let name = self.get("workload").ok_or("missing --workload")?;
        Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }
}

fn bench(opts: &Opts) -> Result<ExitCode, String> {
    let start = Instant::now();
    let kind = opts.workload()?;
    let seed = opts.num("seed")?;
    let seconds = opts.num("seconds")?;
    let (res, specs) = match opts.num("trace")? {
        0 => (passes::timed(kind, seed, seconds, start), end_to_end()),
        1 => (passes::traced(kind, seed, start), per_layer()),
        t => return Err(format!("--trace wants 0 or 1, got {t}")),
    };
    let correct = res.failed == 0;
    let line =
        result_line(correct, res.attempted, res.failed, &specs, |n| res.metrics.get(n).copied());
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn child(opts: &Opts) -> Result<ExitCode, String> {
    let kind = opts.workload()?;
    let seed = opts.num("seed")?;
    let engine = match opts.get("engine") {
        None => kind.engine(),
        Some(e) => Engine::parse(e).ok_or_else(|| format!("unknown engine {e}"))?,
    };
    let tel = match opts.get("telemetry") {
        None => generate(kind, seed).cfg.telemetry,
        Some("off") => TelemetryConfig::off(),
        Some(t) => return Err(format!("unknown telemetry setting {t}")),
    };
    println!("{}", measure(kind, seed, engine, tel, kind.setup_reps()).to_line());
    Ok(ExitCode::SUCCESS)
}

fn record(opts: &Opts) -> Result<ExitCode, String> {
    let kinds = match opts.get("workload") {
        Some(_) => vec![opts.workload()?],
        None => Kind::ALL.to_vec(),
    };
    println!("{}", table_header());
    for kind in kinds {
        for variant in 0..VARIANTS {
            let inputs = generate(kind, variant);
            let mut d = build(&inputs, kind.engine(), inputs.cfg.telemetry);
            d.advance(&inputs, inputs.horizon);
            println!("{}", table_line(kind, variant, &Outcome::of(&d)));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => Opts::parse(&args[1..]).and_then(|o| child(&o)),
        Some("record") => Opts::parse(&args[1..]).and_then(|o| record(&o)),
        _ => Opts::parse(&args).and_then(|o| bench(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
