//! One measured run in a fresh process, and the parent side that spawns
//! such processes and collects their records.
//!
//! Every timed run is its own process, so process-level slow modes (code
//! layout, allocator and scheduler state) show up as spread between runs
//! instead of hiding behind a minimum, and `VmHWM` is the peak of exactly
//! one workload.
//!
//! A process times its run in fixed simulated slices and its set-ups one by
//! one, and reports every slice and the fastest set-up; the parent decides
//! how to combine them across processes.

use crate::outcome::{self, Outcome};
use crate::workload::{build, generate, slice_end, Engine, Kind};
use gfc_telemetry::TelemetryConfig;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one measured process reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Host seconds of the timed run to the horizon.
    pub run_s: f64,
    /// Host nanoseconds of each simulated slice of that run, in order.
    pub slice_ns: Vec<u64>,
    /// Host seconds of the process's fastest set-up.
    pub setup_s: f64,
    /// Events dispatched.
    pub events: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Peak resident set of the process, MB.
    pub rss_mb: f64,
    /// Outcome digest.
    pub digest: String,
    /// Whether the outcome matched the recorded digest.
    pub ok: bool,
}

const TAG: &str = "RECORD";

impl Record {
    /// Every field but the slice times, for people to read.
    pub fn summary(&self) -> String {
        format!(
            "run_s={} setup_s={} events={} delivered_bytes={} rss_mb={} digest={} ok={}",
            self.run_s,
            self.setup_s,
            self.events,
            self.delivered_bytes,
            self.rss_mb,
            self.digest,
            u8::from(self.ok)
        )
    }

    /// The one-line form a child prints.
    pub fn to_line(&self) -> String {
        let slices: Vec<String> = self.slice_ns.iter().map(u64::to_string).collect();
        format!("{TAG} {} slice_ns={}", self.summary(), slices.join(","))
    }

    /// Parse [`Record::to_line`].
    pub fn parse(line: &str) -> Option<Record> {
        let mut fields =
            line.strip_prefix(TAG)?.split_whitespace().filter_map(|f| f.split_once('='));
        let mut get = |key: &str| fields.find(|(k, _)| *k == key).map(|(_, v)| v.to_owned());
        Some(Record {
            run_s: get("run_s")?.parse().ok()?,
            setup_s: get("setup_s")?.parse().ok()?,
            events: get("events")?.parse().ok()?,
            delivered_bytes: get("delivered_bytes")?.parse().ok()?,
            rss_mb: get("rss_mb")?.parse().ok()?,
            digest: get("digest")?,
            ok: get("ok")? == "1",
            slice_ns: get("slice_ns")?.split(',').map(str::parse).collect::<Result<_, _>>().ok()?,
        })
    }
}

/// On the one-worker sharded engine, pin this thread, and the worker
/// threads it starts later, to the CPU it is on. The coordinating thread
/// and the worker take turns, handing each lookahead window over through a
/// channel; on two CPUs every hand-over waits for the other CPU to wake
/// up, which on a virtual machine takes a varying trip through the
/// hypervisor and made whole runs differ by a third. On one CPU the
/// hand-over is a plain context switch, and the run measures the engine.
pub fn pin_single_worker(engine: Engine) {
    if engine == Engine::Sharded(1) {
        if let Err(e) = pin_to_current_cpu() {
            eprintln!("perfbench: running unpinned: {e}");
        }
    }
}

/// Pin this thread, and every thread it starts later, to the CPU it is on.
fn pin_to_current_cpu() -> Result<(), String> {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    // SAFETY: no arguments.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number out of range")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable CPU set of `size_of_val(&mask)` bytes;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err("sched_setaffinity failed".into())
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The child side: generate the inputs, set up `setup_reps` times (timing
/// each; only the last network is kept), run to the horizon in the
/// workload's fixed slices (timing each), and check the outcome against
/// the recorded digest. With metrics off, the fields
/// the registry supplies are left out of the check.
pub fn measure(
    kind: Kind,
    seed: u64,
    engine: Engine,
    tel: TelemetryConfig,
    setup_reps: usize,
) -> Record {
    pin_single_worker(engine);
    let inputs = generate(kind, seed);
    let mut setups = Vec::with_capacity(setup_reps);
    let mut built = None;
    for _ in 0..setup_reps.max(1) {
        drop(built.take()); // free the previous network before building the next
        let t0 = Instant::now();
        let d = build(&inputs, engine, tel);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(d);
    }
    let mut d = built.expect("at least one set-up");
    let slices = kind.slices();
    let mut slice_ns = Vec::with_capacity(slices as usize);
    let t0 = Instant::now();
    for k in 1..=slices {
        let t1 = Instant::now();
        d.advance(&inputs, slice_end(inputs.horizon, slices, k));
        slice_ns.push(u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let run_s = t0.elapsed().as_secs_f64();
    let got = Outcome::of(&d);
    let checked = if tel.metrics {
        outcome::check(kind, inputs.variant, &got)
    } else {
        match outcome::recorded(kind, inputs.variant) {
            Some(want) if want.registry_free() == got.registry_free() => Ok(()),
            Some(want) => Err(format!("metrics-off outcome differs: {}", got.diff(&want))),
            None => {
                Err(format!("no recorded digest for {} variant {}", kind.name(), inputs.variant))
            }
        }
    };
    if let Err(e) = &checked {
        eprintln!("perfbench: {e}");
    }
    Record {
        run_s,
        slice_ns,
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        events: got.events,
        delivered_bytes: got.delivered_bytes,
        rss_mb: peak_rss_mb(),
        digest: got.digest(),
        ok: checked.is_ok(),
    }
}

/// Arguments of one child process.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// Workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Engine to run on.
    pub engine: Engine,
    /// Run with `TelemetryConfig::off()` instead of the default.
    pub metrics_off: bool,
}

/// Run one child process of this executable and collect its record. A
/// child that panics, fails to report, or outlives `deadline` (it is then
/// killed and reaped) is an `Err`.
pub fn run_child(spec: &ChildSpec, deadline: Instant) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", spec.kind.name(), "--seed", &spec.seed.to_string()])
        .args(["--engine", &spec.engine.name()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if spec.metrics_off {
        cmd.args(["--telemetry", "off"]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    // Drain the output while the child runs: a record with its slice times
    // is larger than a pipe holds, and a full pipe would stall the child.
    let mut out = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        use std::io::Read as _;
        let mut s = String::new();
        out.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait child: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // Best effort: the child may have exited in between. Its
                // end of the pipe closes with it, which ends the reader.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err("child exceeded the run deadline".into());
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let stdout = reader
        .join()
        .map_err(|_| "output reader panicked".to_owned())?
        .map_err(|e| format!("read child output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    stdout.lines().find_map(Record::parse).ok_or_else(|| "child printed no record".into())
}
