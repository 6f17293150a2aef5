//! # perfbench — end-to-end and per-layer benchmark of the GFC simulator
//!
//! The users of this simulator regenerate the paper's figures: they care
//! how long a fixed scenario takes to simulate and to set up, how much
//! memory it needs, and that the simulated result stays exactly the same.
//! `BENCHMARK.json` at the repository root names the workloads and
//! metrics; `run.py` builds this package and runs it:
//!
//! ```text
//! python3 perfbench/run.py --workload ring3_gfc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` is the timed pass ([`passes::timed`]): fresh processes,
//!   one run each, tracing off, every outcome checked against the digest
//!   recorded in `digests.tsv`; it prints every run with the quartiles
//!   and reports the end-to-end metrics, the run time as the sum of each
//!   simulated slice's fastest time across the processes.
//! * `--trace 1` is the traced pass ([`passes::traced`]): engine probe and
//!   timeline sampling on, the run cut into fixed simulated slices, spans
//!   around every call into the program, and replays of each inner layer's
//!   public API ([`layers`]) on inputs taken from that run; it reports the
//!   per-layer metrics.
//!
//! `perfbench record` re-derives `digests.tsv` from the current program.
//! `LAYERS.md` explains the workloads and maps each layer's metrics to
//! the end-to-end metrics they should move.
//! Nothing here instruments the program itself: every number comes from
//! timing public calls or from counters `metrics_snapshot()` exports.

pub mod layers;
pub mod measure;
pub mod outcome;
pub mod passes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
