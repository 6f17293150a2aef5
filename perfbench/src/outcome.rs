//! The simulated outcome of a run, its digest, and the recorded digest
//! table (`digests.tsv`) every run is checked against.
//!
//! A change that only speeds the simulator up must leave every simulated
//! statistic identical, so the check is exact: any difference in the event
//! count, delivered bytes, flow completions, control frames by class,
//! drops, the deadlock verdicts or the per-flow ledger fails the run.

use crate::workload::{Kind, Scenario, Sim};
use gfc_telemetry::names;
use std::fmt::Write as _;

/// What a run simulated, in the fields the digest covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Events dispatched (`loop.events`).
    pub events: u64,
    /// Packets delivered to destination hosts.
    pub delivered_packets: u64,
    /// Payload bytes delivered (`sim.delivered.bytes`).
    pub delivered_bytes: u64,
    /// Sized flows that finished.
    pub flows_finished: u64,
    /// Sized flows still running at the horizon.
    pub flows_unfinished: u64,
    /// Control frames received, all classes.
    pub ctrl_msgs: u64,
    /// PFC PAUSE frames received.
    pub pause_rx: u64,
    /// PFC RESUME frames received.
    pub resume_rx: u64,
    /// GFC stage frames received.
    pub stage_rx: u64,
    /// Credit frames received.
    pub credit_rx: u64,
    /// Conceptual queue samples received.
    pub sample_rx: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Progress-monitor deadlock verdict.
    pub deadlocked: bool,
    /// Structural (wait-for cycle) deadlock verdict.
    pub structural_deadlock: bool,
    /// FNV-1a hash of the full flow ledger (every flow's start and end).
    pub ledger_hash: u64,
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

impl Outcome {
    /// Field names in digest and table order.
    pub const FIELDS: [&'static str; 15] = [
        "events",
        "delivered_packets",
        "delivered_bytes",
        "flows_finished",
        "flows_unfinished",
        "ctrl_msgs",
        "pause_rx",
        "resume_rx",
        "stage_rx",
        "credit_rx",
        "sample_rx",
        "drops",
        "deadlocked",
        "structural_deadlock",
        "ledger_hash",
    ];

    /// Read the outcome of a finished run. Registry counters that are
    /// absent (metrics off) read as zero; see [`Outcome::registry_free`].
    pub fn of(d: &Scenario) -> Outcome {
        let snap = d.snapshot();
        let c = |name| snap.counter(name).unwrap_or(0);
        let (ledger, deadlocked, structural_deadlock) = match &d.sim {
            Sim::Seq(net) => {
                (net.ledger().clone(), net.deadlocked(), net.structurally_deadlocked())
            }
            Sim::Sharded(net) => (net.ledger(), net.deadlocked(), net.structurally_deadlocked()),
        };
        Outcome {
            events: c(names::EVENTS),
            delivered_packets: c(names::DELIVERED_PACKETS),
            delivered_bytes: c(names::DELIVERED_BYTES),
            flows_finished: ledger.finished() as u64,
            flows_unfinished: ledger.unfinished() as u64,
            ctrl_msgs: c(names::CTRL_MSGS),
            pause_rx: c(names::PAUSE_RX),
            resume_rx: c(names::RESUME_RX),
            stage_rx: c(names::STAGE_RX),
            credit_rx: c(names::CREDIT_RX),
            sample_rx: c(names::SAMPLE_RX),
            drops: c(names::DROPS),
            deadlocked,
            structural_deadlock,
            ledger_hash: fnv1a(format!("{:?}", ledger.records()).as_bytes()),
        }
    }

    /// Field values in [`Outcome::FIELDS`] order.
    pub fn values(&self) -> [u64; 15] {
        [
            self.events,
            self.delivered_packets,
            self.delivered_bytes,
            self.flows_finished,
            self.flows_unfinished,
            self.ctrl_msgs,
            self.pause_rx,
            self.resume_rx,
            self.stage_rx,
            self.credit_rx,
            self.sample_rx,
            self.drops,
            u64::from(self.deadlocked),
            u64::from(self.structural_deadlock),
            self.ledger_hash,
        ]
    }

    fn from_values(v: [u64; 15]) -> Outcome {
        Outcome {
            events: v[0],
            delivered_packets: v[1],
            delivered_bytes: v[2],
            flows_finished: v[3],
            flows_unfinished: v[4],
            ctrl_msgs: v[5],
            pause_rx: v[6],
            resume_rx: v[7],
            stage_rx: v[8],
            credit_rx: v[9],
            sample_rx: v[10],
            drops: v[11],
            deadlocked: v[12] != 0,
            structural_deadlock: v[13] != 0,
            ledger_hash: v[14],
        }
    }

    /// The digest: FNV-1a over every field, as 16 hex digits.
    pub fn digest(&self) -> String {
        let mut s = String::new();
        for (name, v) in Self::FIELDS.iter().zip(self.values()) {
            write!(s, "{name}={v};").expect("write to String");
        }
        format!("{:016x}", fnv1a(s.as_bytes()))
    }

    /// The outcome without its event count: what a traced run must
    /// reproduce (the timeline sampler dispatches ticks of its own).
    pub fn without_events(mut self) -> Outcome {
        self.events = 0;
        self
    }

    /// The outcome without the fields the metrics registry supplies: what
    /// a run with `TelemetryConfig::off()` must reproduce.
    pub fn registry_free(mut self) -> Outcome {
        self.events = 0;
        self.pause_rx = 0;
        self.resume_rx = 0;
        self.stage_rx = 0;
        self.credit_rx = 0;
        self.sample_rx = 0;
        self
    }

    /// Names of the fields where `self` and `other` differ, with both
    /// values.
    pub fn diff(&self, other: &Outcome) -> String {
        let mut out = String::new();
        for ((name, a), b) in Self::FIELDS.iter().zip(self.values()).zip(other.values()) {
            if a != b {
                write!(out, "{name}: {a} != {b}; ").expect("write to String");
            }
        }
        out
    }
}

/// The recorded digest table, compiled in from `digests.tsv`.
const TABLE: &str = include_str!("../digests.tsv");

/// Comment and header lines of `digests.tsv`.
pub fn table_header() -> String {
    format!(
        "# Recorded outcome of every workload variant. Regenerate, only for a change\n\
         # meant to alter what the simulator computes, with\n\
         #   cargo run --release --manifest-path perfbench/Cargo.toml -- record > perfbench/digests.tsv\n\
         workload\tvariant\tdigest\t{}",
        Outcome::FIELDS.join("\t")
    )
}

/// One table line for a recorded outcome.
pub fn table_line(kind: Kind, variant: u64, o: &Outcome) -> String {
    let vals: Vec<String> = o.values().iter().map(u64::to_string).collect();
    format!("{}\t{variant}\t{}\t{}", kind.name(), o.digest(), vals.join("\t"))
}

/// The recorded outcome of `kind`'s `variant`, if the table has one.
/// Panics on a malformed table or a line whose digest does not match its
/// fields.
pub fn recorded(kind: Kind, variant: u64) -> Option<Outcome> {
    TABLE.lines().filter(|l| !l.starts_with('#') && !l.starts_with("workload\t")).find_map(|l| {
        let cols: Vec<&str> = l.split('\t').collect();
        if cols[0] != kind.name()
            || cols.get(1).and_then(|v| v.parse::<u64>().ok()) != Some(variant)
        {
            return None;
        }
        assert_eq!(cols.len(), 3 + Outcome::FIELDS.len(), "malformed digest line: {l}");
        let mut v = [0u64; 15];
        for (slot, c) in v.iter_mut().zip(&cols[3..]) {
            *slot = c.parse().unwrap_or_else(|_| panic!("bad field {c:?} in digest line: {l}"));
        }
        let o = Outcome::from_values(v);
        assert_eq!(o.digest(), cols[2], "digest line does not match its fields: {l}");
        Some(o)
    })
}

/// Check `got` against the recorded outcome: `Ok` on an exact match, or
/// the reason it failed.
pub fn check(kind: Kind, variant: u64, got: &Outcome) -> Result<(), String> {
    match recorded(kind, variant) {
        None => Err(format!("no recorded digest for {} variant {variant}", kind.name())),
        Some(want) if want == *got => Ok(()),
        Some(want) => Err(format!(
            "{} variant {variant}: digest {} != recorded {} ({})",
            kind.name(),
            got.digest(),
            want.digest(),
            got.diff(&want)
        )),
    }
}
