//! # gfc-core — flow control for lossless networks
//!
//! Pure (simulation-agnostic) state machines, frame codecs, and parameter
//! mathematics for hop-by-hop flow control in lossless layer-2 fabrics,
//! reproducing *Gentle Flow Control: Avoiding Deadlock in Lossless
//! Networks* (SIGCOMM 2019).
//!
//! ## Contents
//!
//! | module | what it implements |
//! |---|---|
//! | [`units`] | picosecond time, bit-rate, byte arithmetic |
//! | [`backend`] | the [`backend::FcRx`]/[`backend::FcTx`] trait pair every scheme implements, the control-payload vocabulary, and the lossy no-op pair |
//! | [`fc_config`] | the fabric-wide scheme + parameter selector ([`FcConfig`]) and the backend factories building [`AnyRx`]/[`AnyTx`] |
//! | [`mapping`] | the conceptual linear mapping (Fig. 4b) and the practical multi-stage step function (Fig. 6, Eq. 4/5) |
//! | [`theorems`] | Theorem 4.1 / 5.1 parameter bounds and the Eq. (6) τ model |
//! | [`pfc`] | IEEE 802.1Qbb Priority Flow Control (baseline) |
//! | [`cbfc`] | InfiniBand credit-based flow control (baseline) |
//! | [`conceptual`] | conceptual GFC (§4.1) |
//! | [`gfc_buffer`] | buffer-based GFC (§5.1) |
//! | [`gfc_time`] | time-based GFC (§5.2) |
//! | [`bfc`] | Backpressure Flow Control (per-flow pause; arXiv 1909.09923) |
//! | [`dcfit`] | DCFIT — PFC + in-data-plane deadlock detection (arXiv 2009.13446) |
//! | [`rate_limiter`] | the three-register egress Rate Limiter (§5.3) |
//! | [`frames`] | wire codecs: PFC/GFC MAC control frame, InfiniBand FCP, BFC + DCFIT frames |
//! | [`fxhash`] | the Fx multiply-fold hasher + `FxHashMap`/`FxHashSet` for hot sparse-key tables |
//! | [`params`] | §5.4 parameter derivations for CEE links |
//!
//! Each scheme module holds a receiver and a sender state machine, and
//! the two are that scheme's backend: they implement
//! [`backend::FcRx`]/[`backend::FcTx`] themselves, and [`AnyRx`]/[`AnyTx`]
//! hold them directly.
//!
//! Every state machine is deterministic and side-effect-free: the
//! simulator (`gfc-sim`) owns all clocks and queues and calls in with
//! observations; these types answer with decisions. That separation is
//! what lets the same logic back packet-level simulation, the property
//! tests on the theorems, and the fluid-model unit tests in this crate.
//!
//! ## Quick example
//!
//! ```
//! use gfc_core::params::{LinkClass, derive_buffer_gfc};
//! use gfc_core::gfc_buffer::{GfcBufferReceiver, GfcBufferSender};
//! use gfc_core::units::{kb, Rate};
//!
//! let link = LinkClass::cee(Rate::from_gbps(10));
//! let table = derive_buffer_gfc(kb(300), &link);
//! let mut rx = GfcBufferReceiver::new(table.clone());
//! let mut tx = GfcBufferSender::new(table);
//!
//! // Ingress queue grows past B1 → receiver emits stage 1 → sender halves.
//! if let Some(stage) = rx.on_queue_update(kb(290)) {
//!     assert_eq!(stage, 1);
//!     assert_eq!(tx.on_feedback(stage), Rate::from_gbps(5));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bfc;
pub mod cbfc;
pub mod conceptual;
pub mod dcfit;
pub mod fc_config;
pub mod frames;
pub mod fxhash;
pub mod gfc_buffer;
pub mod gfc_time;
pub mod mapping;
pub mod params;
pub mod pfc;
pub mod rate_limiter;
pub mod theorems;
pub mod units;

pub use backend::{CtrlClass, CtrlOutcome, CtrlPayload, DcfitTag, FcRx, FcTx, SchemeMismatch};
pub use fc_config::{AnyRx, AnyTx, FcBackends, FcConfig, PortIdent};
pub use mapping::{LinearMapping, StageTable};
pub use rate_limiter::RateLimiter;
pub use units::{Dur, Rate, Time};
