//! Fault-isolated multi-stream serving over one compiled model.
//!
//! The engine's single-forward path (PRs 1-5) makes one stream fast; this
//! crate makes N streams *safe*. [`serve`] runs one worker thread per
//! LiDAR stream against a shared [`CompiledModel`]
//! (torchsparse_core::CompiledModel) — the frozen, `Sync` half of a
//! compiled session — while each worker owns a private
//! [`StreamState`](torchsparse_core::StreamState) (its context's runtime,
//! planner and cost ledger, plus its plan slot). Four robustness layers stack on top:
//!
//! - **Admission control and load shedding** ([`ServiceConfig::admission`],
//!   [`ServiceConfig::queue_capacity`],
//!   [`ServiceConfig::service_point_budget`]): over-budget frames are
//!   rejected with the same typed [`CoreError`]s the validation layer
//!   uses, and each stream's queue is bounded — excess load is shed at
//!   submit time instead of growing latency unboundedly.
//! - **Per-request deadlines** ([`ServiceConfig::deadline`]): installed on
//!   the stream's [`Context`](torchsparse_core::Context) before each
//!   frame and checked at stage boundaries (mapping /
//!   gather-GEMM-scatter / epilogue), surfacing as typed
//!   [`CoreError::DeadlineExceeded`] instead of hanging the stream.
//! - **Panic quarantine**: every request runs inside a `catch_unwind`
//!   boundary. A poisoned request quarantines only its own stream; the
//!   supervisor rebuilds that stream's state from the shared plan
//!   ([`CompiledModel::new_stream`](torchsparse_core::CompiledModel::new_stream))
//!   while every other stream keeps serving untouched.
//! - **Bounded deterministic retry** ([`ServiceConfig::max_retries`],
//!   [`backoff_us`]): transient failures (deadline overruns — see
//!   [`FaultSite::is_transient`](torchsparse_core::FaultSite::is_transient))
//!   are retried with a backoff schedule that is a pure function of
//!   `(seed, stream, frame, attempt)`, so tests replay exactly.
//!   Permanent failures (validation rejects) fail fast.
//!
//! Everything observable rolls up into a [`HealthReport`]:
//! admitted/shed/retried/quarantined/rebuilt/deadline-missed counters plus
//! a per-stream [`DegradationReport`](torchsparse_core::DegradationReport)
//! window (consumed via `DegradationReport::snapshot`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use torchsparse_core::{Engine, EnginePreset, ReLU, Sequential, SparseConv3d, SparseTensor};
//! use torchsparse_coords::Coord;
//! use torchsparse_gpusim::DeviceProfile;
//! use torchsparse_serve::{serve, ServiceConfig};
//! use torchsparse_tensor::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Sequential::new("net")
//!     .push(SparseConv3d::with_random_weights("conv", 2, 4, 3, 1, 7))
//!     .push(ReLU::new("act"));
//! let frame = Arc::new(SparseTensor::new(
//!     vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)],
//!     Matrix::filled(2, 2, 1.0),
//! )?);
//! let engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_3090());
//! let session = engine.compile(&model, &frame)?;
//! let (shared, _) = session.into_parts();
//!
//! let (_, outcome) = serve(&shared, 2, &ServiceConfig::default(), |svc| {
//!     for stream in 0..2 {
//!         svc.submit(stream, 0, frame.clone()).unwrap();
//!     }
//! })?;
//! assert_eq!(outcome.health.admitted, 2);
//! assert_eq!(outcome.health.completed, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod error;
mod health;
mod service;

pub use config::ServiceConfig;
pub use error::ServeError;
pub use health::{Completion, HealthReport, ServiceOutcome, StreamHealth};
pub use service::{serve, ServiceHandle};
