//! The sparse convolution engine — the paper's primary contribution.
//!
//! TorchSparse decomposes sparse convolution into four stages (Figure 2):
//! **mapping**, **gather**, **matmul**, and **scatter-accumulate**, and
//! optimizes each under two principles: *improve computation regularity* and
//! *reduce memory footprint*. This crate implements the full engine:
//!
//! - [`SparseTensor`]: coordinates + features + tensor stride.
//! - [`SparseConv3d`] / [`BatchNorm`] / [`ReLU`] / [`GlobalPool`]: layers.
//! - [`Module`] / [`Sequential`]: the PyTorch-like composition API (§4.1).
//! - [`mapping`]: map search with the `[grid, hashmap]` strategy space,
//!   one fused output-coordinate kernel (`fused_downsample: false` prices
//!   the staged pipeline instead), symmetric map reuse (§4.4).
//! - [`grouping`]: separate / symmetric / fixed / adaptive matmul grouping
//!   (§4.2, Algorithms 4 & 5).
//! - `dataflow` (crate-private): the numerics of gather–matmul–scatter on
//!   one fused row-streaming executor, the one convolution route at every
//!   precision (the fetch-on-demand dataflow MinkowskiEngine uses for
//!   small workloads is priced by `fetch_on_demand_below`, not run).
//! - [`cost_model`]: what those kernels cost on the simulated GPU under
//!   quantized, vectorized, fused, locality-aware data movement (§4.3) —
//!   pure functions of geometry that no frame runs: frames log what to
//!   charge, and the first read of a timeline resolves the log (once per
//!   plan for compiled sessions).
//! - [`Engine`] / [`EnginePreset`]: end-to-end execution with per-stage
//!   simulated latency on a chosen [`DeviceProfile`].
//!
//! The public surface is what the examples, the paper's evaluation bins,
//! the serving crate and the repository benchmark call; everything else is
//! crate-private.
//!
//! Every layer *executes* numerically on the CPU (outputs are bit-exact
//! across dataflows in FP32 and verified against a dense oracle) while the
//! engine *accounts* simulated GPU cost through `torchsparse-gpusim`.
//!
//! The engine is also fault-tolerant: [`validate`] screens every input to
//! [`Engine::run`] under a configurable [`ValidationPolicy`], a
//! [`FaultInjector`] provides deterministic fault injection at named sites, and each
//! degradation (grid→hashmap fallback, FP16 overflow→FP32 re-run, tuning
//! failure→fixed grouping) is recorded in an observable
//! [`DegradationReport`].
//!
//! For streaming inference the engine separates *planning* from
//! *execution*: [`Engine::compile`] traces a model into a flat [`LayerOp`]
//! IR and freezes every geometric derivation (kernel maps, output
//! coordinates, activation buffers) into an execution plan keyed by the
//! input's coordinates and stride; the resulting [`CompiledSession`] then runs
//! only feature-path work per frame, re-planning automatically when the
//! input geometry changes.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod context;
mod conv;
mod dataflow;
mod delta;
mod engine;
mod error;
mod exec;
mod faults;
mod module;
mod plan;
mod pointwise;
mod pooling;
mod runtime;
mod session;
mod sparse_tensor;

pub mod cost_model;
pub mod grouping;
pub mod mapping;
pub mod tuning;
pub mod validate;

pub use config::{
    EnginePreset, GroupingStrategy, MapSearchStrategy, OptimizationConfig, Precision,
};
pub use context::{Context, LayerProfile, LayerWorkload};
pub use conv::SparseConv3d;
pub use delta::DELTA_REPLAN_MAX_CHURN;
pub use engine::Engine;
pub use error::CoreError;
pub use faults::{DegradationEvent, DegradationReport, FaultInjector, FaultSite};
pub use module::{Module, Sequential};
pub use plan::{LayerOp, PlanCacheStats, Tracer};
pub use pointwise::{BatchNorm, GlobalPool, ReLU};
pub use pooling::SparseMaxPool3d;
pub use runtime::{Deadline, Runtime, ThreadPool};
pub use session::{CompiledModel, CompiledSession, StreamState};
pub use sparse_tensor::SparseTensor;
pub use tuning::TuningReport;
pub use validate::{ValidationConfig, ValidationPolicy};

pub use torchsparse_gpusim::DeviceProfile;
