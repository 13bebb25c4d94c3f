//! The engine's execution runtime: one stream's frame state.
//!
//! [`ThreadPool`] (re-exported from `torchsparse-runtime`) attacks a
//! host-side overhead the paper's GPU engine never pays but a CPU
//! reproduction does: map search, the convolution executor's chunks, and
//! GEMM panels all dispatch onto one persistent pool held by the
//! [`Runtime`] instead of spawning threads per call.
//! `OptimizationConfig::threads == Some(1)` reproduces the serial engine
//! exactly.
//!
//! The [`Runtime`] is everything a frame mutates besides the cost ledger:
//! the pool, the request deadline, the fault injector, the degradation
//! report and the executor's activation buffers. The plan executor takes it
//! and the configuration, never the whole [`Context`](crate::Context).

use crate::faults::{DegradationReport, FaultInjector, FaultSite};
use crate::CoreError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchsparse_tensor::Matrix;

pub(crate) use torchsparse_runtime::Task;
pub use torchsparse_runtime::ThreadPool;

/// A per-request wall-clock deadline, checked at stage boundaries by plan
/// builds and the plan executor — dynamic runs and compiled frames alike
/// ([`Runtime::check_deadline`]).
///
/// The serving runtime installs one on [`Runtime::deadline`] before each
/// frame; planning and the feature path then surface expiry as a typed
/// [`CoreError::DeadlineExceeded`] at the next boundary instead of running
/// the stream to completion past its budget.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline of `budget` starting at the moment of the call.
    pub fn starting_now(budget: Duration) -> Deadline {
        Deadline { started: Instant::now(), budget }
    }

    /// The configured budget.
    pub(crate) fn budget(&self) -> Duration {
        self.budget
    }

    /// Wall-clock time consumed so far.
    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the budget has been consumed.
    pub(crate) fn expired(&self) -> bool {
        self.elapsed() > self.budget
    }
}

/// One stream's frame state, carried by [`crate::Context`].
#[derive(Debug)]
pub struct Runtime {
    pool: Arc<ThreadPool>,
    /// The active per-request deadline, if any. Caller-managed like
    /// [`Runtime::faults`]: survives [`Context::begin_run`] so the serving
    /// layer can install it before executing a frame; cleared by setting it
    /// back to `None`.
    ///
    /// [`Context::begin_run`]: crate::Context::begin_run
    pub deadline: Option<Deadline>,
    /// Deterministic fault scheduler. Disarmed by default; survives
    /// [`Context::begin_run`](crate::Context::begin_run) so tests arm faults
    /// before calling [`Engine::run`](crate::Engine::run).
    pub faults: FaultInjector,
    /// Every graceful-degradation decision of the current run (cleared by
    /// [`Context::begin_run`](crate::Context::begin_run)).
    pub degradation: DegradationReport,
    /// The plan executor's feature buffers, indexed by the buffer slots a
    /// plan assigns its activations. Kept across runs, so after the first
    /// frame on a geometry a frame allocates no feature buffer but its
    /// output.
    pub(crate) activations: Vec<Matrix>,
}

impl Runtime {
    /// Creates a runtime. `threads: None` shares the process-wide pool
    /// (sized by `TORCHSPARSE_THREADS` / available parallelism);
    /// `Some(n)` owns a private pool of `n` lanes — `Some(1)` reproduces
    /// the serial engine exactly.
    pub(crate) fn new(threads: Option<usize>) -> Runtime {
        let pool = match threads {
            None => ThreadPool::global().clone(),
            Some(n) => Arc::new(ThreadPool::new(n)),
        };
        Runtime {
            pool,
            deadline: None,
            faults: FaultInjector::disarmed(),
            degradation: DegradationReport::new(),
            activations: Vec::new(),
        }
    }

    /// A clonable handle to the pool (an `Arc`, so holding it does not
    /// borrow the runtime): what every host kernel of the stream runs on,
    /// the models crate's point MLPs included.
    pub fn pool(&self) -> Arc<ThreadPool> {
        self.pool.clone()
    }

    /// Replaces the pool — used by benchmarks to install a recording pool
    /// ([`ThreadPool::new_recording`]) and capture task traces.
    pub fn set_pool(&mut self, pool: Arc<ThreadPool>) {
        self.pool = pool;
    }

    /// Checks the request deadline at a named stage boundary (`"mapping"`
    /// in the planning walk, `"gather-gemm-scatter"` / `"epilogue"` in the
    /// plan executor, dynamic or compiled). The
    /// [`FaultSite::DeadlineOverrun`] site is probed first: an injected
    /// stall reports the full budget as elapsed, keeping deadline tests free
    /// of wall-clock dependence.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeadlineExceeded`] naming the stage, budget, and
    /// elapsed time.
    pub(crate) fn check_deadline(&mut self, stage: &'static str) -> Result<(), CoreError> {
        if self.faults.should_fail(FaultSite::DeadlineOverrun) {
            let budget_us = self.deadline.map_or(0, |d| d.budget().as_micros() as u64);
            self.degradation.record(FaultSite::DeadlineOverrun, "injected");
            return Err(CoreError::DeadlineExceeded { stage, budget_us, elapsed_us: budget_us });
        }
        if let Some(d) = self.deadline {
            if d.expired() {
                return Err(CoreError::DeadlineExceeded {
                    stage,
                    budget_us: d.budget().as_micros() as u64,
                    elapsed_us: d.elapsed().as_micros() as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_thread_options() {
        assert_eq!(Runtime::new(Some(1)).pool().threads(), 1);
        assert_eq!(Runtime::new(Some(3)).pool().threads(), 3);
        let shared = Runtime::new(None);
        assert!(Arc::ptr_eq(&shared.pool(), ThreadPool::global()));
    }

    #[test]
    fn set_pool_replaces() {
        let mut rt = Runtime::new(Some(1));
        rt.set_pool(Arc::new(ThreadPool::new_recording()));
        assert!(rt.pool().is_recording());
    }

    #[test]
    fn deadline_checks_at_stage_boundaries() {
        let mut rt = Runtime::new(Some(1));
        // No deadline installed: every check passes.
        assert!(rt.check_deadline("mapping").is_ok());
        // An already-expired budget fails at the next boundary with the
        // stage name attached.
        rt.deadline = Some(Deadline::starting_now(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let err = rt.check_deadline("gather-gemm-scatter").unwrap_err();
        match err {
            CoreError::DeadlineExceeded { stage, budget_us, elapsed_us } => {
                assert_eq!(stage, "gather-gemm-scatter");
                assert_eq!(budget_us, 0);
                assert!(elapsed_us >= budget_us);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous budget passes.
        rt.deadline = Some(Deadline::starting_now(Duration::from_secs(3600)));
        assert!(rt.check_deadline("epilogue").is_ok());
    }

    #[test]
    fn injected_overrun_fails_deterministically() {
        let mut rt = Runtime::new(Some(1));
        rt.faults.arm(FaultSite::DeadlineOverrun);
        // Fires even with no wall-clock deadline installed.
        let err = rt.check_deadline("mapping").unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { stage: "mapping", .. }));
        assert_eq!(rt.degradation.count(FaultSite::DeadlineOverrun), 1);
        // Armed count consumed: the next check passes.
        assert!(rt.check_deadline("mapping").is_ok());
    }
}
