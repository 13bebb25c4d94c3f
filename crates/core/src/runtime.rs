//! The engine's execution runtime: the shared worker pool.
//!
//! [`ThreadPool`] (re-exported from `torchsparse-runtime`) attacks a
//! host-side overhead the paper's GPU engine never pays but a CPU
//! reproduction does: map search, the convolution executor's chunks, and
//! GEMM panels all dispatch onto one persistent pool threaded through
//! [`crate::Context`] instead of spawning threads per call.
//! `OptimizationConfig::threads == Some(1)` reproduces the serial engine
//! exactly.

use std::sync::Arc;

pub use torchsparse_runtime::{default_threads, modeled_makespan, Task, TaskTrace, ThreadPool};

/// The execution runtime carried by [`crate::Context`]: a handle to the
/// worker pool.
#[derive(Debug)]
pub struct Runtime {
    pool: Arc<ThreadPool>,
}

impl Runtime {
    /// Creates a runtime. `threads: None` shares the process-wide pool
    /// (sized by `TORCHSPARSE_THREADS` / available parallelism);
    /// `Some(n)` owns a private pool of `n` lanes — `Some(1)` reproduces
    /// the serial engine exactly.
    pub fn new(threads: Option<usize>) -> Runtime {
        let pool = match threads {
            None => ThreadPool::global().clone(),
            Some(n) => Arc::new(ThreadPool::new(n)),
        };
        Runtime { pool }
    }

    /// A clonable handle to the pool (an `Arc`, so holding it does not
    /// borrow the runtime).
    pub fn pool(&self) -> Arc<ThreadPool> {
        self.pool.clone()
    }

    /// Replaces the pool — used by benchmarks to install a recording pool
    /// ([`ThreadPool::new_recording`]) and capture task traces.
    pub fn set_pool(&mut self, pool: Arc<ThreadPool>) {
        self.pool = pool;
    }

    /// Concurrency lanes of the current pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_thread_options() {
        assert_eq!(Runtime::new(Some(1)).threads(), 1);
        assert_eq!(Runtime::new(Some(3)).threads(), 3);
        let shared = Runtime::new(None);
        assert!(Arc::ptr_eq(&shared.pool(), ThreadPool::global()));
    }

    #[test]
    fn set_pool_replaces() {
        let mut rt = Runtime::new(Some(1));
        rt.set_pool(Arc::new(ThreadPool::new_recording()));
        assert!(rt.pool().is_recording());
    }
}
