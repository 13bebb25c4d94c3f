//! Shared host-side execution runtime for the TorchSparse reproduction.
//!
//! The paper's thesis is that sparse convolution is bound by data movement
//! and many small matmuls; on the CPU side the analogous bottleneck is that
//! every hot path (map search, gather, GEMM panels, scatter) used to run
//! serially — or worse, spawn fresh threads per GEMM call. This crate
//! provides the one primitive every layer shares:
//!
//! - [`ThreadPool`]: a persistent pool of parked worker threads executing
//!   batches of *scoped* tasks. A batch borrows caller data (feature
//!   matrices, kernel maps) for its duration; [`ThreadPool::run`] does not
//!   return until every task of the batch has finished, so borrows never
//!   escape. With `threads == 1` no worker threads exist at all and tasks
//!   execute inline on the caller — byte-for-byte the old serial engine.
//! - [`ThreadPool::global`]: the process-wide default pool, sized by the
//!   `TORCHSPARSE_THREADS` environment variable (falling back to
//!   `std::thread::available_parallelism`). Callers without a pool of
//!   their own (SPVCNN's point MLPs, the tests) dispatch onto it, so no
//!   per-call thread spawning remains anywhere.
//! - task-time *recording* ([`ThreadPool::new_recording`]): an instrumented
//!   serial pool that timestamps every task it executes, grouped into waves
//!   (one wave per `run` call). The scaling benchmark replays these traces
//!   through a critical-path model to report how the same task graph
//!   schedules onto N lanes — meaningful even on single-core CI hosts.
//!
//! Determinism: the pool never changes *what* is computed, only *where*.
//! Every caller partitions work into tasks whose outputs are disjoint and
//! whose internal accumulation order is fixed, so results are bitwise
//! identical for every thread count (the property tests in the root crate
//! assert this across thread counts {1, 2, 8}).

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A task submitted to the pool: a boxed closure that may borrow from the
/// submitting scope (lifetime-erased internally; see [`ThreadPool::run`]).
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between the submitting thread and the workers.
struct Shared {
    state: Mutex<QueueState>,
    /// Signals workers that jobs arrived or shutdown began.
    work_cv: Condvar,
}

struct QueueState {
    jobs: VecDeque<StaticJob>,
    shutdown: bool,
}

/// Completion tracking for one `run` batch.
struct Batch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by a task of this batch, re-raised on the
    /// submitting thread once the whole batch has drained.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(count: usize) -> Batch {
        Batch { remaining: Mutex::new(count), done_cv: Condvar::new(), panic: Mutex::new(None) }
    }

    fn complete_one(&self) {
        let mut left = match self.remaining.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *left -= 1;
        if *left == 0 {
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = match self.remaining.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        while *left > 0 {
            left = match self.done_cv.wait(left) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        if let Ok(mut slot) = self.panic.lock() {
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

/// Per-task wall durations in seconds, grouped into waves (one wave per
/// [`ThreadPool::run`] call). Produced by recording pools.
pub(crate) type TaskTrace = Vec<Vec<f64>>;

/// A persistent worker pool executing batches of scoped tasks.
///
/// See the crate docs for the design. The pool holds `threads - 1` parked
/// OS threads; the submitting thread is the remaining lane (it helps drain
/// the queue instead of blocking), so `threads` is the true concurrency.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    recorder: Option<Mutex<TaskTrace>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes (clamped to at least 1).
    ///
    /// `threads == 1` spawns no OS threads; every [`ThreadPool::run`]
    /// executes inline in submission order, reproducing the serial engine
    /// exactly.
    pub fn new(threads: usize) -> ThreadPool {
        Self::build(threads.max(1), false)
    }

    /// Creates an instrumented *serial* pool that records per-task wall
    /// durations, so a task trace can be captured on hosts with any core
    /// count (see [`ThreadPool::take_trace`]).
    pub fn new_recording() -> ThreadPool {
        Self::build(1, true)
    }

    fn build(threads: usize, recording: bool) -> ThreadPool {
        // Resolve the host's SIMD capability set now, once, so the compute
        // kernels dispatched onto this pool never pay a per-call
        // `is_x86_feature_detected!` check.
        let _ = cpu_features();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ts-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("failed to spawn pool worker: {e}"))
            })
            .collect();
        ThreadPool { shared, workers, threads, recorder: recording.then(|| Mutex::new(Vec::new())) }
    }

    /// The process-wide shared pool.
    ///
    /// Sized by `TORCHSPARSE_THREADS` when set to a positive integer,
    /// otherwise by [`std::thread::available_parallelism`]. Created lazily
    /// on first use and never torn down.
    pub fn global() -> &'static Arc<ThreadPool> {
        static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(ThreadPool::new(default_threads())))
    }

    /// Total concurrency lanes (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool records task traces (see [`ThreadPool::new_recording`]).
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Drains the recorded task trace (waves of per-task seconds), leaving
    /// the recorder empty. Returns an empty trace on non-recording pools.
    pub fn take_trace(&self) -> TaskTrace {
        match &self.recorder {
            Some(r) => match r.lock() {
                Ok(mut t) => std::mem::take(&mut *t),
                Err(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Executes a batch of tasks, returning once *all* of them finished.
    ///
    /// Tasks may borrow from the caller's scope: the borrow is sound because
    /// this function does not return until every task has run to completion
    /// (even when one panics — the batch fully drains first, then the first
    /// panic payload is re-raised on the calling thread).
    ///
    /// Scheduling notes:
    /// - single task, or a 1-lane pool: inline execution, no synchronization;
    /// - otherwise tasks are pushed to the shared queue; parked workers and
    ///   the calling thread drain it together.
    ///
    /// Callers are responsible for determinism: tasks must write disjoint
    /// outputs and fix their internal accumulation order, so the result is
    /// independent of which lane runs which task.
    pub fn run<'env>(&self, tasks: Vec<Task<'env>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads <= 1 || tasks.len() == 1 {
            if self.recorder.is_some() {
                let mut wave = Vec::with_capacity(tasks.len());
                for t in tasks {
                    let start = Instant::now();
                    t();
                    wave.push(start.elapsed().as_secs_f64());
                }
                if let Some(r) = &self.recorder {
                    if let Ok(mut trace) = r.lock() {
                        trace.push(wave);
                    }
                }
            } else {
                for t in tasks {
                    t();
                }
            }
            return;
        }

        let batch = Arc::new(Batch::new(tasks.len()));
        {
            let mut state = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            for t in tasks {
                let batch = batch.clone();
                let job: Task<'env> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                        batch.record_panic(payload);
                    }
                    batch.complete_one();
                });
                // SAFETY: the job borrows data live for 'env. It is only
                // executed by this `run` call's drain loop or by a worker
                // thread, and `batch.wait()` below blocks until every job of
                // the batch has completed (panics included — they are caught
                // above and converted into a completion). Therefore no job
                // outlives 'env, and erasing the lifetime to 'static for
                // queue storage cannot create a dangling borrow.
                let job: StaticJob = unsafe { std::mem::transmute::<Task<'env>, StaticJob>(job) };
                state.jobs.push_back(job);
            }
            self.shared.work_cv.notify_all();
        }

        // Help drain the queue rather than blocking: the submitting thread
        // is one of the pool's lanes.
        loop {
            let job = {
                let mut state = match self.shared.state.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                state.jobs.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        batch.wait();
        let payload = match batch.panic.lock() {
            Ok(mut slot) => slot.take(),
            Err(_) => None,
        };
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Convenience: runs `f(index)` for `count` indices as one batch.
    #[cfg(test)]
    pub(crate) fn run_indexed<'env, F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Send + Sync + 'env,
    {
        if count == 0 {
            return;
        }
        if self.threads <= 1 && self.recorder.is_none() {
            for i in 0..count {
                f(i);
            }
            return;
        }
        let f_ref = &f;
        let tasks: Vec<Task<'_>> =
            (0..count).map(|i| Box::new(move || f_ref(i)) as Task<'_>).collect();
        self.run(tasks);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("recording", &self.is_recording())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = match shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = match shared.work_cv.wait(state) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// The SIMD capability set of the host CPU, as seen by the compute kernels.
///
/// Detected once per process — [`ThreadPool`] construction triggers the
/// probe, so by the time any task runs the answer is a cached load, never a
/// `cpuid` in a hot loop. On non-x86-64 targets every flag is `false` and
/// the portable kernels are used unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float vectors (`__m256`); gates the SIMD GEMM
    /// microkernel and the wide gather/scatter row primitives.
    pub avx2: bool,
    /// Hardware f32<->f16 conversion (`vcvtps2ph`/`vcvtph2ps`); gates the
    /// vectorized precision-conversion sweeps.
    pub f16c: bool,
}

/// Returns the host's [`CpuFeatures`], probing on first call only. Inlined:
/// the compute kernels check it per call, and after the probe it is one
/// load.
#[inline]
pub fn cpu_features() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(detect_cpu_features)
}

#[cfg(target_arch = "x86_64")]
fn detect_cpu_features() -> CpuFeatures {
    CpuFeatures {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        f16c: std::arch::is_x86_feature_detected!("f16c"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu_features() -> CpuFeatures {
    CpuFeatures { avx2: false, f16c: false }
}

/// Emits a warning about a malformed environment override on stderr, at
/// most once per variable per process.
///
/// Every `TORCHSPARSE_*` override funnels misparses through here so a typo
/// (`TORCHSPARSE_THREADS=abc`) is reported exactly once, naming the
/// variable, the rejected value, and the fallback chosen — never silently
/// swallowed, never repeated per call.
pub fn warn_env_once(var: &'static str, warning: &str) {
    static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut warned = match WARNED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if !warned.contains(&var) {
        warned.push(var);
        eprintln!("[torchsparse] warning: {warning}");
    }
}

/// Resolves a `TORCHSPARSE_THREADS` value against the host's parallelism.
///
/// Strict parse: only a positive integer is accepted. Anything else
/// (`"abc"`, `"0"`, `"-2"`, `""`) yields the host fallback plus a warning
/// message naming the variable and the fallback — factored out of
/// [`default_threads`] so the policy is testable without touching process
/// environment state.
pub(crate) fn resolve_threads(
    raw: Option<&str>,
    host_parallelism: usize,
) -> (usize, Option<String>) {
    let host = host_parallelism.max(1);
    match raw {
        None => (host, None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => (
                host,
                Some(format!(
                    "TORCHSPARSE_THREADS={s:?} is not a positive integer; \
                     falling back to the host's available parallelism ({host})"
                )),
            ),
        },
    }
}

/// The default pool width: `TORCHSPARSE_THREADS` when set to a positive
/// integer, otherwise the host's available parallelism. A set-but-malformed
/// value (e.g. `"abc"` or `"0"`) is rejected with a one-time warning
/// instead of being silently ignored.
fn default_threads() -> usize {
    let host = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let (threads, warning) =
        resolve_threads(std::env::var("TORCHSPARSE_THREADS").ok().as_deref(), host);
    if let Some(w) = warning {
        warn_env_once("TORCHSPARSE_THREADS", &w);
    }
    threads
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_spawns_no_workers() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let hits = AtomicUsize::new(0);
        pool.run_indexed(10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_threads_clamped() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn parallel_pool_runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0u64; 64];
        let tasks: Vec<Task<'_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = (i as u64) * 3 + 1;
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 3 + 1);
        }
    }

    #[test]
    fn disjoint_chunk_writes_are_deterministic() {
        // Same partition on 1 vs 4 lanes must produce identical bytes.
        let compute = |threads: usize| -> Vec<f32> {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0.0f32; 1000];
            let tasks: Vec<Task<'_>> = data
                .chunks_mut(64)
                .enumerate()
                .map(|(c, chunk)| {
                    Box::new(move || {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            let x = (c * 64 + i) as f32;
                            *v = (x * 0.37).sin() + x.sqrt();
                        }
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
            data
        };
        let a = compute(1);
        let b = compute(4);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batches_are_reusable() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run_indexed(8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = ThreadPool::new(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_>> = (0..16)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 5 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must reach the submitting thread");
        // All non-panicking tasks still ran (the batch drains fully).
        assert_eq!(finished.load(Ordering::Relaxed), 15);
        // The pool survives for the next batch.
        pool.run_indexed(4, |_| {});
    }

    #[test]
    fn recording_pool_traces_waves() {
        let pool = ThreadPool::new_recording();
        pool.run_indexed(3, |_| {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        pool.run_indexed(2, |_| {});
        let trace = pool.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].len(), 3);
        assert_eq!(trace[1].len(), 2);
        assert!(trace.iter().flatten().all(|&t| t >= 0.0));
        assert!(pool.take_trace().is_empty(), "trace is drained");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_threads_accepts_positive_integers() {
        assert_eq!(resolve_threads(Some("3"), 8), (3, None));
        assert_eq!(resolve_threads(Some(" 16 "), 2), (16, None));
        assert_eq!(resolve_threads(None, 4), (4, None));
    }

    #[test]
    fn resolve_threads_warns_on_malformed_values() {
        for bad in ["abc", "0", "-2", "", "1.5", "two"] {
            let (threads, warning) = resolve_threads(Some(bad), 6);
            assert_eq!(threads, 6, "{bad:?} must fall back to host parallelism");
            let w = warning.unwrap_or_else(|| panic!("{bad:?} must produce a warning"));
            assert!(w.contains("TORCHSPARSE_THREADS"), "warning must name the variable: {w}");
            assert!(w.contains("available parallelism (6)"), "warning must name fallback: {w}");
        }
    }

    #[test]
    fn resolve_threads_clamps_zero_host() {
        assert_eq!(resolve_threads(None, 0), (1, None));
    }

    #[test]
    fn warn_env_once_is_idempotent() {
        // No output assertion (stderr), but repeated calls must not panic or
        // deadlock, and distinct variables take separate slots.
        warn_env_once("TORCHSPARSE_TEST_VAR", "first");
        warn_env_once("TORCHSPARSE_TEST_VAR", "second");
        warn_env_once("TORCHSPARSE_TEST_VAR_2", "other");
    }

    #[test]
    fn cpu_features_are_stable_and_consistent() {
        let a = cpu_features();
        let b = cpu_features();
        assert_eq!(a, b, "probe result must be cached");
        // F16C implies at least AVX-era hardware; on every machine we target
        // it ships together with AVX2. The kernels only rely on the weaker
        // property that each flag is individually truthful, so this is a
        // sanity check, not a hard requirement.
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(a, CpuFeatures { avx2: false, f16c: false });
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(Arc::ptr_eq(a, b));
    }
}
