//! The serving loop: per-stream workers, admission, quarantine, retry.

use crate::config::{backoff_us, mix_seed, ServiceConfig};
use crate::error::ServeError;
use crate::health::{Completion, HealthReport, ServiceOutcome, StreamHealth};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use torchsparse_core::{
    CompiledModel, CoreError, Deadline, DegradationReport, FaultInjector, FaultSite, SparseTensor,
    StreamState,
};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// the serving layer's own invariant is that panics never propagate, so a
/// poisoned lock only means a request died mid-update of bookkeeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Error-level retry taxonomy, complementing the site-level
/// [`FaultSite::is_transient`]: the engine already self-heals site-level
/// transients (kernel-map invalidation rebuilds, FP16 overflow re-runs in
/// FP32) inside a single forward, so the only transient failure that
/// surfaces as a typed error is a deadline overrun. Validation rejects and
/// plan invariants deterministically fail again and are never retried.
pub(crate) fn is_transient_error(e: &CoreError) -> bool {
    matches!(e, CoreError::DeadlineExceeded { .. })
}

struct Request {
    frame: u64,
    tensor: Arc<SparseTensor>,
    submitted: Instant,
}

#[derive(Default)]
struct QueueInner {
    queue: VecDeque<Request>,
    closed: bool,
}

struct StreamQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

impl StreamQueue {
    fn new() -> StreamQueue {
        StreamQueue { inner: Mutex::new(QueueInner::default()), cv: Condvar::new() }
    }

    /// Blocks for the next request. Already-queued requests drain even
    /// after close; `None` means closed-and-empty.
    fn pop(&self) -> Option<Request> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(r) = inner.queue.pop_front() {
                return Some(r);
            }
            if inner.closed {
                return None;
            }
            inner = match self.cv.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    retried: AtomicU64,
    quarantined: AtomicU64,
    rebuilt: AtomicU64,
    deadline_missed: AtomicU64,
    max_queue_depth: AtomicUsize,
    inflight_points: AtomicUsize,
}

struct SharedState {
    config: ServiceConfig,
    queues: Vec<StreamQueue>,
    counters: Counters,
    completions: Mutex<Vec<Completion>>,
    stream_health: Mutex<Vec<StreamHealth>>,
}

/// The driver's interface to a running service: submit frames, observe
/// queue depth. Handed to the closure passed to [`serve`]; when that
/// closure returns, the service drains and shuts down.
pub struct ServiceHandle<'s> {
    shared: &'s SharedState,
}

impl ServiceHandle<'_> {
    /// Offers one frame to `stream`'s queue. Admission control runs
    /// synchronously, so a rejected or shed frame costs the caller nothing
    /// downstream:
    ///
    /// # Errors
    ///
    /// - [`ServeError::Rejected`] — the frame failed the per-frame
    ///   admission checks ([`ServiceConfig::admission`]);
    /// - [`ServeError::Shed`] — admitting it would exceed the service-wide
    ///   in-flight point budget;
    /// - [`ServeError::QueueFull`] — the stream's bounded queue is full;
    /// - [`ServeError::UnknownStream`] / [`ServeError::StreamClosed`].
    pub fn submit(
        &self,
        stream: usize,
        frame: u64,
        tensor: Arc<SparseTensor>,
    ) -> Result<(), ServeError> {
        let shared = self.shared;
        let q = shared.queues.get(stream).ok_or(ServeError::UnknownStream { stream })?;

        // Per-frame admission: the validation layer's own checks, run
        // before the frame ever reaches a worker. Sanitize-policy repairs
        // admit the repaired frame.
        let mut faults = FaultInjector::disarmed();
        let mut scratch = DegradationReport::new();
        let tensor = match torchsparse_core::validate::validate_input(
            &tensor,
            &shared.config.admission,
            &mut faults,
            &mut scratch,
        ) {
            Ok(None) => tensor,
            Ok(Some(sanitized)) => Arc::new(sanitized),
            Err(e) => {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Rejected(e));
            }
        };

        // Service-wide in-flight point budget: reserve before queuing,
        // released by the worker when the frame terminates.
        let points = tensor.len();
        if let Some(budget) = shared.config.service_point_budget {
            let prev = shared.counters.inflight_points.fetch_add(points, Ordering::SeqCst);
            if prev.saturating_add(points) > budget {
                shared.counters.inflight_points.fetch_sub(points, Ordering::SeqCst);
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Shed(CoreError::BudgetExceeded {
                    points: prev.saturating_add(points),
                    limit: budget,
                }));
            }
        }

        let mut inner = lock(&q.inner);
        if inner.closed {
            drop(inner);
            self.release_points(points);
            return Err(ServeError::StreamClosed);
        }
        if inner.queue.len() >= shared.config.queue_capacity {
            drop(inner);
            self.release_points(points);
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull { capacity: shared.config.queue_capacity });
        }
        inner.queue.push_back(Request { frame, tensor, submitted: Instant::now() });
        let depth = inner.queue.len();
        drop(inner);
        shared.counters.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        q.cv.notify_one();
        Ok(())
    }

    fn release_points(&self, points: usize) {
        if self.shared.config.service_point_budget.is_some() {
            self.shared.counters.inflight_points.fetch_sub(points, Ordering::SeqCst);
        }
    }
}

/// Installs the configured probabilistic faults on a (re)built stream
/// state, seeded per `(stream, generation)` so every incarnation draws an
/// independent, reproducible schedule.
fn apply_faults(state: &mut StreamState, cfg: &ServiceConfig, stream: usize, generation: u64) {
    if cfg.faults.is_empty() {
        return;
    }
    if let Some(targets) = &cfg.fault_streams {
        if !targets.contains(&stream) {
            return;
        }
    }
    let faults = &mut state.context_mut().runtime.faults;
    faults.seed(mix_seed(cfg.fault_seed, stream as u64, generation));
    for &(site, p) in &cfg.faults {
        faults.with_probability(site, p);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one frame with bounded deterministic retry. Returns the terminal
/// result plus how many attempts it took. A contained panic quarantines
/// the stream: `slot` is discarded wholesale and rebuilt from the shared
/// plan (which is what makes the `AssertUnwindSafe` below sound — no state
/// a panicking request may have half-updated ever serves another frame).
fn run_request(
    shared: &SharedState,
    model: &CompiledModel<'_>,
    slot: &mut Option<StreamState>,
    req: &Request,
    stream_idx: usize,
    generation: &mut u64,
    window: &mut DegradationReport,
) -> (Result<Option<SparseTensor>, ServeError>, u32) {
    let cfg = &shared.config;
    let mut attempts = 0u32;
    loop {
        let Some(state) = slot.as_mut() else {
            return (Err(ServeError::StreamClosed), attempts.max(1));
        };
        attempts += 1;
        state.context_mut().runtime.deadline = cfg.deadline.map(Deadline::starting_now);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if state.context_mut().runtime.faults.should_fail(FaultSite::WorkerPanic) {
                panic!("injected worker-panic fault");
            }
            model.execute_on(state, &req.tensor)
        }));
        match outcome {
            Err(payload) => {
                shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                window.record(FaultSite::WorkerPanic, "panic contained; stream quarantined");
                *generation += 1;
                match model.new_stream() {
                    Ok(mut fresh) => {
                        apply_faults(&mut fresh, cfg, stream_idx, *generation);
                        *slot = Some(fresh);
                        shared.counters.rebuilt.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Cannot rebuild (validated configs make this
                        // unreachable in practice): close the stream
                        // instead of serving from poisoned state.
                        *slot = None;
                        if let Some(q) = shared.queues.get(stream_idx) {
                            q.close();
                        }
                    }
                }
                let message = panic_message(&*payload);
                return (Err(ServeError::Poisoned { message }), attempts);
            }
            Ok(run) => {
                let rt = &mut state.context_mut().runtime;
                rt.deadline = None;
                window.merge(&rt.degradation);
                match run {
                    Ok(out) => {
                        let kept = if cfg.keep_outputs { Some(out) } else { None };
                        return (Ok(kept), attempts);
                    }
                    Err(e) => {
                        if matches!(e, CoreError::DeadlineExceeded { .. }) {
                            shared.counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                        }
                        if is_transient_error(&e) && attempts <= cfg.max_retries {
                            shared.counters.retried.fetch_add(1, Ordering::Relaxed);
                            let us = backoff_us(
                                cfg.retry_seed,
                                stream_idx as u64,
                                req.frame,
                                attempts - 1,
                                cfg.base_backoff_us,
                            );
                            std::thread::sleep(Duration::from_micros(us));
                            continue;
                        }
                        return (Err(ServeError::Failed { error: e, attempts }), attempts);
                    }
                }
            }
        }
    }
}

/// One stream's worker: builds its private [`StreamState`] from the
/// shared plan, then serves its queue until closed-and-drained.
fn worker(shared: &SharedState, model: &CompiledModel<'_>, stream_idx: usize) {
    let mut generation = 0u64;
    let mut slot = match model.new_stream() {
        Ok(mut s) => {
            apply_faults(&mut s, &shared.config, stream_idx, generation);
            Some(s)
        }
        Err(_) => {
            if let Some(q) = shared.queues.get(stream_idx) {
                q.close();
            }
            None
        }
    };
    let mut window = DegradationReport::new();
    let mut health = StreamHealth {
        stream: stream_idx,
        completed: 0,
        failed: 0,
        quarantined: 0,
        degradation: DegradationReport::new(),
        plan_bytes: 0,
        full_replans: 0,
        delta_patches: 0,
        delta_fallbacks: 0,
    };
    let Some(queue) = shared.queues.get(stream_idx) else { return };
    while let Some(req) = queue.pop() {
        let (result, attempts) =
            run_request(shared, model, &mut slot, &req, stream_idx, &mut generation, &mut window);
        if shared.config.service_point_budget.is_some() {
            shared.counters.inflight_points.fetch_sub(req.tensor.len(), Ordering::SeqCst);
        }
        match &result {
            Ok(_) => health.completed += 1,
            Err(ServeError::Poisoned { .. }) => health.quarantined += 1,
            Err(_) => health.failed += 1,
        }
        lock(&shared.completions).push(Completion {
            stream: stream_idx,
            frame: req.frame,
            attempts,
            latency: req.submitted.elapsed(),
            result,
        });
    }
    health.degradation = window.snapshot();
    if let Some(s) = slot.as_ref() {
        let stats = s.stats();
        health.plan_bytes = stats.plan_bytes;
        health.full_replans = stats.full_replans;
        health.delta_patches = stats.delta_patches;
        health.delta_fallbacks = stats.delta_fallbacks;
    }
    lock(&shared.stream_health).push(health);
}

/// Runs a multi-stream service over `model` for the lifetime of `driver`.
///
/// One worker thread per stream spins up (structured concurrency:
/// `std::thread::scope`, so the shared model needs no `'static` bound);
/// `driver` runs on the calling thread and submits frames through the
/// [`ServiceHandle`]. When `driver` returns, every queue is closed, the
/// already-admitted frames drain, workers join, and the call returns the
/// driver's result plus the [`ServiceOutcome`] — the service-level
/// [`HealthReport`] window and every frame's terminal [`Completion`].
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for an unusable [`ServiceConfig`]
/// (`queue_capacity == 0`). Per-frame failures never fail the service —
/// they are typed into each frame's completion.
pub fn serve<R>(
    model: &CompiledModel<'_>,
    streams: usize,
    config: &ServiceConfig,
    driver: impl FnOnce(&ServiceHandle<'_>) -> R,
) -> Result<(R, ServiceOutcome), CoreError> {
    if config.queue_capacity == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "serving queue_capacity of 0 sheds every frame".to_owned(),
        });
    }
    let shared = SharedState {
        config: config.clone(),
        queues: (0..streams).map(|_| StreamQueue::new()).collect(),
        counters: Counters::default(),
        completions: Mutex::new(Vec::new()),
        stream_health: Mutex::new(Vec::new()),
    };

    let driver_result = std::thread::scope(|scope| {
        let shared = &shared;
        for idx in 0..streams {
            scope.spawn(move || worker(shared, model, idx));
        }
        let handle = ServiceHandle { shared };
        let r = driver(&handle);
        for q in &shared.queues {
            q.close();
        }
        r
    });

    let c = &shared.counters;
    let mut streams_health = std::mem::take(&mut *lock(&shared.stream_health));
    streams_health.sort_by_key(|s| s.stream);
    let completions = std::mem::take(&mut *lock(&shared.completions));
    let mut health = HealthReport {
        admitted: c.admitted.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
        rejected: c.rejected.load(Ordering::Relaxed),
        completed: completions.iter().filter(|x| x.result.is_ok()).count() as u64,
        failed: completions
            .iter()
            .filter(|x| matches!(&x.result, Err(e) if !matches!(e, ServeError::Poisoned { .. })))
            .count() as u64,
        retried: c.retried.load(Ordering::Relaxed),
        quarantined: c.quarantined.load(Ordering::Relaxed),
        rebuilt: c.rebuilt.load(Ordering::Relaxed),
        deadline_missed: c.deadline_missed.load(Ordering::Relaxed),
        max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
        degradation: DegradationReport::new(),
        plan_bytes: 0,
        full_replans: 0,
        delta_patches: 0,
        delta_fallbacks: 0,
        tuned_layers: model.tuning_report().map_or(0, |t| t.policies.len()),
        streams: Vec::new(),
    };
    for s in &streams_health {
        health.degradation.merge(&s.degradation);
        health.plan_bytes += s.plan_bytes;
        health.full_replans += s.full_replans;
        health.delta_patches += s.delta_patches;
        health.delta_fallbacks += s.delta_fallbacks;
    }
    health.streams = streams_health;
    Ok((driver_result, ServiceOutcome { health, completions }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_coords::Coord;
    use torchsparse_core::{
        Engine, EnginePreset, ReLU, Sequential, SparseConv3d, ValidationConfig, ValidationPolicy,
    };
    use torchsparse_gpusim::DeviceProfile;
    use torchsparse_tensor::Matrix;

    fn scene(seed: i32) -> Arc<SparseTensor> {
        let coords: Vec<Coord> = (0..24)
            .map(|i| Coord::new(0, (i + seed) % 5, (i / 5) % 4, i % 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let n = coords.len();
        Arc::new(
            SparseTensor::new(coords, Matrix::from_fn(n, 4, |r, c| ((r * 3 + c) % 5) as f32 - 2.0))
                .unwrap(),
        )
    }

    fn model() -> Sequential {
        Sequential::new("net")
            .push(SparseConv3d::with_random_weights("conv1", 4, 8, 3, 1, 1))
            .push(ReLU::new("act1"))
            .push(SparseConv3d::with_random_weights("conv2", 8, 4, 3, 1, 2))
    }

    fn engine() -> Engine {
        Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti())
    }

    fn bits(t: &SparseTensor) -> Vec<u32> {
        t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn two_streams_match_solo_bitwise() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, mut solo) = session.into_parts();
        let expected = bits(&shared.execute_on(&mut solo, &x).unwrap());

        let (_, outcome) = serve(&shared, 2, &ServiceConfig::default(), |svc| {
            for stream in 0..2 {
                for frame in 0..3 {
                    svc.submit(stream, frame, x.clone()).unwrap();
                }
            }
        })
        .unwrap();
        assert_eq!(outcome.health.admitted, 6);
        assert_eq!(outcome.health.completed, 6);
        assert_eq!(outcome.health.quarantined, 0);
        for c in &outcome.completions {
            let out = c.result.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(bits(out), expected, "stream {} frame {}", c.stream, c.frame);
        }
    }

    #[test]
    fn admission_rejects_and_point_budget_sheds() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, _) = session.into_parts();

        let cfg = ServiceConfig {
            admission: ValidationConfig {
                policy: ValidationPolicy::Reject,
                max_points: Some(4),
                max_grid_cells: u64::MAX,
            },
            ..ServiceConfig::default()
        };
        let (submit_err, outcome) =
            serve(&shared, 1, &cfg, |svc| svc.submit(0, 0, x.clone()).unwrap_err()).unwrap();
        assert!(matches!(submit_err, ServeError::Rejected(CoreError::BudgetExceeded { .. })));
        assert_eq!(outcome.health.rejected, 1);
        assert_eq!(outcome.health.admitted, 0);

        // A service-wide point budget smaller than one frame sheds it
        // deterministically, with the typed budget error.
        let cfg = ServiceConfig { service_point_budget: Some(4), ..ServiceConfig::default() };
        let (submit_err, outcome) =
            serve(&shared, 1, &cfg, |svc| svc.submit(0, 0, x.clone()).unwrap_err()).unwrap();
        assert!(matches!(submit_err, ServeError::Shed(CoreError::BudgetExceeded { .. })));
        assert_eq!(outcome.health.shed, 1);
    }

    #[test]
    fn quarantine_isolates_the_faulted_stream() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, mut solo) = session.into_parts();
        let expected = bits(&shared.execute_on(&mut solo, &x).unwrap());

        // Stream 0 panics on every frame; stream 1 is untouched.
        let cfg = ServiceConfig {
            faults: vec![(FaultSite::WorkerPanic, 1.0)],
            fault_streams: Some(vec![0]),
            fault_seed: 7,
            ..ServiceConfig::default()
        };
        let frames = 3u64;
        let (_, outcome) = serve(&shared, 2, &cfg, |svc| {
            for frame in 0..frames {
                svc.submit(0, frame, x.clone()).unwrap();
                svc.submit(1, frame, x.clone()).unwrap();
            }
        })
        .unwrap();

        assert_eq!(outcome.health.quarantined, frames, "every stream-0 frame panics");
        assert_eq!(outcome.health.rebuilt, frames, "each quarantine rebuilds the stream");
        assert_eq!(outcome.health.completed, frames, "stream 1 keeps serving");
        for c in outcome.stream_completions(0) {
            assert!(matches!(&c.result, Err(ServeError::Poisoned { .. })), "{:?}", c.result);
        }
        for c in outcome.stream_completions(1) {
            let out = c.result.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(bits(out), expected, "non-faulted stream must stay bitwise identical");
        }
        // The rollup names the contained panics.
        assert_eq!(outcome.health.degradation.count(FaultSite::WorkerPanic), frames as usize);
        let s0 = &outcome.health.streams[0];
        assert_eq!(s0.quarantined, frames);
        assert!(outcome.health.streams[1].degradation.is_empty());
    }

    #[test]
    fn injected_overruns_retry_deterministically() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, _) = session.into_parts();

        let cfg = ServiceConfig {
            faults: vec![(FaultSite::DeadlineOverrun, 0.2)],
            fault_streams: None,
            fault_seed: 11,
            max_retries: 4,
            base_backoff_us: 10,
            ..ServiceConfig::default()
        };
        let run = || {
            let (_, outcome) = serve(&shared, 2, &cfg, |svc| {
                for stream in 0..2 {
                    for frame in 0..8 {
                        svc.submit(stream, frame, x.clone()).unwrap();
                    }
                }
            })
            .unwrap();
            outcome
        };
        let a = run();
        assert!(a.health.retried > 0, "p=0.2 over 16 frames must trigger retries: {}", a.health);
        assert_eq!(a.health.completed + a.health.failed, 16);
        // Seeded schedules replay exactly: same counters, same per-frame
        // attempt counts.
        let b = run();
        assert_eq!(a.health.retried, b.health.retried);
        assert_eq!(a.health.deadline_missed, b.health.deadline_missed);
        let key = |o: &ServiceOutcome| {
            let mut v: Vec<(usize, u64, u32, bool)> = o
                .completions
                .iter()
                .map(|c| (c.stream, c.frame, c.attempts, c.result.is_ok()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&a), key(&b), "fault replay must be exact");
    }

    #[test]
    fn health_reports_per_stream_delta_replan_rollups() {
        let m = model();
        let a = scene(0);
        // `a` minus its last voxel: ~4% churn, far under the delta
        // threshold, so the stream's re-plan takes the patch path.
        let keep = a.len() - 1;
        let channels = a.channels();
        let coords = a.coords()[..keep].to_vec();
        let feats = Matrix::from_fn(keep, channels, |r, c| a.feats().as_slice()[r * channels + c]);
        let a2 = Arc::new(SparseTensor::new(coords, feats).unwrap());
        let session = engine().compile(&m, &a).unwrap();
        let (shared, _) = session.into_parts();
        let (_, outcome) = serve(&shared, 1, &ServiceConfig::default(), |svc| {
            svc.submit(0, 0, a.clone()).unwrap();
            svc.submit(0, 1, a2.clone()).unwrap();
        })
        .unwrap();
        let h = &outcome.health;
        assert_eq!(h.completed, 2);
        let s0 = &h.streams[0];
        assert_eq!(
            s0.full_replans + s0.delta_patches + s0.delta_fallbacks,
            1,
            "exactly one geometry change on stream 0: {s0:?}"
        );
        assert_eq!(s0.delta_patches, 1, "1-voxel churn must be patched: {s0:?}");
        assert_eq!(
            h.delta_patches,
            h.streams.iter().map(|s| s.delta_patches).sum::<u64>(),
            "service rollup must sum the per-stream counters"
        );
        assert_eq!(h.full_replans, h.streams.iter().map(|s| s.full_replans).sum::<u64>());
        assert!(h.to_string().contains("replans:"), "{h}");
    }

    #[test]
    fn zero_capacity_config_is_rejected() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, _) = session.into_parts();
        let cfg = ServiceConfig { queue_capacity: 0, ..ServiceConfig::default() };
        let err = serve(&shared, 1, &cfg, |_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn unknown_stream_is_typed() {
        let m = model();
        let x = scene(0);
        let session = engine().compile(&m, &x).unwrap();
        let (shared, _) = session.into_parts();
        let (err, _) = serve(&shared, 1, &ServiceConfig::default(), |svc| {
            svc.submit(5, 0, x.clone()).unwrap_err()
        })
        .unwrap();
        assert_eq!(err, ServeError::UnknownStream { stream: 5 });
    }

    #[test]
    fn streams_do_not_thrash_each_others_plan_slots() {
        // Two streams with *different* geometries serve
        // interleaved frames; each re-plans once and then hits its own
        // slot every frame — concurrent serving must not thrash slots.
        let m = model();
        let a = scene(0);
        let b = scene(3);
        let session = engine().compile(&m, &a).unwrap();
        let (shared, _) = session.into_parts();

        let mut solo_b = shared.new_stream().unwrap();
        let expected_b = bits(&shared.execute_on(&mut solo_b, &b).unwrap());
        let s = solo_b.stats();
        assert_eq!(
            (s.hits, s.misses, s.invalidations),
            (0, 1, 1),
            "geometry b must re-plan once solo"
        );
        assert!(s.plan_bytes > 0, "the private re-plan has a resident footprint");

        let frames = 4u64;
        let (_, outcome) = serve(&shared, 2, &ServiceConfig::default(), |svc| {
            for frame in 0..frames {
                svc.submit(0, frame, a.clone()).unwrap();
                svc.submit(1, frame, b.clone()).unwrap();
            }
        })
        .unwrap();
        assert_eq!(outcome.health.completed, 2 * frames);
        for c in outcome.stream_completions(1) {
            let out = c.result.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(bits(out), expected_b, "frame {}", c.frame);
        }
    }
}
