//! Service- and stream-level health reporting.

use crate::error::ServeError;
use std::fmt;
use std::time::Duration;
use torchsparse_core::{DegradationReport, SparseTensor};

/// One frame's terminal record: what happened, after how many attempts,
/// and how long it took from dequeue to completion.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The stream that served the frame.
    pub stream: usize,
    /// Caller-assigned frame id (unique per stream).
    pub frame: u64,
    /// How many times the frame ran (`> 1` means retried).
    pub attempts: u32,
    /// Wall-clock submit-to-completion latency (queue wait + execution +
    /// retries).
    pub latency: Duration,
    /// The output on success (`None` when
    /// [`ServiceConfig::keep_outputs`](crate::ServiceConfig::keep_outputs)
    /// is off), or the typed failure.
    pub result: Result<Option<SparseTensor>, ServeError>,
}

/// One stream's contribution to a [`HealthReport`] window.
#[derive(Debug, Clone)]
pub struct StreamHealth {
    /// Stream index.
    pub stream: usize,
    /// Frames completed successfully.
    pub completed: u64,
    /// Frames that failed with a typed error (deadline overruns after
    /// retries, plan/layer errors).
    pub failed: u64,
    /// Panics contained on this stream (each one quarantined and rebuilt
    /// the stream).
    pub quarantined: u64,
    /// This stream's degradation window, taken with
    /// [`DegradationReport::snapshot`] at service shutdown — a per-window
    /// delta, not a process-lifetime counter.
    pub degradation: DegradationReport,
    /// Resident bytes of the frozen plan in this stream's slot at window
    /// close (`PlanCacheStats::plan_bytes`): the shared compile-time plan
    /// for streams that rode it, or the stream's private re-plan.
    pub plan_bytes: u64,
    /// Geometry misses this stream re-planned from scratch
    /// (`PlanCacheStats::full_replans`).
    pub full_replans: u64,
    /// Geometry misses this stream served by patching the previous frozen
    /// plan in place (`PlanCacheStats::delta_patches`).
    pub delta_patches: u64,
    /// Delta re-plans attempted but abandoned — churn above the configured
    /// threshold or an unpatchable structure — falling back to a full
    /// re-plan (`PlanCacheStats::delta_fallbacks`).
    pub delta_fallbacks: u64,
}

/// Service-wide health counters plus the per-stream rollup.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Frames accepted past admission control into a stream queue.
    pub admitted: u64,
    /// Frames shed by load control (full queue or service point budget).
    pub shed: u64,
    /// Frames rejected by per-frame admission validation.
    pub rejected: u64,
    /// Frames completed successfully.
    pub completed: u64,
    /// Frames that terminally failed with a typed error.
    pub failed: u64,
    /// Retry attempts across all frames (not frames-with-retries).
    pub retried: u64,
    /// Requests whose panic was contained, quarantining their stream.
    pub quarantined: u64,
    /// Stream states rebuilt from the shared plan after quarantine.
    pub rebuilt: u64,
    /// Attempts that exceeded their deadline budget (counted per attempt;
    /// a frame that misses twice and then succeeds contributes two).
    pub deadline_missed: u64,
    /// High-water mark of any single stream queue's depth.
    pub max_queue_depth: usize,
    /// Union of every stream's degradation window, merged by
    /// `(site, cause)`.
    pub degradation: DegradationReport,
    /// Total resident plan bytes across every stream's slot. Streams
    /// sharing the compile-time plan each count their view (the number a
    /// per-stream memory budget sees), so this is an upper bound on
    /// process-level plan memory.
    pub plan_bytes: u64,
    /// From-scratch re-plans across every stream (sum of
    /// [`StreamHealth::full_replans`]).
    pub full_replans: u64,
    /// In-place delta plan patches across every stream (sum of
    /// [`StreamHealth::delta_patches`]).
    pub delta_patches: u64,
    /// Abandoned delta attempts that fell back to full re-plans across
    /// every stream (sum of [`StreamHealth::delta_fallbacks`]).
    pub delta_fallbacks: u64,
    /// Layers of the compile-time plan whose grouping the autotuner prices
    /// (zero when autotuning is disabled).
    pub tuned_layers: usize,
    /// Per-stream health, indexed by stream.
    pub streams: Vec<StreamHealth>,
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted {} | shed {} | rejected {} | completed {} | failed {} | retried {} | \
             quarantined {} | rebuilt {} | deadline-missed {} | max-queue-depth {} | \
             plan-bytes {}",
            self.admitted,
            self.shed,
            self.rejected,
            self.completed,
            self.failed,
            self.retried,
            self.quarantined,
            self.rebuilt,
            self.deadline_missed,
            self.max_queue_depth,
            self.plan_bytes,
        )?;
        if self.full_replans + self.delta_patches + self.delta_fallbacks > 0 {
            write!(
                f,
                " | replans: full {} delta-patched {} delta-fallback {}",
                self.full_replans, self.delta_patches, self.delta_fallbacks,
            )?;
        }
        if self.tuned_layers > 0 {
            write!(f, " | tuned-layers {}", self.tuned_layers)?;
        }
        if !self.degradation.is_empty() {
            write!(f, " | degradation: {}", self.degradation)?;
        }
        Ok(())
    }
}

/// Everything [`serve`](crate::serve) returns: the health window plus
/// every frame's terminal record (in completion order per stream).
#[derive(Debug, Clone, Default)]
pub struct ServiceOutcome {
    /// The service-level health window for this `serve` call.
    pub health: HealthReport,
    /// Terminal record of every executed frame. Frames rejected or shed
    /// at submit time are *not* here — their error returned synchronously
    /// from `submit` — but they are counted in [`HealthReport`].
    pub completions: Vec<Completion>,
}

impl ServiceOutcome {
    /// The completions of one stream, in execution order.
    pub fn stream_completions(&self, stream: usize) -> Vec<&Completion> {
        self.completions.iter().filter(|c| c.stream == stream).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_core::FaultSite;

    #[test]
    fn health_display_includes_degradation_when_present() {
        let mut h = HealthReport { admitted: 3, completed: 2, ..HealthReport::default() };
        let plain = h.to_string();
        assert!(plain.contains("admitted 3"), "{plain}");
        assert!(!plain.contains("degradation:"), "{plain}");
        h.degradation.record(FaultSite::WorkerPanic, "contained");
        let with = h.to_string();
        assert!(with.contains("worker-panic"), "{with}");
    }

    #[test]
    fn stream_completions_filters_by_stream() {
        let mk = |stream, frame| Completion {
            stream,
            frame,
            attempts: 1,
            latency: Duration::ZERO,
            result: Ok(None),
        };
        let outcome = ServiceOutcome {
            health: HealthReport::default(),
            completions: vec![mk(0, 0), mk(1, 0), mk(0, 1)],
        };
        let s0 = outcome.stream_completions(0);
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[1].frame, 1);
        assert_eq!(outcome.stream_completions(2).len(), 0);
    }
}
