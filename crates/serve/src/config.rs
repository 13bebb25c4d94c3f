//! Service configuration and the deterministic backoff schedule.

use std::time::Duration;
use torchsparse_core::{FaultSite, ValidationConfig, ValidationPolicy};

/// Configuration of one serving service: admission budgets, queue bounds,
/// deadlines, retry policy, and (for chaos testing) per-stream fault
/// injection.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded depth of each stream's request queue. A submit against a
    /// full queue is shed with [`ServeError::QueueFull`]
    /// (crate::ServeError::QueueFull) instead of queuing unboundedly.
    pub queue_capacity: usize,
    /// Per-frame admission checks, reusing the validation layer's
    /// [`ValidationConfig`]. The default uses [`ValidationPolicy::Reject`]
    /// with no point/extent bounds — set `max_points` /
    /// `max_grid_cells` to enforce real budgets. Under
    /// [`ValidationPolicy::Sanitize`] a repairable frame is admitted in
    /// its sanitized form.
    pub admission: ValidationConfig,
    /// Service-wide budget on total in-flight points across all stream
    /// queues; a frame that would exceed it is shed with a typed
    /// [`CoreError::BudgetExceeded`](torchsparse_core::CoreError::BudgetExceeded).
    /// `None` = unlimited.
    pub service_point_budget: Option<usize>,
    /// Per-request execution deadline, installed on the stream's context
    /// before each attempt and checked at stage boundaries. `None` = no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Maximum retries after a transient failure (so a frame runs at most
    /// `1 + max_retries` times).
    pub max_retries: u32,
    /// Seed of the deterministic retry backoff schedule ([`backoff_us`]).
    pub retry_seed: u64,
    /// Base backoff before the first retry, microseconds; doubles per
    /// attempt, plus seeded jitter below one base unit.
    pub base_backoff_us: u64,
    /// Probabilistic fault injection applied to every stream's injector
    /// (chaos testing): each `(site, probability)` pair is installed via
    /// [`FaultInjector::with_probability`]
    /// (torchsparse_core::FaultInjector::with_probability). Streams are
    /// seeded independently from [`ServiceConfig::fault_seed`], so one
    /// stream's fault schedule never depends on another's traffic.
    pub faults: Vec<(FaultSite, f64)>,
    /// Base seed for per-stream fault injection; stream index and rebuild
    /// generation are mixed in so every stream (and every rebuilt
    /// incarnation) draws an independent, reproducible schedule.
    pub fault_seed: u64,
    /// Which streams [`ServiceConfig::faults`] applies to; `None` = all.
    /// Lets isolation tests fault one stream while proving its neighbors
    /// stay bitwise clean.
    pub fault_streams: Option<Vec<usize>>,
    /// Whether successful completions keep their output tensors. Bitwise
    /// verification needs them; throughput benchmarks at large stream
    /// counts turn this off to bound memory.
    pub keep_outputs: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 8,
            admission: ValidationConfig {
                policy: ValidationPolicy::Reject,
                max_points: None,
                max_grid_cells: u64::MAX,
            },
            service_point_budget: None,
            deadline: None,
            max_retries: 2,
            retry_seed: 0,
            base_backoff_us: 50,
            faults: Vec::new(),
            fault_seed: 0,
            fault_streams: None,
            keep_outputs: true,
        }
    }
}

/// splitmix64: the same scramble the fault injector and the synthetic
/// data generators use, so seeds 0/1/2… give unrelated streams.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a base seed with per-stream coordinates into an independent
/// stream seed.
pub(crate) fn mix_seed(base: u64, stream: u64, generation: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_add(0x5397_9A1F)) ^ generation.rotate_left(32))
}

/// The deterministic retry backoff: exponential in `attempt` (doubling
/// from `base_us`, capped at 10 doublings) plus seeded jitter below one
/// base unit. A pure function of its arguments — no wall clock, no global
/// state — so a replay with the same seed sleeps the exact same schedule.
pub(crate) fn backoff_us(seed: u64, stream: u64, frame: u64, attempt: u32, base_us: u64) -> u64 {
    let base = base_us.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(10) as u64);
    let jitter = splitmix64(
        seed ^ stream.rotate_left(17) ^ frame.rotate_left(31) ^ u64::from(attempt).rotate_left(7),
    ) % base;
    exp.saturating_add(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_permissive_but_bounded() {
        let cfg = ServiceConfig::default();
        assert!(cfg.queue_capacity > 0, "queues must be bounded but nonzero");
        assert_eq!(cfg.admission.policy, ValidationPolicy::Reject);
        assert!(cfg.deadline.is_none());
        assert!(cfg.faults.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let schedule =
            |seed| -> Vec<u64> { (0..4).map(|a| backoff_us(seed, 3, 17, a, 50)).collect() };
        assert_eq!(schedule(9), schedule(9), "same seed must replay exactly");
        assert_ne!(schedule(9), schedule(10));
        let s = schedule(9);
        for (a, pair) in s.windows(2).enumerate() {
            assert!(pair[1] > pair[0], "backoff must grow: attempt {a}: {s:?}");
        }
        // Exponential base with jitter strictly below one base unit.
        assert!(s[0] >= 50 && s[0] < 100, "{s:?}");
        assert!(s[3] >= 400 && s[3] < 450, "{s:?}");
    }

    #[test]
    fn backoff_caps_exponent_and_survives_extremes() {
        let b = backoff_us(0, 0, 0, u32::MAX, u64::MAX);
        assert_eq!(b, u64::MAX, "saturates instead of overflowing");
        assert!(backoff_us(1, 2, 3, 0, 0) < 2, "zero base degenerates to jitter < 1");
    }

    #[test]
    fn stream_seeds_are_independent() {
        let a = mix_seed(7, 0, 0);
        let b = mix_seed(7, 1, 0);
        let c = mix_seed(7, 0, 1);
        assert_ne!(a, b, "streams must draw unrelated schedules");
        assert_ne!(a, c, "a rebuilt stream must draw a fresh schedule");
    }
}
