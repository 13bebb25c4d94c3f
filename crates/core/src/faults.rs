//! Deterministic fault injection and degradation accounting.
//!
//! Production sparse-conv engines fail in a handful of well-understood
//! places: the grid table can exceed its cell budget, reduced
//! precision can overflow to infinity, the kernel-map cache can be
//! invalidated between layers, and resource budgets can be exhausted by
//! adversarial inputs. This module makes those failures *schedulable*: a
//! [`FaultInjector`] threaded through [`Context`](crate::Context) forces a
//! failure at a named [`FaultSite`], either on explicitly armed calls or
//! probabilistically from a seeded generator — never from wall-clock time,
//! so every run is reproducible.
//!
//! Each site has a documented graceful-degradation policy (see
//! `DESIGN.md`). When the engine takes a fallback path — injected or
//! organic — it records a [`DegradationEvent`] in the context's
//! [`DegradationReport`], which [`Engine::degradation_report`]
//! (crate::Engine::degradation_report) exposes after the run.

use std::fmt;

/// A named location where the engine can fail and degrade.
///
/// Every variant has a documented fallback; the integration tests prove
/// that injecting a fault at each site still yields a completed inference
/// with report evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Grid-table construction reports `GridTooLarge`.
    /// Fallback: rebuild the coordinate table as a hashmap (§4.4's
    /// "conventional" strategy) and continue.
    GridTableBuild,
    /// An FP16 layer produces Inf/NaN output.
    /// Fallback: transparently re-run that layer's dataflow in FP32. An
    /// injected fault skips the FP16 run and goes straight to the re-run.
    Fp16Overflow,
    /// A kernel-map cache entry is invalidated at lookup time.
    /// Fallback: rebuild the map from coordinates (the cache is an
    /// optimization, not a correctness dependency).
    KernelMapCache,
    /// The input-validation resource budget reports exhaustion.
    /// Fallback under [`ValidationPolicy::Sanitize`]
    /// (crate::ValidationPolicy::Sanitize): shed points down to the
    /// budget; under `Reject`: a typed [`CoreError::BudgetExceeded`]
    /// (crate::CoreError::BudgetExceeded), never a panic.
    ResourceBudget,
    /// Adaptive-grouping tuning fails mid-search.
    /// Fallback: install fixed grouping (one matmul per kernel offset)
    /// for subsequent runs.
    GroupTuning,
    /// Report-only site: input sanitization rewrote the tensor (zeroed
    /// non-finite features, dropped duplicate coordinates). The injector
    /// never probes this site; it exists so sanitization decisions show up
    /// in the same [`DegradationReport`] as runtime fallbacks.
    InputValidation,
    /// Serving-path site: a request-scoped panic inside a stream worker.
    /// Fallback (in `torchsparse-serve`): the per-request `catch_unwind`
    /// boundary contains the panic, the stream is quarantined, and the
    /// supervisor rebuilds its state from the shared compiled plan while
    /// other streams keep serving.
    WorkerPanic,
    /// Serving-path site: an injected stall that makes the next
    /// stage-boundary deadline check report expiry. Fallback: the frame
    /// fails with a typed [`CoreError::DeadlineExceeded`]
    /// (crate::CoreError::DeadlineExceeded) — transient, so the serving
    /// retry policy may re-run it; the stream itself stays healthy.
    DeadlineOverrun,
}

impl FaultSite {
    /// The sites the engine actually probes for injected faults, in
    /// declaration order ([`FaultSite::InputValidation`] is report-only).
    #[cfg(test)]
    pub(crate) fn all() -> [FaultSite; 5] {
        [
            FaultSite::GridTableBuild,
            FaultSite::Fp16Overflow,
            FaultSite::KernelMapCache,
            FaultSite::ResourceBudget,
            FaultSite::GroupTuning,
        ]
    }

    /// The serving-path sites, in declaration order: `torchsparse-serve`
    /// injects [`FaultSite::WorkerPanic`] around each request, and
    /// [`FaultSite::DeadlineOverrun`] is probed at every deadline boundary.
    /// Separate from [`FaultSite::all`] because they fail the frame instead
    /// of degrading it.
    #[cfg(test)]
    pub(crate) fn serving() -> [FaultSite; 2] {
        [FaultSite::WorkerPanic, FaultSite::DeadlineOverrun]
    }

    /// Retry taxonomy for the serving runtime: `true` when the documented
    /// fallback makes re-running the same frame worthwhile (cache
    /// invalidation, precision overflow re-run, an injected stall that
    /// passes on retry); `false` when the same input deterministically
    /// fails again (validation rejects, oversized extents, tuning
    /// failures) or the failure already poisoned the stream (worker
    /// panic — handled by quarantine, not retry).
    #[cfg(test)]
    pub(crate) fn is_transient(self) -> bool {
        matches!(
            self,
            FaultSite::KernelMapCache | FaultSite::Fp16Overflow | FaultSite::DeadlineOverrun
        )
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultSite::GridTableBuild => "grid-table-build",
            FaultSite::Fp16Overflow => "fp16-overflow",
            FaultSite::KernelMapCache => "kernel-map-cache",
            FaultSite::ResourceBudget => "resource-budget",
            FaultSite::GroupTuning => "group-tuning",
            FaultSite::InputValidation => "input-validation",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::DeadlineOverrun => "deadline-overrun",
        };
        f.write_str(name)
    }
}

/// Deterministic fault scheduler.
///
/// Two modes compose:
///
/// - **Armed counts**: [`arm`](FaultInjector::arm) /
///   [`arm_count`](FaultInjector::arm_count) force the next `n` probes of a
///   site to fail. This is what the integration tests use.
/// - **Probabilistic**: [`with_probability`](FaultInjector::with_probability)
///   makes every probe of a site fail with probability `p`, drawn from a
///   seeded xorshift generator — reproducible chaos testing with no
///   wall-clock dependence.
///
/// A disarmed injector (the default) never fires and costs one hash lookup
/// per probe.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// Remaining forced failures per site.
    armed: std::collections::HashMap<FaultSite, u32>,
    /// Per-site failure probability in `[0, 1]`.
    probability: std::collections::HashMap<FaultSite, f64>,
    /// xorshift64* state for probabilistic mode; 0 = unseeded.
    state: u64,
    /// Every fault actually injected, in order.
    injected: Vec<FaultSite>,
}

impl FaultInjector {
    /// An injector that never fires.
    pub fn disarmed() -> FaultInjector {
        FaultInjector::default()
    }

    /// Arms one forced failure at `site` (cumulative with prior arms).
    pub fn arm(&mut self, site: FaultSite) {
        self.arm_count(site, 1);
    }

    /// Arms `n` forced failures at `site` (cumulative with prior arms).
    pub fn arm_count(&mut self, site: FaultSite, n: u32) {
        *self.armed.entry(site).or_insert(0) += n;
    }

    /// Sets the seed for probabilistic mode. Any nonzero scrambled state is
    /// accepted; the same seed always reproduces the same fault schedule.
    pub fn seed(&mut self, seed: u64) {
        // splitmix64 scramble so seed 0/1/2... give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = (z ^ (z >> 31)) | 1;
    }

    /// Makes every probe of `site` fail with probability `p` (clamped to
    /// `[0, 1]`), drawn from the seeded generator. Call [`seed`]
    /// (FaultInjector::seed) first; an unseeded injector self-seeds from 0.
    pub fn with_probability(&mut self, site: FaultSite, p: f64) {
        self.probability.insert(site, p.clamp(0.0, 1.0));
        if self.state == 0 {
            self.seed(0);
        }
    }

    /// Probes `site`: returns `true` when a fault fires here. Consumes one
    /// armed count first; otherwise draws from the probabilistic schedule.
    pub fn should_fail(&mut self, site: FaultSite) -> bool {
        if let Some(n) = self.armed.get_mut(&site) {
            if *n > 0 {
                *n -= 1;
                self.injected.push(site);
                return true;
            }
        }
        if let Some(&p) = self.probability.get(&site) {
            if p > 0.0 && self.next_unit() < p {
                self.injected.push(site);
                return true;
            }
        }
        false
    }

    /// Whether any fault configuration is active (armed or probabilistic).
    pub fn is_armed(&self) -> bool {
        self.armed.values().any(|&n| n > 0) || self.probability.values().any(|&p| p > 0.0)
    }

    /// Every fault injected so far, in order.
    pub fn injected(&self) -> &[FaultSite] {
        &self.injected
    }

    /// Clears armed counts, probabilities, and the injection log.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.armed.clear();
        self.probability.clear();
        self.injected.clear();
    }

    /// Next uniform draw in `[0, 1)` (xorshift64*).
    fn next_unit(&mut self) -> f64 {
        if self.state == 0 {
            self.seed(0);
        }
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One merged degradation record: the engine took the fallback for `site`
/// `count` times for the same `cause`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Where the engine degraded.
    pub site: FaultSite,
    /// Human-readable cause, stable per call site (used as the merge key).
    pub cause: String,
    /// How many times this (site, cause) pair fired.
    pub count: usize,
}

/// Observable record of every graceful-degradation decision in a run.
///
/// Events are merged by `(site, cause)` so a 20-layer network that falls
/// back 20 times produces one event with `count == 20`, not 20 entries.
/// Cleared by [`Context::begin_run`](crate::Context::begin_run), so after
/// [`Engine::run`](crate::Engine::run) it describes exactly that run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// An empty report.
    pub fn new() -> DegradationReport {
        DegradationReport::default()
    }

    /// Records one degradation occurrence, merging with an existing
    /// `(site, cause)` event when present.
    pub fn record(&mut self, site: FaultSite, cause: &str) {
        if let Some(e) = self.events.iter_mut().find(|e| e.site == site && e.cause == cause) {
            e.count += 1;
        } else {
            self.events.push(DegradationEvent { site, cause: cause.to_owned(), count: 1 });
        }
    }

    /// All merged events, in first-occurrence order.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Total occurrences at `site` across all causes.
    pub fn count(&self, site: FaultSite) -> usize {
        self.events.iter().filter(|e| e.site == site).map(|e| e.count).sum()
    }

    /// Total occurrences across all sites.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.events.iter().map(|e| e.count).sum()
    }

    /// Whether no degradation happened.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all events.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// Adds every event of `other` into this report, merging by
    /// `(site, cause)` — used to roll per-request reports up into a
    /// per-stream or service-wide window.
    pub fn merge(&mut self, other: &DegradationReport) {
        for e in &other.events {
            if let Some(own) =
                self.events.iter_mut().find(|own| own.site == e.site && own.cause == e.cause)
            {
                own.count += e.count;
            } else {
                self.events.push(e.clone());
            }
        }
    }

    /// Takes the events accumulated since the previous snapshot (or since
    /// construction), leaving the live report empty. Long-running streams
    /// report per-window *deltas* this way instead of process-lifetime
    /// monotonic counters; the service `HealthReport` consumes these.
    pub fn snapshot(&mut self) -> DegradationReport {
        std::mem::take(self)
    }

    /// Starts a fresh window, discarding accumulated events (equivalent to
    /// dropping the result of [`DegradationReport::snapshot`]).
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.events.clear();
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return f.write_str("no degradation");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{} x{}: {}", e.site, e.count, e.cause)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_never_fires() {
        let mut inj = FaultInjector::disarmed();
        for site in FaultSite::all() {
            for _ in 0..100 {
                assert!(!inj.should_fail(site));
            }
        }
        assert!(inj.injected().is_empty());
        assert!(!inj.is_armed());
    }

    #[test]
    fn armed_counts_fire_exactly_n_times() {
        let mut inj = FaultInjector::disarmed();
        inj.arm_count(FaultSite::GridTableBuild, 3);
        inj.arm(FaultSite::Fp16Overflow);
        let fired: Vec<bool> = (0..5).map(|_| inj.should_fail(FaultSite::GridTableBuild)).collect();
        assert_eq!(fired, vec![true, true, true, false, false]);
        assert!(inj.should_fail(FaultSite::Fp16Overflow));
        assert!(!inj.should_fail(FaultSite::Fp16Overflow));
        // Other sites are unaffected.
        assert!(!inj.should_fail(FaultSite::KernelMapCache));
        assert_eq!(inj.injected().len(), 4);
    }

    #[test]
    fn probabilistic_mode_is_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let mut inj = FaultInjector::disarmed();
            inj.seed(seed);
            inj.with_probability(FaultSite::KernelMapCache, 0.5);
            (0..64).map(|_| inj.should_fail(FaultSite::KernelMapCache)).collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let fires = schedule(7).iter().filter(|&&b| b).count();
        assert!(fires > 10 && fires < 54, "p=0.5 fired {fires}/64 times");
    }

    #[test]
    fn probability_edges() {
        let mut inj = FaultInjector::disarmed();
        inj.seed(1);
        inj.with_probability(FaultSite::ResourceBudget, 0.0);
        assert!((0..50).all(|_| !inj.should_fail(FaultSite::ResourceBudget)));
        inj.with_probability(FaultSite::ResourceBudget, 1.0);
        assert!((0..50).all(|_| inj.should_fail(FaultSite::ResourceBudget)));
    }

    #[test]
    fn report_merges_by_site_and_cause() {
        let mut r = DegradationReport::new();
        assert!(r.is_empty());
        r.record(FaultSite::GridTableBuild, "grid too large");
        r.record(FaultSite::GridTableBuild, "grid too large");
        r.record(FaultSite::GridTableBuild, "injected");
        r.record(FaultSite::Fp16Overflow, "non-finite output");
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.count(FaultSite::GridTableBuild), 3);
        assert_eq!(r.count(FaultSite::Fp16Overflow), 1);
        assert_eq!(r.total(), 4);
        let shown = r.to_string();
        assert!(shown.contains("grid-table-build x2"), "{shown}");
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn serving_sites_follow_naming_conventions() {
        assert_eq!(FaultSite::WorkerPanic.to_string(), "worker-panic");
        assert_eq!(FaultSite::DeadlineOverrun.to_string(), "deadline-overrun");
        // Serving sites are probed/armed exactly like engine sites.
        let mut inj = FaultInjector::disarmed();
        inj.arm(FaultSite::WorkerPanic);
        assert!(inj.should_fail(FaultSite::WorkerPanic));
        assert!(!inj.should_fail(FaultSite::WorkerPanic));
        // ...but stay out of the engine-probed list.
        assert!(!FaultSite::all().contains(&FaultSite::WorkerPanic));
        assert!(!FaultSite::all().contains(&FaultSite::DeadlineOverrun));
        assert_eq!(FaultSite::serving(), [FaultSite::WorkerPanic, FaultSite::DeadlineOverrun]);
    }

    #[test]
    fn retry_taxonomy_classifies_sites() {
        assert!(FaultSite::KernelMapCache.is_transient());
        assert!(FaultSite::Fp16Overflow.is_transient());
        assert!(FaultSite::DeadlineOverrun.is_transient());
        assert!(!FaultSite::ResourceBudget.is_transient());
        assert!(!FaultSite::InputValidation.is_transient());
        assert!(!FaultSite::GridTableBuild.is_transient());
        assert!(!FaultSite::GroupTuning.is_transient());
        assert!(!FaultSite::WorkerPanic.is_transient());
    }

    #[test]
    fn merge_combines_by_site_and_cause() {
        let mut a = DegradationReport::new();
        a.record(FaultSite::Fp16Overflow, "non-finite output");
        let mut b = DegradationReport::new();
        b.record(FaultSite::Fp16Overflow, "non-finite output");
        b.record(FaultSite::KernelMapCache, "invalidated");
        a.merge(&b);
        assert_eq!(a.count(FaultSite::Fp16Overflow), 2);
        assert_eq!(a.count(FaultSite::KernelMapCache), 1);
        assert_eq!(a.events().len(), 2);
    }

    #[test]
    fn snapshot_returns_window_delta_and_resets() {
        let mut r = DegradationReport::new();
        r.record(FaultSite::GridTableBuild, "injected");
        let window = r.snapshot();
        assert_eq!(window.count(FaultSite::GridTableBuild), 1);
        assert!(r.is_empty(), "snapshot must start a fresh window");
        // The next window only sees new events.
        r.record(FaultSite::Fp16Overflow, "non-finite output");
        let window2 = r.snapshot();
        assert_eq!(window2.count(FaultSite::GridTableBuild), 0);
        assert_eq!(window2.count(FaultSite::Fp16Overflow), 1);
        r.record(FaultSite::GroupTuning, "injected");
        r.reset();
        assert!(r.is_empty());
    }

    #[test]
    fn reset_clears_schedule_and_log() {
        let mut inj = FaultInjector::disarmed();
        inj.arm_count(FaultSite::GroupTuning, 5);
        inj.with_probability(FaultSite::Fp16Overflow, 1.0);
        assert!(inj.should_fail(FaultSite::GroupTuning));
        inj.reset();
        assert!(!inj.is_armed());
        assert!(inj.injected().is_empty());
        assert!(!inj.should_fail(FaultSite::GroupTuning));
    }
}
