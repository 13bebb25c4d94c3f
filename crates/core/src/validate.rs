//! Input validation for tensors entering the engine.
//!
//! Point clouds arriving from sensors, decompression, or network transport
//! can carry NaN intensities, duplicated voxels, or coordinates so spread
//! out that the paper's dense grid over their bounding box would exhaust
//! device memory. [`Engine::run`](crate::Engine::run) screens every input
//! against the [`ValidationConfig`] in its [`OptimizationConfig`]
//! (crate::OptimizationConfig) before any layer executes, under one of
//! three [`ValidationPolicy`] modes:
//!
//! - **Trust**: skip all checks (the seed engine's behavior, and the
//!   default — validation is opt-in so benchmark configurations measure
//!   only kernel cost).
//! - **Reject**: fail fast with a typed [`CoreError`] — never a panic —
//!   naming exactly what was wrong.
//! - **Sanitize**: repair what can be repaired (zero non-finite features,
//!   drop duplicate coordinates, shed points over budget), record every
//!   repair in the [`DegradationReport`](crate::DegradationReport), and run
//!   on the cleaned tensor.

use crate::error::CoreError;
use crate::faults::{DegradationReport, FaultInjector, FaultSite};
use crate::sparse_tensor::SparseTensor;
use std::collections::HashSet;
use torchsparse_coords::{bounding_box_cells, Coord, CoordsError};

/// What the engine does with inputs that fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ValidationPolicy {
    /// Perform no checks; malformed input produces undefined numerics (but
    /// still no panics on the engine's own paths).
    #[default]
    Trust,
    /// Return a typed [`CoreError`] describing the first violation.
    Reject,
    /// Repair the input where possible and record the repairs as
    /// [`FaultSite::InputValidation`] degradation events.
    Sanitize,
}

/// Validation policy plus the resource budget it enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// Checking mode.
    pub policy: ValidationPolicy,
    /// Maximum accepted input points; `None` = unlimited.
    pub max_points: Option<usize>,
    /// Maximum grid cells the coordinate bounding box may require
    /// ([`bounding_box_cells`]). Inputs over this bound would charge
    /// enormous dense device grids; `Reject` refuses
    /// them, `Sanitize` lets them through but pre-records the grid→hashmap
    /// degradation they will cause.
    pub max_grid_cells: u64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            policy: ValidationPolicy::Trust,
            max_points: None,
            max_grid_cells: u64::MAX,
        }
    }
}

impl ValidationConfig {
    /// Reject mode with unlimited budgets: malformed inputs become typed
    /// errors, well-formed inputs of any size pass.
    pub fn reject() -> ValidationConfig {
        ValidationConfig { policy: ValidationPolicy::Reject, ..ValidationConfig::default() }
    }

    /// Sanitize mode with unlimited budgets.
    pub fn sanitize() -> ValidationConfig {
        ValidationConfig { policy: ValidationPolicy::Sanitize, ..ValidationConfig::default() }
    }

    /// Builder: sets the point budget.
    #[must_use]
    pub fn with_max_points(mut self, max_points: usize) -> ValidationConfig {
        self.max_points = Some(max_points);
        self
    }

    /// Builder: sets the grid-cell budget.
    #[must_use]
    pub fn with_max_grid_cells(mut self, max_grid_cells: u64) -> ValidationConfig {
        self.max_grid_cells = max_grid_cells;
        self
    }
}

/// Screens `input` according to `cfg`.
///
/// Returns `Ok(None)` when the tensor passes unchanged and
/// `Ok(Some(cleaned))` when sanitization rewrote it. The
/// [`FaultSite::ResourceBudget`] injector site is probed here: an injected
/// budget fault treats half the input as the available budget.
///
/// # Errors
///
/// Under [`ValidationPolicy::Reject`]: [`CoreError::BudgetExceeded`],
/// [`CoreError::ExtentOverflow`], [`CoreError::NonFiniteFeatures`], or
/// [`CoreError::Coords`] with
/// [`DuplicateCoordinate`](torchsparse_coords::CoordsError::DuplicateCoordinate),
/// in that order of precedence.
pub fn validate_input(
    input: &SparseTensor,
    cfg: &ValidationConfig,
    faults: &mut FaultInjector,
    report: &mut DegradationReport,
) -> Result<Option<SparseTensor>, CoreError> {
    if cfg.policy == ValidationPolicy::Trust || input.is_empty() {
        return Ok(None);
    }
    let sanitize = cfg.policy == ValidationPolicy::Sanitize;
    let channels = input.channels();
    // Working copy, materialized only once a repair actually happens.
    let mut cur: Option<(Vec<Coord>, Vec<f32>)> = None;

    // 1. Point budget. An injected fault simulates memory pressure by
    //    halving the available budget (always at least one point survives).
    let forced = faults.should_fail(FaultSite::ResourceBudget);
    let effective_limit = if forced {
        let pressured = (input.len() / 2).max(1);
        Some(cfg.max_points.map_or(pressured, |m| m.min(pressured)))
    } else {
        cfg.max_points
    };
    if let Some(limit) = effective_limit {
        if input.len() > limit {
            if !sanitize {
                return Err(CoreError::BudgetExceeded { points: input.len(), limit });
            }
            cur = Some((
                input.coords()[..limit].to_vec(),
                input.feats().as_slice()[..limit * channels].to_vec(),
            ));
            report.record(
                FaultSite::ResourceBudget,
                if forced {
                    "injected budget exhaustion; input shed to half"
                } else {
                    "input over point budget; excess points shed"
                },
            );
        }
    }

    // 2. Coordinate extent, counted exactly as the grid table's cell budget
    //    counts it.
    let cells = {
        let cv = cur.as_ref().map_or(input.coords(), |(c, _)| c);
        bounding_box_cells(cv)
    };
    if cells > cfg.max_grid_cells {
        if !sanitize {
            return Err(CoreError::ExtentOverflow { cells, limit: cfg.max_grid_cells });
        }
        // Not repairable without moving points; the mapping layer will fall
        // back to the hashmap, so pre-record the cause here.
        report.record(
            FaultSite::InputValidation,
            "coordinate extent over grid budget; hashmap mapping expected",
        );
    }

    // 3. Non-finite features.
    let non_finite = {
        let fv = cur.as_ref().map_or(input.feats().as_slice(), |(_, f)| f.as_slice());
        fv.iter().filter(|v| !v.is_finite()).count()
    };
    if non_finite > 0 {
        if !sanitize {
            return Err(CoreError::NonFiniteFeatures { count: non_finite });
        }
        let (_, f) =
            cur.get_or_insert_with(|| (input.coords().to_vec(), input.feats().as_slice().to_vec()));
        for v in f.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        report.record(FaultSite::InputValidation, "non-finite feature values zeroed");
    }

    // 4. Duplicate coordinates. Keep the first occurrence of each voxel so
    //    sanitized output order matches input order.
    let keep: Vec<usize> = {
        let cv = cur.as_ref().map_or(input.coords(), |(c, _)| c);
        let mut seen: HashSet<Coord> = HashSet::with_capacity(cv.len());
        (0..cv.len()).filter(|&i| seen.insert(cv[i])).collect()
    };
    let total = cur.as_ref().map_or(input.len(), |(c, _)| c.len());
    if keep.len() != total {
        if !sanitize {
            let cv = cur.as_ref().map_or(input.coords(), |(c, _)| c);
            let mut kept = keep.iter().copied().peekable();
            let mut dup = cv[0];
            for (i, &c) in cv.iter().enumerate() {
                if kept.peek() == Some(&i) {
                    kept.next();
                } else {
                    dup = c;
                    break;
                }
            }
            return Err(CoreError::Coords(CoordsError::DuplicateCoordinate(dup)));
        }
        let (src_coords, src_feats) = match cur.take() {
            Some((c, f)) => (c, f),
            None => (input.coords().to_vec(), input.feats().as_slice().to_vec()),
        };
        let coords: Vec<Coord> = keep.iter().map(|&i| src_coords[i]).collect();
        let mut feats: Vec<f32> = Vec::with_capacity(keep.len() * channels);
        for &i in &keep {
            feats.extend_from_slice(&src_feats[i * channels..(i + 1) * channels]);
        }
        cur = Some((coords, feats));
        report.record(FaultSite::InputValidation, "duplicate coordinates dropped");
    }

    match cur {
        None => Ok(None),
        Some((coords, feats)) => {
            let rows = coords.len();
            let matrix = torchsparse_tensor::Matrix::from_vec(rows, channels, feats)?;
            Ok(Some(SparseTensor::with_stride(coords, matrix, input.stride())?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchsparse_tensor::Matrix;

    fn tensor(coords: Vec<Coord>, feats: Vec<f32>) -> SparseTensor {
        let n = coords.len();
        let c = feats.len() / n.max(1);
        SparseTensor::new(coords, Matrix::from_vec(n, c, feats).unwrap()).unwrap()
    }

    fn clean_input() -> SparseTensor {
        tensor(
            vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0), Coord::new(0, 0, 2, 1)],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
    }

    fn check(
        input: &SparseTensor,
        cfg: &ValidationConfig,
    ) -> (Result<Option<SparseTensor>, CoreError>, DegradationReport) {
        let mut faults = FaultInjector::disarmed();
        let mut report = DegradationReport::new();
        let out = validate_input(input, cfg, &mut faults, &mut report);
        (out, report)
    }

    #[test]
    fn trust_mode_skips_everything() {
        let bad = tensor(vec![Coord::new(0, 0, 0, 0), Coord::new(0, 0, 0, 0)], vec![f32::NAN, 1.0]);
        let (out, report) = check(&bad, &ValidationConfig::default());
        assert!(out.unwrap().is_none());
        assert!(report.is_empty());
    }

    #[test]
    fn clean_input_passes_unchanged() {
        for cfg in [ValidationConfig::reject(), ValidationConfig::sanitize()] {
            let (out, report) = check(&clean_input(), &cfg);
            assert!(out.unwrap().is_none());
            assert!(report.is_empty());
        }
    }

    #[test]
    fn reject_flags_non_finite_features() {
        let bad = tensor(
            vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)],
            vec![1.0, f32::INFINITY, f32::NAN, 4.0],
        );
        let (out, _) = check(&bad, &ValidationConfig::reject());
        assert_eq!(out.unwrap_err(), CoreError::NonFiniteFeatures { count: 2 });
    }

    #[test]
    fn sanitize_zeroes_non_finite_features() {
        let bad = tensor(
            vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)],
            vec![1.0, f32::INFINITY, f32::NAN, 4.0],
        );
        let (out, report) = check(&bad, &ValidationConfig::sanitize());
        let cleaned = out.unwrap().expect("rewritten");
        assert_eq!(cleaned.feats().as_slice(), &[1.0, 0.0, 0.0, 4.0]);
        assert_eq!(report.count(FaultSite::InputValidation), 1);
    }

    #[test]
    fn reject_flags_duplicates() {
        let bad = tensor(vec![Coord::new(0, 1, 2, 3), Coord::new(0, 1, 2, 3)], vec![1.0, 2.0]);
        let (out, _) = check(&bad, &ValidationConfig::reject());
        assert_eq!(
            out.unwrap_err(),
            CoreError::Coords(CoordsError::DuplicateCoordinate(Coord::new(0, 1, 2, 3)))
        );
    }

    #[test]
    fn sanitize_keeps_first_occurrence_of_duplicates() {
        let bad = tensor(
            vec![Coord::new(0, 1, 0, 0), Coord::new(0, 2, 0, 0), Coord::new(0, 1, 0, 0)],
            vec![10.0, 20.0, 30.0],
        );
        let (out, report) = check(&bad, &ValidationConfig::sanitize());
        let cleaned = out.unwrap().expect("rewritten");
        assert_eq!(cleaned.coords(), &[Coord::new(0, 1, 0, 0), Coord::new(0, 2, 0, 0)]);
        assert_eq!(cleaned.feats().as_slice(), &[10.0, 20.0]);
        cleaned.validate_unique().unwrap();
        assert_eq!(report.count(FaultSite::InputValidation), 1);
    }

    #[test]
    fn budget_reject_and_sanitize() {
        let input = clean_input();
        let cfg = ValidationConfig::reject().with_max_points(2);
        let (out, _) = check(&input, &cfg);
        assert_eq!(out.unwrap_err(), CoreError::BudgetExceeded { points: 3, limit: 2 });

        let cfg = ValidationConfig::sanitize().with_max_points(2);
        let (out, report) = check(&input, &cfg);
        let cleaned = out.unwrap().expect("rewritten");
        assert_eq!(cleaned.len(), 2);
        assert_eq!(cleaned.feats().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(report.count(FaultSite::ResourceBudget), 1);
    }

    #[test]
    fn injected_budget_fault_halves_input() {
        let mut faults = FaultInjector::disarmed();
        faults.arm(FaultSite::ResourceBudget);
        let mut report = DegradationReport::new();
        let input = tensor(
            (0..8).map(|x| Coord::new(0, x, 0, 0)).collect(),
            (0..8).map(|v| v as f32).collect(),
        );
        let out = validate_input(&input, &ValidationConfig::sanitize(), &mut faults, &mut report)
            .unwrap()
            .expect("rewritten");
        assert_eq!(out.len(), 4);
        assert_eq!(report.count(FaultSite::ResourceBudget), 1);
        assert_eq!(faults.injected(), &[FaultSite::ResourceBudget]);
    }

    #[test]
    fn extent_overflow_detected() {
        let wide = tensor(
            vec![
                Coord::new(0, i32::MIN, i32::MIN, i32::MIN),
                Coord::new(0, i32::MAX, i32::MAX, i32::MAX),
            ],
            vec![1.0, 2.0],
        );
        // 2^32 cells per spatial axis overflows u64 in the product.
        assert_eq!(bounding_box_cells(wide.coords()), u64::MAX);

        let cfg = ValidationConfig::reject().with_max_grid_cells(1 << 28);
        let (out, _) = check(&wide, &cfg);
        assert_eq!(out.unwrap_err(), CoreError::ExtentOverflow { cells: u64::MAX, limit: 1 << 28 });

        let cfg = ValidationConfig::sanitize().with_max_grid_cells(1 << 28);
        let (out, report) = check(&wide, &cfg);
        assert!(out.unwrap().is_none(), "extent is recorded, not rewritten");
        assert_eq!(report.count(FaultSite::InputValidation), 1);
    }

    #[test]
    fn compound_sanitization_applies_all_repairs() {
        let bad = tensor(
            vec![
                Coord::new(0, 0, 0, 0),
                Coord::new(0, 0, 0, 0),
                Coord::new(0, 1, 0, 0),
                Coord::new(0, 2, 0, 0),
            ],
            vec![f32::NAN, 1.0, 2.0, f32::NEG_INFINITY],
        );
        let cfg = ValidationConfig::sanitize().with_max_points(3);
        let (out, report) = check(&bad, &cfg);
        let cleaned = out.unwrap().expect("rewritten");
        // Budget sheds the 4th point, dup drop removes the 2nd, NaN zeroed.
        assert_eq!(cleaned.coords(), &[Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)]);
        assert_eq!(cleaned.feats().as_slice(), &[0.0, 2.0]);
        assert_eq!(report.total(), 3);
    }
}
