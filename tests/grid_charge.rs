//! The grid table is a *charge*: the paper's collision-free grid (§4.4) costs
//! one access per insert and per in-box query, none outside the box, and is
//! refused past `grid_cell_limit` — whatever the host stores behind it. The
//! constants below were captured on the dense-array grid (`d4bbcb1`, one
//! `u32` per bounding-box cell) before its cells became a hashmap: the
//! per-stage timeline bits and degradation counts of a dynamic CenterPoint
//! run on a `waymo_fresh`-sized scan, one per table path (SpConv's grid,
//! TorchSparse's adaptive choice, MinkowskiEngine's hashmap, and the organic
//! hashmap fallback past the cell budget), and the mapping charge of a
//! two-voxel scene spanning a 512³ box.

use torchsparse::coords::{bounding_box_cells, Coord, MappingStats};
use torchsparse::core::mapping::{build_layer_mapping, TableKind};
use torchsparse::core::{Engine, EnginePreset, FaultSite, OptimizationConfig};
use torchsparse::data::SyntheticDataset;
use torchsparse::gpusim::{DeviceProfile, Stage};
use torchsparse::models::CenterPoint;

/// Per-stage bits in `Stage::ALL` order, then the degradation report's
/// `GridTableBuild` count and its total event count.
type Pin = ([u64; 5], usize, usize);

/// A dynamic CenterPoint run on one scan at the benchmark's `waymo_fresh`
/// scale and channels (834 voxels). `budget_short` sets `grid_cell_limit`
/// one cell short of the first level's box: that level's builds fall back
/// to the hashmap, the coarser levels keep the grid.
fn run(mut config: OptimizationConfig, budget_short: bool) -> Pin {
    let scan = SyntheticDataset::waymo(0.006, 5, 1).scene(42_000).expect("waymo scan");
    assert_eq!(scan.len(), 834);
    if budget_short {
        config.grid_cell_limit = bounding_box_cells(scan.coords()) - 1;
    }
    let mut engine = Engine::with_config(config, DeviceProfile::rtx_2080ti());
    engine.run(&CenterPoint::new(5, 1), &scan).expect("dynamic run");
    let report = engine.degradation_report();
    let bits = Stage::ALL.map(|s| engine.last_timeline().stage(s).as_f64().to_bits());
    (bits, report.count(FaultSite::GridTableBuild), report.events().len())
}

#[test]
fn spconv_grid_charge_repeats() {
    let pin = (
        [
            0x4065984fb5044011,
            0x40833b53e5a69d6d,
            0x40b053ed047662e5,
            0x40874a382af52fc3,
            0x40b0166bef1a9c7a,
        ],
        0,
        0,
    );
    assert_eq!(run(EnginePreset::SpConv.config(), false), pin);
}

#[test]
fn torchsparse_auto_charge_repeats() {
    let pin = (
        [
            0x4051ef05221fdd1b,
            0x406eb5a4ad24a779,
            0x4092b73953225514,
            0x406f1bcf0e8cfde8,
            0x40ac6b935a907906,
        ],
        0,
        0,
    );
    assert_eq!(run(EnginePreset::TorchSparse.config(), false), pin);
}

#[test]
fn minkowski_hashmap_charge_repeats() {
    let pin = (
        [0x4070b150260b802f, 0x40757ecd99116bda, 0x40b0c7ae2d9f7718, 0x0, 0x40af7994184a653f],
        0,
        0,
    );
    assert_eq!(run(EnginePreset::MinkowskiEngine.config(), false), pin);
}

#[test]
fn over_budget_fallback_charge_and_report_repeat() {
    // Only the mapping stage (and so the total) differs from the in-budget
    // TorchSparse run: two first-level builds fall back, merged into one
    // report event.
    let pin = (
        [
            0x4054ea394fe4addd,
            0x406eb5a4ad24a779,
            0x4092b73953225514,
            0x406f1bcf0e8cfde8,
            0x40ac6e39c1d599bf,
        ],
        2,
        1,
    );
    assert_eq!(run(EnginePreset::TorchSparse.config(), true), pin);
}

#[test]
fn grid_memory_scales_with_points_not_the_box() {
    // Opposite corners of a 512³ box: 2^27 cells, under the 2^28 budget.
    // The dense grid allocated 512 MiB for these two voxels.
    let coords = [Coord::new(0, 0, 0, 0), Coord::new(0, 511, 511, 511)];
    assert_eq!(bounding_box_cells(&coords), 1 << 27);
    let config = EnginePreset::TorchSparse.config();
    let m =
        build_layer_mapping(&coords, 3, 1, &config, &DeviceProfile::rtx_2080ti()).expect("mapping");
    assert_eq!(m.table, TableKind::Grid);
    assert!(m.index.memory_bytes() < 1024, "{} bytes", m.index.memory_bytes());
    // The dense grid's probe counts and mapping charge.
    assert_eq!(
        m.map.stats,
        MappingStats { reads: 7, writes: 0, kernel_launches: 1, candidate_ops: 0 }
    );
    assert_eq!(m.latency.as_f64().to_bits(), 0x400800f51f254352);
    assert_eq!(m.index.query(coords[1]), (Some(1), 1), "in-box hit: one access");
    assert_eq!(m.index.query(Coord::new(0, 1, 1, 1)), (None, 1), "in-box miss: one access");
    assert_eq!(m.index.query(Coord::new(0, 512, 0, 0)), (None, 0), "outside the box: free");
}
