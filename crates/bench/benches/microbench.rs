//! Microbenchmarks of the engine's real CPU kernels: coordinate tables, map
//! search, downsampling pipelines, and GEMM.
//!
//! These measure the *actual* Rust implementations (not the GPU cost
//! model), so they answer a different question than the `fig*`/`table*`
//! binaries: how fast is this library as a CPU inference engine? They also
//! demonstrate that the optimized code paths (grid tables, symmetric
//! search, fused downsampling) are faster on the CPU too — the paper's
//! algorithmic wins are not GPU-specific.
//!
//! Self-contained timing harness (`harness = false`): each benchmark runs a
//! warmup pass and then reports the mean and minimum wall time over a fixed
//! iteration count. Run with `cargo bench -p torchsparse-bench`.

use std::hint::black_box;
use std::time::Instant;
use torchsparse_coords::downsample::{fused_output_coords, staged_output_coords, Boundary};
use torchsparse_coords::kernel_map::{search, search_submanifold_symmetric};
use torchsparse_coords::{Coord, CoordHashMap, GridTable};
use torchsparse_core::{Engine, EnginePreset};
use torchsparse_data::SyntheticDataset;
use torchsparse_gpusim::DeviceProfile;
use torchsparse_models::MinkUNet;
use torchsparse_tensor::{gemm, Matrix};

/// Times `f` over `iters` iterations (after `warmup` discarded runs) and
/// prints mean and best wall time.
fn bench<T>(group: &str, name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(dt);
        total += dt;
    }
    println!(
        "{group}/{name:<28} mean {:>9.3} ms   best {:>9.3} ms   ({iters} iters)",
        total / iters as f64,
        best
    );
}

fn scene_coords() -> Vec<Coord> {
    // A coarse (0.4 m) voxelization keeps the scene's coordinate bounding
    // box small enough that the grid table's dense allocation stays in the
    // tens of megabytes per build — the regime the paper's "grid" strategy
    // targets.
    let mut ds = SyntheticDataset::semantic_kitti(0.05, 4);
    ds.voxel_size = 0.4;
    ds.scene(7).expect("scene generation").coords().to_vec()
}

fn bench_tables() {
    let coords = scene_coords();
    bench("coord_tables", "hashmap_build", 2, 20, || CoordHashMap::build(black_box(&coords)));
    bench("coord_tables", "grid_build", 2, 20, || {
        GridTable::build(black_box(&coords), u64::MAX).expect("grid fits")
    });
    let (hash, _) = CoordHashMap::build(&coords);
    let (grid, _) = GridTable::build(&coords, u64::MAX).expect("grid fits");
    bench("coord_tables", "hashmap_search_k3", 2, 20, || {
        search(black_box(&coords), &hash, 3, 1).expect("search")
    });
    bench("coord_tables", "grid_search_k3", 2, 20, || {
        search(black_box(&coords), &grid, 3, 1).expect("search")
    });
    bench("coord_tables", "symmetric_search_k3", 2, 20, || {
        search_submanifold_symmetric(black_box(&coords), &grid, 3).expect("search")
    });
}

fn bench_downsample() {
    let coords = scene_coords();
    bench("downsample", "staged_k2s2", 2, 20, || {
        staged_output_coords(black_box(&coords), 2, 2, Boundary::unbounded())
    });
    bench("downsample", "fused_k2s2", 2, 20, || {
        fused_output_coords(black_box(&coords), 2, 2, Boundary::unbounded())
    });
}

fn bench_gemm() {
    let a = Matrix::from_fn(2048, 64, |r, cc| ((r * 31 + cc * 17) % 97) as f32 / 97.0);
    let w = Matrix::from_fn(64, 64, |r, cc| ((r * 13 + cc * 7) % 89) as f32 / 89.0);
    bench("gemm", "mm_2048x64x64", 3, 30, || gemm::mm(black_box(&a), black_box(&w)).expect("mm"));
}

fn bench_end_to_end() {
    // Full CPU inference (numerics + cost model) of a small MinkUNet.
    let input = SyntheticDataset::semantic_kitti(0.02, 4).scene(3).expect("scene");
    let model = MinkUNet::with_width(0.25, 4, 8, 42);
    let mut engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    bench("end_to_end", "minkunet_quarter_cpu", 1, 10, || {
        engine.run(black_box(&model), black_box(&input)).expect("run")
    });
    let mut sim_engine = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti());
    sim_engine.context_mut().simulate_only = true;
    bench("end_to_end", "minkunet_quarter_simulate_only", 1, 10, || {
        sim_engine.run(black_box(&model), black_box(&input)).expect("run")
    });
}

fn main() {
    bench_tables();
    bench_downsample();
    bench_gemm();
    bench_end_to_end();
}
