//! Scale guards: planning cost per voxel must follow the points.
//!
//! Scale bugs have so far been found by hand: a grid table sized by the
//! scene's bounding box instead of its points, and a frozen plan that kept
//! each level's coordinate list once per map. Wall clocks cannot gate a
//! test, so this one reads counters. MinkUNet (0.5x width, SemanticKITTI
//! scans) and CenterPoint (Waymo scans) are priced (`Engine::price`: a
//! dynamic plan, mapped on the configured grid or hashmap, never executed)
//! and compiled (a frozen plan on the MPHF) at three scales spanning 16x in
//! voxels. Per voxel, it reads:
//!
//! - `plan_bytes` of the compiled plan (`PlanCacheStats::plan_bytes`);
//! - kernel-map entries (the recorded workloads' map sizes);
//! - bytes allocated while pricing and while compiling, through the
//!   counting global allocator below, which is local to this test binary.
//!
//! Each per-voxel value may move by at most a stated factor between the
//! smallest and the largest scale, in either direction: growth means
//! superlinear work, and shrinkage means a fixed cost that does not follow
//! the points (a table sized by the scene box). Row order must not cost
//! memory either: at each MinkUNet scale a frame churned by
//! `temporal_churn_stream`, whose inserted voxels come last, compiles to the
//! plan bytes per voxel of the same frame sorted, within 2%. Nothing here
//! executes a GEMM, so the guard stays cheap in a debug build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use torchsparse::core::{Engine, EnginePreset, Module, SparseTensor};
use torchsparse::data::{temporal_churn_stream, SyntheticDataset};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::{CenterPoint, MinkUNet};
use torchsparse::tensor::Matrix;

/// Bytes requested from the allocator since the binary started: every
/// allocation's size, and every growing reallocation's growth.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a relaxed atomic add, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(growth as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What one model's planning costs on one scan, per input voxel.
#[derive(Debug, Clone, Copy)]
struct PerVoxel {
    voxels: usize,
    plan_bytes: f64,
    map_entries: f64,
    price_alloc: f64,
    compile_alloc: f64,
}

impl PerVoxel {
    const NAMES: [&'static str; 4] = ["plan_bytes", "map_entries", "price_alloc", "compile_alloc"];

    fn values(&self) -> [f64; 4] {
        [self.plan_bytes, self.map_entries, self.price_alloc, self.compile_alloc]
    }
}

/// Bytes allocated while `f` runs.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCATED.load(Ordering::Relaxed) - before)
}

fn engine() -> Engine {
    Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti())
}

fn measure(model: &dyn Module, scan: &SparseTensor) -> PerVoxel {
    let mut pricing = engine();
    pricing.context_mut().record_workloads = true;
    let (priced, price_alloc) = allocated(|| pricing.price(model, scan).map(|_| ()));
    priced.expect("price");
    let entries: usize = pricing.context().workloads.iter().flat_map(|w| &w.map_sizes).sum();
    let compiling = engine();
    let (session, compile_alloc) = allocated(|| compiling.compile(model, scan));
    let plan_bytes = session.expect("compile").stats().plan_bytes;
    let n = scan.len() as f64;
    PerVoxel {
        voxels: scan.len(),
        plan_bytes: plan_bytes as f64 / n,
        map_entries: entries as f64 / n,
        price_alloc: price_alloc as f64 / n,
        compile_alloc: compile_alloc as f64 / n,
    }
}

/// The compiled plan's bytes per voxel of `frame`.
fn plan_bytes_per_voxel(model: &dyn Module, frame: &SparseTensor) -> f64 {
    let session = engine().compile(model, frame).expect("compile");
    session.stats().plan_bytes as f64 / frame.len() as f64
}

/// `frame` with its rows in ascending coordinate order.
fn sorted(frame: &SparseTensor) -> SparseTensor {
    let mut order: Vec<usize> = (0..frame.len()).collect();
    order.sort_by_key(|&r| frame.coords()[r]);
    let coords = order.iter().map(|&r| frame.coords()[r]).collect();
    let feats = Matrix::from_fn(order.len(), frame.channels(), |r, c| frame.feats()[(order[r], c)]);
    SparseTensor::with_stride(coords, feats, frame.stride()).expect("sorted twin")
}

/// How far a churned frame's plan bytes per voxel may sit above its sorted
/// twin's: 2%. A plan sorts an unsorted frame once and keeps one `u32` rank
/// per voxel, 4 B/voxel or 1.3% of MinkUNet's plan at the top scale. Plans
/// that kept re-sorted copies of every output-unsorted map offset read 29%
/// over at SemanticKITTI scale 1.0 (398.7 against 308.2 B/voxel).
const CHURNED_PLAN_BYTES_RATIO: f64 = 1.02;

/// Checks a frame churned 10% from `scan` against its sorted twin.
fn assert_churn_plans_like_sorted(model: &dyn Module, scan: &SparseTensor) {
    let churned = temporal_churn_stream(scan, 2, 0.10, 5).expect("churn").remove(1);
    let twin = sorted(&churned);
    assert_ne!(churned.coords(), twin.coords(), "the churned frame must be unsorted");
    let (got, sorted) = (plan_bytes_per_voxel(model, &churned), plan_bytes_per_voxel(model, &twin));
    let ratio = got / sorted;
    assert!(
        (1.0..=CHURNED_PLAN_BYTES_RATIO).contains(&ratio),
        "churned plan {got:.1} B/voxel vs sorted twin {sorted:.1} ({ratio:.4}x) at {} voxels",
        churned.len()
    );
}

/// `(floor, ceiling)` of each per-voxel value's ratio, from the smallest
/// scale to each larger one, in [`PerVoxel::NAMES`] order.
///
/// Source: measured MinkUNet / CenterPoint ratios from the smallest to the
/// middle / largest scale — plan bytes 0.93, 0.83 / 0.67, 0.50; map
/// entries 1.20, 1.33 / 0.70, 0.55; pricing allocations 0.92, 0.88 / 0.67,
/// 0.51; compile allocations 0.80, 0.70 / 0.67, 0.48 (the same at one
/// thread and on the portable kernel, within 0.02). Most values fall with
/// scale because the coarse levels of a sparse scan merge more voxels as
/// it densifies. Compile allocations read 0.22 / 0.31 while every compile
/// ran the Algorithm-5 grouping search, which allocated about 4.7 MB
/// whatever the scan; the cost model now runs it when it first prices a
/// plan.
///
/// - The ceiling, 2.0, is 1.5x the largest measured ratio (1.33). It fails
///   anything superlinear in the points.
/// - The floor, 0.45, sits under the lowest measured ratio (0.48). It fails
///   a fixed cost that does not follow the points: a grid table holding one
///   `u32` per bounding-box cell, tried in a scratch copy, reads 0.020 /
///   0.044 on pricing allocations, and the grouping search's 4.7 MB read
///   0.22 on compile allocations.
const RATIO_BOUNDS: [(f64, f64); 4] = [(0.45, 2.0); 4];

/// MinkUNet's plan bytes per voxel at the top scale (19,454 voxels) may not
/// exceed 337. Source: 326.8 measured with a transposed copy of each
/// decoder map, plus 10%, is 359; those copies held 21.5 B/voxel, and
/// without them the plan reads 305.4. Every map holding its own coordinate
/// index read 437.3 with the copies, and every map also holding its own
/// copy of each coordinate list it touches 640.6, so either fails here.
const MINKUNET_PLAN_BYTES_PER_VOXEL: f64 = 337.0;

/// Checks every per-voxel value of each larger scale against the smallest
/// one's, within [`RATIO_BOUNDS`].
fn assert_follows_points(model: &str, scales: &[PerVoxel; 3]) {
    let small = scales[0];
    assert!(scales[2].voxels >= 15 * small.voxels, "{model}: {scales:?} spans under 15x");
    for large in &scales[1..] {
        let values = small.values().into_iter().zip(large.values());
        for ((name, (floor, ceiling)), (s, l)) in
            PerVoxel::NAMES.iter().zip(RATIO_BOUNDS).zip(values)
        {
            let ratio = l / s;
            assert!(
                (floor..=ceiling).contains(&ratio),
                "{model} {name} per voxel moved {ratio:.3}x from {} to {} voxels \
                 (bounds {floor}..={ceiling}): {scales:?}",
                small.voxels,
                large.voxels,
            );
        }
    }
}

#[test]
fn planning_cost_per_voxel_follows_the_points() {
    let minkunet = MinkUNet::with_width(0.5, 4, 19, 7);
    let kitti_scans = [0.0125, 0.05, 0.2]
        .map(|scale| SyntheticDataset::semantic_kitti(scale, 4).scene(0).expect("kitti scan"));
    let kitti = kitti_scans.each_ref().map(|scan| measure(&minkunet, scan));
    let centerpoint = CenterPoint::new(5, 7);
    let waymo = [0.008, 0.04, 0.18].map(|scale| {
        let scan = SyntheticDataset::waymo(scale, 5, 1).scene(0).expect("waymo scan");
        measure(&centerpoint, &scan)
    });
    assert_follows_points("MinkUNet", &kitti);
    assert_follows_points("CenterPoint", &waymo);
    for scan in &kitti_scans {
        assert_churn_plans_like_sorted(&minkunet, scan);
    }
    let top = kitti[2].plan_bytes;
    assert!(
        top <= MINKUNET_PLAN_BYTES_PER_VOXEL,
        "MinkUNet plan bytes per voxel {top:.1} > {MINKUNET_PLAN_BYTES_PER_VOXEL}: {kitti:?}"
    );
}
