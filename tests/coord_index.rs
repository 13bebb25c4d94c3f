//! The coordinate-index contract: the structure a map search probes (the
//! open-addressing hashmap, the dense grid, or the succinct MPHF cascade a
//! frozen plan keeps) is a pure representation choice. All three answer
//! every query of a kernel-map search identically — keep-first on duplicate
//! coordinates, where no perfect hash exists and plans keep the hashmap — so
//! a compiled session, which searches its MPHF, produces the bits of a
//! dynamic run under either `map_search` table. Only `MappingStats` and
//! simulated latency may differ.

use torchsparse::coords::downsample::{fused_output_coords, Boundary};
use torchsparse::coords::kernel_map::{search_dilated_on, search_submanifold_symmetric_dilated_on};
use torchsparse::coords::offsets::kernel_offsets;
use torchsparse::coords::{
    Coord, CoordHashMap, CoordIndex, CoordsError, GridTable, KernelMap, MphfIndex,
};
use torchsparse::core::{Engine, EnginePreset, MapSearchStrategy, SparseTensor, ThreadPool};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::MinkUNet;
use torchsparse::tensor::Matrix;

fn scene_coords(seed: i32) -> Vec<Coord> {
    let mut coords = std::collections::BTreeSet::new();
    for i in 0..400 {
        coords.insert(Coord::new(
            i % 2,
            (i * 7 + seed) % 23 - 11,
            ((i * 13) / 3) % 19 - 9,
            (i * 3) % 17 - 8,
        ));
    }
    coords.into_iter().collect()
}

fn scene(channels: usize, seed: i32) -> SparseTensor {
    let coords = scene_coords(seed);
    let n = coords.len();
    SparseTensor::new(
        coords,
        Matrix::from_fn(n, channels, |r, c| ((r + 5 * c) % 11) as f32 * 0.2 - 1.0),
    )
    .expect("valid scene")
}

/// Every per-offset entry list of the three searches a network issues
/// against one index: submanifold, its symmetric half-search, and a strided
/// downsample.
fn searches(coords: &[Coord], index: &dyn CoordIndex) -> Vec<KernelMap> {
    let coarse = fused_output_coords(coords, 2, 2, Boundary::unbounded()).expect("coords").coords;
    vec![
        search_dilated_on(ThreadPool::global(), coords, index, 3, 1, 1)
            .expect("submanifold search"),
        search_submanifold_symmetric_dilated_on(ThreadPool::global(), coords, index, 3, 1)
            .expect("symmetric search"),
        search_dilated_on(ThreadPool::global(), &coarse, index, 2, 2, 1).expect("strided search"),
    ]
}

fn assert_same_maps(a: &[KernelMap], b: &[KernelMap], what: &str) {
    for (i, (ma, mb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ma.num_offsets(), mb.num_offsets(), "{what}: search {i}");
        for n in 0..ma.num_offsets() {
            assert_eq!(ma.entries(n), mb.entries(n), "{what}: search {i} offset {n}");
        }
    }
}

/// Hashmap, grid and MPHF resolve every probe of a 3x3x3 neighbourhood
/// sweep — hits and misses — to the same row, and therefore build identical
/// kernel maps; with a duplicated coordinate the hashmap and the grid agree
/// on keep-first and the MPHF declines to exist.
#[test]
fn hashmap_grid_and_mphf_answer_every_kernel_map_query_identically() {
    let coords = scene_coords(0);
    let (hash, _) = CoordHashMap::build(&coords);
    let (grid, _) = GridTable::build(&coords, 1 << 28).expect("grid fits");
    let (mphf, _) = MphfIndex::build(&coords).expect("unique coordinates");
    let mut hits = 0usize;
    for &c in &coords {
        for d in kernel_offsets(3).expect("offsets") {
            let probe = Coord::new(c.batch, c.x + d[0], c.y + d[1], c.z + d[2]);
            let want = hash.query(probe).0;
            assert_eq!(grid.query(probe).0, want, "grid at {probe}");
            assert_eq!(mphf.query(probe).0, want, "mphf at {probe}");
            hits += usize::from(want.is_some());
        }
    }
    assert!(hits > coords.len() && hits < 27 * coords.len(), "the sweep must hit and miss");
    let reference = searches(&coords, &hash);
    assert_same_maps(&reference, &searches(&coords, &grid), "grid");
    assert_same_maps(&reference, &searches(&coords, &mphf), "mphf");

    let mut duplicated = coords.clone();
    duplicated.push(coords[3]);
    duplicated.insert(40, coords[17]);
    let (hash, _) = CoordHashMap::build(&duplicated);
    let (grid, _) = GridTable::build(&duplicated, 1 << 28).expect("grid fits");
    assert_same_maps(&searches(&duplicated, &hash), &searches(&duplicated, &grid), "duplicates");
    assert!(matches!(MphfIndex::build(&duplicated), Err(CoordsError::DuplicateCoordinate(_))));
}

/// A compiled session searches (and keeps) the MPHF; it must match a dynamic
/// run bit for bit whichever table that run's `map_search` selects —
/// freezing the plan changes when and how the index is built, never what the
/// features become. The last scene carries duplicate coordinates, where the
/// frozen plan falls back to the hashmap.
#[test]
fn compiled_sessions_match_dynamic_bits_under_every_index() {
    let m = MinkUNet::with_width(0.25, 4, 3, 53);
    let clean = scene(4, 5);
    let mut coords = clean.coords().to_vec();
    coords.push(coords[9]);
    let rows = coords.len();
    let duplicated =
        SparseTensor::new(coords, Matrix::from_fn(rows, 4, |r, c| ((r + c) % 7) as f32 - 3.0))
            .expect("Trust validation admits duplicates");

    for (case, x) in [("clean", &clean), ("duplicated", &duplicated)] {
        let mut session = Engine::new(EnginePreset::TorchSparse, DeviceProfile::rtx_2080ti())
            .compile(&m, x)
            .expect("compile");
        let y = session.execute(x).expect("compiled execute");
        assert!(session.stats().plan_bytes > 0, "frozen plans report a resident footprint");
        for table in [MapSearchStrategy::Hashmap, MapSearchStrategy::Grid, MapSearchStrategy::Auto]
        {
            let mut cfg = EnginePreset::TorchSparse.config();
            cfg.map_search = table;
            let expected =
                Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).run(&m, x).expect("run");
            assert_eq!(expected.coords(), y.coords(), "{case} vs dynamic {table:?}");
            assert_eq!(
                expected.feats().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.feats().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{case}: compiled session must match dynamic {table:?} bits"
            );
        }
    }
}
