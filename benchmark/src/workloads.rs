//! Inputs, models and engines of the four workloads.
//!
//! Everything here is a pure function of the workload, the scale and the
//! seed: the engine only ever sees the generated tensors. All of it runs
//! outside timed windows.

use crate::spec::{Kind, Model, Workload, CHURN_PATTERN, JITTER};
use std::time::{Duration, Instant};
use torchsparse::coords::downsample::{fused_output_coords, Boundary};
use torchsparse::core::{CoreError, DeviceProfile, Engine, EnginePreset, Module, SparseTensor};
use torchsparse::data::{
    geometry_static_stream, poisson_arrivals, temporal_churn_stream, SyntheticDataset,
};
use torchsparse::models::{CenterPoint, MinkUNet};

/// Weights are part of the program, not of the input: one fixed seed.
const WEIGHT_SEED: u64 = 1;

/// Resolved settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window, all segments together.
    pub seconds: f64,
    /// Scene scale after `--scale` / `--smoke`.
    pub scale: f64,
    /// When set, timed loops run this many frames instead of for `seconds`.
    pub frames: Option<usize>,
}

pub fn build_model(model: Model) -> Box<dyn Module> {
    match model {
        Model::MinkUNetHalfKitti => Box::new(MinkUNet::with_width(0.5, 4, 19, WEIGHT_SEED)),
        Model::MinkUNetFullNuScenes => Box::new(MinkUNet::with_width(1.0, 4, 16, WEIGHT_SEED)),
        Model::CenterPointWaymo => Box::new(CenterPoint::new(5, WEIGHT_SEED)),
    }
}

fn dataset(model: Model, scale: f64) -> SyntheticDataset {
    match model {
        Model::MinkUNetHalfKitti => SyntheticDataset::semantic_kitti(scale, 4),
        Model::MinkUNetFullNuScenes => SyntheticDataset::nuscenes(scale, 4, 1),
        Model::CenterPointWaymo => SyntheticDataset::waymo(scale, 5, 1),
    }
}

/// The product's default engine with exactly one field set: `threads`.
pub fn engine(threads: usize) -> Engine {
    let mut config = EnginePreset::TorchSparse.config();
    config.threads = Some(threads);
    Engine::with_config(config, DeviceProfile::rtx_2080ti())
}

/// Distinct scans `waymo_fresh` cycles through per segment.
const FRESH_POOL: usize = 12;
/// Distinct feature sets the geometry-static workloads cycle through.
const STATIC_POOL: usize = 6;
/// `nus_serve` serves the warm-up frames again, so the warm-up's solo
/// outputs are the reference every completion is compared with.
const SERVE_POOL: usize = crate::spec::WARMUP_FRAMES;

/// One segment's frames and the order they are visited in.
#[derive(Debug)]
pub struct Inputs {
    pub pool: Vec<SparseTensor>,
    /// Walk the pool back and forth (a churn chain has no cheap way round).
    pub ping_pong: bool,
    /// Wall time input generation took; reported, never part of a window.
    pub gen_ms: f64,
}

impl Inputs {
    pub fn order(&self) -> Traversal {
        Traversal { len: self.pool.len(), next: 0, forward: true, ping_pong: self.ping_pong }
    }

    pub fn mean_voxels(&self) -> f64 {
        self.pool.iter().map(SparseTensor::len).sum::<usize>() as f64 / self.pool.len() as f64
    }
}

fn scene_seed(seed: u64, segment: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(segment as u64 * 100)
}

/// Scans generated beyond those kept, half dropped from either end of the
/// size order. The synthetic LiDAR now and then yields a scan with a third
/// of the usual voxels (an obstacle next to the sensor); a run that draws
/// one measures a different workload, not a different engine.
const SPARE_SCENES: usize = 4;

/// `keep` scenes of typical size from seeds `first ..`, in generation
/// order: `keep + SPARE_SCENES` are generated, the smallest and largest
/// spares are dropped.
fn typical_scenes(
    ds: &SyntheticDataset,
    first: u64,
    keep: usize,
) -> Result<Vec<SparseTensor>, CoreError> {
    let mut scenes = (0..(keep + SPARE_SCENES) as u64)
        .map(|i| ds.scene(first + i).map(Some))
        .collect::<Result<Vec<_>, _>>()?;
    let mut by_size: Vec<usize> = (0..scenes.len()).collect();
    by_size.sort_by_key(|&i| scenes[i].as_ref().map_or(0, SparseTensor::len));
    let ends = SPARE_SCENES / 2;
    for &i in by_size[..ends].iter().chain(&by_size[by_size.len() - ends..]) {
        scenes[i] = None;
    }
    Ok(scenes.into_iter().flatten().collect())
}

pub fn generate(opts: &RunOptions, segment: usize) -> Result<Inputs, CoreError> {
    let start = Instant::now();
    let w = opts.workload;
    let ds = dataset(w.model, opts.scale);
    let s = scene_seed(opts.seed, segment);
    let base = |ds: &SyntheticDataset| typical_scenes(ds, s, 1).map(|mut one| one.swap_remove(0));
    let (pool, ping_pong) = match w.kind {
        Kind::CompiledSteady => {
            (geometry_static_stream(&base(&ds)?, STATIC_POOL, JITTER, s)?, false)
        }
        Kind::Serve => (geometry_static_stream(&base(&ds)?, SERVE_POOL, JITTER, s)?, false),
        Kind::DynamicFresh => (typical_scenes(&ds, s, FRESH_POOL)?, false),
        Kind::CompiledChurn => {
            // Two rounds of the pattern, each frame churned from the last.
            let mut chain = vec![base(&ds)?];
            for (i, &churn) in
                CHURN_PATTERN.iter().cycle().take(2 * CHURN_PATTERN.len()).enumerate()
            {
                let last = &chain[chain.len() - 1];
                let mut step = temporal_churn_stream(last, 2, churn, s + 1 + i as u64)?;
                chain.push(step.swap_remove(1));
            }
            (chain, true)
        }
    };
    Ok(Inputs { pool, ping_pong, gen_ms: start.elapsed().as_secs_f64() * 1e3 })
}

/// Pool indices in visiting order, without end: `0 1 2 .. n-1 0 1 ..`, or
/// `0 1 .. n-1 n-2 .. 1 0 1 ..` for a ping-pong walk.
#[derive(Debug, Clone)]
pub struct Traversal {
    len: usize,
    next: usize,
    forward: bool,
    ping_pong: bool,
}

impl Iterator for Traversal {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let current = self.next;
        if self.len > 1 {
            if !self.ping_pong {
                self.next = (current + 1) % self.len;
            } else {
                if current == self.len - 1 {
                    self.forward = false;
                } else if current == 0 {
                    self.forward = true;
                }
                self.next = if self.forward { current + 1 } else { current - 1 };
            }
        }
        Some(current)
    }
}

/// Rows the model's output must have for `input`.
pub fn expected_rows(model: Model, input: &SparseTensor) -> usize {
    match model {
        Model::MinkUNetHalfKitti | Model::MinkUNetFullNuScenes => input.len(),
        // The CenterPoint encoder ends three kernel-3 stride-2 levels down.
        Model::CenterPointWaymo => {
            let mut coords = input.coords().to_vec();
            for _ in 0..3 {
                match fused_output_coords(&coords, 3, 2, Boundary::unbounded()) {
                    Ok(down) => coords = down.coords,
                    Err(_) => return usize::MAX,
                }
            }
            coords.len()
        }
    }
}

/// Row count as expected and every feature finite.
pub fn output_ok(out: &SparseTensor, rows: usize) -> bool {
    out.len() == rows && out.feats().as_slice().iter().all(|v| v.is_finite())
}

pub fn bitwise_equal(a: &SparseTensor, b: &SparseTensor) -> bool {
    a.coords() == b.coords()
        && a.feats().shape() == b.feats().shape()
        && a.feats()
            .as_slice()
            .iter()
            .zip(b.feats().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a (64-bit) over output coordinates and feature bits: a fingerprint
/// to diff across commits. Informational — a change that legitimately
/// alters rounding alters it.
#[derive(Debug, Clone, Copy)]
pub struct OutputFnv(u64);

impl OutputFnv {
    pub fn new() -> OutputFnv {
        OutputFnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn update(&mut self, out: &SparseTensor) {
        for c in out.coords() {
            for v in [c.batch, c.x, c.y, c.z] {
                self.bytes(&v.to_le_bytes());
            }
        }
        for v in out.feats().as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One scheduled submission of the open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub stream: usize,
    /// Frame id, unique per stream.
    pub frame: u64,
    pub pool_idx: usize,
}

/// How long a Poisson schedule runs.
#[derive(Debug, Clone, Copy)]
pub enum Horizon {
    /// A Poisson process observed for this many seconds, conditioned on its
    /// expected count: `round(rate x seconds)` arrivals per stream, placed
    /// as the process would place that many. The offered load is then the
    /// same in every run, and only its timing is random.
    Seconds(f64),
    /// This many arrivals per stream, however long they take.
    Frames(usize),
}

/// Seeded Poisson arrivals of every stream merged into one timeline.
pub fn poisson_schedule(
    streams: usize,
    rate_hz: f64,
    horizon: Horizon,
    pool_len: usize,
    seed: u64,
) -> Vec<Arrival> {
    let mut schedule = Vec::new();
    for stream in 0..streams {
        let stream_seed = seed.wrapping_mul(31).wrapping_add(stream as u64);
        let times: Vec<f64> = match horizon {
            Horizon::Frames(n) => {
                poisson_arrivals(n, rate_hz, stream_seed).into_iter().map(|us| us as f64).collect()
            }
            Horizon::Seconds(window) => {
                // Given its count, a Poisson process's arrivals are uniform
                // order statistics: n + 1 exponential gaps scaled so the
                // last one ends the window.
                let n = ((rate_hz * window).round() as usize).max(1);
                let t = poisson_arrivals(n + 1, rate_hz, stream_seed);
                let end = t[n].max(1) as f64;
                t[..n].iter().map(|&us| us as f64 / end * window * 1e6).collect()
            }
        };
        schedule.extend(times.into_iter().enumerate().map(|(i, us)| Arrival {
            due: Duration::from_secs_f64(us / 1e6),
            stream,
            frame: i as u64,
            pool_idx: i % pool_len.max(1),
        }));
    }
    schedule.sort_by_key(|a| (a.due, a.stream));
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn traversal_orders() {
        let t = |len, ping_pong| Traversal { len, next: 0, forward: true, ping_pong };
        assert_eq!(t(3, false).take(7).collect::<Vec<_>>(), [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(t(4, true).take(10).collect::<Vec<_>>(), [0, 1, 2, 3, 2, 1, 0, 1, 2, 3]);
        assert_eq!(t(2, true).take(5).collect::<Vec<_>>(), [0, 1, 0, 1, 0]);
        assert_eq!(t(1, true).take(3).collect::<Vec<_>>(), [0, 0, 0]);
    }

    #[test]
    fn poisson_schedule_is_deterministic_in_its_seed() {
        let a = poisson_schedule(2, 1.6, Horizon::Seconds(20.0), 3, 42);
        assert_eq!(a, poisson_schedule(2, 1.6, Horizon::Seconds(20.0), 3, 42));
        assert_ne!(a, poisson_schedule(2, 1.6, Horizon::Seconds(20.0), 3, 43));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due), "merged timeline is sorted");
        assert!(a.iter().all(|x| x.due < Duration::from_secs(20) && x.pool_idx < 3));
        // Exactly round(rate x window) arrivals per stream.
        assert_eq!(a.len(), 2 * 32);
        for stream in 0..2 {
            let ids: Vec<u64> = a.iter().filter(|x| x.stream == stream).map(|x| x.frame).collect();
            assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>(), "ids count up per stream");
        }
        let fixed = poisson_schedule(2, 1.6, Horizon::Frames(5), 3, 42);
        assert_eq!(fixed.len(), 10);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in &WORKLOADS {
            let opts = RunOptions {
                workload: w,
                seed: 7,
                seconds: 1.0,
                scale: w.scale / 4.0,
                frames: None,
            };
            let a = generate(&opts, 0).unwrap();
            let b = generate(&opts, 0).unwrap();
            assert_eq!(a.pool, b.pool, "{}", w.name);
            let other = generate(&RunOptions { seed: 8, ..opts }, 0).unwrap();
            assert_ne!(a.pool[0].coords(), other.pool[0].coords(), "{}", w.name);
            assert_ne!(a.pool[0].coords(), generate(&opts, 1).unwrap().pool[0].coords());
            assert!(a.pool.len() >= crate::spec::WARMUP_FRAMES && a.mean_voxels() > 10.0);
        }
    }

    #[test]
    fn typical_scenes_drop_the_size_outliers_and_keep_order() {
        let ds = dataset(crate::spec::Model::MinkUNetHalfKitti, 0.005);
        let all: Vec<SparseTensor> = (0..7).map(|i| ds.scene(100 + i).unwrap()).collect();
        let kept = typical_scenes(&ds, 100, 3).unwrap();
        assert_eq!(kept.len(), 3);
        let mut sizes: Vec<usize> = all.iter().map(SparseTensor::len).collect();
        sizes.sort_unstable();
        assert!(kept.iter().all(|k| (sizes[2]..=sizes[4]).contains(&k.len())));
        let positions: Vec<usize> =
            kept.iter().map(|k| all.iter().position(|a| a == k).unwrap()).collect();
        assert!(positions.windows(2).all(|p| p[0] < p[1]), "generation order kept");
    }

    #[test]
    fn churn_chain_changes_geometry_every_frame() {
        let w = crate::spec::workload("kitti_churn").unwrap();
        let opts =
            RunOptions { workload: w, seed: 3, seconds: 1.0, scale: w.scale / 4.0, frames: None };
        let inputs = generate(&opts, 0).unwrap();
        assert!(inputs.ping_pong);
        assert_eq!(inputs.pool.len(), 1 + 2 * CHURN_PATTERN.len());
        assert!(inputs.pool.windows(2).all(|p| p[0].coords() != p[1].coords()));
    }

    #[test]
    fn output_fingerprint_and_equality_see_single_bits() {
        let w = crate::spec::workload("kitti_steady").unwrap();
        let opts =
            RunOptions { workload: w, seed: 1, seconds: 1.0, scale: w.scale / 4.0, frames: None };
        let pool = generate(&opts, 0).unwrap().pool;
        let (a, b) = (&pool[0], &pool[1]);
        assert!(bitwise_equal(a, a) && !bitwise_equal(a, b));
        let hash = |t: &SparseTensor| {
            let mut h = OutputFnv::new();
            h.update(t);
            h.hex()
        };
        assert_eq!(hash(a), hash(a));
        assert_ne!(hash(a), hash(b));
        assert!(output_ok(a, a.len()) && !output_ok(a, a.len() + 1));
    }
}
