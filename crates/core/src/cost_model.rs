//! The simulated-GPU cost model: pure `geometry -> Timeline` functions,
//! and the ledger that decides *when* they run.
//!
//! Simulated latency is a function of coordinates, kernel maps, grouping
//! and channel widths alone — never of feature values — so it lives apart
//! from the numerics in [`crate::dataflow`]. Each function replays the
//! memory access trace of the corresponding CUDA kernel through the L2
//! simulator in exactly the order that kernel would issue it (so cache
//! behaviour, and therefore latency, differs between configurations the way
//! the paper measures) and charges the result to a [`Timeline`] stage.
//!
//! Nothing calls them while a frame executes. A frame only *logs* what to
//! charge — one [`Charge`] per executed plan, through
//! [`Context::defer`](crate::Context::defer) — and the first read of the
//! frame's timeline or layer profiles
//! ([`Context::timeline`](crate::Context::timeline),
//! [`Engine::last_timeline`](crate::Engine::last_timeline), ...) replays the
//! log once, in recording order. Every plan is walked by one function
//! (`plan_cost`), in step order, and is charged the sequence of
//! `Timeline::add`s in-line simulation would have issued, so every
//! simulated value is bit-identical to it; a frame nobody reads runs no
//! code from this module. A dynamic run's ephemeral plans are walked inside
//! the replay, each step's map search included, on the run's one L2
//! simulator. A compiled session logs its `Mapping` when it builds a plan
//! and then the [`ExecutionPlan`] as one charge whose execute-path value is
//! walked on a fresh simulator and cached on the shared plan (at most one
//! walk per plan, by whichever stream first asks), so a hit frame's ledger
//! is that cell alone; it picks each convolution's grouping too
//! ([`crate::tuning`]), and prices a layer under `fetch_on_demand_below`
//! as fetch-on-demand, a dataflow the host never runs. [`evaluations`]
//! counts the fresh simulators.

use crate::config::{GroupingStrategy, OptimizationConfig, Precision};
use crate::context::{LayerProfile, HOST_OP_OVERHEAD_US};
use crate::dataflow::{is_center_shortcut, MapView};
use crate::grouping::{plan_groups, ExecGroup};
use crate::plan::{ConvPlan, ExecutionPlan, StepPlan};
use crate::tuning::priced_grouping;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use torchsparse_coords::kernel_map::MapEntry;
use torchsparse_coords::KernelMap;
use torchsparse_gpusim::Precision as GemmPrecision;
use torchsparse_gpusim::{
    AccessMode, DeviceProfile, ElemWidth, GemmModel, GemmShape, MemorySim, Micros, Stage, Timeline,
};

/// The simulator state a charge runs against: the device models (read-only)
/// plus the L2 trace simulator and the timeline the latencies land in. Only
/// a ledger replay assembles one, so holding a `Sim` *is* being inside the
/// resolver.
struct Sim<'a> {
    /// The configuration the frame ran under.
    config: &'a OptimizationConfig,
    /// The simulated device.
    device: &'a DeviceProfile,
    /// GEMM latency model.
    gemm: &'a GemmModel,
    /// L2 transaction/cache simulator, fresh per replay and shared by every
    /// charge of the frame (cache state carries from layer to layer).
    mem: &'a mut MemorySim,
    /// The timeline being resolved.
    timeline: &'a mut Timeline,
}

/// Charges the fixed host-side framework overhead of one layer op
/// ([`HOST_OP_OVERHEAD_US`]) to the `Other` stage.
fn host_op(timeline: &mut Timeline) {
    timeline.add(Stage::Other, Micros(HOST_OP_OVERHEAD_US));
}

/// The geometry of one convolution — everything its simulated cost depends
/// on besides the configuration and the grouping.
struct ConvGeometry<'a> {
    /// The kernel map as the layer executes it.
    map: MapView<'a>,
    /// Input / output point counts.
    n_in: usize,
    n_out: usize,
    /// Input / output channels.
    c_in: usize,
    c_out: usize,
    /// The center offset of a submanifold layer (§4.2.1 shortcut), `None`
    /// for any other layer.
    center_identity: Option<usize>,
}

impl<'a> ConvGeometry<'a> {
    /// The geometry of the layer that froze `plan`, on `n_in` input points.
    fn of(plan: &'a ConvPlan, n_in: usize) -> ConvGeometry<'a> {
        ConvGeometry {
            map: plan.map(),
            n_in,
            n_out: plan.out_coords.len(),
            c_in: plan.c_in,
            c_out: plan.c_out,
            center_identity: plan.center,
        }
    }
}

/// Process-wide count of trace replays.
static EVALUATIONS: AtomicUsize = AtomicUsize::new(0);

/// Starts a trace replay — the one thing [`evaluations`] counts — and hands
/// out the fresh L2 simulator it runs on.
fn begin_evaluation(device: &DeviceProfile) -> MemorySim {
    EVALUATIONS.fetch_add(1, Ordering::Relaxed);
    MemorySim::new(device)
}

/// Trace replays since process start: fresh L2 simulators handed to a
/// ledger replay or a plan walk. Executing frames adds none — not plan hits,
/// not re-plans, not dynamic runs, not compiles. The first read of a dynamic
/// frame's timeline adds one; the first read on *any* stream of a compiled
/// plan adds one for that plan; a frame that took the FP16 -> FP32 overflow
/// re-run adds one when it is read; repeated reads add none.
pub fn evaluations() -> usize {
    EVALUATIONS.load(Ordering::Relaxed)
}

/// One deferred entry of a frame's cost ledger: *what to charge*, holding
/// only what the charge reads. Built by the constructors below and logged
/// with [`Context::defer`](crate::Context::defer); nothing is simulated
/// until the frame's timeline is read.
pub struct Charge(Kind);

/// What a [`Charge`] constructor recorded; see the constructors.
enum Kind {
    Latency(Stage, Micros),
    /// A compiled plan: its execute path, cached on the shared plan.
    Plan {
        plan: Arc<ExecutionPlan>,
        reruns: Vec<usize>,
        profile: bool,
    },
    /// A dynamic run's plan: walked in line, map searches included.
    Ephemeral {
        plan: Box<ExecutionPlan>,
        mapping: Vec<Option<Micros>>,
        reruns: Vec<usize>,
        profile: bool,
    },
    /// `(reads, writes, channels)` of a point<->voxel transfer.
    PointTransfer(usize, usize, usize),
    PointLinear(GemmShape),
}

impl Charge {
    /// A latency that is already known (e.g. the map-search cost a mapping
    /// kernel reported), added to `stage` when the ledger resolves.
    pub(crate) fn latency(stage: Stage, latency: Micros) -> Charge {
        Charge(Kind::Latency(stage, latency))
    }

    /// A point<->voxel transfer: a host op, then `reads` random row reads
    /// and `writes` row writes of `channels` FP32 features, traced on the
    /// run's L2 simulator, plus one launch, on `Other`.
    pub fn point_transfer(reads: usize, writes: usize, channels: usize) -> Charge {
        Charge(Kind::PointTransfer(reads, writes, channels))
    }

    /// A per-point linear layer, `rows x c_in` by `c_in x c_out`: a host
    /// op, then the GEMM's FP16 latency (point MLPs always run it) on
    /// `MatMul`.
    pub fn point_linear(rows: usize, c_in: usize, c_out: usize) -> Charge {
        Charge(Kind::PointLinear(GemmShape::mm(rows, c_in, c_out)))
    }

    /// A compiled frame's execute path. `reruns` lists the steps whose
    /// convolution overflowed and ran a second time in FP32; `profile`
    /// asks for the plan's layer profiles too.
    pub(crate) fn plan(plan: Arc<ExecutionPlan>, reruns: Vec<usize>, profile: bool) -> Charge {
        Charge(Kind::Plan { plan, reruns, profile })
    }

    /// A dynamic run's ephemeral plan, executed once: its map searches (as
    /// its build returned them) and execute path, charged at this point of
    /// the log (`reruns` and `profile` as in [`Charge::plan`]).
    pub(crate) fn ephemeral_plan(
        plan: ExecutionPlan,
        mapping: Vec<Option<Micros>>,
        reruns: Vec<usize>,
        profile: bool,
    ) -> Charge {
        Charge(Kind::Ephemeral { plan: Box::new(plan), mapping, reruns, profile })
    }
}

/// The simulated cost of one frame: per-stage timeline plus layer profiles.
#[derive(Debug, Default)]
pub(crate) struct Cost {
    pub(crate) timeline: Timeline,
    pub(crate) profiles: Vec<LayerProfile>,
}

/// A frame's cost ledger: the ordered log of deferred charges and, once
/// somebody reads it, their resolved cost.
#[derive(Default)]
pub(crate) struct Ledger {
    log: Vec<Charge>,
    /// The configuration in force when the first charge was logged: what
    /// the frame ran under, whatever the caller sets before reading.
    config: Option<OptimizationConfig>,
    resolved: OnceLock<Cost>,
}

impl Ledger {
    /// Appends a charge (and forgets any cost resolved before it).
    pub(crate) fn defer(&mut self, charge: Charge, config: &OptimizationConfig) {
        if self.log.is_empty() {
            self.config = Some(config.clone());
        }
        self.resolved = OnceLock::new();
        self.log.push(charge);
    }

    /// Drops the log — and with it every map the charges kept alive.
    pub(crate) fn clear(&mut self) {
        *self = Ledger::default();
    }

    /// The frame's cost: replayed on first call, cached until the next
    /// [`Ledger::defer`] or [`Ledger::clear`].
    pub(crate) fn cost(&self, device: &DeviceProfile, gemm: &GemmModel) -> &Cost {
        self.resolved.get_or_init(|| match &self.config {
            Some(config) => replay(&self.log, config, device, gemm),
            None => Cost::default(),
        })
    }
}

/// Replays a frame's log in recording order: the exact sequence of
/// `Timeline::add`s in-line simulation issues, against one L2 simulator
/// that is created on the first charge that traces memory.
fn replay(
    log: &[Charge],
    config: &OptimizationConfig,
    device: &DeviceProfile,
    gemm: &GemmModel,
) -> Cost {
    let mut cost = Cost::default();
    let mut mem: Option<MemorySim> = None;
    for charge in log {
        let Cost { timeline, profiles } = &mut cost;
        match &charge.0 {
            Kind::Latency(stage, latency) => timeline.add(*stage, *latency),
            Kind::Plan { plan, reruns, profile } => {
                // The plan's cost touches every stage but `Mapping`, the log
                // before it only `Mapping`: the merge adds zeros and is
                // exact. Only a frame whose layers ran twice walks the plan
                // itself.
                let walk = |reruns: &[usize]| {
                    let mut mem = begin_evaluation(device);
                    let mut cost = Cost::default();
                    let Cost { timeline, profiles } = &mut cost;
                    let mut sim = Sim { config, device, gemm, mem: &mut mem, timeline };
                    plan_cost(plan, reruns, None, &mut sim, Some(profiles));
                    cost
                };
                let walked;
                let planned = if reruns.is_empty() {
                    plan.cost.get_or_init(|| walk(&[]))
                } else {
                    walked = walk(reruns);
                    &walked
                };
                timeline.merge(&planned.timeline);
                if *profile {
                    profiles.extend_from_slice(&planned.profiles);
                }
            }
            Kind::Ephemeral { plan, mapping, reruns, profile } => {
                let mem = mem.get_or_insert_with(|| begin_evaluation(device));
                let mut sim = Sim { config, device, gemm, mem, timeline };
                plan_cost(plan, reruns, Some(mapping), &mut sim, profile.then_some(profiles));
            }
            &Kind::PointTransfer(reads, writes, channels) => {
                let mem = mem.get_or_insert_with(|| begin_evaluation(device));
                let mut sim = Sim { config, device, gemm, mem, timeline };
                charge_point_transfer(reads, writes, channels, &mut sim);
            }
            &Kind::PointLinear(shape) => {
                host_op(timeline);
                timeline.add(Stage::MatMul, gemm.latency(shape, GemmPrecision::Fp16));
            }
        }
    }
    cost
}

/// The one plan walk: charges a plan's steps to `sim` in step order — for
/// each step the same kernels, in the same order, that its layer's
/// in-line simulation issued — and appends a profile per named step
/// (convolution, projection, batch norm, ReLU; pooling and global pooling
/// record none) to `profiles` when given.
///
/// Two callers. A compiled plan is walked without `mapping` on a fresh
/// simulator, and the result is cached on the plan: its map searches were
/// logged by the frame that built it, and a hit pays none. An ephemeral
/// plan is walked with its `mapping` on the run's shared simulator,
/// straight into the run's timeline: each step's map search lands at that
/// step, inside its layer's profile. Groupings are [`priced_grouping`]'s.
///
/// `reruns` lists the step indices whose convolution overflowed its
/// quantized storage and ran a second time in FP32 — empty for the value
/// cached on the plan.
///
/// A [`StepPlan::CostSurcharge`] charges its fraction of everything this
/// walk has accrued before it: for an ephemeral plan that includes the map
/// searches, for a compiled plan only the execute path (a re-plan's
/// `Mapping`, logged on its own, is not surcharged).
fn plan_cost(
    plan: &ExecutionPlan,
    reruns: &[usize],
    mapping: Option<&[Option<Micros>]>,
    sim: &mut Sim<'_>,
    mut profiles: Option<&mut Vec<LayerProfile>>,
) {
    let search = mapping.is_none() && sim.config.autotune_policies;
    let (gemm, config) = (sim.gemm, sim.config);
    let grouping = |p: &ConvPlan| priced_grouping(p, search, gemm, config);
    let walk_start = sim.timeline.total();
    // The (points, channels) of the tensor flowing through the network.
    let mut cur = (plan.input.len(), plan.channels);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (i, (step, name)) in plan.steps.iter().zip(&plan.names).enumerate() {
        let start = (profiles.is_some() && name.is_some()).then(|| sim.timeline.clone());
        if let Some(latency) = mapping.and_then(|prices| prices[i]) {
            sim.timeline.add(Stage::Mapping, latency);
        }
        let reran = reruns.contains(&i);
        let mut points = cur.0;
        match step {
            StepPlan::Conv(p) => {
                charge_conv(&ConvGeometry::of(p, cur.0), grouping(p), reran, sim);
                cur = (p.out_coords.len(), p.c_out);
            }
            StepPlan::Pool(p) => {
                let n_out = p.out_coords.len();
                charge_pool(&p.cached.map, cur.0, n_out, cur.1, sim);
                cur.0 = n_out;
            }
            StepPlan::Pointwise => charge_pointwise(cur.0, cur.1, sim),
            StepPlan::GlobalPool { origins } => {
                charge_pointwise(cur.0, cur.1, sim);
                cur.0 = origins.len();
            }
            StepPlan::Push => stack.push(cur),
            StepPlan::PopConcat => cur.1 += stack.pop().map_or(0, |saved| saved.1),
            StepPlan::Residual { projection } => {
                points = stack.pop().unwrap_or(cur).0;
                if let Some(p) = projection {
                    charge_conv(&ConvGeometry::of(p, points), grouping(p), reran, sim);
                }
            }
            StepPlan::CostSurcharge { stage, fraction } => {
                let accrued = sim.timeline.total() - walk_start;
                sim.timeline.add(*stage, Micros(accrued.as_f64() * fraction));
            }
        }
        if let (Some(profiles), Some(name), Some(start)) = (&mut profiles, name, start) {
            profiles.push(LayerProfile::between(name, points, &start, sim.timeline));
        }
    }
}

/// The access mode of `elem`-wide features: vectorized access moves 4 bytes
/// per thread (e.g. `half2`).
fn access_mode(elem: ElemWidth, vectorized: bool) -> AccessMode {
    let vector_width = if vectorized { (4 / elem.bytes()).max(1) } else { 1 };
    AccessMode { elem, vector_width }
}

/// Memory access modes implied by a precision/vectorization choice.
struct Modes {
    /// Mode for reading/writing feature and gather-buffer elements.
    feat: AccessMode,
    /// Mode for partial sums and outputs (INT8 falls back to 16-bit here —
    /// the paper's reason INT8 yields diminishing returns, §4.3.1).
    psum: AccessMode,
    /// GEMM throughput class (INT8 runs its GEMMs at FP16-class
    /// throughput in this model).
    gemm: GemmPrecision,
}

fn modes(precision: Precision, vectorized: bool) -> Modes {
    let (feat, psum) = match precision {
        Precision::Fp32 => (ElemWidth::F32, ElemWidth::F32),
        Precision::Fp16 => (ElemWidth::F16, ElemWidth::F16),
        Precision::Int8 => (ElemWidth::I8, ElemWidth::F16),
    };
    let gemm = match precision {
        Precision::Fp32 => GemmPrecision::Fp32,
        Precision::Fp16 | Precision::Int8 => GemmPrecision::Fp16,
    };
    Modes { feat: access_mode(feat, vectorized), psum: access_mode(psum, vectorized), gemm }
}

/// Charges one streaming read+write sweep over an `n x c` feature buffer
/// (batch norm, ReLU, global pooling), plus the host-side overhead of
/// dispatching the op.
fn charge_pointwise(n: usize, c: usize, sim: &mut Sim<'_>) {
    host_op(sim.timeline);
    let mode = modes(sim.config.precision, sim.config.vectorized).feat;
    let bytes = (n * c) as u64 * mode.elem.bytes();
    let base = sim.mem.alloc(bytes);
    sim.mem.read(base, 0, bytes, mode);
    sim.mem.write(base, 0, bytes, mode);
    let latency = sim.mem.take_report().latency(sim.device) + Micros(sim.device.launch_overhead_us);
    sim.timeline.add(Stage::Other, latency);
}

/// Charges a point<->voxel transfer ([`Charge::point_transfer`]).
fn charge_point_transfer(reads: usize, writes: usize, channels: usize, sim: &mut Sim<'_>) {
    host_op(sim.timeline);
    let mode = AccessMode::scalar_f32();
    let row = (channels * 4) as u64;
    let src = sim.mem.alloc(reads as u64 * row);
    let dst = sim.mem.alloc(writes as u64 * row);
    for i in 0..reads {
        sim.mem.read(src, i as u64 * row, row, mode);
    }
    for i in 0..writes {
        sim.mem.write(dst, i as u64 * row, row, mode);
    }
    let latency = sim.mem.take_report().latency(sim.device) + Micros(sim.device.launch_overhead_us);
    sim.timeline.add(Stage::Other, latency);
}

/// Charges a sparse pooling layer: one read per map entry, one write per
/// output row, plus the host-side dispatch overhead.
fn charge_pool(map: &KernelMap, n_in: usize, n_out: usize, c: usize, sim: &mut Sim<'_>) {
    host_op(sim.timeline);
    let elem = match sim.config.precision {
        Precision::Fp32 => ElemWidth::F32,
        _ => ElemWidth::F16,
    };
    let mode = access_mode(elem, sim.config.vectorized);
    let row_bytes = c as u64 * elem.bytes();
    let in_base = sim.mem.alloc(n_in as u64 * row_bytes);
    let out_base = sim.mem.alloc(n_out as u64 * row_bytes);
    for n in 0..map.num_offsets() {
        for e in map.entries(n) {
            sim.mem.read(in_base, e.input as u64 * row_bytes, row_bytes, mode);
        }
    }
    for k in 0..n_out {
        sim.mem.write(out_base, k as u64 * row_bytes, row_bytes, mode);
    }
    let latency = sim.mem.take_report().latency(sim.device);
    sim.timeline.add(Stage::Other, latency);
}

/// Charges one convolution: the host-side dispatch overhead plus, at the
/// configured storage precision, gather-matmul-scatter with its GEMMs
/// grouped by `g`, or fetch-on-demand without one ([`priced_grouping`]
/// applies `fetch_on_demand_below`). The host runs gather-matmul-scatter
/// numerics either way: this choice is a price, not a route. `reran`: the
/// layer's quantized output overflowed, so its kernels are charged again
/// in FP32.
fn charge_conv(
    geo: &ConvGeometry<'_>,
    g: Option<GroupingStrategy>,
    reran: bool,
    sim: &mut Sim<'_>,
) {
    host_op(sim.timeline);
    let configured = sim.config.precision;
    let submanifold = geo.center_identity.is_some();
    let groups = g.map(|g| plan_groups(&geo.map.sizes(), submanifold, g).groups);
    let mut charge = |precision| match &groups {
        None => fetch_on_demand(geo, precision, sim),
        Some(groups) => gather_matmul_scatter(geo, groups, precision, sim),
    };
    charge(configured);
    if reran {
        charge(Precision::Fp32);
    }
}

/// Layout of the simulated buffers of one convolution, with the access
/// modes they are read and written in.
struct Buffers {
    m: Modes,
    in_base: u64,
    gather_base: u64,
    psum_base: u64,
    out_base: u64,
    /// The map/neighbor-list metadata buffer: both gather and scatter
    /// kernels stream the (input, output) index pairs that drive them.
    map_base: u64,
    /// Per-offset starting row in the gather/psum buffers (padding included
    /// for bmm groups).
    seg_start: Vec<u64>,
    feat_row_bytes: u64,
    psum_row_bytes: u64,
}

/// Bytes of map metadata read per map entry by a movement kernel (one
/// 2x u32 index pair).
const MAP_ENTRY_BYTES: u64 = 8;

fn layout(geo: &ConvGeometry<'_>, groups: &[ExecGroup], m: Modes, mem: &mut MemorySim) -> Buffers {
    let mut seg_start = vec![0u64; geo.map.num_offsets()];
    let mut rows = 0u64;
    for g in groups {
        for &n in &g.offsets {
            seg_start[n] = rows;
            rows += if g.use_bmm { g.padded_rows } else { geo.map.entries(n, ..).len() } as u64;
        }
    }
    let feat_row_bytes = (geo.c_in as u64) * m.feat.elem.bytes();
    let psum_row_bytes = (geo.c_out as u64) * m.psum.elem.bytes();
    let map_bytes = geo.map.sizes().iter().sum::<usize>() as u64 * MAP_ENTRY_BYTES;
    Buffers {
        in_base: mem.alloc(geo.n_in as u64 * feat_row_bytes),
        gather_base: mem.alloc(rows * feat_row_bytes),
        psum_base: mem.alloc(rows * psum_row_bytes),
        out_base: mem.alloc(geo.n_out as u64 * psum_row_bytes),
        map_base: mem.alloc(map_bytes.max(1)),
        seg_start,
        feat_row_bytes,
        psum_row_bytes,
        m,
    }
}

/// Simulated cost of Algorithm 2 under the configured §4.3 optimizations —
/// FP16/INT8 storage, vectorized access, fused gather/scatter phases,
/// locality-aware ordering, matmul grouping and the §4.2.1 center shortcut
/// — charged to the `Gather`, `MatMul` and `Scatter` stages.
fn gather_matmul_scatter(
    geo: &ConvGeometry<'_>,
    groups: &[ExecGroup],
    precision: Precision,
    sim: &mut Sim<'_>,
) {
    let bufs = layout(geo, groups, modes(precision, sim.config.vectorized), sim.mem);
    if sim.config.fused_gather_scatter {
        gather(geo, groups, &bufs, sim);
        matmuls(geo, groups, &bufs, sim);
        scatter(geo, groups, &bufs, sim);
    } else {
        // Algorithm 2: per-group gather -> matmul -> scatter, with the GEMM
        // streaming through the L2 in between (the reuse-destroying pattern
        // of Figure 9a).
        for single in groups.chunks(1) {
            gather(geo, single, &bufs, sim);
            matmuls(geo, single, &bufs, sim);
            scatter(geo, single, &bufs, sim);
        }
    }
}

/// Whether a group is the bare center-identity offset that the §4.2.1
/// shortcut computes without data movement.
fn is_shortcut(geo: &ConvGeometry<'_>, g: &ExecGroup, sim: &Sim<'_>) -> bool {
    is_center_shortcut(sim.config, geo.center_identity, &g.offsets)
}

/// Offsets a movement kernel actually touches (the center shortcut skips
/// its own).
fn moved_offsets(geo: &ConvGeometry<'_>, groups: &[ExecGroup], sim: &Sim<'_>) -> Vec<usize> {
    groups
        .iter()
        .filter(|g| !is_shortcut(geo, g, sim))
        .flat_map(|g| g.offsets.iter().copied())
        .collect()
}

/// Charges the streaming read of the map metadata slices that drive a
/// movement kernel over the given offsets (identical for every ordering, so
/// it moderates relative speedups exactly as the real index traffic does).
fn charge_map_read(map: MapView<'_>, offsets: &[usize], bufs: &Buffers, mem: &mut MemorySim) {
    for &n in offsets {
        mem.read(
            bufs.map_base,
            bufs.seg_start[n] * MAP_ENTRY_BYTES,
            map.entries(n, ..).len() as u64 * MAP_ENTRY_BYTES,
            AccessMode::scalar_f32(),
        );
    }
}

/// Closes a movement phase: the traced memory latency plus half a launch
/// overhead per kernel (one kernel per group in the fused case, per offset
/// otherwise).
fn finish_movement(stage: Stage, groups: &[ExecGroup], sim: &mut Sim<'_>) {
    let launches: usize = groups.iter().map(ExecGroup::kernel_count).sum();
    let mut latency = sim.mem.take_report().latency(sim.device);
    latency += Micros(launches as f64 * sim.device.launch_overhead_us * 0.5);
    sim.timeline.add(stage, latency);
}

/// Counting-sorts the map entries of `offsets` into per-row buckets keyed
/// by `key(entry)`: returns `(starts, slots)` where row `r`'s producers are
/// `slots[starts[r]..starts[r + 1]]` as `(offset, entry_index)` pairs, in
/// (offset-ascending, entry-ascending) order.
fn bucket_by(
    rows: usize,
    offsets: &[usize],
    map: MapView<'_>,
    key: impl Fn(&MapEntry) -> u32,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut starts = vec![0u32; rows + 1];
    for &n in offsets {
        for e in map.entries(n, ..) {
            starts[key(&e) as usize + 1] += 1;
        }
    }
    for r in 0..rows {
        starts[r + 1] += starts[r];
    }
    let mut fill: Vec<u32> = starts[..rows].to_vec();
    let mut slots = vec![(0u32, 0u32); starts[rows] as usize];
    for &n in offsets {
        for (i, e) in map.entries(n, ..).enumerate() {
            let f = &mut fill[key(&e) as usize];
            slots[*f as usize] = (n as u32, i as u32);
            *f += 1;
        }
    }
    (starts, slots)
}

fn gather(geo: &ConvGeometry<'_>, groups: &[ExecGroup], bufs: &Buffers, sim: &mut Sim<'_>) {
    let m = &bufs.m;
    let offsets = moved_offsets(geo, groups, sim);
    charge_map_read(geo.map, &offsets, bufs, sim.mem);
    let row = bufs.feat_row_bytes;
    if sim.config.locality_aware {
        // Input-stationary order (Figure 9b): one pass over the inputs in
        // ascending index order, covering every offset at once; each feature
        // row is read from DRAM once, held in registers, and written to
        // every gather slot that needs it.
        let (starts, slots) = bucket_by(geo.n_in, &offsets, geo.map, |e| e.input);
        for j in 0..geo.n_in {
            let range = starts[j] as usize..starts[j + 1] as usize;
            if range.is_empty() {
                continue;
            }
            sim.mem.read(bufs.in_base, j as u64 * row, row, m.feat);
            for &(n, i) in &slots[range] {
                let slot = bufs.seg_start[n as usize] + u64::from(i);
                sim.mem.write(bufs.gather_base, slot * row, row, m.feat);
            }
        }
    } else {
        // Weight-stationary order (Figure 9a): per offset, every input
        // index is unique, so there is no within-offset reuse.
        for &n in &offsets {
            for (i, e) in geo.map.entries(n, ..).enumerate() {
                sim.mem.read(bufs.in_base, e.input as u64 * row, row, m.feat);
                sim.mem.write(bufs.gather_base, (bufs.seg_start[n] + i as u64) * row, row, m.feat);
            }
        }
    }
    finish_movement(Stage::Gather, groups, sim);
}

fn matmuls(geo: &ConvGeometry<'_>, groups: &[ExecGroup], bufs: &Buffers, sim: &mut Sim<'_>) {
    let precision = bufs.m.gemm;
    let (c_in, c_out) = (geo.c_in, geo.c_out);
    for g in groups {
        let (shape_rows, latency) = if is_shortcut(geo, g, sim) {
            let shape = GemmShape::mm(geo.n_in, c_in, c_out);
            (geo.n_in as u64, sim.gemm.latency(shape, precision))
        } else if g.use_bmm {
            let shape = GemmShape::bmm(g.offsets.len(), g.padded_rows, c_in, c_out);
            ((g.offsets.len() * g.padded_rows) as u64, sim.gemm.latency(shape, precision))
        } else {
            let mut total = Micros::ZERO;
            let mut rows = 0u64;
            for &n in &g.offsets {
                let size = geo.map.entries(n, ..).len();
                if size == 0 {
                    continue;
                }
                total += sim.gemm.latency(GemmShape::mm(size, c_in, c_out), precision);
                rows += size as u64;
            }
            (rows, total)
        };
        sim.timeline.add(Stage::MatMul, latency);
        // The GEMM streams its operands/results through the L2; this is not
        // charged to any movement phase but evicts resident gather data —
        // exactly the pollution that makes unfused scatter/gather slow
        // (§4.3.2). The center shortcut reads input features directly.
        sim.mem.pollute_cache(shape_rows * (bufs.feat_row_bytes + bufs.psum_row_bytes));
    }
}

fn scatter(geo: &ConvGeometry<'_>, groups: &[ExecGroup], bufs: &Buffers, sim: &mut Sim<'_>) {
    let m = &bufs.m;
    let offsets = moved_offsets(geo, groups, sim);
    charge_map_read(geo.map, &offsets, bufs, sim.mem);
    let row = bufs.psum_row_bytes;
    if sim.config.locality_aware {
        // Output-stationary order: one pass over the outputs, reading every
        // partial sum for a point, reducing in registers, and writing the
        // output row once.
        let (starts, slots) = bucket_by(geo.n_out, &offsets, geo.map, |e| e.output);
        for k in 0..geo.n_out {
            let range = starts[k] as usize..starts[k + 1] as usize;
            if range.is_empty() {
                continue;
            }
            for &(n, i) in &slots[range] {
                let slot = bufs.seg_start[n as usize] + u64::from(i);
                sim.mem.read(bufs.psum_base, slot * row, row, m.psum);
            }
            sim.mem.write(bufs.out_base, k as u64 * row, row, m.psum);
        }
    } else {
        // Weight-stationary scatter: sequential partial sums, random
        // read-modify-write of the output rows.
        for &n in &offsets {
            for (i, e) in geo.map.entries(n, ..).enumerate() {
                sim.mem.read(bufs.psum_base, (bufs.seg_start[n] + i as u64) * row, row, m.psum);
                sim.mem.read(bufs.out_base, e.output as u64 * row, row, m.psum);
                sim.mem.write(bufs.out_base, e.output as u64 * row, row, m.psum);
            }
        }
    }
    finish_movement(Stage::Scatter, groups, sim);
}

/// Utilization ceiling for fetch-on-demand's matrix-vector style compute:
/// each output row is produced by streaming the weight matrix with no
/// register-tile reuse, so throughput saturates early regardless of
/// workload size. This is why MinkowskiEngine only uses the dataflow for
/// small workloads (§5.2): below the ceiling it matches gather-matmul-
/// scatter while avoiding all buffer traffic; above it, GEMM pulls away.
const FETCH_ON_DEMAND_UTIL_CAP: f64 = 0.18;

/// Simulated cost of the fetch-on-demand dataflow: per offset, one kernel
/// that reads each input row and read-modify-writes its output row, with
/// compute capped at [`FETCH_ON_DEMAND_UTIL_CAP`].
fn fetch_on_demand(geo: &ConvGeometry<'_>, precision: Precision, sim: &mut Sim<'_>) {
    let m = modes(precision, sim.config.vectorized);
    let feat_row_bytes = (geo.c_in as u64) * m.feat.elem.bytes();
    let out_row_bytes = (geo.c_out as u64) * m.psum.elem.bytes();
    let in_base = sim.mem.alloc(geo.n_in as u64 * feat_row_bytes);
    let out_base = sim.mem.alloc(geo.n_out as u64 * out_row_bytes);
    let mut compute = Micros::ZERO;
    for n in 0..geo.map.num_offsets() {
        let entries = geo.map.entries(n, ..);
        if entries.len() == 0 {
            continue;
        }
        for e in entries.clone() {
            sim.mem.read(in_base, e.input as u64 * feat_row_bytes, feat_row_bytes, m.feat);
            sim.mem.read(out_base, e.output as u64 * out_row_bytes, out_row_bytes, m.psum);
            sim.mem.write(out_base, e.output as u64 * out_row_bytes, out_row_bytes, m.psum);
        }
        let shape = GemmShape::mm(entries.len(), geo.c_in, geo.c_out);
        let util = sim.gemm.utilization(shape).min(FETCH_ON_DEMAND_UTIL_CAP);
        let tflops = sim.gemm.peak_tflops(m.gemm) * util;
        let compute_us = if tflops > 0.0 { shape.flops() / (tflops * 1e6) } else { 0.0 };
        compute += Micros(compute_us + sim.device.launch_overhead_us);
    }
    let latency = sim.mem.take_report().latency(sim.device);
    sim.timeline.add(Stage::Gather, latency);
    sim.timeline.add(Stage::MatMul, compute);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupingStrategy;
    use crate::context::Context;
    use crate::dataflow::tests::workload_parts;
    use torchsparse_coords::Coord;

    /// Simulated timeline of one 8 -> 8 channel layer under `cfg`, through
    /// its configured grouping or through fetch-on-demand.
    fn simulate(cfg: OptimizationConfig, fetch_on_demand: bool) -> Timeline {
        let parts = workload_parts(8, 8);
        let n = parts.n_out;
        let geo = ConvGeometry {
            map: MapView::new(&parts.map, false),
            n_in: n,
            n_out: n,
            c_in: 8,
            c_out: 8,
            center_identity: Some(13),
        };
        let device = DeviceProfile::rtx_2080ti();
        let gemm = GemmModel::new(device.clone());
        let mut mem = MemorySim::new(&device);
        let mut timeline = Timeline::new();
        let mut sim = Sim {
            config: &cfg,
            device: &device,
            gemm: &gemm,
            mem: &mut mem,
            timeline: &mut timeline,
        };
        charge_conv(&geo, (!fetch_on_demand).then_some(cfg.grouping), false, &mut sim);
        timeline
    }

    fn ctx() -> Context {
        Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti())
    }

    /// A plan over `n` input points of `c` channels.
    fn plan(n: usize, c: usize, steps: Vec<StepPlan>) -> ExecutionPlan {
        ExecutionPlan {
            input: vec![Coord::new(0, 0, 0, 0); n].into(),
            rank: None,
            stride: 1,
            channels: c,
            names: vec![None; steps.len()],
            buffers: vec![Default::default(); steps.len()],
            steps,
            slot_lens: Vec::new(),
            cost: OnceLock::new(),
        }
    }

    /// One pointwise sweep over an `n x c` buffer, as a logged charge.
    fn sweep(n: usize, c: usize) -> Charge {
        Charge::ephemeral_plan(plan(n, c, vec![StepPlan::Pointwise]), vec![None], Vec::new(), false)
    }

    #[test]
    fn nothing_is_simulated_until_the_cost_is_read() {
        let cfg = OptimizationConfig::torchsparse();
        let device = DeviceProfile::rtx_2080ti();
        let gemm = GemmModel::new(device.clone());
        let mut ledger = Ledger::default();
        ledger.defer(Charge::latency(Stage::Mapping, Micros(3.0)), &cfg);
        ledger.defer(sweep(64, 8), &cfg);
        assert!(ledger.resolved.get().is_none(), "logging resolves nothing");
        let before = evaluations();
        let other = ledger.cost(&device, &gemm).timeline.stage(Stage::Other);
        assert!(other > Micros(HOST_OP_OVERHEAD_US), "host op + one sweep");
        assert_eq!(ledger.cost(&device, &gemm).timeline.stage(Stage::Mapping), Micros(3.0));
        assert!(evaluations() > before, "the read replayed the trace");
        // A later charge forgets the resolved cost; the next read replays
        // the whole log on a fresh simulator.
        ledger.defer(sweep(64, 8), &cfg);
        assert!(ledger.resolved.get().is_none());
        assert!(ledger.cost(&device, &gemm).timeline.stage(Stage::Other) > other);
        ledger.clear();
        assert_eq!(ledger.cost(&device, &gemm).timeline, Timeline::new());
    }

    #[test]
    fn a_surcharge_step_charges_its_share_of_the_walk() {
        // One pointwise sweep, then a surcharge of half of it: the latency
        // logged before the plan is not part of the walk.
        let walk = |steps: Vec<StepPlan>| {
            let mut c = ctx();
            c.defer(Charge::latency(Stage::Mapping, Micros(10.0)));
            let mapping = vec![None; steps.len()];
            c.defer(Charge::ephemeral_plan(plan(64, 8, steps), mapping, Vec::new(), true));
            assert!(c.layer_profiles().is_empty());
            c.timeline().clone()
        };
        let sweep = walk(vec![StepPlan::Pointwise]);
        let surcharged = walk(vec![
            StepPlan::Pointwise,
            StepPlan::CostSurcharge { stage: Stage::Other, fraction: 0.5 },
        ]);
        let other = sweep.stage(Stage::Other).as_f64();
        assert!((surcharged.stage(Stage::Other).as_f64() - other * 1.5).abs() < 1e-9 * other);
        assert_eq!(surcharged.stage(Stage::Mapping), Micros(10.0));
    }

    #[test]
    fn a_run_resolves_under_the_configuration_it_ran_with() {
        let resolve = |flip: bool| {
            let mut c = ctx();
            c.defer(sweep(512, 16));
            if flip {
                c.config.precision = Precision::Fp32;
            }
            c.timeline().clone()
        };
        assert_eq!(resolve(false), resolve(true), "config is captured when the run logs");
    }

    #[test]
    fn point_charges_dispatch_a_host_op_then_their_kernel() {
        let resolve = |charge: Charge| {
            let mut c = ctx();
            c.defer(charge);
            c.timeline().clone()
        };
        let device = DeviceProfile::rtx_2080ti();
        let host = Micros(HOST_OP_OVERHEAD_US);
        let linear = resolve(Charge::point_linear(64, 8, 16));
        let gemm =
            GemmModel::new(device.clone()).latency(GemmShape::mm(64, 8, 16), GemmPrecision::Fp16);
        assert_eq!(linear.stage(Stage::Other), host);
        assert_eq!(linear.stage(Stage::MatMul), gemm);
        assert_eq!(linear.total(), host + gemm);
        // A transfer's traced traffic and its launch land on `Other`.
        let transfer = resolve(Charge::point_transfer(8 * 64, 64, 16));
        let other = transfer.stage(Stage::Other);
        assert!(other > host + Micros(device.launch_overhead_us), "{other:?}");
        assert_eq!(transfer.total(), other);
        assert!(resolve(Charge::point_transfer(16 * 64, 64, 16)).stage(Stage::Other) > other);
    }

    #[test]
    fn movement_latency_recorded_under_every_ordering() {
        for fused in [false, true] {
            for locality in [false, true] {
                let mut cfg = OptimizationConfig::baseline_fp32();
                cfg.grouping = GroupingStrategy::Fixed;
                cfg.fused_gather_scatter = fused;
                cfg.locality_aware = locality;
                let t = simulate(cfg, false);
                for stage in [Stage::Gather, Stage::MatMul, Stage::Scatter] {
                    assert!(t.stage(stage).as_f64() > 0.0, "{stage} fused={fused} loc={locality}");
                }
                assert_eq!(t.stage(Stage::Mapping), Micros::ZERO);
            }
        }
    }

    #[test]
    fn center_shortcut_reduces_movement() {
        let run = |skip: bool| {
            let mut cfg = OptimizationConfig::baseline_fp32();
            cfg.skip_center_movement = skip;
            simulate(cfg, false).data_movement().as_f64()
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn fetch_on_demand_charges_gather_and_matmul_only() {
        let t = simulate(OptimizationConfig::minkowski_engine(), true);
        assert!(t.stage(Stage::Gather).as_f64() > 0.0);
        assert!(t.stage(Stage::MatMul).as_f64() > 0.0);
        assert_eq!(t.stage(Stage::Scatter), Micros::ZERO);
    }
}
