//! The untraced pass: end-to-end metrics of one workload.
//!
//! A run is `SEGMENTS` segments. Each generates its own scene (untimed),
//! sets the engine up from nothing (timed as one `setup_s` sample), then
//! measures its share of the window. Output checks that need a second
//! engine run after the last window, once peak memory has been read.

use crate::host;
use crate::spec::{
    Kind, END_TO_END, SEGMENTS, SERVE_QUEUE_CAPACITY, SERVE_RATE_HZ, SERVE_SCHEDULE_SEED,
    WARMUP_FRAMES,
};
use crate::stats;
use crate::workloads::{
    self, bitwise_equal, build_model, engine, expected_rows, output_ok, poisson_schedule, Arrival,
    Horizon, OutputFnv, RunOptions,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchsparse::core::{CompiledModel, CompiledSession, CoreError, Engine, Module, SparseTensor};
use torchsparse::gpusim::Timeline;
use torchsparse::serve::{serve, HealthReport, ServiceConfig};

/// Stops a timed loop after a wall-clock budget or a frame count.
#[derive(Debug)]
pub struct Window {
    deadline: Option<Instant>,
    frames_left: Option<usize>,
}

impl Window {
    /// One segment's share of the run: `seconds / parts`, or
    /// `frames / parts` (rounded up) when a frame count is given.
    pub fn share(opts: &RunOptions, parts: usize) -> Window {
        match opts.frames {
            Some(n) => Window { deadline: None, frames_left: Some(n.div_ceil(parts).max(1)) },
            None => Window {
                deadline: Some(
                    Instant::now() + Duration::from_secs_f64(opts.seconds / parts as f64),
                ),
                frames_left: None,
            },
        }
    }

    pub fn more(&mut self) -> bool {
        if let Some(left) = &mut self.frames_left {
            if *left == 0 {
                return false;
            }
            *left -= 1;
        }
        self.deadline.is_none_or(|d| Instant::now() < d)
    }
}

/// Either way a closed-loop workload turns a frame into an output.
pub enum Runner<'m> {
    Compiled(Box<CompiledSession<'m>>),
    Dynamic(Box<Engine>),
}

impl<'m> Runner<'m> {
    /// Builds the engine the workload runs on; compiled kinds plan against
    /// `first`.
    pub fn set_up(
        opts: &RunOptions,
        model: &'m dyn Module,
        first: &SparseTensor,
    ) -> Result<Runner<'m>, CoreError> {
        let engine = engine(opts.workload.threads);
        Ok(match opts.workload.kind {
            Kind::DynamicFresh => Runner::Dynamic(Box::new(engine)),
            _ => Runner::Compiled(Box::new(engine.compile(model, first)?)),
        })
    }

    pub fn step(
        &mut self,
        model: &dyn Module,
        x: &SparseTensor,
    ) -> Result<SparseTensor, CoreError> {
        match self {
            Runner::Compiled(session) => session.execute(x),
            Runner::Dynamic(engine) => engine.run(model, x),
        }
    }
}

/// A timed frame kept for the reference comparison after the windows.
struct Sampled {
    input: SparseTensor,
    output: SparseTensor,
}

/// One segment's timed window.
#[derive(Debug, Default)]
pub struct Segment {
    /// Latency of every completed, correct frame (ms).
    pub frame_ms: Vec<f64>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Input voxels of completed frames.
    pub voxels: u64,
}

/// Everything the untraced pass measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub segments: Vec<Segment>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    pub gen_ms: f64,
    pub output_fnv: String,
}

impl Measured {
    pub fn frames(&self) -> usize {
        self.segments.iter().map(|s| s.frame_ms.len()).sum()
    }

    pub fn voxels(&self) -> u64 {
        self.segments.iter().map(|s| s.voxels).sum()
    }

    /// The end-to-end metrics in declaration order. `None` when no frame
    /// completed: there is nothing to report a latency of.
    pub fn end_to_end(&self) -> Option<Vec<f64>> {
        let frame_ms: Vec<f64> = self.segments.iter().flat_map(|s| &s.frame_ms).copied().collect();
        let wall_s: f64 = self.segments.iter().map(|s| s.wall_s).sum();
        let cpu_s: f64 = self.segments.iter().map(|s| s.cpu_s).sum();
        if frame_ms.is_empty() || wall_s <= 0.0 {
            return None;
        }
        let setup_s: Vec<f64> = self.segments.iter().map(|s| s.setup_s).collect();
        let value = |name: &str| match name {
            "frame_ms_p50" => stats::median(&frame_ms),
            "frame_ms_mean" => stats::mean(&frame_ms),
            "kpoints_per_s" => self.voxels() as f64 / wall_s / 1e3,
            "cpu_ms_per_frame" => cpu_s * 1e3 / frame_ms.len() as f64,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => stats::median(&setup_s),
            other => unreachable!("undeclared end-to-end metric {other}"),
        };
        Some(END_TO_END.iter().map(|m| value(m.name)).collect())
    }
}

pub fn run(opts: &RunOptions) -> Result<Measured, CoreError> {
    let mut m = Measured::default();
    let mut fnv = OutputFnv::new();
    let mut sampled: Vec<Sampled> = Vec::new();
    for segment in 0..SEGMENTS {
        match opts.workload.kind {
            Kind::Serve => serve_segment(opts, segment, &mut m, &mut fnv)?,
            _ => closed_segment(opts, segment, &mut m, &mut fnv, &mut sampled)?,
        }
    }
    m.peak_rss_mb = host::peak_rss_mb();
    m.output_fnv = fnv.hex();

    // Reference comparison: a fresh dynamic engine must reproduce the
    // sampled outputs bit for bit (compiled == dynamic; dynamic == dynamic).
    let model = build_model(opts.workload.model);
    for s in &sampled {
        let reference = engine(opts.workload.threads).run(model.as_ref(), &s.input)?;
        if !bitwise_equal(&reference, &s.output) {
            eprintln!("output check: sampled frame differs from a dynamic Engine::run");
            m.failed += 1;
        }
    }
    Ok(m)
}

fn closed_segment(
    opts: &RunOptions,
    segment: usize,
    m: &mut Measured,
    fnv: &mut OutputFnv,
    sampled: &mut Vec<Sampled>,
) -> Result<(), CoreError> {
    let w = opts.workload;
    let inputs = workloads::generate(opts, segment)?;
    m.gen_ms += inputs.gen_ms;
    let rows: Vec<usize> = inputs.pool.iter().map(|x| expected_rows(w.model, x)).collect();
    let mut order = inputs.order();

    let setup = Instant::now();
    let model = build_model(w.model);
    let mut runner = Runner::set_up(opts, model.as_ref(), &inputs.pool[0])?;
    for idx in order.by_ref().take(WARMUP_FRAMES) {
        let out = runner.step(model.as_ref(), &inputs.pool[idx])?;
        if !output_ok(&out, rows[idx]) {
            return Err(CoreError::InvalidConfig {
                reason: "warm-up output failed its check".into(),
            });
        }
        fnv.update(&out);
    }
    let mut seg = Segment { setup_s: setup.elapsed().as_secs_f64(), ..Segment::default() };

    // The first timed frame of the first segment and the last of the last
    // are kept for the reference comparison.
    let mut first: Option<(usize, SparseTensor)> = None;
    let mut last: Option<(usize, SparseTensor)> = None;
    let mut window = Window::share(opts, SEGMENTS);
    let cpu = host::process_cpu_seconds();
    let wall = Instant::now();
    while window.more() {
        let Some(idx) = order.next() else { break };
        let input = &inputs.pool[idx];
        let start = Instant::now();
        let result = runner.step(model.as_ref(), input);
        let latency = start.elapsed();
        m.attempted += 1;
        match result {
            Ok(out) if output_ok(&out, rows[idx]) => {
                seg.frame_ms.push(latency.as_secs_f64() * 1e3);
                seg.voxels += input.len() as u64;
                if segment == 0 && first.is_none() {
                    first = Some((idx, out));
                } else if segment == SEGMENTS - 1 {
                    last = Some((idx, out));
                }
            }
            Ok(_) => m.failed += 1,
            Err(e) => {
                eprintln!("frame failed: {e}");
                m.failed += 1;
            }
        }
    }
    seg.wall_s = wall.elapsed().as_secs_f64();
    seg.cpu_s = host::process_cpu_seconds() - cpu;
    m.segments.push(seg);
    sampled.extend(
        first
            .into_iter()
            .chain(last)
            .map(|(idx, output)| Sampled { input: inputs.pool[idx].clone(), output }),
    );
    Ok(())
}

/// One request of an open-loop window, as observed from outside.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub stream: usize,
    pub due: Instant,
    pub submitted: Instant,
    /// Submit-to-completion latency the service reported; `None` when the
    /// frame was refused, failed, or its output was wrong.
    pub done_after: Option<Duration>,
}

impl Served {
    /// Due-to-completion latency: generator lateness counts against the
    /// request, as it would for a caller.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_after.map(|d| (self.submitted - self.due + d).as_secs_f64() * 1e3)
    }

    pub fn late_ms(&self) -> f64 {
        (self.submitted - self.due).as_secs_f64() * 1e3
    }
}

/// What one open-loop window produced.
pub struct ServeWindow {
    pub requests: Vec<Served>,
    pub health: HealthReport,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Drives `schedule` against a fresh service over `model`: sleeps until
/// each arrival is due, submits, and after the drain matches every
/// completion to its request and its output to `reference`.
pub fn serve_window(
    model: &CompiledModel<'_>,
    streams: usize,
    pool: &[SparseTensor],
    reference: &[SparseTensor],
    schedule: &[Arrival],
) -> Result<ServeWindow, CoreError> {
    let frames: Vec<Arc<SparseTensor>> = pool.iter().cloned().map(Arc::new).collect();
    let config = ServiceConfig {
        queue_capacity: SERVE_QUEUE_CAPACITY,
        keep_outputs: true,
        ..ServiceConfig::default()
    };
    let cpu = host::process_cpu_seconds();
    let t0 = Instant::now();
    let (mut requests, outcome) = serve(model, streams, &config, |svc| {
        let mut requests = Vec::with_capacity(schedule.len());
        for a in schedule {
            let due = t0 + a.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let frame = Arc::clone(&frames[a.pool_idx]);
            let submitted = Instant::now();
            if let Err(e) = svc.submit(a.stream, a.frame, frame) {
                eprintln!("stream {} frame {} refused: {e}", a.stream, a.frame);
            }
            requests.push(Served { stream: a.stream, due, submitted, done_after: None });
        }
        requests
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_seconds() - cpu;

    for c in &outcome.completions {
        let Some(pos) = schedule.iter().position(|a| (a.stream, a.frame) == (c.stream, c.frame))
        else {
            continue;
        };
        let expected = &reference[schedule[pos].pool_idx];
        match &c.result {
            Ok(Some(out)) if output_ok(out, expected.len()) && bitwise_equal(out, expected) => {
                requests[pos].done_after = Some(c.latency);
            }
            Ok(_) => {
                eprintln!("stream {} frame {}: output differs from solo replay", c.stream, c.frame)
            }
            Err(e) => eprintln!("stream {} frame {} failed: {e}", c.stream, c.frame),
        }
    }
    Ok(ServeWindow { requests, health: outcome.health, wall_s, cpu_s })
}

/// Runs the warm-up frames solo on a freshly compiled session and splits
/// it for serving. The outputs are the reference for everything the
/// service later returns; the timeline is the first frame's simulated-GPU
/// cost.
pub fn serve_warm_up<'m>(
    mut session: CompiledSession<'m>,
    pool: &[SparseTensor],
) -> Result<(CompiledModel<'m>, Vec<SparseTensor>, Timeline), CoreError> {
    let mut reference = vec![session.execute(&pool[0])?];
    let timeline = session.last_timeline().clone();
    let (shared, mut solo) = session.into_parts();
    for frame in pool.iter().take(WARMUP_FRAMES).skip(1) {
        reference.push(shared.execute_on(&mut solo, frame)?);
    }
    Ok((shared, reference, timeline))
}

fn serve_segment(
    opts: &RunOptions,
    segment: usize,
    m: &mut Measured,
    fnv: &mut OutputFnv,
) -> Result<(), CoreError> {
    let w = opts.workload;
    let inputs = workloads::generate(opts, segment)?;
    m.gen_ms += inputs.gen_ms;

    let setup = Instant::now();
    let model = build_model(w.model);
    let session = engine(w.threads).compile(model.as_ref(), &inputs.pool[0])?;
    let (shared, reference, _) = serve_warm_up(session, &inputs.pool)?;
    let mut seg = Segment { setup_s: setup.elapsed().as_secs_f64(), ..Segment::default() };
    for (out, input) in reference.iter().zip(&inputs.pool) {
        if !output_ok(out, input.len()) {
            return Err(CoreError::InvalidConfig {
                reason: "warm-up output failed its check".into(),
            });
        }
        fnv.update(out);
    }

    let horizon = match opts.frames {
        Some(n) => Horizon::Frames(n.div_ceil(SEGMENTS * w.streams).max(1)),
        None => Horizon::Seconds(opts.seconds / SEGMENTS as f64),
    };
    let schedule = poisson_schedule(
        w.streams,
        SERVE_RATE_HZ,
        horizon,
        reference.len(),
        SERVE_SCHEDULE_SEED + segment as u64,
    );
    let window = serve_window(&shared, w.streams, &inputs.pool, &reference, &schedule)?;
    seg.wall_s = window.wall_s;
    seg.cpu_s = window.cpu_s;
    for (r, a) in window.requests.iter().zip(&schedule) {
        m.attempted += 1;
        match r.latency_ms() {
            Some(ms) => {
                seg.frame_ms.push(ms);
                seg.voxels += inputs.pool[a.pool_idx].len() as u64;
            }
            None => m.failed += 1,
        }
    }
    m.segments.push(seg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, SMOKE_FRAMES, SMOKE_SCALE_DIV, WORKLOADS};

    fn smoke(name: &str) -> RunOptions {
        let w = workload(name).unwrap();
        RunOptions {
            workload: w,
            seed: 42,
            seconds: 1.0,
            scale: w.scale / SMOKE_SCALE_DIV,
            frames: Some(SMOKE_FRAMES),
        }
    }

    #[test]
    fn window_counts_frames_or_time() {
        let opts = smoke("kitti_steady");
        let mut w = Window::share(&opts, 3);
        assert_eq!((0..10).filter(|_| w.more()).count(), 2);
        let timed = RunOptions { frames: None, seconds: 0.03, ..opts };
        let mut w = Window::share(&timed, 3);
        assert!(w.more());
        std::thread::sleep(Duration::from_millis(15));
        assert!(!w.more());
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for w in &WORKLOADS {
            let opts = smoke(w.name);
            let m = run(&opts).unwrap();
            assert_eq!(m.failed, 0, "{}", w.name);
            assert!(m.attempted as usize >= SMOKE_FRAMES, "{}: {}", w.name, m.attempted);
            assert_eq!(m.frames() as u64, m.attempted, "{}", w.name);
            assert_eq!(m.segments.len(), SEGMENTS);
            let metrics = m.end_to_end().unwrap();
            assert_eq!(metrics.len(), END_TO_END.len());
            for (m, value) in END_TO_END.iter().zip(&metrics) {
                assert!(value.is_finite() && *value > 0.0, "{} {} = {value}", w.name, m.name);
            }
            // Same seed, same inputs, same outputs.
            assert_eq!(m.output_fnv, run(&opts).unwrap().output_fnv, "{}", w.name);
        }
    }
}
