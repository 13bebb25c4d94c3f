//! The repository benchmark.
//!
//! ```text
//! benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--scale F] [--frames N]
//! benchmark run-all [--seed N] [--seconds S] [--smoke] [--scale F] [--frames N]
//! benchmark repeat --n N [--seed N] [--seconds S] [--smoke] ...
//! benchmark compare <old.json> <new.json>
//! ```
//!
//! `run` is the form the driver calls: one workload, measured for
//! `--seconds`, outputs checked, and as the last line of standard output
//! one JSON object `{correct, attempted, failed, metrics}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` in this directory for definitions.

mod host;
mod json;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Value;
use report::Passthrough;
use spec::{EndToEnd, Metric, END_TO_END, PER_LAYER, SMOKE_FRAMES, SMOKE_SCALE_DIV, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;
use workloads::RunOptions;

const USAGE: &str = "usage: benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--scale F] [--frames N]
       benchmark run-all [--seed N] [--seconds S] [--smoke] [--scale F] [--frames N]
       benchmark repeat --n N [--seed N] [--seconds S] [--smoke] [--scale F] [--frames N]
       benchmark compare <old.json> <new.json>";

/// Flags after the subcommand, checked where they enter.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    scale: Option<f64>,
    frames: Option<usize>,
    n: Option<usize>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                flags.seed =
                    Some(value("an integer")?.parse().map_err(|_| "--seed needs an integer")?);
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--smoke" => flags.smoke = true,
            "--scale" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--scale needs a number")?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
                flags.scale = Some(s);
            }
            "--frames" => {
                let n: usize =
                    value("an integer")?.parse().map_err(|_| "--frames needs an integer")?;
                if !(1..=100_000).contains(&n) {
                    return Err("--frames must be in 1..=100000".into());
                }
                flags.frames = Some(n);
            }
            "--n" => {
                let n: usize = value("an integer")?.parse().map_err(|_| "--n needs an integer")?;
                if !(1..=1000).contains(&n) {
                    return Err("--n must be in 1..=1000".into());
                }
                flags.n = Some(n);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

impl Flags {
    /// What `run-all` and `repeat` hand on to each child run.
    fn passthrough(&self) -> Passthrough {
        let mut args = Vec::new();
        if let Some(s) = self.seconds {
            args.extend(["--seconds".to_owned(), s.to_string()]);
        }
        if self.smoke {
            args.push("--smoke".to_owned());
        }
        if let Some(s) = self.scale {
            args.extend(["--scale".to_owned(), s.to_string()]);
        }
        if let Some(n) = self.frames {
            args.extend(["--frames".to_owned(), n.to_string()]);
        }
        Passthrough { seed: self.seed.unwrap_or(spec::DEFAULT_SEED), args }
    }

    fn run_options(&self) -> Result<RunOptions, String> {
        let name = self.workload.as_deref().ok_or("run needs --workload")?;
        let workload = spec::workload(name).ok_or_else(|| {
            format!("unknown workload {name:?}; known: {}", WORKLOADS.map(|w| w.name).join(", "))
        })?;
        let smoke_div = if self.smoke { SMOKE_SCALE_DIV } else { 1.0 };
        Ok(RunOptions {
            workload,
            seed: self.seed.unwrap_or(spec::DEFAULT_SEED),
            seconds: self.seconds.unwrap_or(spec::DEFAULT_SECONDS),
            scale: self.scale.unwrap_or(workload.scale) / smoke_div,
            frames: self.frames.or(self.smoke.then_some(SMOKE_FRAMES)),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "run-all" | "repeat" | "compare")) => (c, &args[1..]),
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command == "compare" {
        let [old, new] = flags.positional.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return report::compare(Path::new(old), Path::new(new));
    }

    let overrides = host::engine_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "refusing to measure under engine overrides ({}): the benchmark runs product defaults",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    match command {
        "run-all" => report::run_all(&flags.passthrough()),
        "repeat" => match flags.n {
            Some(n) => report::repeat(n, &flags.passthrough()),
            None => {
                eprintln!("repeat needs --n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => match flags.run_options() {
            Ok(opts) => run_one(&opts, flags.trace.unwrap_or(false)),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

/// The header of a single run's record.
fn run_header(opts: &RunOptions, traced: bool) -> Value {
    let w = opts.workload;
    host::header()
        .with("workload", w.name)
        .with("pass", if traced { "traced" } else { "untraced" })
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("scale", opts.scale)
        .with("threads", w.threads)
        .with("streams", w.streams)
        .with("frames_override", opts.frames.map_or(Value::Null, Value::from))
}

/// What either pass hands to the reporting below.
struct Pass {
    section: &'static str,
    /// Declaration and value, in declaration order.
    metrics: Vec<(Metric, f64)>,
    attempted: u64,
    failed: u64,
    /// Pass-specific record fields.
    extras: Value,
}

fn untraced_pass(opts: &RunOptions, header: &mut Value) -> Result<Pass, String> {
    let m = run::run(opts).map_err(|e| format!("run failed: {e}"))?;
    let metrics = m.end_to_end().ok_or_else(|| {
        format!("no frame completed ({} attempted, {} failed)", m.attempted, m.failed)
    })?;
    header.push("frames", m.frames());
    header.push("voxels_per_frame", m.voxels() as f64 / m.frames() as f64);
    Ok(Pass {
        section: "end_to_end",
        metrics: END_TO_END.iter().map(EndToEnd::metric).zip(metrics).collect(),
        attempted: m.attempted,
        failed: m.failed,
        extras: Value::obj()
            .with("output_fnv", m.output_fnv.as_str())
            .with("scene_gen_ms", m.gen_ms)
            .with("segments", Value::Arr(m.segments.iter().map(segment_record).collect())),
    })
}

/// One segment's raw samples, kept so estimators can be re-examined
/// without re-running.
fn segment_record(s: &run::Segment) -> Value {
    Value::obj()
        .with("setup_s", s.setup_s)
        .with("wall_s", s.wall_s)
        .with("cpu_s", s.cpu_s)
        .with("voxels", s.voxels)
        .with("frame_ms", Value::Arr(s.frame_ms.iter().map(|&ms| Value::Num(ms)).collect()))
}

fn traced_pass(opts: &RunOptions, header: &mut Value) -> Result<Pass, String> {
    let t = layers::run(opts).map_err(|e| format!("traced pass failed: {e}"))?;
    header.push("frames", t.frames);
    let path = report::trace_path(opts.workload.name)
        .and_then(|p| t.recorder.write_chrome(&p, header).map(|()| p))
        .map_err(|e| format!("could not write the trace: {e}"))?;
    Ok(Pass {
        section: "per_layer",
        metrics: PER_LAYER.iter().copied().zip(t.metrics).collect(),
        attempted: t.attempted,
        failed: t.failed,
        extras: Value::obj()
            .with("spans", t.recorder.spans().len())
            .with("trace_file", path.display().to_string()),
    })
}

/// One workload, one pass: measure, check, print every metric by name with
/// its unit, leave a record (and a trace) under `results/`, and end with
/// the driver's result line.
fn run_one(opts: &RunOptions, traced: bool) -> ExitCode {
    let _home = match host::ScratchHome::enter() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot create a scratch HOME under results/: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = opts.workload;
    eprintln!("{}: {}", w.name, w.why);
    let mut header = run_header(opts, traced);
    let pass =
        if traced { traced_pass(opts, &mut header) } else { untraced_pass(opts, &mut header) };
    let pass = match pass {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };

    let correct = pass.failed == 0;
    let mut metrics = Value::obj();
    for (m, value) in &pass.metrics {
        println!(
            "{:<14} {:<30} {:>16.4} {:<9} ({} is better)",
            w.name,
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
        metrics.push(m.name, Value::obj().with("value", *value).with("unit", m.unit));
    }
    let mut record = Value::obj()
        .with("header", header)
        .with("claim", Value::Null)
        .with("correct", correct)
        .with("attempted", pass.attempted)
        .with("failed", pass.failed)
        .with("fail_ratio", pass.failed as f64 / pass.attempted.max(1) as f64);
    for (key, value) in pass.extras.fields() {
        record.push(key, value.clone());
    }
    record.push(pass.section, metrics.clone());
    let written =
        report::record_path(w.name, traced).and_then(|p| std::fs::write(p, record.to_pretty()));
    if let Err(e) = written {
        eprintln!("{}: could not write the run record: {e}", w.name);
    }

    let line = Value::obj()
        .with("correct", correct)
        .with("attempted", pass.attempted)
        .with("failed", pass.failed)
        .with("metrics", metrics);
    println!("{}", line.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {} of {} frames or checks failed", w.name, pass.failed, pass.attempted);
        ExitCode::FAILURE
    }
}
