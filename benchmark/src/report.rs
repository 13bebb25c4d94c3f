//! `run-all`, `repeat` and `compare`: the suite-level commands built on
//! single runs. Each workload runs in a child process of its own, so peak
//! memory and CPU time are per workload.

use crate::host;
use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Flags handed through to every child run.
#[derive(Debug, Clone, Default)]
pub struct Passthrough {
    pub seed: u64,
    pub args: Vec<String>,
}

/// File a single run leaves its record in.
pub fn record_path(workload: &str, traced: bool) -> std::io::Result<PathBuf> {
    let pass = if traced { "traced" } else { "untraced" };
    Ok(host::results_dir()?.join(format!("run-{workload}-{pass}.json")))
}

pub fn trace_path(workload: &str) -> std::io::Result<PathBuf> {
    Ok(host::results_dir()?.join(format!("trace-{workload}.json")))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process and returns its record.
fn child_run(workload: &str, seed: u64, traced: bool, pass: &Passthrough) -> Result<Value, String> {
    let path = record_path(workload, traced).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("run")
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(&pass.args)
        .status()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) exited with {status}", u8::from(traced)));
    }
    read_json(&path)
}

fn write_result(file: &str, doc: &Value) -> std::io::Result<PathBuf> {
    let path = host::results_dir()?.join(file);
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

fn suite_header(pass: &Passthrough) -> Value {
    host::header().with("seed", pass.seed).with("args", pass.args.join(" "))
}

/// `run-all`: every workload untraced, then traced; writes `latest.json`.
pub fn run_all(pass: &Passthrough) -> ExitCode {
    let mut workloads = Value::obj();
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        let mut entry = Value::obj();
        for traced in [false, true] {
            match child_run(w.name, pass.seed, traced, pass) {
                Ok(record) => {
                    if record.get("correct").and_then(Value::as_bool) != Some(true) {
                        failures.push(format!("{}: output or replay check failed", w.name));
                    }
                    entry.push(if traced { "traced" } else { "untraced" }, record);
                }
                Err(e) => failures.push(e),
            }
        }
        workloads.push(w.name, entry);
    }
    // `claim` stays null here: a record is a baseline, never a claim.
    let doc = Value::obj()
        .with("header", suite_header(pass))
        .with("claim", Value::Null)
        .with("workloads", workloads);
    match write_result("latest.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => failures.push(format!("writing latest.json: {e}")),
    }
    print_summary(&doc);
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per end-to-end metric, one column per workload.
fn print_summary(doc: &Value) {
    println!(
        "\n{:<18} {:>9} {}",
        "end-to-end",
        "unit",
        WORKLOADS.map(|w| format!("{:>14}", w.name)).join("")
    );
    for m in &END_TO_END {
        let cells: String = WORKLOADS
            .iter()
            .map(|w| match metric(doc, w.name, "end_to_end", m.name) {
                Some(v) => format!("{v:>14.3}"),
                None => format!("{:>14}", "-"),
            })
            .collect();
        println!("{:<18} {:>9} {cells}", m.name, m.unit);
    }
}

/// `workloads.<w>.{untraced|traced}.<section>.<name>.value`; also accepts
/// the flat layout `repeat` writes (`workloads.<w>.<section>...`).
fn metric_entry<'a>(
    doc: &'a Value,
    workload: &str,
    section: &str,
    name: &str,
) -> Option<&'a Value> {
    let w = doc.get("workloads")?.get(workload)?;
    let pass = if section == "end_to_end" { "untraced" } else { "traced" };
    w.get(pass).unwrap_or(w).get(section)?.get(name)
}

fn metric(doc: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    metric_entry(doc, workload, section, name)?.get("value")?.as_f64()
}

/// `repeat --n N`: the untraced suite N times on seeds `seed .. seed+N`,
/// then median, quartiles and spread per metric and workload. Fails when a
/// spread exceeds the metric's bound (`setup_s` is reported, not judged:
/// its samples are few and its bound is about its median alone).
pub fn repeat(n: usize, pass: &Passthrough) -> ExitCode {
    if n < 2 {
        eprintln!("repeat needs --n of at least 2 to have quartiles");
        return ExitCode::from(2);
    }
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for i in 0..n as u64 {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            let record = match child_run(w.name, pass.seed + i, false, pass) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (mi, m) in END_TO_END.iter().enumerate() {
                let v =
                    record.get("end_to_end").and_then(|e| e.get(m.name)?.get("value")?.as_f64());
                values[wi][mi].extend(v);
            }
        }
    }

    let mut over = Vec::new();
    let mut workloads = Value::obj();
    println!(
        "\n{:<14} {:<18} {:>10} {:>10} {:>10} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let mut section = Value::obj();
        for (mi, m) in END_TO_END.iter().enumerate() {
            let Some((q1, q2, q3)) = stats::quartiles(&values[wi][mi]) else { continue };
            let spread = stats::spread(&values[wi][mi]).unwrap_or(0.0);
            let judged = m.name != "setup_s";
            if judged && spread > m.bound {
                over.push(format!("{} {}: spread {spread:.3} > bound {}", w.name, m.name, m.bound));
            }
            println!(
                "{:<14} {:<18} {q2:>10.3} {q1:>10.3} {q3:>10.3} {spread:>8.3} {:>6}{}",
                w.name,
                m.name,
                m.bound,
                if judged && spread > m.bound { "  OVER" } else { "" }
            );
            section.push(
                m.name,
                Value::obj()
                    .with("value", q2)
                    .with("unit", m.unit)
                    .with("q1", q1)
                    .with("q3", q3)
                    .with("spread", spread)
                    .with("runs", values[wi][mi].len()),
            );
        }
        workloads.push(w.name, Value::obj().with("end_to_end", section));
    }
    let doc = Value::obj()
        .with("header", suite_header(pass).with("repeats", n))
        .with("claim", Value::Null)
        .with("workloads", workloads);
    match write_result("repeat.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("writing repeat.json: {e}"),
    }
    for o in &over {
        eprintln!("UNSTEADY: {o}");
    }
    if over.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How one metric moved between two records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread is wider than the bound: neither record can
    /// resolve a change of that size.
    Unresolved,
}

/// Judges `new` against `old` under `bound`, given the widest spread
/// either record carries for the metric.
pub fn judge(old: f64, new: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) || old == 0.0 || !old.is_finite() || !new.is_finite() {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `compare old.json new.json`: one row per metric and workload.
pub fn compare(old_path: &Path, new_path: &Path) -> ExitCode {
    let (old, new) = match (read_json(old_path), read_json(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = 0usize;
    println!(
        "{:<14} {:<30} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "old", "new", "new/old"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                metric(&old, w.name, "end_to_end", m.name),
                metric(&new, w.name, "end_to_end", m.name),
            ) else {
                println!(
                    "{:<14} {:<30} {:>12} {:>12} {:>8}  unresolved (missing)",
                    w.name, m.name, "-", "-", "-"
                );
                continue;
            };
            let spread = [&old, &new]
                .iter()
                .filter_map(|d| {
                    metric_entry(d, w.name, "end_to_end", m.name)?.get("spread")?.as_f64()
                })
                .reduce(f64::max);
            let verdict = judge(a, b, m.better, m.bound, spread);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<14} {:<30} {a:>12.4} {b:>12.4} {:>8.3}  {} (bound {})",
                w.name,
                m.name,
                b / a,
                format!("{verdict:?}").to_lowercase(),
                m.bound
            );
        }
        // Layer metrics carry no bound: they explain, they are not judged.
        for m in &PER_LAYER {
            if let (Some(a), Some(b)) = (
                metric(&old, w.name, "per_layer", m.name),
                metric(&new, w.name, "per_layer", m.name),
            ) {
                let ratio =
                    if a != 0.0 { format!("{:>8.3}", b / a) } else { format!("{:>8}", "-") };
                println!("{:<14} {:<30} {a:>12.4} {b:>12.4} {ratio}  layer", w.name, m.name);
            }
        }
    }
    if regressed > 0 {
        eprintln!("{regressed} end-to-end metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        use Verdict::*;
        assert_eq!(judge(100.0, 109.0, Better::Lower, 0.10, None), Unchanged);
        assert_eq!(judge(100.0, 111.0, Better::Lower, 0.10, None), Regressed);
        assert_eq!(judge(100.0, 85.0, Better::Lower, 0.10, None), Improved);
        assert_eq!(judge(100.0, 85.0, Better::Higher, 0.10, None), Regressed);
        assert_eq!(judge(100.0, 120.0, Better::Higher, 0.10, Some(0.05)), Improved);
        assert_eq!(judge(100.0, 150.0, Better::Lower, 0.10, Some(0.2)), Unresolved);
        assert_eq!(judge(0.0, 1.0, Better::Lower, 0.10, None), Unresolved);
    }

    #[test]
    fn metric_lookup_reads_both_layouts() {
        let cell = |v: f64| Value::obj().with("value", v).with("unit", "ms").with("spread", 0.02);
        let nested = Value::obj().with(
            "workloads",
            Value::obj().with(
                "kitti_steady",
                Value::obj()
                    .with(
                        "untraced",
                        Value::obj()
                            .with("end_to_end", Value::obj().with("frame_ms_p50", cell(3.0))),
                    )
                    .with(
                        "traced",
                        Value::obj()
                            .with("per_layer", Value::obj().with("tensor.gemm_ms", cell(1.0))),
                    ),
            ),
        );
        assert_eq!(metric(&nested, "kitti_steady", "end_to_end", "frame_ms_p50"), Some(3.0));
        assert_eq!(metric(&nested, "kitti_steady", "per_layer", "tensor.gemm_ms"), Some(1.0));
        let flat = Value::obj().with(
            "workloads",
            Value::obj().with(
                "kitti_steady",
                Value::obj().with("end_to_end", Value::obj().with("frame_ms_p50", cell(4.0))),
            ),
        );
        assert_eq!(metric(&flat, "kitti_steady", "end_to_end", "frame_ms_p50"), Some(4.0));
        assert_eq!(metric(&flat, "nus_serve", "end_to_end", "frame_ms_p50"), None);
    }
}
