//! What the harness reads from the host: process CPU time and peak memory
//! from `/proc`, and the identity fields of the run-record header.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package's own directory (absolute, fixed at build time —
/// the binary is always built inside the checkout it measures).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where records and traces go; created on demand, ignored by git.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// `USER_HZ`: the kernel reports process times in these ticks, and Linux
/// has fixed it at 100 on every architecture this engine builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including
/// threads that have already exited (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3, so fields 14 and 15 are at 11 and 12.
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(cwd).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The fields every record starts with, so records from different hosts,
/// commits and scales are never compared by accident.
pub fn header() -> Value {
    let repo = package_dir().parent().unwrap_or(package_dir());
    // A driver's checkout is not a git repository; say so instead of
    // reporting some enclosing repository's revision.
    let git_rev = if repo.join(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"], repo)
    } else {
        None
    };
    Value::obj()
        .with("clock", "wall: std::time::Instant (monotonic); gpusim.sim_* metrics are simulated-GPU time and never share a column with it")
        .with("host_cores", host_cores())
        .with("git_rev", git_rev.unwrap_or_else(|| "unknown".to_owned()))
        .with(
            "rustc",
            command_line("rustc", &["--version"], repo).unwrap_or_else(|| "unknown".to_owned()),
        )
        .with("gemm_kernel", torchsparse::tensor::microkernel::active().name())
}

/// The engine reads `TORCHSPARSE_*` overrides; a run under one measures a
/// different product. Returns the offending names.
pub fn engine_env_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TORCHSPARSE_"))
        .collect();
    names.sort();
    names
}

/// A private, empty `HOME` for the run, so the engine's tuning database
/// starts cold and the user's `~/.cache` is never read or written.
/// Removed again on drop.
pub struct ScratchHome(PathBuf);

impl ScratchHome {
    pub fn enter() -> std::io::Result<ScratchHome> {
        let dir = results_dir()?.join(format!("home-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        // Called first thing in `main`, before any thread exists.
        std::env::set_var("HOME", &dir);
        std::env::remove_var("XDG_CACHE_HOME");
        Ok(ScratchHome(dir))
    }
}

impl Drop for ScratchHome {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_this_process() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        while process_cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mb() > 1.0);
        assert!(host_cores() >= 1);
    }

    #[test]
    fn header_names_the_clock_and_the_host() {
        let h = header();
        for key in ["clock", "host_cores", "git_rev", "rustc", "gemm_kernel"] {
            assert!(h.get(key).is_some(), "{key}");
        }
    }
}
