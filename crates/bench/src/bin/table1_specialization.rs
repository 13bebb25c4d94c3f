//! **Table 1**: specialization of the adaptive grouping strategy for
//! datasets, models, and hardware.
//!
//! The paper tunes `(epsilon, S)` on one configuration and *transfers* the
//! strategy to another, showing that the strategy specialized for the
//! execution configuration always wins in latency (up to 13.5% efficiency
//! difference). Three 2x2 matrices are reported:
//!
//! - (a) datasets: SemanticKITTI vs nuScenes (MinkUNet, RTX 2080Ti);
//! - (b) models: MinkUNet 1.0x vs 0.5x (SemanticKITTI, RTX 2080Ti);
//! - (c) hardware: RTX 2080Ti vs GTX 1080Ti (nuScenes, MinkUNet).
//!
//! For each cell we report the matmul throughput in TFLOP/s (the paper's
//! metric) and the matmul latency in ms; the latency diagonal must win.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin
//! table1_specialization [--scale F] [--scenes N]`

use torchsparse_bench::{fmt, BenchArgs, Specialization};
use torchsparse_core::DeviceProfile;
use torchsparse_models::BenchmarkModel;

fn print_matrix(title: &str, a: &Specialization, b: &Specialization) {
    println!("---- {title} ----");
    let mut rows = Vec::new();
    for exec in [a, b] {
        let mut row = vec![format!("execute on {}", exec.label)];
        let (tf_a, us_a) = exec.evaluate(a);
        let (tf_b, us_b) = exec.evaluate(b);
        row.push(format!("{tf_a:.1} TF/s ({:.2} ms)", us_a / 1e3));
        row.push(format!("{tf_b:.1} TF/s ({:.2} ms)", us_b / 1e3));
        let diag_wins = if std::ptr::eq(exec, a) { us_a <= us_b } else { us_b <= us_a };
        row.push(if diag_wins { "diagonal wins".into() } else { "transfer wins (!)".into() });
        rows.push(row);
    }
    let h_a = format!("optimized for {}", a.label);
    let h_b = format!("optimized for {}", b.label);
    println!("{}", fmt::table(&["", h_a.as_str(), h_b.as_str(), "latency check"], &rows));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.8, 2);
    println!("== Table 1: specialization of adaptive grouping ==");
    println!("scale={} scenes={}\n", args.scale, args.scenes);

    // (a) Datasets: MinkUNet (1f) on SK vs NS, RTX 2080Ti.
    let sk = Specialization::prepare(
        BenchmarkModel::MinkUNetFullSemanticKitti,
        DeviceProfile::rtx_2080ti(),
        &args,
        "SemanticKITTI",
    )?;
    let ns = Specialization::prepare(
        BenchmarkModel::MinkUNetNuScenes1,
        DeviceProfile::rtx_2080ti(),
        &args,
        "nuScenes",
    )?;
    print_matrix("(a) dataset specialization (MinkUNet, RTX 2080Ti)", &sk, &ns);

    // (b) Models: MinkUNet 1.0x vs 0.5x on SK, RTX 2080Ti.
    let full = Specialization::prepare(
        BenchmarkModel::MinkUNetFullSemanticKitti,
        DeviceProfile::rtx_2080ti(),
        &args,
        "MinkUNet (1.0x)",
    )?;
    let half = Specialization::prepare(
        BenchmarkModel::MinkUNetHalfSemanticKitti,
        DeviceProfile::rtx_2080ti(),
        &args,
        "MinkUNet (0.5x)",
    )?;
    print_matrix("(b) model specialization (SemanticKITTI, RTX 2080Ti)", &full, &half);

    // (c) Hardware: RTX 2080Ti vs GTX 1080Ti, MinkUNet on nuScenes.
    let turing = Specialization::prepare(
        BenchmarkModel::MinkUNetNuScenes1,
        DeviceProfile::rtx_2080ti(),
        &args,
        "RTX 2080Ti",
    )?;
    let pascal = Specialization::prepare(
        BenchmarkModel::MinkUNetNuScenes1,
        DeviceProfile::gtx_1080ti(),
        &args,
        "GTX 1080Ti",
    )?;
    print_matrix("(c) hardware specialization (nuScenes, MinkUNet)", &turing, &pascal);

    println!("Paper reference (Table 1): the strategy specialized for the execution");
    println!("configuration always wins in latency; efficiency differs by up to 13.5%.");
    Ok(())
}
