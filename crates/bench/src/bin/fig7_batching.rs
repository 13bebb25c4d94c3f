//! **Figure 7**: trading FLOPs for regularity — batched matmul speedup as a
//! function of group size.
//!
//! The paper collects the first sparse conv layer's per-offset workloads
//! from MinkUNet on SemanticKITTI and shows that batching them (padding to
//! the group maximum) is up to ~1.5x faster than executing them
//! sequentially. We replay the same experiment: real per-offset map sizes
//! from the synthetic SemanticKITTI, grouped at increasing batch sizes,
//! costed by the device GEMM model.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin fig7_batching
//! [--scale F]`

use torchsparse_bench::{
    batched_matmul_latency, batching_layer, build_model, dataset_for, fmt, BenchArgs,
    BATCH_GROUP_SIZES,
};
use torchsparse_core::DeviceProfile;
use torchsparse_gpusim::GemmModel;
use torchsparse_models::BenchmarkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(1.0, 1);
    let bm = BenchmarkModel::MinkUNetFullSemanticKitti;
    println!("== Figure 7: batched matmul speedup vs group size ==");
    println!("workload: heaviest early conv layer of {} (scale {})\n", bm.name(), args.scale);

    let input = dataset_for(bm, args.scale).scene(args.seed)?;
    let model = build_model(bm, args.seed);
    let (layer1, sizes) =
        batching_layer(model.as_ref(), &input)?.expect("model has a submanifold conv layer");
    println!("layer: {}", layer1.name);
    let (c_in, c_out) = (layer1.c_in, layer1.c_out);
    println!(
        "{} offsets, map sizes {}..{} rows, C_in={} C_out={}\n",
        sizes.len(),
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap(),
        c_in,
        c_out
    );

    let gemm = GemmModel::new(DeviceProfile::rtx_2080ti());
    let latency_for_group_size = |g| batched_matmul_latency(&sizes, c_in, c_out, g, &gemm);

    let baseline = latency_for_group_size(1);
    let mut rows = Vec::new();
    let mut best = (1, 1.0f64);
    for g in BATCH_GROUP_SIZES {
        let lat = latency_for_group_size(g);
        let speedup = baseline.as_f64() / lat.as_f64();
        if speedup > best.1 {
            best = (g, speedup);
        }
        rows.push(vec![
            g.to_string(),
            format!("{lat}"),
            fmt::speedup(speedup),
            fmt::bar(speedup, 2.0, 30),
        ]);
    }
    println!("{}", fmt::table(&["group size", "matmul latency", "speedup", ""], &rows));
    println!(
        "Best: group size {} at {} (paper Figure 7: batching brings up to ~1.5x).",
        best.0,
        fmt::speedup(best.1)
    );
    Ok(())
}
