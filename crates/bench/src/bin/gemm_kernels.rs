//! GEMM microkernel benchmark: scalar vs SIMD vs SIMD+packed weights.
//!
//! Measures sustained GFLOP/s of every compute kernel on the
//! paper-characteristic GEMM shapes (`|map| x Cin x Cout`, Algorithm 2) at
//! three activation densities — every A value nonzero (what the frozen
//! `tensor.gemm_ms` probe of `benchmark/` feeds), 0.56 (the measured
//! post-ReLU nonzero share of a MinkUNet frame) and 0.1, zeros placed at
//! random — then runs a geometry-static compiled stream end-to-end with
//! the SIMD policy forced to `Scalar` and left at `Auto` to show the
//! whole-network effect. GFLOP/s are *dense-equivalent* (`2·m·k·n` however
//! many terms the zero-skip drops), so a kernel whose work follows the
//! nonzeros reads higher at lower density. Non-FMA kernels are asserted
//! bitwise identical per shape and density; the FMA row is reported but
//! never compared bitwise (it changes rounding and is opt-in). Writes
//! `BENCH_gemm.json`.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin gemm_kernels
//! [--scale F] [--scenes N] [--seed N] [--out PATH]`
//! (`--scenes` is the number of end-to-end streamed frames.)

use std::time::Instant;
use torchsparse_bench::{build_model, dataset_for, fmt, geomean, BenchArgs};
use torchsparse_core::runtime::ThreadPool;
use torchsparse_core::{DeviceProfile, Engine, OptimizationConfig, SimdPolicy};
use torchsparse_data::geometry_static_stream;
use torchsparse_models::BenchmarkModel;
use torchsparse_tensor::gemm::{mm_into_packed_on, mm_into_with, GemmOpts};
use torchsparse_tensor::{microkernel, Kernel, Matrix, PackedB};

/// Paper-characteristic `(|map|, Cin, Cout)` GEMM shapes: early layers are
/// many-row/narrow, bottleneck layers are fewer-row/wide (Figure 12).
const SHAPES: [(usize, usize, usize); 7] = [
    (4096, 4, 32),
    (16384, 32, 32),
    (16384, 32, 64),
    (8192, 64, 64),
    (4096, 96, 96),
    (2048, 128, 128),
    (1024, 256, 256),
];

/// Shapes with `Cin = Cout >= 64` — the acceptance target demands >= 2x
/// over scalar on these.
fn is_large(k: usize, n: usize) -> bool {
    k == n && k >= 64
}

/// Nonzero share of A per measured column.
const DENSITIES: [f64; 3] = [1.0, 0.56, 0.1];

const JITTER: f32 = 0.02;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        let u = (splitmix64(&mut state) >> 11) as f32 / (1u64 << 53) as f32;
        2.0 * u - 1.0
    })
}

/// `random_matrix` with each element kept with probability `density` and
/// zeroed otherwise (positions from the same seeded stream).
fn activation_matrix(rows: usize, cols: usize, seed: u64, density: f64) -> Matrix {
    let mut m = random_matrix(rows, cols, seed);
    let mut state = seed ^ 0xD1CE;
    for v in m.as_mut_slice() {
        if (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 >= density {
            *v = 0.0;
        }
    }
    m
}

/// First line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    let line = String::from_utf8(out.stdout).ok()?.lines().next()?.trim().to_owned();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// One benchmark variant: a kernel plus whether B streams packed panels.
struct Variant {
    label: &'static str,
    opts: GemmOpts,
    packed: bool,
    /// FMA rows change rounding, so they are excluded from the bitwise
    /// cross-check against the scalar baseline.
    deterministic: bool,
}

/// Times `f` until it has run for at least ~30 ms (at least 3 times) and
/// returns the best per-call seconds.
fn best_time(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut calls = 0u32;
    while spent < 0.03 || calls < 3 {
        let start = Instant::now();
        f();
        let dt = start.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        calls += 1;
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.02, 12);
    let out_path = args
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_gemm.json".to_owned());

    let pool = ThreadPool::global();
    let active = microkernel::active();
    let variants = [
        Variant {
            label: "scalar",
            opts: GemmOpts::with_kernel(Kernel::Scalar),
            packed: false,
            deterministic: true,
        },
        Variant {
            label: "portable",
            opts: GemmOpts::with_kernel(Kernel::Portable),
            packed: false,
            deterministic: true,
        },
        Variant {
            label: "simd",
            opts: GemmOpts::with_kernel(active),
            packed: false,
            deterministic: true,
        },
        Variant {
            label: "simd+packed",
            opts: GemmOpts::with_kernel(active),
            packed: true,
            deterministic: true,
        },
        Variant {
            label: "simd+packed+fma",
            opts: GemmOpts { kernel: Some(active.with_fma()), fma: true, panel_rows: None },
            packed: true,
            deterministic: false,
        },
    ];

    println!(
        "== GEMM microkernels: active = {} (fma available: {}) ==\n",
        active.name(),
        active.with_fma().name()
    );

    // gflops[d][v][s] for density d, variant v on shape s.
    let mut gflops = vec![vec![vec![0.0f64; SHAPES.len()]; variants.len()]; DENSITIES.len()];
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        let b = random_matrix(k, n, 0xB000 + s as u64);
        let packed = PackedB::pack(&b);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        for (d, &density) in DENSITIES.iter().enumerate() {
            let a = activation_matrix(m, k, 0xA000 + s as u64, density);
            let mut reference: Option<Vec<u32>> = None;
            for (v, variant) in variants.iter().enumerate() {
                let mut c = Matrix::zeros(m, n);
                let secs = best_time(|| {
                    c.as_mut_slice().fill(0.0);
                    if variant.packed {
                        mm_into_packed_on(pool, &a, &packed, &mut c, variant.opts).unwrap();
                    } else {
                        mm_into_with(pool, &a, &b, &mut c, variant.opts).unwrap();
                    }
                });
                gflops[d][v][s] = flops / secs / 1e9;
                if variant.deterministic {
                    let bits: Vec<u32> = c.as_slice().iter().map(|x| x.to_bits()).collect();
                    match &reference {
                        None => reference = Some(bits),
                        Some(r) => assert_eq!(
                            r, &bits,
                            "{m}x{k}x{n} @ density {density}: {} must match scalar bitwise",
                            variant.label
                        ),
                    }
                }
            }
        }
    }

    let mut rows = Vec::new();
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (d, density) in DENSITIES.iter().enumerate() {
            let mut row = vec![format!("{m}x{k}x{n}"), format!("{density}")];
            for per_shape in &gflops[d] {
                row.push(format!("{:.2}", per_shape[s]));
            }
            row.push(fmt::speedup(gflops[d][3][s] / gflops[d][0][s]));
            rows.push(row);
        }
    }
    println!(
        "{}",
        fmt::table(
            &[
                "shape |map|xCinxCout",
                "nonzero A",
                "scalar",
                "portable",
                "simd",
                "simd+packed",
                "+fma",
                "packed vs scalar"
            ],
            &rows
        )
    );

    let large_speedups: Vec<f64> = SHAPES
        .iter()
        .enumerate()
        .filter(|(_, &(_, k, n))| is_large(k, n))
        .map(|(s, _)| gflops[0][3][s] / gflops[0][0][s])
        .collect();
    let large_geomean = geomean(&large_speedups);
    println!(
        "geomean simd+packed speedup on Cin=Cout>=64 shapes, dense A: {large_geomean:.2}x \
         (target >= 2x)\n"
    );

    // End-to-end: the same geometry-static compiled stream with the SIMD
    // policy forced off and left on auto. Outputs must be bitwise identical
    // (the non-FMA kernels preserve the scalar accumulation order).
    let bm = BenchmarkModel::MinkUNetNuScenes1;
    let ds = dataset_for(bm, args.scale);
    let base = ds.scene(args.seed)?;
    let frames = geometry_static_stream(&base, args.scenes, JITTER, args.seed)?;
    let model = build_model(bm, args.seed);

    let mut wall_ms = [0.0f64; 2];
    let mut e2e_bits: Option<Vec<u32>> = None;
    for (i, policy) in [SimdPolicy::Scalar, SimdPolicy::Auto].into_iter().enumerate() {
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.simd = policy;
        // The A/B isolates the kernel choice; keep the autotuner from
        // varying other policy axes (chunking, panel width) between arms.
        cfg.autotune_policies = false;
        let mut session = Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
            .compile(model.as_ref(), &frames[0])?;
        session.execute(&frames[0])?; // warm caches and packed weights
        let start = Instant::now();
        let mut last = None;
        for frame in &frames {
            last = Some(session.execute(frame)?);
        }
        wall_ms[i] = start.elapsed().as_secs_f64() / frames.len() as f64 * 1e3;
        if let Some(y) = last {
            let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
            match &e2e_bits {
                None => e2e_bits = Some(bits),
                Some(r) => assert_eq!(r, &bits, "SIMD on/off must agree bitwise end-to-end"),
            }
        }
    }
    let e2e_speedup = wall_ms[0] / wall_ms[1];
    println!(
        "end-to-end compiled stream ({}, {} frames, {} points): scalar {:.2} ms/frame, \
         simd {:.2} ms/frame ({:.2}x), outputs bitwise identical",
        bm.name(),
        frames.len(),
        base.len(),
        wall_ms[0],
        wall_ms[1],
        e2e_speedup
    );

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"clock\": \"wall: std::time::Instant, best of >= 3 calls over >= 30 ms\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    for (key, program, args) in [
        ("git_rev", "git", &["describe", "--always", "--dirty"][..]),
        ("rustc", "rustc", &["--version"][..]),
    ] {
        let value = command_line(program, args).unwrap_or_else(|| "unknown".to_owned());
        json.push_str(&format!("  \"{key}\": \"{value}\",\n"));
    }
    json.push_str(&format!("  \"gemm_kernel\": \"{}\",\n", active.name()));
    json.push_str(&format!("  \"fma_kernel\": \"{}\",\n", active.with_fma().name()));
    json.push_str(
        "  \"gflops_convention\": \"dense-equivalent: 2*map*c_in*c_out per call at every density\",\n",
    );
    json.push_str("  \"kernels_bitwise_identical\": true,\n");
    json.push_str("  \"gflops\": [\n");
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (d, density) in DENSITIES.iter().enumerate() {
            let g = &gflops[d];
            let last = s + 1 == SHAPES.len() && d + 1 == DENSITIES.len();
            json.push_str(&format!(
                "    {{\"map\": {m}, \"c_in\": {k}, \"c_out\": {n}, \"nonzero_share\": {density}, \
                 \"scalar\": {:.3}, \"portable\": {:.3}, \"simd\": {:.3}, \"simd_packed\": {:.3}, \
                 \"simd_packed_fma\": {:.3}, \"packed_speedup_vs_scalar\": {:.3}}}{}\n",
                g[0][s],
                g[1][s],
                g[2][s],
                g[3][s],
                g[4][s],
                g[3][s] / g[0][s],
                if last { "" } else { "," }
            ));
        }
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"geomean_packed_speedup_large_shapes\": {large_geomean:.3},\n"));
    json.push_str(&format!(
        "  \"end_to_end\": {{\"model\": \"{}\", \"frames\": {}, \"points\": {}, \
         \"scalar_ms_per_frame\": {:.3}, \"simd_ms_per_frame\": {:.3}, \"speedup\": {:.3}, \
         \"bitwise_identical\": true}}\n",
        bm.name(),
        frames.len(),
        base.len(),
        wall_ms[0],
        wall_ms[1],
        e2e_speedup
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json)?;
    println!("\nwrote {out_path}");

    if large_geomean < 2.0 {
        println!("WARNING: geomean packed speedup {large_geomean:.2}x below the 2x target");
    }
    Ok(())
}
