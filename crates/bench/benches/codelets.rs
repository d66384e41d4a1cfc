//! Criterion micro-benchmarks: unrolled codelet throughput by leaf size,
//! and the SIMD lane-block kernels against the scalar per-column loop on
//! one unit-stride pass.
//!
//! The paper's "best" algorithms use larger unrolled base cases; this bench
//! quantifies why — elements/second for `small[k]` across k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wht_core::{apply_plan, CompiledPlan, FusionPolicy, Plan, SimdPolicy};

fn bench_codelets(c: &mut Criterion) {
    let mut group = c.benchmark_group("codelet_throughput");
    for k in 1..=8u32 {
        let plan = Plan::leaf(k).expect("valid leaf");
        let size = plan.size();
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("small", k), &plan, |b, plan| {
            let mut x: Vec<f64> = (0..size).map(|v| (v % 7) as f64 - 3.0).collect();
            b.iter(|| {
                apply_plan(plan, &mut x).expect("sized correctly");
                std::hint::black_box(x[0]);
                // Reset scale occasionally to avoid overflow to inf.
                if x[0].abs() > 1e300 {
                    for v in x.iter_mut() {
                        *v = (*v / 1e300).clamp(-8.0, 8.0);
                    }
                }
            });
        });
    }
    group.finish();
}

/// Scalar vs lane-block kernels on one L1-resident schedule per leaf
/// size: the per-pass win of the SIMD backend, isolated from fusion and
/// memory effects.
fn bench_lane_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_vs_scalar_pass");
    let n = 13u32; // 64 KiB of f64 — L1/L2-resident, ALU-bound
    let size = 1usize << n;
    for k in [1u32, 4, 8] {
        let plan = Plan::binary_iterative(n, k).expect("valid");
        let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::unbounded());
        group.throughput(Throughput::Elements(size as u64));
        for (mode, schedule) in [
            ("scalar", fused.clone()),
            ("lanes", fused.with_simd(&SimdPolicy::auto())),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}/small{k}"), n),
                &schedule,
                |b, schedule| {
                    let mut x: Vec<f64> =
                        (0..size).map(|v| ((v * 31) % 11) as f64 * 1e-3).collect();
                    let pristine = x.clone();
                    let mut applications = 0u32;
                    b.iter(|| {
                        schedule.apply(&mut x).expect("sized correctly");
                        std::hint::black_box(x[0]);
                        applications += 1;
                        if applications * n >= 900 {
                            x.copy_from_slice(&pristine);
                            applications = 0;
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_codelets, bench_lane_kernels);
criterion_main!(benches);
