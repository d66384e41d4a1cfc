//! Criterion micro-benchmarks: compiled pass-schedule replay (fused,
//! unfused, and fused + SIMD lane kernels) vs the recursive interpreter,
//! per canonical plan and size — the measured win of the
//! `wht_core::compile` layer and its kernel backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wht_core::{apply_plan_recursive, CompiledPlan, ExecPolicy, FusionPolicy, Plan, SimdPolicy};

fn canonical_plans(n: u32) -> Vec<(&'static str, Plan)> {
    vec![
        ("iterative", Plan::iterative(n).expect("valid")),
        ("right", Plan::right_recursive(n).expect("valid")),
        ("left", Plan::left_recursive(n).expect("valid")),
        ("blocked8", Plan::binary_iterative(n, 8).expect("valid")),
    ]
}

fn bench_compiled_vs_interpreted(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_vs_interpreted");
    for n in [12u32, 16, 18] {
        let size = 1usize << n;
        group.throughput(Throughput::Elements(size as u64));
        for (name, plan) in canonical_plans(n) {
            let compiled = CompiledPlan::compile(&plan);
            group.bench_with_input(
                BenchmarkId::new(format!("interpreted/{name}"), n),
                &plan,
                |b, plan| {
                    let mut x: Vec<f64> =
                        (0..size).map(|v| ((v * 31) % 11) as f64 * 1e-3).collect();
                    let pristine = x.clone();
                    let mut applications = 0u32;
                    b.iter(|| {
                        apply_plan_recursive(plan, &mut x).expect("sized correctly");
                        std::hint::black_box(x[0]);
                        applications += 1;
                        if applications * n >= 900 {
                            x.copy_from_slice(&pristine);
                            applications = 0;
                        }
                    });
                },
            );
            let fused = ExecPolicy::all_disabled().with_fusion(FusionPolicy::default());
            for (mode, schedule) in [
                ("compiled", compiled.clone()),
                ("fused", compiled.lower(&fused)),
                ("simd", compiled.lower(&fused.with_simd(SimdPolicy::auto()))),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{mode}/{name}"), n),
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
    }
    group.finish();
}

criterion_group!(benches, bench_compiled_vs_interpreted);
criterion_main!(benches);
