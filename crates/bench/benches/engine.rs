//! Engine deployment-API benches: what the builder buys you.
//!
//! * `engine_setup/*` — per-image host cost of a reused
//!   `Engine::infer` (planning + quantization amortized at build), at
//!   CIFAR spatial extent (32×32, numerics-dominated) and at thumbnail
//!   extent (8×8, where `engine_build`'s fixed cost would be a visible
//!   fraction of a per-call build);
//! * `engine_batch/*` — `infer_batch` throughput at batch 1/8/32;
//! * `engine_build` — the one-time cost being amortized.

use bench::random_tensor;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rodenet::{NetSpec, Network, Variant};
use std::time::Duration;
use tensor::{Shape4, Tensor};
use zynq_sim::engine::{Engine, Offload};
use zynq_sim::planner::OffloadTarget;

fn deployment() -> Network {
    Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(100), 11)
}

fn bench_setup_amortization(c: &mut Criterion) {
    let net = deployment();
    let mut g = c.benchmark_group("engine_setup");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    g.warm_up_time(Duration::from_secs(1));
    for hw in [32usize, 8] {
        let x = random_tensor(Shape4::new(1, 3, hw, hw), 12);
        let engine = Engine::builder(&net)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .build()
            .expect("layer3_2 fits");
        g.bench_with_input(BenchmarkId::new("reused_engine_infer", hw), &(), |b, _| {
            b.iter(|| black_box(engine.infer(&x).expect("CIFAR-shaped input")))
        });
    }
    g.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    let net = deployment();
    let engine = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::Layer32))
        .build()
        .expect("layer3_2 fits");
    let mut g = c.benchmark_group("engine_batch");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    g.warm_up_time(Duration::from_secs(1));
    for batch in [1usize, 8, 32] {
        let xs: Vec<Tensor<f32>> = (0..batch)
            .map(|i| random_tensor(Shape4::new(1, 3, 8, 8), 100 + i as u64))
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(batch), &(), |b, _| {
            b.iter(|| black_box(engine.infer_batch(&xs).expect("batch")))
        });
    }
    g.finish();
}

fn bench_build_cost(c: &mut Criterion) {
    let net = deployment();
    let mut g = c.benchmark_group("engine_build");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.bench_function("validate_and_quantize", |b| {
        b.iter(|| {
            black_box(
                Engine::builder(&net)
                    .offload(Offload::Target(OffloadTarget::Layer32))
                    .build()
                    .expect("layer3_2 fits"),
            )
        })
    });
    g.finish();
}

/// The plan-centric split: a `DeploymentPlan` answers latency queries
/// without quantizing a weight or running an inference — compare
/// `plan()` and `latency_report()` against `build()` and `infer()`.
fn bench_plan_vs_execute(c: &mut Criterion) {
    let net = deployment();
    let mut g = c.benchmark_group("engine_plan");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.bench_function("plan_only", |b| {
        b.iter(|| {
            black_box(
                Engine::builder(&net)
                    .offload(Offload::Target(OffloadTarget::Layer32))
                    .plan()
                    .expect("plans"),
            )
        })
    });
    let engine = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::Layer32))
        .build()
        .expect("layer3_2 fits");
    g.bench_function("cached_latency_report", |b| {
        b.iter(|| black_box(engine.latency_report().expect("cached").total_w_pl))
    });
    let x = random_tensor(Shape4::new(1, 3, 8, 8), 13);
    g.bench_function("infer_for_timing", |b| {
        b.iter(|| black_box(engine.infer(&x).expect("runs").total_seconds()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_setup_amortization,
    bench_batch_throughput,
    bench_build_cost,
    bench_plan_vs_execute
);
criterion_main!(benches);
