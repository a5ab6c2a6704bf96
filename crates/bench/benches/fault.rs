//! Fault-subsystem benches: the empty plan must cost nothing, and a
//! failover's replan must stay planning-scale (milliseconds), not
//! serving-scale.
//!
//! `schedule/*` pits the unfaulted pipelined scheduler against the
//! fault-aware one with the empty plan — the same scheduler loop under
//! a window set whose lookups scan nothing, so the two bars must stay
//! close — and against a plan with a live degradation window, which
//! pays for its per-start window lookups. `failover_replan/*` prices the
//! partition + replica re-search a crash triggers on racks of growing
//! size: the dominant term of a recovery window the simulator does
//! *not* bill into virtual time (recorded in the ROADMAP).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rodenet::{BnMode, NetSpec, Variant};
use zynq_sim::engine::Offload;
use zynq_sim::fault::{faulted_schedule_released, FaultEvent, FaultPlan};
use zynq_sim::plan::PlFormat;
use zynq_sim::timing::{PlModel, PsModel};
use zynq_sim::{
    pipelined_schedule_released, plan_cluster, Cluster, ClusterRequest, Interconnect, Partitioner,
    Replication, Schedule, ARTY_Z7_20,
};

fn request(boards: usize) -> ClusterRequest {
    ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel { parallelism: 8 },
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: Partitioner::BalancedMakespan,
        replication: Replication::Auto,
    }
}

fn bench_faulted_schedule(c: &mut Criterion) {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let plan = plan_cluster(&spec, &request(3)).expect("3×Arty carries ODENet-20");
    let timeline = plan.timeline().to_vec();
    let releases: Vec<f64> = (0..256)
        .map(|i| i as f64 * 0.8 * plan.bottleneck_seconds())
        .collect();
    let degraded = FaultPlan::new(vec![FaultEvent::BoardSlowdown {
        board: 1,
        at: 0.0,
        factor: 2.0,
        duration: 10.0,
    }]);

    let mut g = c.benchmark_group("schedule");
    g.bench_with_input(BenchmarkId::new("unfaulted", 256), &(), |b, _| {
        b.iter(|| black_box(pipelined_schedule_released(&timeline, &releases)))
    });
    // The acceptance bar: with the empty plan the fault-aware schedule
    // must price like the line above — its window lookups are empty.
    g.bench_with_input(BenchmarkId::new("empty_plan", 256), &(), |b, _| {
        b.iter(|| {
            black_box(faulted_schedule_released(
                &timeline,
                &releases,
                &FaultPlan::none(),
            ))
        })
    });
    g.bench_with_input(BenchmarkId::new("degraded", 256), &(), |b, _| {
        b.iter(|| black_box(faulted_schedule_released(&timeline, &releases, &degraded)))
    });
    g.finish();
}

fn bench_failover_replan(c: &mut Criterion) {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let mut g = c.benchmark_group("failover_replan");
    // What the orchestrator runs at a crash: Offload::Auto +
    // Replication::Auto over the survivors.
    for survivors in [1usize, 2, 3, 5] {
        let req = request(survivors);
        g.bench_with_input(BenchmarkId::new("auto", survivors), &(), |b, _| {
            b.iter(|| black_box(plan_cluster(&spec, &req).expect("survivor racks plan")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_faulted_schedule, bench_failover_replan);
criterion_main!(benches);
