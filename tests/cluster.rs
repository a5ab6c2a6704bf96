//! Acceptance suite for the multi-board cluster backend.
//!
//! The headline scenario (ISSUE 3): ODENet-20 sharded across **two
//! simulated Arty Z7-20 boards at Q20** — a placement no single
//! XC7Z020 admits at the paper's word width — must plan, validate, and
//! infer with logits **bit-identical** to a single-board hybrid
//! execution of the same placement, and the pipelined batch schedule
//! must beat the additive one by a pinned margin. Plus the generic
//! scheduler invariants (proptest): pipelining never loses to
//! sequential execution and never beats the bottleneck bound.

use odenet_suite::prelude::*;
use proptest::prelude::*;
use zynq_sim::cluster::{
    bottleneck_seconds, per_image_seconds, pipelined_schedule, sequential_makespan, StageResource,
    StageTiming,
};
use zynq_sim::{Board, Replication, ARTY_Z7_10, ARTY_Z7_20};

fn image(seed: u64) -> Tensor<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    })
}

fn two_arty() -> Cluster {
    Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET)
}

/// A rack engine's runs report exactly the plan's PS seconds — the head
/// board's integer cycles converted once — for every feasible target.
#[test]
fn rack_runs_report_the_plans_ps_seconds_bit_for_bit() {
    for (variant, depth) in [
        (Variant::ROdeNet3, 56),
        (Variant::OdeNet, 20),
        (Variant::Hybrid3, 56),
    ] {
        let net = Network::new(NetSpec::new(variant, depth).with_classes(10), 9);
        for target in OffloadTarget::ALL {
            let Ok(engine) = Engine::builder(&net)
                .cluster(two_arty())
                .offload(Offload::Target(target))
                .build()
            else {
                continue;
            };
            let plan = engine.cluster_plan().expect("rack engines keep their plan");
            let run = engine.infer(&image(1)).expect("runs");
            assert_eq!(
                plan.ps_seconds().to_bits(),
                run.ps_seconds.to_bits(),
                "{variant}-{depth} at {target:?}: plan {} vs run {}",
                plan.ps_seconds(),
                run.ps_seconds
            );
            if (variant, target) == (Variant::Hybrid3, OffloadTarget::Layer32) {
                // Summing the timeline's separately converted PS
                // segments gave 1.1045480399999998 here.
                assert_eq!(plan.ps_seconds(), 1.10454804);
            }
        }
    }
}

/// The acceptance scenario end to end: plan → shard → validate →
/// infer, with the numerics checked against a single-board reference.
#[test]
fn odenet20_shards_across_two_arty_boards_at_q20() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(10);
    let net = Network::new(spec, 2024);

    // The AllOde placement is impossible on ONE board at Q20 (layer3_2
    // alone is 100 % of a XC7Z020's BRAM, Table 3)…
    let single = Engine::builder(&net)
        .board(&ARTY_Z7_20)
        .offload(Offload::Target(OffloadTarget::AllOde))
        .build();
    assert!(
        matches!(single, Err(EngineError::InfeasiblePlacement { .. })),
        "AllOde cannot fit one XC7Z020 at 32-bit"
    );

    // …but two boards shard it: layer1 + layer2_2 on board 0, layer3_2
    // on board 1 — and Auto finds that without being told.
    let engine = Engine::builder(&net)
        .cluster(two_arty())
        .build()
        .expect("two boards carry what one cannot");
    assert_eq!(engine.target(), OffloadTarget::AllOde);
    let plan = engine
        .cluster_plan()
        .expect("cluster engines keep their plan");
    assert_eq!(plan.shards().len(), 2);
    assert_eq!(plan.shards()[0].target, OffloadTarget::Layer1And22);
    assert_eq!(plan.shards()[1].target, OffloadTarget::Layer32);
    // Per-board feasibility is real: each shard fits its own fabric.
    for shard in plan.shards() {
        let bram: f64 = shard.stages.iter().map(|s| s.bram36).sum();
        assert!(
            bram <= ARTY_Z7_20.bram36 as f64,
            "board{}: {bram}",
            shard.board
        );
    }

    // Numerics: sharding changes *where*, never *what*. A single-board
    // hybrid running the same AllOde placement (on a fictitious
    // double-BRAM fabric, since no real XC7Z020 fits it at Q20)
    // computes bit-identical logits.
    let mut big = ARTY_Z7_20;
    big.bram36 *= 2;
    let reference = Engine::builder(&net)
        .board(&big)
        .offload(Offload::Target(OffloadTarget::AllOde))
        .build()
        .expect("the doubled fabric fits all three circuits");
    for seed in 0..3u64 {
        let x = image(seed);
        let a = engine.infer(&x).expect("cluster runs");
        let b = reference.infer(&x).expect("reference runs");
        assert_eq!(
            a.logits.as_slice(),
            b.logits.as_slice(),
            "seed {seed}: sharded logits must be bit-identical"
        );
        // Timing differs only by the modelled interconnect hand-offs.
        assert!((a.total_seconds() - b.total_seconds() - plan.transfer_seconds()).abs() < 1e-12);
        assert_eq!(a.dma_words, b.dma_words);
    }
}

/// The pinned throughput claim: pipelining a batch of 32 through the
/// two-board chain beats the additive schedule by at least 1.3×.
#[test]
fn pipelined_batch32_beats_sequential_by_1_3x() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(10);
    let net = Network::new(spec, 7);
    let sequential = Engine::builder(&net)
        .cluster(two_arty())
        .schedule(Schedule::Sequential)
        .build()
        .expect("builds");
    let pipelined = Engine::builder(&net)
        .cluster(two_arty())
        .schedule(Schedule::Pipelined)
        .build()
        .expect("builds");

    let xs: Vec<Tensor<f32>> = (0..32).map(image).collect();
    let (runs_seq, seq) = sequential
        .infer_batch_summary(&xs)
        .expect("sequential batch");
    let (runs_pipe, pipe) = pipelined.infer_batch_summary(&xs).expect("pipelined batch");

    // Same per-image reports — the schedule reorders, never recomputes.
    for (a, b) in runs_seq.iter().zip(&runs_pipe) {
        assert_eq!(a.logits.as_slice(), b.logits.as_slice());
    }
    assert_eq!(seq.images, 32);
    assert_eq!(pipe.images, 32);
    // Sequential wall-clock is the additive fold; pipelined is the
    // event-driven makespan.
    assert_eq!(seq.wall_seconds, seq.total_seconds());
    assert!(pipe.wall_seconds < seq.wall_seconds);
    let ratio = pipe.throughput() / seq.throughput();
    assert!(ratio >= 1.3, "pipelined/sequential throughput = {ratio:.3}");
    // And the plan predicts the same gain without running an image.
    let plan = pipelined.cluster_plan().unwrap();
    assert!((plan.pipeline_speedup(32) - ratio).abs() < 0.05);
    // Latency percentiles make the two schedules comparable: queueing
    // stretches pipelined per-image latency even as throughput rises.
    assert!(pipe.latency_p50 >= seq.latency_p50 - 1e-12);
    assert!(pipe.latency_max >= pipe.latency_p50);
}

/// A reduced-width cluster: at Q16 one Arty already fits AllOde, so the
/// second board adds nothing to the placement — but pipelining still
/// overlaps the PS with the PL stages.
#[test]
fn sixteen_bit_cluster_needs_only_one_board() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(10);
    let net = Network::new(spec, 5);
    let engine = Engine::builder(&net)
        .cluster(two_arty())
        .precision(PlFormat::Q16 { frac: 10 })
        .build()
        .expect("16-bit builds");
    let plan = engine.cluster_plan().unwrap();
    assert_eq!(plan.target(), OffloadTarget::AllOde);
    assert_eq!(plan.shards().len(), 1, "one board carries all three at Q16");
    assert_eq!(plan.transfer_seconds(), 0.0, "no inter-board hand-off");
}

/// The partitioner acceptance scenario (ISSUE 4): on a 2-board rack of
/// XC7Z020 fabrics (PYNQ-Z2 head + Arty Z7-20) at the footnote-2
/// 16-bit width, first-fit crams all three ODE circuits onto the head
/// board — they just fit — and leaves the second fabric idle, so the
/// pipelined ceiling is one board's busy time. `BalancedMakespan`
/// splits the stages across the rack; pinned: ≥ 1.15× batch-32
/// pipelined throughput (actually ≈ 1.5×), with logits bit-identical
/// between the partitioners — the search changes *where*, never *what*.
#[test]
fn balanced_partitioner_beats_first_fit_by_1_15x_on_two_board_rack() {
    let spec = NetSpec::new(Variant::OdeNet, 56).with_classes(10);
    let net = Network::new(spec, 11);
    let rack = || Cluster::new(vec![PYNQ_Z2, ARTY_Z7_20], Interconnect::GIGABIT_ETHERNET);
    let build = |partitioner: Partitioner| {
        Engine::builder(&net)
            .cluster(rack())
            .precision(PlFormat::Q16 { frac: 10 })
            .schedule(Schedule::Pipelined)
            .partitioner(partitioner)
            .build()
            .expect("AllOde fits the rack at Q16")
    };
    let first_fit = build(Partitioner::FirstFit);
    let balanced = build(Partitioner::BalancedMakespan);

    // Same resolved placement, different assignment: first-fit leaves
    // board 1 idle, the balanced search puts both fabrics to work.
    assert_eq!(first_fit.target(), OffloadTarget::AllOde);
    assert_eq!(balanced.target(), OffloadTarget::AllOde);
    let ff_plan = first_fit.cluster_plan().expect("keeps its plan");
    let bal_plan = balanced.cluster_plan().expect("keeps its plan");
    assert_eq!(ff_plan.shards().len(), 1, "first-fit crams the head");
    assert_eq!(ff_plan.shards()[0].board, 0);
    assert_eq!(bal_plan.shards().len(), 2, "balanced uses both boards");
    assert!(
        bal_plan.bottleneck_seconds() < 0.75 * ff_plan.bottleneck_seconds(),
        "bottleneck {} vs {}",
        bal_plan.bottleneck_seconds(),
        ff_plan.bottleneck_seconds()
    );

    // The pinned throughput claim, measured through the engines (the
    // modelled timing is input-independent, so thumbnails suffice).
    let xs: Vec<Tensor<f32>> = (0..32)
        .map(|i| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(i);
            Tensor::from_fn(Shape4::new(1, 3, 8, 8), |_, _, _, _| {
                rng.random::<f32>() - 0.5
            })
        })
        .collect();
    let (ff_runs, ff_batch) = first_fit.infer_batch_summary(&xs).expect("batch");
    let (bal_runs, bal_batch) = balanced.infer_batch_summary(&xs).expect("batch");
    let ratio = bal_batch.throughput() / ff_batch.throughput();
    assert!(
        ratio >= 1.15,
        "balanced/first-fit batch-32 pipelined throughput = {ratio:.3}"
    );
    // Identical numerics: partitioning never touches the Q-format math.
    for (a, b) in ff_runs.iter().zip(&bal_runs) {
        assert_eq!(a.logits.as_slice(), b.logits.as_slice(), "bit-identical");
    }
    // The plans predict the same gain without running an image.
    let plan_ratio = ff_plan.batch_seconds(32, Schedule::Pipelined)
        / bal_plan.batch_seconds(32, Schedule::Pipelined);
    assert!((plan_ratio - ratio).abs() < 0.05, "{plan_ratio} vs {ratio}");
}

/// A genuinely heterogeneous rack: XC7Z020 head + the half-size
/// XC7Z010 of an Arty Z7-10. The balanced search places the heavy
/// layer2_2 + layer3_2 pair on the bigger fabric and moves layer1 to
/// the small board — first-fit would have crammed everything onto the
/// head. Plan-level only (zero numerics).
#[test]
fn balanced_puts_heavy_stages_on_the_big_fabric() {
    let spec = NetSpec::new(Variant::OdeNet, 56);
    let rack = Cluster::new(vec![ARTY_Z7_20, ARTY_Z7_10], Interconnect::GIGABIT_ETHERNET);
    let request = |partitioner: Partitioner| ClusterRequest {
        cluster: rack.clone(),
        offload: Offload::Target(OffloadTarget::AllOde),
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q16 { frac: 10 }.into(),
        schedule: Schedule::Pipelined,
        partitioner,
        replication: Replication::None,
    };
    let ff = plan_cluster(&spec, &request(Partitioner::FirstFit)).expect("plans");
    let bal = plan_cluster(&spec, &request(Partitioner::BalancedMakespan)).expect("plans");
    assert_eq!(ff.shards().len(), 1, "first-fit leaves the Z7-10 idle");
    assert_eq!(
        bal.board_of(LayerName::Layer2_2),
        Some(0),
        "heavy → big fabric"
    );
    assert_eq!(
        bal.board_of(LayerName::Layer3_2),
        Some(0),
        "heavy → big fabric"
    );
    assert_eq!(bal.board_of(LayerName::Layer1), Some(1), "light → XC7Z010");
    // The busy breakdown the search optimized is exposed on the plan.
    let busy = bal.resource_busy();
    assert_eq!(busy.len(), 3, "PS + two fabrics carry work: {busy:?}");
    let ratio =
        ff.batch_seconds(32, Schedule::Pipelined) / bal.batch_seconds(32, Schedule::Pipelined);
    assert!(ratio >= 1.15, "heterogeneous batch-32 gain = {ratio:.3}");
}

/// The heterogeneous-rack bit-identity matrix: big fabric first vs
/// second, each under both partitioners, plus a single-big-board
/// reference — sharding and partitioning must never change the logits.
#[test]
fn heterogeneous_rack_order_never_changes_logits() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(10);
    let net = Network::new(spec, 31);
    let q16 = PlFormat::Q16 { frac: 10 };
    let mut big = ARTY_Z7_20;
    big.bram36 *= 2;
    let reference = Engine::builder(&net)
        .board(&big)
        .precision(q16)
        .offload(Offload::Target(OffloadTarget::AllOde))
        .build()
        .expect("reference fits");
    let racks: [Vec<Board>; 2] = [vec![ARTY_Z7_20, ARTY_Z7_10], vec![ARTY_Z7_10, ARTY_Z7_20]];
    for boards in racks {
        for partitioner in [Partitioner::FirstFit, Partitioner::BalancedMakespan] {
            let engine = Engine::builder(&net)
                .cluster(Cluster::new(boards.clone(), Interconnect::GIGABIT_ETHERNET))
                .precision(q16)
                .offload(Offload::Target(OffloadTarget::AllOde))
                .partitioner(partitioner)
                .build()
                .unwrap_or_else(|e| panic!("{partitioner:?} over {boards:?}: {e}"));
            for seed in 0..2u64 {
                let x = image(seed);
                let a = engine.infer(&x).expect("cluster runs");
                let b = reference.infer(&x).expect("reference runs");
                assert_eq!(
                    a.logits.as_slice(),
                    b.logits.as_slice(),
                    "{partitioner:?}, head {}",
                    boards[0].name
                );
            }
        }
    }
}

fn any_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    prop::collection::vec((0usize..4, 0.001f64..0.5, 0.0f64..0.01), 1..8).prop_map(|stages| {
        stages
            .into_iter()
            .map(|(r, seconds, transfer_in)| StageTiming {
                resource: if r == 0 {
                    StageResource::Ps
                } else {
                    StageResource::Pl(r - 1)
                },
                layer: None,
                seconds,
                transfer_in,
                replicas: Vec::new(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler invariants for arbitrary stage pipelines: the
    /// event-driven pipelined makespan never exceeds the additive
    /// schedule and never beats the bottleneck-resource lower bound
    /// (nor the single-image latency).
    #[test]
    fn pipelined_makespan_within_bounds(timeline in any_timeline(), images in 1usize..12) {
        let seq = sequential_makespan(&timeline, images);
        let run = pipelined_schedule(&timeline, images);
        let latency = per_image_seconds(&timeline);
        let lower = (images as f64 * bottleneck_seconds(&timeline)).max(latency);
        prop_assert!(run.makespan <= seq + 1e-9, "{} ≤ {}", run.makespan, seq);
        prop_assert!(run.makespan >= lower - 1e-9, "{} ≥ {}", run.makespan, lower);
        prop_assert_eq!(run.latencies.len(), images);
        for lat in &run.latencies {
            prop_assert!(*lat >= latency - 1e-9, "no image beats its own latency");
            prop_assert!(*lat <= run.makespan + 1e-9);
        }
    }

    /// Sequential makespan is exactly additive in the batch size.
    #[test]
    fn sequential_makespan_is_additive(timeline in any_timeline(), images in 0usize..12) {
        let one = per_image_seconds(&timeline);
        let all = sequential_makespan(&timeline, images);
        prop_assert!((all - images as f64 * one).abs() < 1e-9);
    }

    /// For random heterogeneous 2–3-board clusters, feasible targets,
    /// and either schedule, the balanced search's batch-32 makespan is
    /// never worse than first-fit's: the first-fit assignment is in
    /// the balanced search space, so losing would mean the argmin
    /// skipped a candidate.
    #[test]
    fn balanced_never_worse_than_first_fit(
        caps in prop::collection::vec(30u32..=140u32, 2..=3),
        t_idx in 0usize..8,
        wide in 0usize..2,
        sched in 0usize..2,
    ) {
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let format = if wide == 1 {
            PlFormat::Q20
        } else {
            PlFormat::Q16 { frac: 10 }
        };
        let schedule = if sched == 1 {
            Schedule::Pipelined
        } else {
            Schedule::Sequential
        };
        let boards: Vec<Board> = caps
            .iter()
            .map(|&bram| {
                let mut b = ARTY_Z7_20;
                b.bram36 = bram;
                b
            })
            .collect();
        let target = OffloadTarget::ALL[t_idx];
        let request = |partitioner: Partitioner| ClusterRequest {
            cluster: Cluster::new(boards.clone(), Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Target(target),
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: format.into(),
            schedule,
            partitioner,
            replication: Replication::None,
        };
        if let Ok(ff) = plan_cluster(&spec, &request(Partitioner::FirstFit)) {
            let bal = plan_cluster(&spec, &request(Partitioner::BalancedMakespan))
                .expect("first-fit feasible ⇒ the search space is non-empty");
            prop_assert_eq!(bal.target(), ff.target());
            let ff32 = ff.batch_seconds(32, schedule);
            let bal32 = bal.batch_seconds(32, schedule);
            prop_assert!(
                bal32 <= ff32 + 1e-9,
                "{:?}: balanced {} vs first-fit {}",
                schedule,
                bal32,
                ff32
            );
        }
    }
}
