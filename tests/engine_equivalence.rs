//! Equivalence suite for the `Engine` redesign.
//!
//! The engine replaced the free-function `run_hybrid_with` as the
//! deployment path. Its hybrid/software backends must be **bit-identical**
//! to the original execution semantics — same logits, same modelled
//! timing — across every placement × architecture × batch-norm mode.
//!
//! The references below are line-for-line reimplementations of the
//! original per-call loops — the free-function hybrid loop (pre-engine)
//! and the fully-fixed-point backend's own walk — built from the same
//! public primitives, so the original semantics stay pinned after the
//! loops themselves are gone.

use odenet_suite::prelude::*;
use qfixed::Fix16;
use tensor::Scalar;
use zynq_sim::datapath::{dma_words, OdeBlockAccel};

/// The original `run_hybrid_with` semantics, verbatim: PS stages in f32
/// with `ps_bn` statistics, target stages quantized on the fly into `S`
/// and run on the simulated circuit, conv1 always on-the-fly (the
/// deployed pre-processing), per-image timing from the calibrated
/// models.
fn reference_hybrid<S: Scalar>(
    net: &Network,
    x: &Tensor<f32>,
    target: OffloadTarget,
    ps_bn: BnMode,
    ps: &PsModel,
    pl: &PlModel,
    board: &zynq_sim::Board,
) -> (Tensor<f32>, f64, f64, u64) {
    let offloaded: Vec<LayerName> = target.layers().to_vec();
    let mut ps_cycles: u64 =
        ps.block_exec_cycles(LayerName::Conv1, false) + ps.block_exec_cycles(LayerName::Fc, false);
    ps_cycles += ps.runtime_overhead_cycles();
    let mut pl_seconds = 0.0f64;
    let mut dma = 0u64;

    let mut z = net.pre_forward(x);
    for stage in &net.stages {
        if stage.blocks.is_empty() {
            continue;
        }
        let on_pl = offloaded.contains(&stage.name);
        for block in &stage.blocks {
            if on_pl {
                assert_eq!(stage.blocks.len(), 1, "only single-instance stages offload");
                let accel = OdeBlockAccel::new(block, pl.parallelism, board);
                let zq: Tensor<S> = Tensor::from_f32_tensor(&z);
                let execs = if stage.plan.is_ode {
                    stage.plan.execs
                } else {
                    1
                };
                let run = accel.run_stage(&zq, execs);
                dma += dma_words(stage.name, S::BYTES);
                pl_seconds += run.seconds;
                z = run.output.to_f32();
            } else {
                z = if stage.plan.is_ode {
                    block.ode_forward(&z, stage.plan.execs, ps_bn)
                } else {
                    block.residual_forward(&z, ps_bn)
                };
                ps_cycles +=
                    stage.plan.execs as u64 * ps.block_exec_cycles(stage.name, stage.plan.is_ode);
            }
        }
    }
    let logits = net.fc_forward(&z);
    (logits, board.ps_seconds(ps_cycles), pl_seconds, dma)
}

/// The original fully-fixed-point walk (`PlBitExactBackend::infer`),
/// verbatim: the whole network in `S`, offloaded stages timed on the
/// circuit model, the rest on the PS model.
fn reference_bit_exact<S: Scalar>(
    net: &Network,
    x: &Tensor<f32>,
    target: OffloadTarget,
    ps: &PsModel,
    pl: &PlModel,
    board: &zynq_sim::Board,
) -> (Tensor<f32>, f64, f64, u64) {
    let qnet = net.quantize::<S>();
    let offloaded: Vec<LayerName> = target.layers().to_vec();
    let mut ps_cycles: u64 = ps.block_exec_cycles(LayerName::Conv1, false)
        + ps.block_exec_cycles(LayerName::Fc, false)
        + ps.runtime_overhead_cycles();
    let mut pl_seconds = 0.0f64;
    let mut dma = 0u64;

    let mut z: Tensor<S> = Tensor::from_f32_tensor(x);
    z = qnet.pre.forward(&z);
    for stage in &qnet.stages {
        if stage.blocks.is_empty() {
            continue;
        }
        let on_pl = offloaded.contains(&stage.name);
        for block in &stage.blocks {
            z = if stage.plan.is_ode {
                block.ode_forward(&z, stage.plan.execs)
            } else {
                block.residual_forward(&z)
            };
            if on_pl {
                dma += dma_words(stage.name, S::BYTES);
                pl_seconds += pl.stage_seconds(stage.name, stage.plan.execs, board, S::BYTES);
            } else {
                ps_cycles +=
                    stage.plan.execs as u64 * ps.block_exec_cycles(stage.name, stage.plan.is_ode);
            }
        }
    }
    let logits = qnet.fc.forward(&z).to_f32();
    (logits, board.ps_seconds(ps_cycles), pl_seconds, dma)
}

/// Build `target` on the PYNQ-Z2 at `format` under both built-in
/// backends that execute it in `S` — the hybrid walk and the
/// fully-fixed-point network — and check each against its verbatim
/// reference: logits bit for bit, and every timing field bit for bit
/// against the hybrid reference (the cost model is input-independent,
/// so the two backends must report the same time).
fn check_fixed_point_backends<S: Scalar>(
    net: &Network,
    x: &Tensor<f32>,
    target: OffloadTarget,
    format: PlFormat,
) {
    let (ps, pl) = (PsModel::Calibrated, PlModel::default());
    let (h_logits, ps_s, pl_s, dma) =
        reference_hybrid::<S>(net, x, target, BnMode::OnTheFly, &ps, &pl, &PYNQ_Z2);
    let (q_logits, q_ps, q_pl, q_dma) =
        reference_bit_exact::<S>(net, x, target, &ps, &pl, &PYNQ_Z2);
    let variant = net.spec.variant;
    for (backend, want) in [
        (BackendKind::Hybrid, &h_logits),
        (BackendKind::PlBitExact, &q_logits),
    ] {
        if backend == BackendKind::Hybrid && target == OffloadTarget::None {
            continue; // the software path, covered by the matrix itself
        }
        let engine = Engine::builder(net)
            .board(&PYNQ_Z2)
            .offload(Offload::Target(target))
            .precision(Precision::Uniform(format))
            .ps_model(ps)
            .pl_model(pl)
            .backend(backend)
            .build()
            .unwrap_or_else(|e| panic!("{variant}/{target:?}/{backend:?}/{format:?}: {e}"));
        let run = engine.infer(x).expect("valid engine runs");
        let label = format!("{variant}/{target:?}/{backend:?}/{format:?}");
        assert_eq!(run.logits.as_slice(), want.as_slice(), "{label}: logits");
        assert_eq!(run.ps_seconds.to_bits(), ps_s.to_bits(), "{label}: PS time");
        assert_eq!(run.pl_seconds.to_bits(), pl_s.to_bits(), "{label}: PL time");
        assert_eq!(run.dma_words, dma, "{label}: DMA");
        assert_eq!(run.offloaded, target.layers().to_vec(), "{label}");
    }
    // The verbatim bit-exact loop timed itself the same way.
    assert_eq!(
        (q_ps.to_bits(), q_pl.to_bits(), q_dma),
        (ps_s.to_bits(), pl_s.to_bits(), dma)
    );
}

fn image(seed: u64) -> Tensor<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    })
}

/// The acceptance matrix: every placement × {ResNet, rODENet-3, ODENet}
/// × both BN modes. Where the placement is deployable the engine must
/// be bit-identical to the reference; where it is not, the builder must
/// refuse with a typed error (the original code asserted, or — worse —
/// silently under-reported removed layers as offloaded).
#[test]
fn engine_bit_identical_to_legacy_across_matrix() {
    let ps = PsModel::Calibrated;
    let pl = PlModel::default();
    let mut deployable = 0usize;
    let mut rejected = 0usize;
    let mut bit_exact = 0usize;
    for (vi, variant) in [Variant::ResNet, Variant::ROdeNet3, Variant::OdeNet]
        .into_iter()
        .enumerate()
    {
        let spec = NetSpec::new(variant, 20).with_classes(10);
        let net = Network::new(spec, 1000 + vi as u64);
        for target in OffloadTarget::ALL {
            for bn in [BnMode::OnTheFly, BnMode::Running] {
                let engine = Engine::builder(&net)
                    .board(&PYNQ_Z2)
                    .offload(Offload::Target(target))
                    .ps_model(ps)
                    .pl_model(pl)
                    .bn_mode(bn)
                    .build();
                let valid = target.applicable_extended(&spec)
                    && target.fits(&PYNQ_Z2, pl.parallelism, &StageFormats::default());
                match engine {
                    Ok(engine) => {
                        assert!(valid, "{variant}/{target:?} should have been rejected");
                        deployable += 1;
                        let x = image(7 + vi as u64);
                        let run = engine.infer(&x).expect("valid engine runs");
                        let (logits, ps_s, pl_s, dma) =
                            reference_hybrid::<Q20>(&net, &x, target, bn, &ps, &pl, &PYNQ_Z2);
                        assert_eq!(
                            run.logits.as_slice(),
                            logits.as_slice(),
                            "{variant}/{target:?}/{bn:?}: logits must be bit-identical"
                        );
                        assert_eq!(run.ps_seconds, ps_s, "{variant}/{target:?}/{bn:?} PS time");
                        assert_eq!(run.pl_seconds, pl_s, "{variant}/{target:?}/{bn:?} PL time");
                        assert_eq!(run.dma_words, dma, "{variant}/{target:?}/{bn:?} DMA");
                        assert_eq!(run.offloaded, target.layers().to_vec());
                        if bn == BnMode::OnTheFly {
                            check_fixed_point_backends::<Q20>(&net, &x, target, PlFormat::Q20);
                            bit_exact += 1;
                        }
                    }
                    Err(e) => {
                        assert!(
                            !valid,
                            "{variant}/{target:?}/{bn:?}: spurious rejection: {e}"
                        );
                        rejected += 1;
                    }
                }
            }
        }
    }
    // 3 variants × 8 placements × 2 modes = 48 combos; ODENet accepts
    // the five §3.2 placements (the three layer3_2-sharing combos need
    // a reduced word width — infeasible at the default Q20), rODENet-3
    // three (None/Layer1/Layer32), ResNet only None.
    let combos = 3 * OffloadTarget::ALL.len() * 2;
    assert_eq!(combos, 48);
    assert_eq!(deployable, 2 * (5 + 3 + 1), "deployable combos");
    assert_eq!(rejected, combos - deployable, "rejected combos");
    assert_eq!(
        bit_exact,
        deployable / 2,
        "every on-the-fly row ran bit-exact"
    );

    // One reduced-width row: the footnote-2 Q16.10 datapath.
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 1001);
    check_fixed_point_backends::<Fix16<10>>(
        &net,
        &image(8),
        OffloadTarget::Layer32,
        PlFormat::Q16 { frac: 10 },
    );
}

/// The plan's cached Table 5 row is the same timing an actual
/// execution reports — `latency_report()` may be served without
/// running numerics precisely because the model is input-independent.
#[test]
fn latency_report_matches_execution() {
    for (variant, target) in [
        (Variant::ROdeNet3, OffloadTarget::Layer32),
        (Variant::OdeNet, OffloadTarget::Layer1And22),
        (Variant::ResNet, OffloadTarget::None),
    ] {
        let net = Network::new(NetSpec::new(variant, 20).with_classes(10), 77);
        let engine = Engine::builder(&net)
            .offload(Offload::Target(target))
            .build()
            .expect("deployable");
        let cached = engine.latency_report().expect("built-in backend").clone();
        let run = engine.infer(&image(3)).expect("runs");
        assert!(
            (cached.total_w_pl - run.total_seconds()).abs() < 1e-12,
            "{variant}/{target:?}: cached {} vs executed {}",
            cached.total_w_pl,
            run.total_seconds()
        );
        let plan = engine.plan().expect("built-in backend");
        assert_eq!(plan.dma_words(), run.dma_words, "{variant}/{target:?} DMA");
        assert!((plan.pl_seconds() - run.pl_seconds).abs() < 1e-12);
        assert!((plan.ps_seconds() - run.ps_seconds).abs() < 1e-12);
    }
}

/// `infer_batch` returns per-image reports identical to per-image
/// `infer` — batching only amortizes setup, never changes results.
#[test]
fn batch_matches_single_inference() {
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 5);
    let engine = Engine::builder(&net).build().unwrap();
    let xs: Vec<Tensor<f32>> = (0..4).map(|i| image(50 + i)).collect();
    let batch = engine.infer_batch(&xs).unwrap();
    for (x, run) in xs.iter().zip(&batch) {
        let single = engine.infer(x).unwrap();
        assert_eq!(single.logits.as_slice(), run.logits.as_slice());
        assert_eq!(single.total_seconds(), run.total_seconds());
    }
}

/// A one-board `Cluster` is the degenerate sharding: across the same
/// placement × architecture × batch-norm matrix as the legacy
/// equivalence test, the cluster backend must be **bit- and
/// timing-identical** to the hybrid engine on that board — sharding
/// machinery (timeline, hand-off accounting, per-board circuits) must
/// add exactly nothing when there is nothing to shard.
#[test]
fn single_board_cluster_matches_hybrid_across_matrix() {
    let one_board = || Cluster::homogeneous(&PYNQ_Z2, 1, Interconnect::GIGABIT_ETHERNET);
    let mut deployable = 0usize;
    for (vi, variant) in [Variant::ResNet, Variant::ROdeNet3, Variant::OdeNet]
        .into_iter()
        .enumerate()
    {
        let spec = NetSpec::new(variant, 20).with_classes(10);
        let net = Network::new(spec, 3000 + vi as u64);
        for target in OffloadTarget::ALL {
            for bn in [BnMode::OnTheFly, BnMode::Running] {
                let hybrid = Engine::builder(&net)
                    .offload(Offload::Target(target))
                    .bn_mode(bn)
                    .build();
                let cluster = Engine::builder(&net)
                    .cluster(one_board())
                    .offload(Offload::Target(target))
                    .bn_mode(bn)
                    .build();
                match (hybrid, cluster) {
                    (Ok(h), Ok(c)) => {
                        deployable += 1;
                        let x = image(40 + vi as u64);
                        let a = h.infer(&x).expect("hybrid runs");
                        let b = c.infer(&x).expect("cluster runs");
                        assert_eq!(
                            a.logits.as_slice(),
                            b.logits.as_slice(),
                            "{variant}/{target:?}/{bn:?}: logits"
                        );
                        assert_eq!(a.ps_seconds, b.ps_seconds, "{variant}/{target:?} PS");
                        assert_eq!(a.pl_seconds, b.pl_seconds, "{variant}/{target:?} PL");
                        assert_eq!(a.dma_words, b.dma_words, "{variant}/{target:?} DMA");
                        assert_eq!(a.offloaded, b.offloaded);
                        // The sequential batch summary folds identically.
                        let xs = vec![x.clone(), image(41)];
                        let (_, sh) = h.infer_batch_summary(&xs).unwrap();
                        let (_, sc) = c.infer_batch_summary(&xs).unwrap();
                        assert_eq!(sh.wall_seconds, sc.wall_seconds);
                        assert_eq!(sh.latency_p50, sc.latency_p50);
                    }
                    (Err(_), Err(_)) => {}
                    (h, c) => panic!(
                        "{variant}/{target:?}/{bn:?}: hybrid {:?} vs cluster {:?} disagree",
                        h.is_ok(),
                        c.is_ok()
                    ),
                }
            }
        }
    }
    assert_eq!(
        deployable,
        2 * (5 + 3 + 1),
        "same deployable set as the legacy matrix"
    );
}

/// §3.2 / Table 3 at conv_x32: the circuit misses the fabric (and the
/// smaller layers cannot even instantiate 32 units) — the builder must
/// reject every placement at that parallelism instead of asserting.
#[test]
fn parallelism_32_is_infeasible() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(10);
    let net = Network::new(spec, 6);
    for target in [
        OffloadTarget::Layer1,
        OffloadTarget::Layer22,
        OffloadTarget::Layer1And22,
        OffloadTarget::Layer32,
    ] {
        let err = Engine::builder(&net)
            .offload(Offload::Target(target))
            .pl_model(PlModel { parallelism: 32 })
            .build()
            .expect_err("conv_x32 does not deploy");
        assert_eq!(
            err,
            EngineError::InfeasiblePlacement {
                target,
                parallelism: 32
            }
        );
    }
    // The planner-driven engine degrades gracefully to pure software.
    let auto = Engine::builder(&net)
        .offload(Offload::Auto)
        .pl_model(PlModel { parallelism: 32 })
        .build()
        .expect("Auto falls back to software");
    assert_eq!(auto.target(), OffloadTarget::None);
}

/// Builder validation: malformed inputs are typed errors, not panics.
#[test]
fn input_validation_cases() {
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 8);
    let engine = Engine::builder(&net).build().unwrap();
    for bad in [
        Shape4::new(1, 1, 32, 32), // wrong channels
        Shape4::new(1, 3, 2, 32),  // degenerate height
    ] {
        let err = engine
            .infer(&Tensor::<f32>::zeros(bad))
            .expect_err("rejected");
        assert_eq!(err, EngineError::ShapeMismatch { got: bad });
    }
    // A batch with one malformed item fails up front, before any work.
    let xs = vec![image(1), Tensor::<f32>::zeros(Shape4::new(1, 1, 32, 32))];
    assert!(matches!(
        engine.infer_batch(&xs),
        Err(EngineError::ShapeMismatch { .. })
    ));
}
