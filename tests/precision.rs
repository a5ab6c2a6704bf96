//! Acceptance suite for the per-stage precision policy (ISSUE 5).
//!
//! The headline scenarios:
//!
//! * a **mixed-width deployment** — layer1 at the paper's Q20 next to
//!   layer3_2 at Q16 on one PYNQ-Z2, and layer1 at Q16 next to
//!   layer3_2 at Q20 across a heterogeneous rack — plans, validates,
//!   and infers end to end on fabrics where uniform Q20 is infeasible
//!   for the same target, with per-stage BRAM/DSP/DMA reported in the
//!   plan;
//! * `Precision::Calibrated` on a **trained** synthcifar network picks
//!   per-stage `frac` from measured activation ranges, lands within
//!   1 percentage point of uniform Q20 test accuracy, and strictly
//!   reduces total DMA words;
//! * calibrated formats never saturate on the calibration set
//!   (proptest: the measured envelope round-trips within ≤ 1 ULP).

use odenet_suite::prelude::*;
use proptest::prelude::*;
use qfixed::QFormat;
use zynq_sim::{Replication, ARTY_Z7_10, ARTY_Z7_20};

fn image(seed: u64, hw: usize) -> Tensor<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape4::new(1, 3, hw, hw), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    })
}

const Q16_10: PlFormat = PlFormat::Q16 { frac: 10 };

/// Single-board acceptance: layer1 + layer3_2 together are impossible
/// on a PYNQ-Z2 at uniform Q20 (64 + 140 BRAM36 > 140), but putting
/// layer3_2 at Q16 (70 BRAM36) makes the pair fit — and the whole
/// plan/validate/infer pipeline prices each stage at its own width.
#[test]
fn mixed_width_deploys_where_uniform_q20_is_infeasible() {
    let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 404);
    let target = Offload::Target(OffloadTarget::Layer1And32);

    // Uniform Q20 cannot place it…
    let err = Engine::builder(&net)
        .offload(target)
        .build()
        .expect_err("64 + 140 BRAM36 exceed the XC7Z020");
    assert!(matches!(err, EngineError::InfeasiblePlacement { .. }));

    // …the mixed table can.
    let mixed = StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer3_2, Q16_10);
    let engine = Engine::builder(&net)
        .offload(target)
        .precision(Precision::PerStage(mixed))
        .build()
        .expect("layer1@Q20 + layer3_2@Q16 fit one XC7Z020");
    assert_eq!(engine.target(), OffloadTarget::Layer1And32);
    assert_eq!(
        engine.precision().format_of(LayerName::Layer1),
        PlFormat::Q20
    );
    assert_eq!(engine.precision().format_of(LayerName::Layer3_2), Q16_10);

    // The plan reports per-stage format, BRAM, DSP, and DMA.
    let plan = engine.plan().expect("built-in backend keeps its plan");
    assert_eq!(plan.precision().uniform_format(), None);
    let stages = plan.stages();
    assert_eq!(stages.len(), 2);
    let l1 = &stages[0];
    let l32 = &stages[1];
    assert_eq!((l1.layer, l1.format), (LayerName::Layer1, PlFormat::Q20));
    assert_eq!((l32.layer, l32.format), (LayerName::Layer3_2, Q16_10));
    assert_eq!(l1.bram36, 64.0, "layer1 priced at 32-bit");
    assert_eq!(l32.bram36, 70.0, "layer3_2 priced at 16-bit");
    assert!(plan.bram36_used() <= PYNQ_Z2.bram36 as f64);
    assert_eq!(l1.dma_words, 2 * 16 * 1024, "full-width DMA");
    assert_eq!(l32.dma_words, 64 * 64, "half-width DMA");
    // The 16-bit MAC needs 1 DSP tile, the 32-bit one 4.
    assert!(l32.dsp < l1.dsp, "{} < {}", l32.dsp, l1.dsp);

    // End to end: the engine executes each stage in its own format and
    // the cached plan timing matches the executed run exactly.
    let x = image(1, 32);
    let run = engine.infer(&x).expect("mixed inference runs");
    assert_eq!(run.offloaded, vec![LayerName::Layer1, LayerName::Layer3_2]);
    assert!(run.logits.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(run.dma_words, l1.dma_words + l32.dma_words);
    assert!(
        (plan.total_seconds() - run.total_seconds()).abs() < 1e-12,
        "plan {} vs run {}",
        plan.total_seconds(),
        run.total_seconds()
    );
}

/// The ISSUE's rack scenario verbatim: layer1 at Q16 on the half-size
/// XC7Z010 next to layer3_2 at Q20 on the XC7Z020 — a sharding no
/// uniform-Q20 request can realize on this rack (layer1 at Q20 is
/// 64 BRAM36 > the XC7Z010's 60, and nothing shares a fabric with a
/// Q20 layer3_2). Logits stay bit-identical to an unsharded reference
/// with the same per-stage formats.
#[test]
fn rack_places_layer1_at_q16_next_to_layer32_at_q20() {
    let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 405);
    let rack = || Cluster::new(vec![ARTY_Z7_10, ARTY_Z7_20], Interconnect::GIGABIT_ETHERNET);
    let target = Offload::Target(OffloadTarget::Layer1And32);

    // Uniform Q20 cannot shard the pair over this rack at all.
    let err = Engine::builder(&net)
        .cluster(rack())
        .offload(target)
        .build()
        .expect_err("no uniform-Q20 assignment exists");
    assert!(
        matches!(err, EngineError::ShardInfeasible { .. }),
        "{err:?}"
    );

    // Per-stage widths make it work: layer1 shrinks onto the XC7Z010.
    let mixed = StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer1, Q16_10);
    let engine = Engine::builder(&net)
        .cluster(rack())
        .offload(target)
        .precision(Precision::PerStage(mixed))
        .build()
        .expect("layer1@Q16 fits the XC7Z010, layer3_2@Q20 the XC7Z020");
    let plan = engine.cluster_plan().expect("cluster engines keep a plan");
    assert_eq!(plan.board_of(LayerName::Layer1), Some(0), "small fabric");
    assert_eq!(plan.board_of(LayerName::Layer3_2), Some(1), "big fabric");
    // Per-board shards carry per-stage formats and resources.
    for shard in plan.shards() {
        for stage in &shard.stages {
            match stage.layer {
                LayerName::Layer1 => {
                    assert_eq!(stage.format, Q16_10);
                    assert_eq!(stage.bram36, 40.0);
                }
                LayerName::Layer3_2 => {
                    assert_eq!(stage.format, PlFormat::Q20);
                    assert_eq!(stage.bram36, 140.0);
                }
                other => panic!("unexpected sharded stage {other}"),
            }
        }
    }

    // Bit-identity against an unsharded mixed-width reference on a
    // fictitious double-BRAM fabric: sharding moves stages between
    // boards, the per-stage formats decide the numerics.
    let mut big = ARTY_Z7_20;
    big.bram36 *= 2;
    let reference = Engine::builder(&net)
        .board(&big)
        .offload(target)
        .precision(Precision::PerStage(mixed))
        .build()
        .expect("the doubled fabric fits both circuits");
    for seed in 0..2u64 {
        let x = image(seed, 32);
        let a = engine.infer(&x).expect("rack runs");
        let b = reference.infer(&x).expect("reference runs");
        assert_eq!(a.logits.as_slice(), b.logits.as_slice(), "seed {seed}");
        assert_eq!(a.dma_words, b.dma_words);
        assert!((a.total_seconds() - b.total_seconds() - plan.transfer_seconds()).abs() < 1e-12);
    }
}

/// The partitioner prices each stage at its own width: on the same
/// heterogeneous rack, the balanced search must produce a feasible
/// mixed assignment through `ClusterRequest.precision` too (the
/// plan-level path the engine shares).
#[test]
fn balanced_partitioner_handles_mixed_widths() {
    let spec = NetSpec::new(Variant::OdeNet, 20);
    let mixed = StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer1, Q16_10);
    let req = ClusterRequest {
        cluster: Cluster::new(vec![ARTY_Z7_10, ARTY_Z7_20], Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Target(OffloadTarget::Layer1And32),
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: mixed,
        schedule: Schedule::Pipelined,
        partitioner: Partitioner::BalancedMakespan,
        replication: Replication::None,
    };
    let plan = plan_cluster(&spec, &req).expect("the mixed assignment exists");
    assert_eq!(plan.board_of(LayerName::Layer3_2), Some(1), "only fit");
    assert_eq!(plan.precision().format_of(LayerName::Layer1), Q16_10);
    // The infeasibility diagnostics price the stuck layer at ITS width:
    // layer3_2 forced at Q20 onto a rack of two XC7Z010s reports its
    // full 140-BRAM36 demand.
    let err = plan_cluster(
        &spec,
        &ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_10, 2, Interconnect::GIGABIT_ETHERNET),
            ..req
        },
    )
    .expect_err("no XC7Z010 holds a Q20 layer3_2");
    match err {
        EngineError::ShardInfeasible {
            stuck,
            stuck_bram36,
            ..
        } => {
            assert_eq!(stuck, Some(LayerName::Layer3_2));
            assert_eq!(stuck_bram36, 140.0, "priced at the stage's own Q20");
        }
        other => panic!("expected ShardInfeasible, got {other:?}"),
    }
}

/// Satellite: an empty calibration sample is a typed error from the
/// builder (both `plan()` and `build()`), and the per-stage
/// `UnsupportedFormat` Display names the offending stage.
#[test]
fn calibration_and_format_errors_are_typed_and_named() {
    let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 7);
    let empty = || Precision::Calibrated {
        total_bits: 16,
        headroom_bits: 1,
        sample: Vec::new(),
    };
    assert_eq!(
        Engine::builder(&net)
            .precision(empty())
            .plan()
            .expect_err("no sample"),
        EngineError::CalibrationEmpty
    );
    let err = Engine::builder(&net)
        .precision(empty())
        .build()
        .expect_err("no sample");
    assert_eq!(err, EngineError::CalibrationEmpty);
    let _ = err.to_string();

    // A degenerate per-stage override names its stage in the Display.
    let broken =
        StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer2_2, PlFormat::Q16 { frac: 16 });
    let err = Engine::builder(&net)
        .precision(Precision::PerStage(broken))
        .plan()
        .expect_err("degenerate override");
    match &err {
        EngineError::UnsupportedFormat { stage, .. } => {
            assert_eq!(*stage, Some(LayerName::Layer2_2));
        }
        other => panic!("expected UnsupportedFormat, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("layer2_2"), "stage named in Display: {msg}");

    // A per-stage override without a datapath names its stage at build
    // (the others execute fine).
    let analysis_only = StageFormats::uniform(PlFormat::Q20)
        .with(LayerName::Layer1, PlFormat::Custom(QFormat::new(8, 4)));
    let b = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::Layer1And22))
        .precision(Precision::PerStage(analysis_only));
    assert!(b.plan().is_ok(), "analysis-only widths still plan");
    match b.build() {
        Err(EngineError::UnsupportedFormat {
            total_bits: 8,
            stage: Some(LayerName::Layer1),
            ..
        }) => {}
        other => panic!("expected stage-naming build error, got {other:?}"),
    }

    // The whole-network fixed-point backend cannot honor a mixed table.
    let mixed = StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer1, Q16_10);
    let err = Engine::builder(&net)
        .backend(BackendKind::PlBitExact)
        .precision(Precision::PerStage(mixed))
        .build()
        .expect_err("one number system per PlBitExact network");
    assert_eq!(
        err,
        EngineError::MixedPrecisionUnsupported {
            backend: "pl-bit-exact"
        }
    );
}

/// Acceptance: a zero-training calibration pass on a **trained**
/// synthcifar network picks per-stage `frac` from measured activation
/// ranges; the calibrated 16-bit deployment stays within 1 percentage
/// point of uniform Q20 test accuracy while strictly reducing total
/// DMA words (half-width feature maps on every offloaded stage).
#[test]
fn calibrated_16bit_tracks_q20_accuracy_with_fewer_dma_words() {
    // The paper's recommended variant at the paper's 32×32 extent; PS
    // stages run `BnMode::Running` (the deployment-parity mode that
    // sidesteps the §4.3 on-the-fly hazard), the offloaded layer3_2
    // circuit computes its statistics per feature map as the PL always
    // does — identical semantics for both engines under comparison.
    let cfg = SynthConfig {
        classes: 3,
        per_class: 16,
        hw: 32,
        noise: 0.1,
        jitter: 1,
        seed: 61,
    };
    let (train, test) = generate_split(&cfg, 8);
    let spec = NetSpec::new(Variant::ROdeNet3, 20).with_classes(3);
    let mut net = Network::new(spec, 61);
    let mut tc = TrainConfig::quick(4, 12);
    tc.seed = 61;
    let _ = train_epochs(&mut net, &train.images, &train.labels, None, None, tc);

    // The calibration sample: a handful of training inputs, no labels.
    let sample: Vec<Tensor<f32>> = (0..6).map(|i| train.images.item_tensor(i)).collect();
    let q20 = Engine::builder(&net)
        .bn_mode(BnMode::Running)
        .build()
        .expect("uniform Q20 builds");
    let calibrated = Engine::builder(&net)
        .bn_mode(BnMode::Running)
        .precision(Precision::Calibrated {
            total_bits: 16,
            headroom_bits: 1,
            sample,
        })
        .build()
        .expect("calibrated 16-bit builds");
    assert_eq!(q20.target(), OffloadTarget::Layer32);
    assert_eq!(calibrated.target(), OffloadTarget::Layer32);

    // The chosen formats are measured, 16-bit, and executable — picked
    // per stage from the activation envelope, not configured by hand.
    let table = calibrated.precision();
    for layer in [LayerName::Layer1, LayerName::Layer3_2] {
        let q = table.format_of(layer).qformat().expect("valid");
        assert_eq!(q.total_bits, 16, "{layer}");
        assert!([6u32, 8, 10, 12].contains(&q.frac_bits), "{layer}: {q}");
    }

    // Evaluation runs one batched inference per engine (the repo's
    // `evaluate` convention) over the held-out set.
    let batch = {
        let one = test.images.item_tensor(0);
        let s = one.shape();
        Tensor::from_fn(Shape4::new(test.len(), s.c, s.h, s.w), |n, c, h, w| {
            test.images.item_tensor(n).get(0, c, h, w)
        })
    };
    let accuracy = |engine: &Engine| -> (f64, u64) {
        let run = engine.infer(&batch).expect("serves");
        let preds = tensor::softmax::argmax(&run.logits);
        let correct = preds
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p == l)
            .count();
        (correct as f64 / test.len() as f64, run.dma_words)
    };
    let (acc20, dma20) = accuracy(&q20);
    let (acc16, dma16) = accuracy(&calibrated);
    // Half-width feature maps strictly reduce the per-image bus words.
    assert!(
        dma16 < dma20,
        "calibrated DMA {dma16} must be strictly below Q20's {dma20}"
    );
    assert!(
        (acc20 - acc16).abs() <= 0.01 + 1e-9,
        "calibrated accuracy {acc16:.3} within 1pp of Q20's {acc20:.3}"
    );
    // Sanity: the trained model actually learned the task — the pin
    // above is meaningless between two coin-flippers.
    assert!(acc20 > 0.9, "trained accuracy {acc20:.3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: calibrated per-stage formats never saturate on the
    /// calibration set — the measured envelope (the largest activation
    /// the sample produced) round-trips through the chosen `QFormat`
    /// within ≤ 1 ULP, on both sides of zero.
    #[test]
    fn calibrated_formats_never_saturate_on_the_sample(
        seed in 0u64..1000,
        images in 1usize..3,
        headroom in 0u32..3,
        wide in 0usize..2,
    ) {
        let total_bits = if wide == 1 { 32 } else { 16 };
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), seed);
        let sample: Vec<Tensor<f32>> = (0..images as u64).map(|i| image(seed * 31 + i, 16)).collect();
        let policy = Precision::Calibrated {
            total_bits,
            headroom_bits: headroom,
            sample: sample.clone(),
        };
        // A fresh random net can have badly-scaled activations; a
        // resolution failure must be the typed range error, never a
        // silently saturating format.
        let table = match policy.resolve(&net, BnMode::OnTheFly) {
            Ok(t) => t,
            Err(EngineError::CalibrationRange { .. }) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
        };
        let ranges = rodenet::stage_ranges(&net, &sample, BnMode::OnTheFly);
        for r in &ranges {
            let q = table.format_of(r.layer).qformat().expect("chosen formats are valid");
            let ulp = q.resolution();
            for v in [r.max_abs() as f64, -(r.max_abs() as f64)] {
                let err = (q.quantize(v) - v).abs();
                prop_assert!(
                    err <= ulp + 1e-15,
                    "{}: envelope {v} round-trips with error {err} > 1 ULP ({ulp}) in {q}",
                    r.layer
                );
            }
        }
    }
}
