//! The paper's footnote-2 future work, end to end: a 16-bit PL datapath.
//!
//! "Although we used 32-bit fixed-point numbers, using reduced bit widths
//! (e.g., 16-bit or less) can implement more layers in PL part."
//!
//! These tests exercise the full reduced-width pipeline: quantize blocks
//! to `Fix16`, run the generic kernels, bound the divergence, and verify
//! the BRAM claim with the width-parametric resource model.

use odenet_suite::prelude::*;
use qfixed::{Fix, Fix16};
use rodenet::ResBlock;
use zynq_sim::resources::bram36_at_width;

fn block_and_input(layer: LayerName, seed: u64) -> (ResBlock, Tensor<f32>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let block = ResBlock::new(&mut rng, layer, true);
    let (c, _) = layer.geometry();
    let x = Tensor::<f32>::from_fn(Shape4::new(1, c, 8, 8), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    });
    (block, x)
}

/// A Q6.10 (16-bit) block evaluation stays usably close to float —
/// coarser than Q20, but structured like it.
#[test]
fn sixteen_bit_block_tracks_float() {
    let (block, x) = block_and_input(LayerName::Layer1, 31);
    let yf = block.f_eval(&x, 0.5, BnMode::OnTheFly);
    let q: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&x);
    let y16 = block
        .quantize::<Fix16<10>>()
        .f_eval(&q, Fix16::<10>::from_f32(0.5));
    let d16 = yf.max_abs_diff(&y16.to_f32());
    // A freshly-initialized block has channels with tiny variance whose
    // BN 1/σ amplifies the ~1e-3 Q10 weight noise; a few units of
    // divergence on the worst element is the real cost of the format.
    assert!(d16 < 5.0, "16-bit divergence bounded: {d16}");
    // And strictly worse than the 32-bit Q20 path on the same input.
    let q20: Tensor<Fix<20>> = Tensor::from_f32_tensor(&x);
    let y20 = block
        .quantize::<Fix<20>>()
        .f_eval(&q20, Fix::<20>::from_f32(0.5));
    let d20 = yf.max_abs_diff(&y20.to_f32());
    assert!(d20 < d16, "Q20 ({d20}) beats Q6.10 ({d16})");
}

/// Multi-step ODE integration in 16-bit accumulates more error but does
/// not blow up.
#[test]
fn sixteen_bit_ode_forward_stable() {
    let (block, x) = block_and_input(LayerName::Layer1, 37);
    let yf = block.ode_forward(&x, 4, BnMode::OnTheFly);
    let q: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&x);
    let y16 = block.quantize::<Fix16<10>>().ode_forward(&q, 4);
    let diff = yf.max_abs_diff(&y16.to_f32());
    assert!(diff < 10.0, "4-step 16-bit drift bounded: {diff}");
    assert!(y16.to_f32().as_slice().iter().all(|v| v.is_finite()));
}

/// The BRAM claim: at 16-bit, layer3_2 frees enough BRAM that *more
/// layers* fit — exactly the paper's stated motivation.
#[test]
fn sixteen_bit_frees_bram_for_more_layers() {
    // 32-bit: layer3_2 alone exhausts the device (Table 3: 100 %).
    let full32 = bram36_at_width(LayerName::Layer3_2, 16, 4);
    assert_eq!(full32, 140.0);
    // 16-bit: layer3_2 + layer2_2 + layer1 all fit together.
    let total16: f64 = [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2]
        .iter()
        .map(|&l| bram36_at_width(l, 16, 2))
        .sum();
    assert!(
        total16 <= PYNQ_Z2.bram36 as f64,
        "all three ODE layers at 16-bit: {total16} BRAM36 ≤ 140"
    );
}

/// 8-bit is even smaller but the quantization error grows accordingly
/// (monotone width/accuracy trade-off at the format level).
#[test]
fn width_error_monotone() {
    let (block, x) = block_and_input(LayerName::Layer1, 41);
    let yf = block.f_eval(&x, 0.25, BnMode::OnTheFly);
    let err = |d: &Tensor<f32>| yf.max_abs_diff(d);
    let e20 = {
        let q: Tensor<Fix<20>> = Tensor::from_f32_tensor(&x);
        err(&block
            .quantize::<Fix<20>>()
            .f_eval(&q, Fix::<20>::from_f32(0.25))
            .to_f32())
    };
    let e12 = {
        let q: Tensor<Fix<12>> = Tensor::from_f32_tensor(&x);
        err(&block
            .quantize::<Fix<12>>()
            .f_eval(&q, Fix::<12>::from_f32(0.25))
            .to_f32())
    };
    let e10_16 = {
        let q: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&x);
        err(&block
            .quantize::<Fix16<10>>()
            .f_eval(&q, Fix16::<10>::from_f32(0.25))
            .to_f32())
    };
    assert!(e20 <= e12, "Q20 {e20} ≤ Q12 {e12}");
    assert!(
        e12 <= e10_16 * 4.0,
        "32-bit Q12 roughly tracks 16-bit Q10 ({e12} vs {e10_16})"
    );
}

/// The acceptance case for the precision-polymorphic engine: at
/// `PlFormat::Q16`, `Offload::Auto` deploys a placement that is
/// *infeasible* at the paper's Q20 on the PYNQ-Z2 (anything sharing
/// the fabric with layer3_2) and runs it end to end — footnote 2's
/// "more layers in PL part" through the public API.
#[test]
fn sixteen_bit_auto_deploys_placement_infeasible_at_q20() {
    // ODENet keeps all three shape-preserving layers as single-instance
    // ODE blocks, so the width is the only thing gating the placement.
    let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 99);
    let engine = Engine::builder(&net)
        .precision(PlFormat::Q16 { frac: 10 })
        .offload(Offload::Auto)
        .build()
        .expect("16-bit deployment builds");
    let target = engine.target();
    assert_eq!(target, OffloadTarget::AllOde, "planner exploits the width");
    assert!(
        !target.fits(&PYNQ_Z2, 16, &StageFormats::default()),
        "the same placement must NOT fit the board at 32-bit Q20"
    );
    assert!(
        target.fits(&PYNQ_Z2, 16, &PlFormat::Q16 { frac: 10 }.into()),
        "and must fit at 16-bit"
    );
    // The identical request at the default Q20 cannot reach it: Auto
    // falls back to a §3.2 placement, and asking for it explicitly is
    // a typed error.
    let q20 = Engine::builder(&net)
        .offload(Offload::Auto)
        .build()
        .unwrap();
    assert_eq!(q20.target(), OffloadTarget::Layer1And22);
    let err = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::AllOde))
        .build()
        .expect_err("AllOde at Q20 is infeasible");
    assert!(matches!(err, EngineError::InfeasiblePlacement { .. }));

    // End to end: plan timing is served without numerics and matches
    // the executed run; logits stay finite at the reduced width.
    let plan = engine.plan().expect("built-in backend");
    assert_eq!(plan.stages().len(), 3);
    assert!(plan.bram36_used() <= PYNQ_Z2.bram36 as f64);
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(12);
    let x = Tensor::<f32>::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    });
    let run = engine.infer(&x).expect("16-bit inference runs");
    assert_eq!(
        run.offloaded,
        vec![LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2]
    );
    assert!(run.logits.as_slice().iter().all(|v| v.is_finite()));
    assert!(
        (plan.total_seconds() - run.total_seconds()).abs() < 1e-12,
        "cached plan latency {} equals executed {}",
        plan.total_seconds(),
        run.total_seconds()
    );
    // Offloading all three stages at 16-bit beats the best Q20 config.
    let q20_run = q20.infer(&x).expect("Q20 inference");
    assert!(
        run.total_seconds() < q20_run.total_seconds(),
        "16-bit AllOde ({}) faster than Q20 Layer1And22 ({})",
        run.total_seconds(),
        q20_run.total_seconds()
    );
}

/// End to end: a trained network deployed at 16-bit keeps most of its
/// prediction agreement with the float model.
#[test]
fn sixteen_bit_deployment_agreement() {
    let cfg = SynthConfig {
        classes: 3,
        per_class: 12,
        hw: 16,
        noise: 0.15,
        jitter: 1,
        seed: 53,
    };
    let (train, test) = generate_split(&cfg, 6);
    let spec = NetSpec::new(Variant::Hybrid3, 20).with_classes(3);
    let mut net = Network::new(spec, 53);
    let tc = TrainConfig::quick(3, 12);
    let _ = train_epochs(&mut net, &train.images, &train.labels, None, None, tc);
    // Replace the ODE stage with its 16-bit quantized twin at inference.
    let block16 =
        net.stage(LayerName::Layer3_2).expect("layer3_2").blocks[0].quantize::<Fix16<10>>();
    let mut agree = 0usize;
    for i in 0..test.len() {
        let x = test.images.item_tensor(i);
        let float_pred = net.predict(&x, BnMode::OnTheFly)[0];
        // Manual hybrid: run stages up to layer3_2 in f32, the ODE stage
        // in Fix16, and the head in f32.
        let mut z = net.pre_forward(&x);
        for stage in &net.stages {
            if stage.blocks.is_empty() {
                continue;
            }
            if stage.name == LayerName::Layer3_2 {
                let zq: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&z);
                z = block16.ode_forward(&zq, stage.plan.execs).to_f32();
            } else {
                for block in &stage.blocks {
                    z = if stage.plan.is_ode {
                        block.ode_forward(&z, stage.plan.execs, BnMode::OnTheFly)
                    } else {
                        block.residual_forward(&z, BnMode::OnTheFly)
                    };
                }
            }
        }
        let logits = net.fc_forward(&z);
        let q_pred = tensor::softmax::argmax(&logits)[0];
        agree += usize::from(q_pred == float_pred);
    }
    let rate = agree as f32 / test.len() as f32;
    assert!(rate > 0.7, "16-bit deployment agreement {rate}");
}
