//! End-to-end system tests: train in float on the PS side, deploy the
//! hot block to the simulated PL, and verify the whole pipeline —
//! functionally (accuracy survives quantized offload) and structurally
//! (timing decomposition, bit-exactness, planner choices).

use odenet_suite::prelude::*;
use qfixed::Q20;
use rodenet::ResBlock;
use zynq_sim::datapath::OdeBlockAccel;

fn train_small(variant: Variant, seed: u64, epochs: usize) -> (Network, cifar_data::Dataset) {
    let cfg = SynthConfig {
        classes: 4,
        per_class: 18,
        hw: 16,
        noise: 0.15,
        jitter: 1,
        seed,
    };
    let (train, test) = generate_split(&cfg, 6);
    let spec = NetSpec::new(variant, 20).with_classes(4);
    let mut net = Network::new(spec, seed);
    let mut tc = TrainConfig::quick(epochs, 12);
    tc.seed = seed;
    let _ = train_epochs(&mut net, &train.images, &train.labels, None, None, tc);
    (net, test)
}

/// The full life cycle: float training → Q20 PL deployment through a
/// reused [`Engine`]. Hybrid predictions must agree with the float
/// model on the vast majority of samples, and both must beat chance.
#[test]
fn train_then_deploy_rodenet3() {
    let (net, test) = train_small(Variant::ROdeNet3, 7, 6);
    let engine = Engine::builder(&net)
        .board(&PYNQ_Z2)
        .offload(Offload::Target(OffloadTarget::Layer32))
        .build()
        .expect("layer3_2 fits the fabric");
    let requests: Vec<Tensor<f32>> = (0..test.len())
        .map(|i| test.images.item_tensor(i))
        .collect();
    let runs = engine.infer_batch(&requests).expect("serving batch");
    let mut agree = 0usize;
    let mut float_hits = 0usize;
    let mut hybrid_hits = 0usize;
    for (i, run) in runs.iter().enumerate() {
        let sw = net.predict(&requests[i], BnMode::OnTheFly)[0];
        let hy = tensor::softmax::argmax(&run.logits)[0];
        agree += usize::from(sw == hy);
        float_hits += usize::from(sw == test.labels[i]);
        hybrid_hits += usize::from(hy == test.labels[i]);
        assert!(run.pl_seconds > 0.0 && run.ps_seconds > 0.0);
        assert_eq!(run.backend, "hybrid");
    }
    let n = test.len() as f32;
    assert!(
        agree as f32 / n > 0.9,
        "float↔hybrid agreement {}",
        agree as f32 / n
    );
    assert!(
        float_hits as f32 / n > 0.4,
        "float accuracy {}",
        float_hits as f32 / n
    );
    assert!(
        (hybrid_hits as f32 - float_hits as f32).abs() / n < 0.2,
        "quantized offload must not collapse accuracy"
    );
}

/// Every variant trains a step and improves its loss with both gradient
/// modes — the full architecture zoo is trainable.
#[test]
fn all_variants_train_one_epoch() {
    let cfg = SynthConfig {
        classes: 3,
        per_class: 8,
        hw: 16,
        noise: 0.25,
        jitter: 1,
        seed: 3,
    };
    let data = generate(&cfg);
    for v in Variant::ALL {
        let spec = NetSpec::new(v, 20).with_classes(3);
        let mut net = Network::new(spec, 5);
        let mut tc = TrainConfig::quick(2, 12);
        tc.grad_mode = if matches!(v, Variant::OdeNet | Variant::ROdeNet1) {
            GradMode::Adjoint
        } else {
            GradMode::Unrolled
        };
        let hist = train_epochs(&mut net, &data.images, &data.labels, None, None, tc);
        assert!(
            hist[1].train_loss < hist[0].train_loss * 1.05,
            "{v}: loss {} -> {}",
            hist[0].train_loss,
            hist[1].train_loss
        );
    }
}

/// The PL accelerator is bit-exact against the Q20 software reference on
/// all three offloadable layers (the §3 design contract).
#[test]
fn accelerator_bit_exact_all_layers() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
        let block = ResBlock::new(&mut rng, layer, true);
        let accel = OdeBlockAccel::new(&block, 16, &PYNQ_Z2);
        let (c, hw) = layer.geometry();
        let x = Tensor::<f32>::from_fn(Shape4::new(1, c, hw, hw), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let run = accel.run_stage(&xq, 3);
        let reference = block.quantize::<Q20>().ode_forward(&xq, 3);
        assert_eq!(run.output.as_slice(), reference.as_slice(), "{layer}");
    }
}

/// Engine timing equals the analytic Table 5 model — execution and model
/// cannot drift apart.
#[test]
fn engine_timing_consistent_with_model() {
    for (v, target) in [
        (Variant::ROdeNet1, OffloadTarget::Layer1),
        (Variant::ROdeNet12, OffloadTarget::Layer1And22),
        (Variant::Hybrid3, OffloadTarget::Layer32),
    ] {
        let net = Network::new(NetSpec::new(v, 20).with_classes(4), 17);
        let x = Tensor::<f32>::zeros(Shape4::new(1, 3, 32, 32));
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        let engine = Engine::builder(&net)
            .board(&PYNQ_Z2)
            .offload(Offload::Target(target))
            .ps_model(ps)
            .pl_model(pl)
            .build()
            .expect("paper placements fit");
        let run = engine.infer(&x).expect("runs");
        let row = zynq_sim::timing::table5_row(
            v,
            20,
            &target,
            &ps,
            &pl,
            &PYNQ_Z2,
            &StageFormats::default(),
        );
        assert!(
            (run.total_seconds() - row.total_w_pl).abs() < 1e-9,
            "{v}: {} vs {}",
            run.total_seconds(),
            row.total_w_pl
        );
    }
}

/// The adjoint and unrolled gradient modes agree more closely at larger
/// N (more solver steps) — the paper's explanation for small-N
/// instability, measured on the real architecture.
#[test]
fn adjoint_gap_shrinks_with_depth() {
    let cfg = SynthConfig {
        classes: 3,
        per_class: 2,
        hw: 16,
        noise: 0.2,
        jitter: 1,
        seed: 19,
    };
    let data = generate(&cfg);
    let cosine = |n: usize| -> f64 {
        let spec = NetSpec::new(Variant::OdeNet, n).with_classes(3);
        let grads = |mode: GradMode| -> Vec<f32> {
            let mut net = Network::new(spec, 23);
            let (logits, cache) = net.forward_train(&data.images, mode);
            let (_, g) = tensor::softmax::cross_entropy(&logits, &data.labels);
            net.zero_grads();
            net.backward(&g, &cache);
            let mut out = Vec::new();
            net.visit_params(&mut |p| out.extend_from_slice(p.g));
            out
        };
        let a = grads(GradMode::Unrolled);
        let b = grads(GradMode::Adjoint);
        let dot: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (*x as f64) * (*y as f64))
            .sum();
        let na: f64 = a.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        dot / (na * nb).max(1e-30)
    };
    let c20 = cosine(20);
    let c44 = cosine(44);
    assert!(c20 > 0.8, "even at N=20 directions correlate: {c20}");
    assert!(
        c44 >= c20 - 0.02,
        "gap must not widen with depth: {c20} -> {c44}"
    );
}

/// CIFAR loader integration: if the real dataset is installed, load a
/// slice and run it through a network (skips silently otherwise).
#[test]
fn real_cifar_if_available() {
    match cifar_data::cifar::load_if_available(64, 32) {
        None => eprintln!("CIFAR-100 binaries not present; skipping"),
        Some((train, test)) => {
            assert_eq!(train.classes, 100);
            let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20), 1);
            let x = test.images.item_tensor(0);
            let logits = net.forward(&x, BnMode::OnTheFly);
            assert_eq!(logits.shape().c, 100);
        }
    }
}
