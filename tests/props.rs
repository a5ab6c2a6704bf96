//! Cross-crate property tests: invariants that must hold for *any*
//! block, placement, or format — not just the paper's grid points.

use odenet_suite::prelude::*;
use proptest::prelude::*;
use qfixed::Q20;
use rodenet::ResBlock;
use zynq_sim::datapath::{block_exec_cycles, stage_cycles, OdeBlockAccel};
use zynq_sim::planner::feasible_targets;
use zynq_sim::timing::table5_row;

fn any_layer() -> impl Strategy<Value = LayerName> {
    prop::sample::select(vec![
        LayerName::Layer1,
        LayerName::Layer2_2,
        LayerName::Layer3_2,
    ])
}

fn any_variant() -> impl Strategy<Value = Variant> {
    prop::sample::select(Variant::ALL.to_vec())
}

fn any_depth() -> impl Strategy<Value = usize> {
    prop::sample::select(PAPER_DEPTHS.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulated accelerator is bit-exact with the Q20 software
    /// reference for any seed, layer, and step count.
    #[test]
    fn accel_always_bit_exact(seed in 0u64..1000, layer in any_layer(), steps in 1usize..4) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let block = ResBlock::new(&mut rng, layer, true);
        let accel = OdeBlockAccel::new(&block, 16, &PYNQ_Z2);
        let (c, hw) = layer.geometry();
        // Shrink the spatial extent for speed; the datapath is size-generic.
        let hw = hw.min(8);
        let x = Tensor::<f32>::from_fn(Shape4::new(1, c, hw, hw), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let run = accel.run_stage(&xq, steps);
        let reference = block.quantize::<Q20>().ode_forward(&xq, steps);
        prop_assert_eq!(run.output.as_slice(), reference.as_slice());
    }

    /// More multiply–add units never cost more cycles; fewer never cost
    /// fewer (monotone cycle model).
    #[test]
    fn cycles_monotone_in_parallelism(layer in any_layer(), n in 1usize..32) {
        let (c, _) = layer.geometry();
        let n = n.min(c - 1);
        let a = block_exec_cycles(layer, n);
        let b = block_exec_cycles(layer, n + 1);
        prop_assert!(b <= a, "conv_x{} {a} vs conv_x{} {b}", n, n + 1);
    }

    /// Stage cycles scale affinely in the execution count (BRAM-resident
    /// feature maps: DMA paid once).
    #[test]
    fn stage_cycles_affine(layer in any_layer(), e in 1usize..20) {
        let one = stage_cycles(layer, 16, 1, 4);
        let many = stage_cycles(layer, 16, e, 4);
        let per = block_exec_cycles(layer, 16);
        prop_assert_eq!(many, one + (e as u64 - 1) * per);
    }

    /// Every feasible placement actually fits; `None` is always feasible.
    #[test]
    fn feasible_targets_fit(parallelism in 1usize..16) {
        let q20 = StageFormats::default();
        let targets = feasible_targets(&PYNQ_Z2, parallelism, &q20);
        prop_assert!(targets.contains(&OffloadTarget::None));
        for t in targets {
            prop_assert!(t.fits(&PYNQ_Z2, parallelism, &q20));
        }
    }

    /// Table 5 rows are internally consistent for any variant/depth:
    /// ratios in (0, 100], totals positive, offloaded time not larger
    /// than software time, speedup coherent with the two totals.
    #[test]
    fn table5_row_invariants(v in any_variant(), n in any_depth()) {
        let row = table5_row(
            v, n,
            &OffloadTarget::paper_default(v),
            &PsModel::Calibrated,
            &PlModel::default(),
            &PYNQ_Z2,
            &StageFormats::default(),
        );
        prop_assert!(row.total_wo_pl > 0.0);
        prop_assert!(row.total_w_pl > 0.0);
        prop_assert!(row.total_w_pl <= row.total_wo_pl + 1e-12);
        for (wo, w) in row.targets_wo_pl.iter().zip(&row.targets_w_pl) {
            prop_assert!(w < wo, "PL must beat PS on the offloaded stage");
        }
        for r in &row.ratio_pct {
            prop_assert!(*r > 0.0 && *r <= 100.0);
        }
        let expect = row.total_wo_pl / row.total_w_pl;
        prop_assert!((row.speedup - expect).abs() < 1e-9);
    }

    /// Quantizing a block to a wider fixed-point format never increases
    /// the output divergence from float (on the same input).
    #[test]
    fn wider_formats_diverge_less(seed in 0u64..200) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use qfixed::Fix;
        let mut rng = StdRng::seed_from_u64(seed);
        let block = ResBlock::new(&mut rng, LayerName::Layer1, true);
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 16, 8, 8), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let yf = block.f_eval(&x, 0.5, BnMode::OnTheFly);
        let d20 = {
            let q: Tensor<Fix<20>> = Tensor::from_f32_tensor(&x);
            let y = block.quantize::<Fix<20>>().f_eval(&q, Fix::<20>::from_f32(0.5));
            yf.max_abs_diff(&y.to_f32())
        };
        let d12 = {
            let q: Tensor<Fix<12>> = Tensor::from_f32_tensor(&x);
            let y = block.quantize::<Fix<12>>().f_eval(&q, Fix::<12>::from_f32(0.5));
            yf.max_abs_diff(&y.to_f32())
        };
        // Q20 has 256× finer resolution than Q12: allow generous slack
        // but insist on the ordering.
        prop_assert!(d20 <= d12 * 1.5 + 1e-6, "Q20 {d20} vs Q12 {d12}");
        prop_assert!(d20 < 0.05, "Q20 divergence bounded: {d20}");
    }

    /// The network forward pass is deterministic and batch-consistent:
    /// running two images in one batch equals running them separately
    /// (inference has no cross-batch coupling in OnTheFly mode).
    #[test]
    fn batch_consistency(seed in 0u64..100) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(4), seed);
        let batch = Tensor::<f32>::from_fn(Shape4::new(2, 3, 16, 16), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let joint = net.forward(&batch, BnMode::OnTheFly);
        for i in 0..2 {
            let solo = net.forward(&batch.item_tensor(i), BnMode::OnTheFly);
            for (a, b) in joint.item(i).iter().zip(solo.item(0)) {
                prop_assert!((a - b).abs() < 1e-5, "batch item {i}: {a} vs {b}");
            }
        }
    }

    /// SynthCIFAR class parameters are stable under the seed and distinct
    /// across classes.
    #[test]
    fn synth_classes_distinct(seed in 0u64..500) {
        use cifar_data::synth::class_params;
        let a = class_params(0, seed);
        let b = class_params(1, seed);
        let dist = (a.theta - b.theta).abs()
            + (a.freq - b.freq).abs()
            + (a.blob.0 - b.blob.0).abs();
        prop_assert!(dist > 1e-3, "classes 0/1 collapse under seed {seed}");
    }
}
