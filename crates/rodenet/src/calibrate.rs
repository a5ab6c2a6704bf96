//! Activation-range calibration — the zero-training measurement pass
//! behind per-stage fixed-point format selection.
//!
//! The paper's footnote 2 observes that reduced bit widths fit more
//! layers in the PL; *which* reduced format a stage tolerates depends on
//! the dynamic range of everything the stage's circuit touches: the
//! feature map entering the DMA boundary, every intermediate Euler state
//! and `f(z, t)` evaluation while the map is resident in BRAM, and the
//! quantized parameters themselves. [`stage_ranges`] measures exactly
//! that set on a sample batch, per offloadable stage, using the float
//! network as the reference signal (the standard post-training
//! calibration assumption: the quantized trajectory tracks the float one
//! closely enough that the float envelope plus an integer-bit headroom
//! margin covers it).
//!
//! The consumer is `zynq_sim`'s `Precision::Calibrated` policy, which
//! turns each measured envelope into the largest-`frac` executable
//! Q-format with the requested headroom.

use crate::arch::LayerName;
use crate::block::{BnMode, ResBlock};
use crate::model::Network;
use odesolve::{ode_solve, ClosureField, SolveOpts};
use std::cell::RefCell;
use tensor::Tensor;

/// The layers a PL circuit can host (shape-preserving stages), in
/// network order — the rows of a calibration report.
pub const OFFLOADABLE_LAYERS: [LayerName; 3] =
    [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2];

/// The measured dynamic-range envelope of one offloadable stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageRange {
    /// The stage the envelope belongs to.
    pub layer: LayerName,
    /// Largest |value| seen across the stage's inputs, every
    /// intermediate Euler state, and every `f(z, t)` evaluation, over
    /// the whole sample batch.
    pub max_abs_activation: f32,
    /// Largest |parameter| of the stage's block (conv weights and batch
    /// norm scale/shift — everything quantized into the stage format).
    pub max_abs_weight: f32,
    /// Values folded into `max_abs_activation` (envelope sample count).
    pub samples: usize,
}

impl StageRange {
    /// The envelope the stage's Q-format must represent: activations
    /// and parameters share one number system on the circuit.
    pub fn max_abs(&self) -> f32 {
        self.max_abs_activation.max(self.max_abs_weight)
    }

    /// Fold a tensor into the running max-|value| envelope.
    fn fold(&mut self, t: &Tensor<f32>) {
        for &v in t.as_slice() {
            if v.abs() > self.max_abs_activation {
                self.max_abs_activation = v.abs();
            }
        }
        self.samples += t.len();
    }
}

fn weight_max(block: &ResBlock) -> f32 {
    let mut m = 0.0f32;
    let slices: [&[f32]; 6] = [
        block.conv1.w.as_slice(),
        block.conv2.w.as_slice(),
        &block.bn1.gamma,
        &block.bn1.beta,
        &block.bn2.gamma,
        &block.bn2.beta,
    ];
    for s in slices {
        for &v in s {
            m = m.max(v.abs());
        }
    }
    m
}

/// Measure the per-stage activation envelope of `net` over `sample`.
///
/// Runs the float network forward on every sample input through
/// [`Network::walk`] — conv1 with on-the-fly statistics, stages in
/// network order, the chain the deployed engine walks — and for each
/// **offloadable single-instance stage** records the max |value| of the
/// stage input, every Euler step's state, and every `f(z, t)`
/// evaluation — the values the PL number system must represent while
/// the feature map is BRAM-resident. Every other stage (downsample
/// blocks, stacked ResNet stages) only propagates the state through
/// [`crate::model::Stage::forward`]. Returns one [`StageRange`] per
/// offloadable stage present in the architecture, in network order; an
/// empty sample yields an empty report (callers decide whether that is
/// an error).
///
/// `bn` is the **PS-side** statistics mode and applies only to the
/// non-measured stages' propagation. A measured stage is always
/// evaluated with [`BnMode::OnTheFly`] — the float analogue of the PL
/// circuit, which computes its statistics per feature map regardless of
/// how the PS runs — so the envelope reflects what the circuit will
/// actually produce, and its output propagates as the offloaded
/// deployment would hand it downstream. (A measured stage that ends up
/// *not* offloaded simply never uses its chosen format.)
pub fn stage_ranges(net: &Network, sample: &[Tensor<f32>], bn: BnMode) -> Vec<StageRange> {
    let mut ranges: Vec<StageRange> = net
        .stages
        .iter()
        .filter(|s| {
            OFFLOADABLE_LAYERS.contains(&s.name) && s.blocks.len() == 1 && s.plan.total_execs() > 0
        })
        .map(|s| StageRange {
            layer: s.name,
            max_abs_activation: 0.0,
            max_abs_weight: weight_max(&s.blocks[0]),
            samples: 0,
        })
        .collect();

    for x in sample {
        net.walk(x, BnMode::OnTheFly, |stage, z| {
            let Some(r) = ranges.iter_mut().find(|r| r.layer == stage.name) else {
                return stage.forward(z, bn);
            };
            let out = if stage.plan.is_ode {
                // The Euler solve of `ode_forward`, recording each
                // state it steps from and each f evaluation.
                let r = RefCell::new(&mut *r);
                let field = ClosureField::new(|z: &Tensor<f32>, t: f32| {
                    let f = stage.blocks[0].f_eval(z, t, BnMode::OnTheFly);
                    let mut r = r.borrow_mut();
                    r.fold(z);
                    r.fold(&f);
                    f
                });
                ode_solve(&field, z, SolveOpts::euler_unit(stage.plan.execs))
            } else {
                r.fold(z);
                stage.forward(z, BnMode::OnTheFly)
            };
            r.fold(&out);
            out
        });
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{NetSpec, Variant};
    use tensor::Shape4;

    fn image(seed: u64) -> Tensor<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape4::new(1, 3, 16, 16), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        })
    }

    #[test]
    fn reports_one_range_per_offloadable_stage() {
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 3);
        let ranges = stage_ranges(&net, &[image(1), image(2)], BnMode::OnTheFly);
        let layers: Vec<LayerName> = ranges.iter().map(|r| r.layer).collect();
        assert_eq!(layers, OFFLOADABLE_LAYERS.to_vec());
        for r in &ranges {
            assert!(r.max_abs_activation > 0.0, "{:?}", r.layer);
            assert!(r.max_abs_weight > 0.0);
            assert!(r.samples > 0);
            assert!(r.max_abs() >= r.max_abs_activation);
        }
    }

    #[test]
    fn stacked_resnet_stages_are_excluded() {
        let net = Network::new(NetSpec::new(Variant::ResNet, 20).with_classes(5), 4);
        assert!(stage_ranges(&net, &[image(3)], BnMode::OnTheFly).is_empty());
    }

    #[test]
    fn removed_layers_are_excluded() {
        // rODENet-3 keeps layer3_2 as its only ODE stage; layer1 remains
        // as a once-executed plain block (still offloadable-extended and
        // shape-preserving, so it calibrates too), layer2_2 is removed.
        let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(5), 5);
        let layers: Vec<LayerName> = stage_ranges(&net, &[image(4)], BnMode::OnTheFly)
            .iter()
            .map(|r| r.layer)
            .collect();
        assert_eq!(layers, vec![LayerName::Layer1, LayerName::Layer3_2]);
    }

    #[test]
    fn empty_sample_is_an_empty_envelope() {
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 6);
        let ranges = stage_ranges(&net, &[], BnMode::OnTheFly);
        assert_eq!(ranges.len(), 3, "stages still enumerated");
        assert!(ranges.iter().all(|r| r.samples == 0));
        assert!(ranges.iter().all(|r| r.max_abs_activation == 0.0));
    }

    #[test]
    fn measured_stages_use_circuit_statistics_regardless_of_ps_mode() {
        // The PL circuit always computes batch-norm statistics on the
        // fly; a PS-side Running mode must not leak into the measured
        // envelope (it would undershoot what the circuit produces).
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 9);
        let sample = [image(20), image(21)];
        let fly = stage_ranges(&net, &sample, BnMode::OnTheFly);
        let run = stage_ranges(&net, &sample, BnMode::Running);
        // layer1 sits before any PS-resident stage, so its envelope —
        // input from the always-on-the-fly conv1 plus the measured
        // Euler loop — must be identical under both PS modes. (Later
        // stages may legitimately differ: the PS-resident downsample
        // blocks in between propagate with the PS mode.)
        assert_eq!(fly[0].layer, LayerName::Layer1);
        assert_eq!(fly[0], run[0], "the measured stage ignores the PS mode");
    }

    #[test]
    fn envelope_grows_monotonically_with_the_sample() {
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 7);
        let one = stage_ranges(&net, &[image(10)], BnMode::OnTheFly);
        let two = stage_ranges(&net, &[image(10), image(11)], BnMode::OnTheFly);
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.layer, b.layer);
            assert!(b.max_abs_activation >= a.max_abs_activation);
            assert!(b.samples > a.samples);
        }
    }
}
