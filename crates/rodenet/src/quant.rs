//! Whole-network quantization — the deployment artifact behind the
//! `zynq-sim` engine's fully-fixed-point backend.
//!
//! [`crate::QuantBlock`] has always provided the *per-block* Q-format
//! datapath (what one ODEBlock circuit computes). [`QuantNetwork`]
//! extends that to the whole pipeline: conv1, every residual stage, and
//! the classification head, all in one scalar type `S`, with the same
//! hardware semantics (wide-accumulate convolutions, on-the-fly batch
//! norm — the circuit has no running statistics to consult).
//!
//! Built once via [`crate::Network::quantize`]; forward-only.

use crate::arch::{LayerName, LayerPlan, NetSpec};
use crate::block::QuantBlock;
use tensor::bn::bn_onthefly;
use tensor::conv::{conv2d_packed, ConvWeights};
use tensor::linear::fc_forward_s;
use tensor::ops::relu;
use tensor::pool::global_avg_pool;
use tensor::{Scalar, Tensor};

/// conv1 (3×3 conv + BN + ReLU) in the quantized number system.
#[derive(Clone, Debug)]
pub struct QuantPre<S: Scalar> {
    /// Quantized convolution weights `(16, 3, 3, 3)`, packed once for
    /// the fixed-point conv at its stride/padding.
    pub w: ConvWeights<S>,
    /// Quantized BN scale.
    pub gamma: Vec<S>,
    /// Quantized BN shift.
    pub beta: Vec<S>,
    /// Quantized BN ε.
    pub eps: S,
}

impl<S: Scalar> QuantPre<S> {
    /// conv1 forward (on-the-fly statistics, as the PL computes them).
    pub fn forward(&self, x: &Tensor<S>) -> Tensor<S> {
        let c = conv2d_packed(x, &self.w);
        relu(&bn_onthefly(&c, &self.gamma, &self.beta, self.eps))
    }
}

/// One residual stage: the quantized block instances plus the plan that
/// drives them.
#[derive(Clone, Debug)]
pub struct QuantStage<S: Scalar> {
    /// Which Table 2 layer.
    pub name: LayerName,
    /// Stack size / execution count / ODE flag.
    pub plan: LayerPlan,
    /// Quantized block instances (empty when the variant removed the
    /// layer).
    pub blocks: Vec<QuantBlock<S>>,
}

impl<S: Scalar> QuantStage<S> {
    /// Run the stage's blocks in order on `z` — the quantized
    /// counterpart of [`crate::model::Stage::forward`].
    pub fn forward(&self, z: &Tensor<S>) -> Tensor<S> {
        self.blocks.iter().fold(z.clone(), |z, block| {
            if self.plan.is_ode {
                block.ode_forward(&z, self.plan.execs)
            } else {
                block.residual_forward(&z)
            }
        })
    }
}

/// The classification head in the quantized number system.
#[derive(Clone, Debug)]
pub struct QuantFc<S: Scalar> {
    /// Quantized weights, `(out, in)` row major.
    pub w: Vec<S>,
    /// Quantized biases.
    pub b: Vec<S>,
    /// Output classes.
    pub out_features: usize,
}

impl<S: Scalar> QuantFc<S> {
    /// Global average pool + affine head.
    pub fn forward(&self, z: &Tensor<S>) -> Tensor<S> {
        fc_forward_s(&global_avg_pool(z), &self.w, &self.b, self.out_features)
    }
}

/// A whole network quantized into scalar type `S` — forward-only, every
/// stage in the PL's number system.
#[derive(Clone, Debug)]
pub struct QuantNetwork<S: Scalar> {
    /// The architecture this network realizes.
    pub spec: NetSpec,
    /// Quantized conv1.
    pub pre: QuantPre<S>,
    /// Quantized residual stages in execution order.
    pub stages: Vec<QuantStage<S>>,
    /// Quantized classification head.
    pub fc: QuantFc<S>,
}

impl<S: Scalar> QuantNetwork<S> {
    /// Full quantized inference to logits.
    pub fn forward(&self, x: &Tensor<S>) -> Tensor<S> {
        let z = self
            .stages
            .iter()
            .filter(|s| !s.blocks.is_empty())
            .fold(self.pre.forward(x), |z, stage| stage.forward(&z));
        self.fc.forward(&z)
    }

    /// Storage bytes per value in this network's number system (4 for
    /// the paper's Q20, 2 for the footnote-2 16-bit formats).
    pub fn bytes_per_value(&self) -> usize {
        S::BYTES
    }

    /// Total storage bytes of the quantized parameters — the size of
    /// the deployment artifact at this width. Halving the word halves
    /// this, which is exactly the BRAM headroom the reduced-width
    /// placements spend.
    pub fn param_bytes(&self) -> usize {
        let mut values = self.pre.w.raw().len() + self.pre.gamma.len() + self.pre.beta.len();
        for stage in &self.stages {
            for b in &stage.blocks {
                values += b.w1.raw().len()
                    + b.w2.raw().len()
                    + b.gamma1.len()
                    + b.beta1.len()
                    + b.gamma2.len()
                    + b.beta2.len();
            }
        }
        values += self.fc.w.len() + self.fc.b.len();
        values * S::BYTES
    }
}

#[cfg(test)]
mod tests {
    use crate::arch::{NetSpec, Variant};
    use crate::block::BnMode;
    use crate::model::Network;
    use qfixed::Q20;
    use tensor::{Shape4, Tensor};

    fn image(seed: u64) -> Tensor<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape4::new(1, 3, 16, 16), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        })
    }

    #[test]
    fn quant_network_tracks_float_network() {
        for v in [Variant::ROdeNet3, Variant::ResNet, Variant::OdeNet] {
            let net = Network::new(NetSpec::new(v, 20).with_classes(6), 33);
            let qnet = net.quantize::<Q20>();
            let x = image(40);
            let logits_f = net.forward(&x, BnMode::OnTheFly);
            let logits_q = qnet.forward(&Tensor::<Q20>::from_f32_tensor(&x)).to_f32();
            assert_eq!(logits_q.shape(), logits_f.shape(), "{v}");
            let d = logits_f.max_abs_diff(&logits_q);
            assert!(d < 0.25, "{v}: full-Q20 logits drift {d}");
        }
    }

    #[test]
    fn quantize_preserves_structure() {
        let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 1);
        let q = net.quantize::<Q20>();
        assert_eq!(q.spec, net.spec);
        assert_eq!(q.stages.len(), net.stages.len());
        for (qs, fs) in q.stages.iter().zip(&net.stages) {
            assert_eq!(qs.name, fs.name);
            assert_eq!(qs.plan, fs.plan);
            assert_eq!(qs.blocks.len(), fs.blocks.len());
        }
        assert_eq!(q.fc.out_features, 10);
    }

    #[test]
    fn reduced_width_halves_param_bytes() {
        use qfixed::Fix16;
        let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 2);
        let q32 = net.quantize::<Q20>();
        let q16 = net.quantize::<Fix16<10>>();
        assert_eq!(q32.bytes_per_value(), 4);
        assert_eq!(q16.bytes_per_value(), 2);
        assert_eq!(q32.param_bytes(), 2 * q16.param_bytes());
    }

    #[test]
    fn quant_forward_is_deterministic() {
        let net = Network::new(NetSpec::new(Variant::Hybrid3, 20).with_classes(4), 9);
        let q = net.quantize::<Q20>();
        let xq = Tensor::<Q20>::from_f32_tensor(&image(7));
        assert_eq!(q.forward(&xq).as_slice(), q.forward(&xq).as_slice());
    }
}
