//! The building blocks: plain residual blocks, downsample blocks, and the
//! time-augmented ODE blocks (Figures 1–2 of the paper).
//!
//! Every block computes the residual function
//!
//! ```text
//! f(z, t) = BN₂(conv₂(ReLU(BN₁(conv₁(z̃)))))        z̃ = [t ∥ z] if ODE
//! ```
//!
//! A **plain** block then outputs `shortcut(x) + f(x)` (one Euler step
//! with h = 1, Equation 1); an **ODE** block hands `f` to the solver and
//! is executed M times (Equation 5). The downsample blocks (layer2_1,
//! layer3_1) use stride-2 first convolutions and the parameter-free
//! option-A shortcut.

use crate::arch::LayerName;
use crate::init::he_conv;
use crate::params::layer_channels;
use odesolve::{ode_solve, ClosureField, SolveOpts};
use rand::Rng;
use tensor::bn::{bn_apply, bn_backward, bn_onthefly, bn_train_forward, BnCache, DEFAULT_EPS};
use tensor::conv::{
    conv2d, conv2d_backward_input, conv2d_backward_weights, conv2d_packed, Conv2dParams,
    ConvWeights,
};
use tensor::ops::{concat_time_channel, relu, relu_backward, split_time_channel_grad};
use tensor::pool::{shortcut_a, shortcut_a_backward};
use tensor::{Scalar, Shape4, Tensor};

/// How batch norm resolves its statistics outside of training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BnMode {
    /// Use the stored running statistics (standard deployment).
    Running,
    /// Compute statistics from the current feature map — the paper's PL
    /// implementation (it instantiates divider and square-root units for
    /// exactly this).
    OnTheFly,
}

/// A convolution with its gradient buffer.
#[derive(Clone, Debug)]
pub struct ConvParam {
    /// Weights `(O, I, 3, 3)`.
    pub w: Tensor<f32>,
    /// Gradient accumulator, same shape.
    pub g: Tensor<f32>,
    /// Stride/padding.
    pub cfg: Conv2dParams,
}

impl ConvParam {
    fn new(rng: &mut impl Rng, shape: Shape4, cfg: Conv2dParams) -> Self {
        ConvParam {
            w: he_conv(rng, shape),
            g: Tensor::zeros(shape),
            cfg,
        }
    }
}

/// A batch-norm parameter set with gradients and running statistics.
#[derive(Clone, Debug)]
pub struct BnParam {
    /// Scale γ (initialized to 1).
    pub gamma: Vec<f32>,
    /// Shift β (initialized to 0).
    pub beta: Vec<f32>,
    /// γ gradient accumulator.
    pub ggamma: Vec<f32>,
    /// β gradient accumulator.
    pub gbeta: Vec<f32>,
    /// Running mean (momentum-averaged during training).
    pub running_mean: Vec<f32>,
    /// Running variance.
    pub running_var: Vec<f32>,
    /// Running-average momentum (0.1 like common frameworks).
    pub momentum: f32,
    /// Numerical-stability ε.
    pub eps: f32,
}

impl BnParam {
    /// Fresh BN parameters for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BnParam {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            ggamma: vec![0.0; channels],
            gbeta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: DEFAULT_EPS,
        }
    }

    /// Batch-statistics forward; `track` also updates running stats.
    pub fn train_forward(&mut self, x: &Tensor<f32>, track: bool) -> (Tensor<f32>, BnCache) {
        let (y, cache) = bn_train_forward(x, &self.gamma, &self.beta, self.eps);
        if track {
            for c in 0..self.gamma.len() {
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * cache.mean[c];
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * cache.var[c];
            }
        }
        (y, cache)
    }

    /// Inference forward with the requested statistics mode.
    pub fn infer_forward(&self, x: &Tensor<f32>, mode: BnMode) -> Tensor<f32> {
        match mode {
            BnMode::Running => bn_apply(
                x,
                &self.gamma,
                &self.beta,
                &self.running_mean,
                &self.running_var,
                self.eps,
            ),
            BnMode::OnTheFly => bn_onthefly(x, &self.gamma, &self.beta, self.eps),
        }
    }
}

/// Cache of one evaluation of the residual function `f`.
#[derive(Clone, Debug)]
pub struct CoreCache {
    zc: Tensor<f32>,
    bn1: BnCache,
    b1: Tensor<f32>,
    rc: Tensor<f32>,
    bn2: BnCache,
}

/// A residual / ODE building block.
#[derive(Clone, Debug)]
pub struct ResBlock {
    /// Which Table 2 layer this block instantiates.
    pub layer: LayerName,
    /// True for ODE blocks (time-augmented convolutions).
    pub time_aug: bool,
    /// Stride of the first convolution (2 for downsample blocks).
    pub stride: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// First convolution.
    pub conv1: ConvParam,
    /// First batch norm.
    pub bn1: BnParam,
    /// Second convolution.
    pub conv2: ConvParam,
    /// Second batch norm.
    pub bn2: BnParam,
}

impl ResBlock {
    /// Create a block for `layer`; `is_ode` selects the time-augmented
    /// form. Downsample layers (layer2_1/layer3_1) get stride 2.
    pub fn new(rng: &mut impl Rng, layer: LayerName, is_ode: bool) -> Self {
        let (cin, cout) = layer_channels(layer);
        let stride = match layer {
            LayerName::Layer2_1 | LayerName::Layer3_1 => 2,
            _ => 1,
        };
        assert!(
            !(is_ode && (stride != 1 || cin != cout)),
            "ODE blocks must preserve shape ({layer:?})"
        );
        let t = usize::from(is_ode);
        let cfg1 = Conv2dParams { stride, pad: 1 };
        let cfg2 = Conv2dParams::same_3x3();
        ResBlock {
            layer,
            time_aug: is_ode,
            stride,
            in_ch: cin,
            out_ch: cout,
            conv1: ConvParam::new(rng, Shape4::new(cout, cin + t, 3, 3), cfg1),
            bn1: BnParam::new(cout),
            conv2: ConvParam::new(rng, Shape4::new(cout, cout + t, 3, 3), cfg2),
            bn2: BnParam::new(cout),
        }
    }

    /// Number of trainable parameters (validates against Table 2).
    pub fn param_count(&self) -> usize {
        self.conv1.w.len() + self.conv2.w.len() + 2 * (self.bn1.gamma.len() + self.bn2.gamma.len())
    }

    /// The residual function `f(z, t)` — inference, no state mutation.
    pub fn f_eval(&self, z: &Tensor<f32>, t: f32, mode: BnMode) -> Tensor<f32> {
        let zc = if self.time_aug {
            concat_time_channel(z, t)
        } else {
            z.clone()
        };
        let c1 = conv2d(&zc, &self.conv1.w, self.conv1.cfg);
        let b1 = self.bn1.infer_forward(&c1, mode);
        let r = relu(&b1);
        let rc = if self.time_aug {
            concat_time_channel(&r, t)
        } else {
            r
        };
        let c2 = conv2d(&rc, &self.conv2.w, self.conv2.cfg);
        self.bn2.infer_forward(&c2, mode)
    }

    /// The residual function with **batch statistics** but no state
    /// mutation — what the solver sees during training-time forward
    /// evaluations (running statistics are tracked separately).
    pub fn f_eval_batch(&self, z: &Tensor<f32>, t: f32) -> Tensor<f32> {
        let zc = if self.time_aug {
            concat_time_channel(z, t)
        } else {
            z.clone()
        };
        let c1 = conv2d(&zc, &self.conv1.w, self.conv1.cfg);
        let (b1, _) = bn_train_forward(&c1, &self.bn1.gamma, &self.bn1.beta, self.bn1.eps);
        let r = relu(&b1);
        let rc = if self.time_aug {
            concat_time_channel(&r, t)
        } else {
            r
        };
        let c2 = conv2d(&rc, &self.conv2.w, self.conv2.cfg);
        let (b2, _) = bn_train_forward(&c2, &self.bn2.gamma, &self.bn2.beta, self.bn2.eps);
        b2
    }

    /// The residual function with batch statistics, returning the cache
    /// needed by [`ResBlock::f_backward`]. `track` updates running stats.
    pub fn f_train(&mut self, z: &Tensor<f32>, t: f32, track: bool) -> (Tensor<f32>, CoreCache) {
        let zc = if self.time_aug {
            concat_time_channel(z, t)
        } else {
            z.clone()
        };
        let c1 = conv2d(&zc, &self.conv1.w, self.conv1.cfg);
        let (b1, bn1) = self.bn1.train_forward(&c1, track);
        let r = relu(&b1);
        let rc = if self.time_aug {
            concat_time_channel(&r, t)
        } else {
            r
        };
        let c2 = conv2d(&rc, &self.conv2.w, self.conv2.cfg);
        let (f, bn2) = self.bn2.train_forward(&c2, track);
        (
            f,
            CoreCache {
                zc,
                bn1,
                b1,
                rc,
                bn2,
            },
        )
    }

    /// Backward through `f`: accumulates `weight ·` parameter gradients
    /// and returns `weight`-free `∂f/∂zᵀ a`.
    pub fn f_backward(&mut self, a: &Tensor<f32>, cache: &CoreCache, weight: f32) -> Tensor<f32> {
        // bn2
        let (gc2, dg2, db2) = bn_backward(a, &cache.bn2, &self.bn2.gamma);
        axpy_vec(&mut self.bn2.ggamma, weight, &dg2);
        axpy_vec(&mut self.bn2.gbeta, weight, &db2);
        // conv2
        let gw2 = conv2d_backward_weights(&gc2, &cache.rc, self.conv2.w.shape(), self.conv2.cfg);
        axpy_tensor(&mut self.conv2.g, weight, &gw2);
        let grc = conv2d_backward_input(&gc2, &self.conv2.w, cache.rc.shape(), self.conv2.cfg);
        let gr = if self.time_aug {
            split_time_channel_grad(&grc)
        } else {
            grc
        };
        // relu
        let grelu = relu_backward(&gr, &cache.b1);
        // bn1
        let (gc1, dg1, db1) = bn_backward(&grelu, &cache.bn1, &self.bn1.gamma);
        axpy_vec(&mut self.bn1.ggamma, weight, &dg1);
        axpy_vec(&mut self.bn1.gbeta, weight, &db1);
        // conv1
        let gw1 = conv2d_backward_weights(&gc1, &cache.zc, self.conv1.w.shape(), self.conv1.cfg);
        axpy_tensor(&mut self.conv1.g, weight, &gw1);
        let gzc = conv2d_backward_input(&gc1, &self.conv1.w, cache.zc.shape(), self.conv1.cfg);
        if self.time_aug {
            split_time_channel_grad(&gzc)
        } else {
            gzc
        }
    }

    /// Plain residual forward (Equation 1): `shortcut(x) + f(x)`.
    pub fn residual_forward(&self, x: &Tensor<f32>, mode: BnMode) -> Tensor<f32> {
        let f = self.f_eval(x, 0.0, mode);
        let shortcut = self.shortcut(x);
        shortcut.zip_map(&f, |s, v| s + v)
    }

    /// Training-mode residual forward with cache.
    pub fn residual_train(&mut self, x: &Tensor<f32>) -> (Tensor<f32>, CoreCache) {
        let (f, cache) = self.f_train(x, 0.0, true);
        let shortcut = self.shortcut(x);
        (shortcut.zip_map(&f, |s, v| s + v), cache)
    }

    /// Backward through the residual forward; returns `∂L/∂x`.
    pub fn residual_backward(
        &mut self,
        gout: &Tensor<f32>,
        cache: &CoreCache,
        x_shape: Shape4,
    ) -> Tensor<f32> {
        let gf = self.f_backward(gout, cache, 1.0);
        let gshort = self.shortcut_backward(gout, x_shape);
        gf.zip_map(&gshort, |a, b| a + b)
    }

    fn shortcut(&self, x: &Tensor<f32>) -> Tensor<f32> {
        if self.stride == 1 && self.in_ch == self.out_ch {
            x.clone()
        } else {
            shortcut_a(x, self.out_ch, self.stride)
        }
    }

    fn shortcut_backward(&self, gout: &Tensor<f32>, x_shape: Shape4) -> Tensor<f32> {
        if self.stride == 1 && self.in_ch == self.out_ch {
            gout.clone()
        } else {
            shortcut_a_backward(gout, x_shape, self.stride)
        }
    }

    /// ODE forward (Equation 5): M Euler steps over `t ∈ [0, 1]`.
    pub fn ode_forward(&self, z: &Tensor<f32>, steps: usize, mode: BnMode) -> Tensor<f32> {
        assert!(self.time_aug, "ode_forward requires an ODE block");
        let field = ClosureField::new(|z: &Tensor<f32>, t: f32| self.f_eval(z, t, mode));
        ode_solve(&field, z, SolveOpts::euler_unit(steps))
    }

    /// Zero every gradient accumulator.
    pub fn zero_grads(&mut self) {
        self.conv1.g.as_mut_slice().fill(0.0);
        self.conv2.g.as_mut_slice().fill(0.0);
        self.bn1.ggamma.fill(0.0);
        self.bn1.gbeta.fill(0.0);
        self.bn2.ggamma.fill(0.0);
        self.bn2.gbeta.fill(0.0);
    }

    /// Quantize the block into scalar type `S` for the PL datapath.
    pub fn quantize<S: Scalar>(&self) -> QuantBlock<S> {
        let qv = |v: &[f32]| -> Vec<S> { v.iter().map(|&x| S::from_f32(x)).collect() };
        QuantBlock {
            layer: self.layer,
            time_aug: self.time_aug,
            stride: self.stride,
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            w1: ConvWeights::new(Tensor::from_f32_tensor(&self.conv1.w), self.conv1.cfg),
            gamma1: qv(&self.bn1.gamma),
            beta1: qv(&self.bn1.beta),
            w2: ConvWeights::new(Tensor::from_f32_tensor(&self.conv2.w), self.conv2.cfg),
            gamma2: qv(&self.bn2.gamma),
            beta2: qv(&self.bn2.beta),
            eps: S::from_f32(self.bn1.eps),
        }
    }
}

fn axpy_vec(acc: &mut [f32], s: f32, v: &[f32]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a += s * b;
    }
}

fn axpy_tensor(acc: &mut Tensor<f32>, s: f32, v: &Tensor<f32>) {
    for (a, b) in acc.as_mut_slice().iter_mut().zip(v.as_slice()) {
        *a += s * b;
    }
}

/// A block quantized into a fixed-point scalar type — the weights and
/// parameters exactly as the PL BRAM holds them. Forward-only; batch
/// norm always runs in the on-the-fly mode, as the circuit does.
#[derive(Clone, Debug)]
pub struct QuantBlock<S: Scalar> {
    /// Source layer.
    pub layer: LayerName,
    /// Time augmentation flag.
    pub time_aug: bool,
    /// First-conv stride.
    pub stride: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Quantized conv1 weights, packed once for the fixed-point conv at
    /// conv1's stride/pad.
    pub w1: ConvWeights<S>,
    /// Quantized BN1 γ.
    pub gamma1: Vec<S>,
    /// Quantized BN1 β.
    pub beta1: Vec<S>,
    /// Quantized conv2 weights, packed once for the fixed-point conv at
    /// conv2's stride/pad.
    pub w2: ConvWeights<S>,
    /// Quantized BN2 γ.
    pub gamma2: Vec<S>,
    /// Quantized BN2 β.
    pub beta2: Vec<S>,
    /// Quantized ε.
    pub eps: S,
}

impl<S: Scalar> QuantBlock<S> {
    /// The residual function in the quantized datapath.
    pub fn f_eval(&self, z: &Tensor<S>, t: S) -> Tensor<S> {
        let zc = if self.time_aug {
            concat_time_channel(z, t)
        } else {
            z.clone()
        };
        let c1 = conv2d_packed(&zc, &self.w1);
        let b1 = bn_onthefly(&c1, &self.gamma1, &self.beta1, self.eps);
        let r = relu(&b1);
        let rc = if self.time_aug {
            concat_time_channel(&r, t)
        } else {
            r
        };
        let c2 = conv2d_packed(&rc, &self.w2);
        bn_onthefly(&c2, &self.gamma2, &self.beta2, self.eps)
    }

    /// Plain residual forward in the quantized datapath.
    pub fn residual_forward(&self, x: &Tensor<S>) -> Tensor<S> {
        let f = self.f_eval(x, S::ZERO);
        let shortcut = if self.stride == 1 && self.in_ch == self.out_ch {
            x.clone()
        } else {
            shortcut_a(x, self.out_ch, self.stride)
        };
        shortcut.zip_map(&f, |s, v| s.add(v))
    }

    /// M Euler steps over `t ∈ [0, 1]` in the quantized datapath.
    pub fn ode_forward(&self, z: &Tensor<S>, steps: usize) -> Tensor<S> {
        assert!(self.time_aug, "ode_forward requires an ODE block");
        let h = S::from_f32(1.0 / steps as f32);
        let mut z = z.clone();
        for i in 0..steps {
            // Own loop: `S::from_f32(i / steps)` rounds unlike `ode_solve`'s `h·i`.
            let t = S::from_f32(i as f32 / steps as f32);
            let f = self.f_eval(&z, t);
            z = z.zip_map(&f, |a, b| a.add(h.mul(b)));
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfixed::Q20;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    fn input(shape: Shape4, seed: u64) -> Tensor<f32> {
        let mut r = StdRng::seed_from_u64(seed);
        Tensor::from_fn(shape, |_, _, _, _| (r.random::<f64>() as f32 - 0.5) * 2.0)
    }

    #[test]
    fn param_counts_match_table2() {
        let mut r = rng();
        // ODE blocks.
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer1, true).param_count(),
            4_960
        );
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer2_2, true).param_count(),
            19_136
        );
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer3_2, true).param_count(),
            75_136
        );
        // Plain blocks.
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer1, false).param_count(),
            4_672
        );
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer2_1, false).param_count(),
            13_952
        );
        assert_eq!(
            ResBlock::new(&mut r, LayerName::Layer3_1, false).param_count(),
            55_552
        );
    }

    #[test]
    fn shapes_preserved_by_ode_block() {
        let block = ResBlock::new(&mut rng(), LayerName::Layer1, true);
        let x = input(Shape4::new(2, 16, 8, 8), 1);
        let y = block.ode_forward(&x, 3, BnMode::OnTheFly);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn downsample_block_halves_and_widens() {
        let block = ResBlock::new(&mut rng(), LayerName::Layer2_1, false);
        let x = input(Shape4::new(1, 16, 32, 32), 2);
        let y = block.residual_forward(&x, BnMode::OnTheFly);
        assert_eq!(y.shape(), Shape4::new(1, 32, 16, 16));
    }

    #[test]
    fn residual_block_is_input_plus_f() {
        let mut block = ResBlock::new(&mut rng(), LayerName::Layer1, false);
        let x = input(Shape4::new(1, 16, 8, 8), 3);
        let (y, _) = block.residual_train(&x);
        let f = block.f_train(&x, 0.0, false).0;
        let diff = y.zip_map(&x, |a, b| a - b);
        assert!(diff.max_abs_diff(&f) < 1e-5);
    }

    #[test]
    fn ode_one_step_equals_residual_semantics() {
        // With 1 step, h = 1: z + f(z, 0) — identical to a residual block
        // built from the same parameters.
        let block = ResBlock::new(&mut rng(), LayerName::Layer1, true);
        let x = input(Shape4::new(1, 16, 8, 8), 4);
        let y = block.ode_forward(&x, 1, BnMode::OnTheFly);
        let f = block.f_eval(&x, 0.0, BnMode::OnTheFly);
        let manual = x.zip_map(&f, |a, b| a + b);
        assert!(y.max_abs_diff(&manual) < 1e-6);
        // Any step count: bit for bit the explicit Euler loop, t = i·h.
        let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for steps in [1usize, 2, 3, 7, 24] {
            for mode in [BnMode::OnTheFly, BnMode::Running] {
                let h = 1.0 / steps as f32;
                let mut z = x.clone();
                for i in 0..steps {
                    let f = block.f_eval(&z, i as f32 * h, mode);
                    z = z.zip_map(&f, |a, b| a + h * b);
                }
                let y = block.ode_forward(&x, steps, mode);
                assert_eq!(bits(&y), bits(&z), "{steps} steps, {mode:?}");
            }
        }
    }

    #[test]
    fn f_backward_matches_finite_differences() {
        let mut block = ResBlock::new(&mut rng(), LayerName::Layer1, true);
        let x = input(Shape4::new(1, 16, 4, 4), 5);
        let r = input(Shape4::new(1, 16, 4, 4), 6); // loss = <f, r>
        let loss = |b: &mut ResBlock, x: &Tensor<f32>| -> f32 {
            let (f, _) = b.f_train(x, 0.25, false);
            f.as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(a, c)| a * c)
                .sum()
        };
        let (_, cache) = block.f_train(&x, 0.25, false);
        block.zero_grads();
        let gx = block.f_backward(&r, &cache, 1.0);
        // Input gradient.
        let eps = 1e-2f32;
        for probe in [0usize, 33, 101, 255] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (loss(&mut block, &xp) - loss(&mut block, &xm)) / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "gx[{probe}] {ana} vs {num}"
            );
        }
        // A weight gradient.
        for probe in [0usize, 77] {
            let orig = block.conv1.w.as_slice()[probe];
            block.conv1.w.as_mut_slice()[probe] = orig + eps;
            let fp = loss(&mut block, &x);
            block.conv1.w.as_mut_slice()[probe] = orig - eps;
            let fm = loss(&mut block, &x);
            block.conv1.w.as_mut_slice()[probe] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = block.conv1.g.as_slice()[probe];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "gw[{probe}] {ana} vs {num}"
            );
        }
        // γ gradient.
        let orig = block.bn2.gamma[3];
        block.bn2.gamma[3] = orig + eps;
        let fp = loss(&mut block, &x);
        block.bn2.gamma[3] = orig - eps;
        let fm = loss(&mut block, &x);
        block.bn2.gamma[3] = orig;
        let num = (fp - fm) / (2.0 * eps);
        assert!((num - block.bn2.ggamma[3]).abs() < 0.02 * (1.0 + num.abs()));
    }

    #[test]
    fn residual_backward_includes_shortcut() {
        let mut block = ResBlock::new(&mut rng(), LayerName::Layer1, false);
        let x = input(Shape4::new(1, 16, 4, 4), 7);
        let (_, cache) = block.residual_train(&x);
        block.zero_grads();
        let gout = Tensor::full(x.shape(), 1.0);
        let gx = block.residual_backward(&gout, &cache, x.shape());
        // The identity shortcut guarantees gradient magnitude ≥ ~1 on
        // average — the vanishing-gradient mitigation of Section 2.1.
        let mean_abs: f32 = gx.as_slice().iter().map(|v| v.abs()).sum::<f32>() / gx.len() as f32;
        assert!(mean_abs > 0.5, "short-circuited gradient flows: {mean_abs}");
    }

    #[test]
    fn weight_scales_param_grads() {
        let mut block = ResBlock::new(&mut rng(), LayerName::Layer1, true);
        let x = input(Shape4::new(1, 16, 4, 4), 8);
        let a = input(Shape4::new(1, 16, 4, 4), 9);
        let (_, cache) = block.f_train(&x, 0.5, false);
        block.zero_grads();
        let _ = block.f_backward(&a, &cache, 1.0);
        let g1 = block.conv2.g.clone();
        block.zero_grads();
        let _ = block.f_backward(&a, &cache, 0.25);
        let scaled = block.conv2.g.clone();
        for (a, b) in g1.as_slice().iter().zip(scaled.as_slice()) {
            assert!((a * 0.25 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn running_stats_update_only_when_tracking() {
        let mut block = ResBlock::new(&mut rng(), LayerName::Layer1, false);
        let x = input(Shape4::new(2, 16, 4, 4), 10);
        let before = block.bn1.running_mean.clone();
        let _ = block.f_train(&x, 0.0, false);
        assert_eq!(block.bn1.running_mean, before, "track=false leaves stats");
        let _ = block.f_train(&x, 0.0, true);
        assert_ne!(block.bn1.running_mean, before, "track=true updates stats");
    }

    #[test]
    fn quantized_block_tracks_float_onthefly() {
        let block = ResBlock::new(&mut rng(), LayerName::Layer1, true);
        let x = input(Shape4::new(1, 16, 8, 8), 11);
        let yf = block.f_eval(&x, 0.5, BnMode::OnTheFly);
        let qb: QuantBlock<Q20> = block.quantize();
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let yq = qb.f_eval(&xq, Q20::from_f32(0.5));
        // Q20 resolution is ~1e-6; BN divisions amplify noise but the
        // output must stay within a tight band of the float path.
        assert!(
            yf.max_abs_diff(&yq.to_f32()) < 0.02,
            "{}",
            yf.max_abs_diff(&yq.to_f32())
        );
    }

    #[test]
    fn quantized_ode_forward_runs() {
        let block = ResBlock::new(&mut rng(), LayerName::Layer3_2, true);
        let x = input(Shape4::new(1, 64, 8, 8), 12);
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let qb: QuantBlock<Q20> = block.quantize();
        let yq = qb.ode_forward(&xq, 2);
        let yf = block.ode_forward(&x, 2, BnMode::OnTheFly);
        assert_eq!(yq.shape(), x.shape());
        assert!(yf.max_abs_diff(&yq.to_f32()) < 0.05);
    }

    #[test]
    #[should_panic(expected = "ODE blocks must preserve shape")]
    fn ode_downsample_rejected() {
        let _ = ResBlock::new(&mut rng(), LayerName::Layer2_1, true);
    }
}
