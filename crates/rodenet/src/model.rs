//! The full network: conv1 → layer1 → layer2_1 → layer2_2 → layer3_1 →
//! layer3_2 → fc, assembled from a [`NetSpec`] (Figure 1 / Figure 2).

use crate::arch::{LayerName, LayerPlan, NetSpec};
use crate::block::{BnMode, BnParam, ConvParam, CoreCache, ResBlock};
use crate::init::{he_conv, uniform_fc};
use odesolve::adjoint::adjoint_backward;
use odesolve::{OdeField, OdeVjp, SolveOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::bn::BnCache;
use tensor::conv::{conv2d, conv2d_backward_weights, Conv2dParams};
use tensor::linear::{fc_backward, fc_forward};
use tensor::ops::{relu, relu_backward};
use tensor::pool::{global_avg_pool, global_avg_pool_backward};
use tensor::{Shape4, Tensor};

/// How gradients flow through ODE blocks during training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradMode {
    /// Exact discretize-then-optimize backprop through the stored Euler
    /// trajectory (`O(M)` memory).
    Unrolled,
    /// The paper's adjoint method (Equation 9): backward recomputation,
    /// `O(1)` memory, O(h) gradient error.
    Adjoint,
}

/// A mutable view of one parameter group for the optimizer.
pub struct ParamSlice<'a> {
    /// The weights.
    pub w: &'a mut [f32],
    /// Their accumulated gradients.
    pub g: &'a mut [f32],
    /// Whether L2 weight decay applies (convolution/FC weights yes,
    /// batch-norm scale/shift and biases no).
    pub decay: bool,
}

/// The conv1 pre-processing layer: 3×3 conv (3→16), BN, ReLU.
#[derive(Clone, Debug)]
pub struct PreLayer {
    conv: ConvParam,
    bn: BnParam,
}

/// Cache for the pre-layer backward pass.
#[derive(Clone, Debug)]
pub struct PreCache {
    x: Tensor<f32>,
    bn: BnCache,
    b: Tensor<f32>,
}

impl PreLayer {
    fn new(rng: &mut StdRng) -> Self {
        PreLayer {
            conv: ConvParam {
                w: he_conv(rng, Shape4::new(16, 3, 3, 3)),
                g: Tensor::zeros(Shape4::new(16, 3, 3, 3)),
                cfg: Conv2dParams::same_3x3(),
            },
            bn: BnParam::new(16),
        }
    }

    fn forward(&self, x: &Tensor<f32>, mode: BnMode) -> Tensor<f32> {
        let c = conv2d(x, &self.conv.w, self.conv.cfg);
        relu(&self.bn.infer_forward(&c, mode))
    }

    fn forward_train(&mut self, x: &Tensor<f32>) -> (Tensor<f32>, PreCache) {
        let c = conv2d(x, &self.conv.w, self.conv.cfg);
        let (b, bn) = self.bn.train_forward(&c, true);
        (
            relu(&b),
            PreCache {
                x: x.clone(),
                bn,
                b,
            },
        )
    }

    /// Running statistics of the pre-layer BN (mean, var).
    pub fn bn_running(&self) -> (&[f32], &[f32]) {
        (&self.bn.running_mean, &self.bn.running_var)
    }

    /// Mutable running statistics of the pre-layer BN.
    pub fn bn_running_mut(&mut self) -> (&mut Vec<f32>, &mut Vec<f32>) {
        (&mut self.bn.running_mean, &mut self.bn.running_var)
    }

    fn backward(&mut self, gout: &Tensor<f32>, cache: &PreCache) {
        let gb = relu_backward(gout, &cache.b);
        let (gc, dg, db) = tensor::bn::bn_backward(&gb, &cache.bn, &self.bn.gamma);
        for (a, v) in self.bn.ggamma.iter_mut().zip(&dg) {
            *a += v;
        }
        for (a, v) in self.bn.gbeta.iter_mut().zip(&db) {
            *a += v;
        }
        let gw = conv2d_backward_weights(&gc, &cache.x, self.conv.w.shape(), self.conv.cfg);
        for (a, v) in self.conv.g.as_mut_slice().iter_mut().zip(gw.as_slice()) {
            *a += v;
        }
        // Input gradient unused (x is the image).
    }
}

/// The fc post-processing layer: global average pool → 100-way affine.
#[derive(Clone, Debug)]
pub struct FcLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

/// Cache for the fc backward pass.
#[derive(Clone, Debug)]
pub struct FcCache {
    feat_shape: Shape4,
    pooled: Tensor<f32>,
}

impl FcLayer {
    fn new(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        FcLayer {
            w: uniform_fc(rng, out_features, in_features),
            b: vec![0.0; out_features],
            gw: vec![0.0; out_features * in_features],
            gb: vec![0.0; out_features],
            in_features,
            out_features,
        }
    }

    fn forward(&self, x: &Tensor<f32>) -> Tensor<f32> {
        let pooled = global_avg_pool(x);
        fc_forward(&pooled, &self.w, &self.b, self.out_features)
    }

    fn forward_train(&mut self, x: &Tensor<f32>) -> (Tensor<f32>, FcCache) {
        let pooled = global_avg_pool(x);
        let logits = fc_forward(&pooled, &self.w, &self.b, self.out_features);
        (
            logits,
            FcCache {
                feat_shape: x.shape(),
                pooled,
            },
        )
    }

    fn backward(&mut self, glogits: &Tensor<f32>, cache: &FcCache) -> Tensor<f32> {
        debug_assert_eq!(cache.pooled.shape().item(), self.in_features);
        let (gpooled, gw, gb) = fc_backward(glogits, &cache.pooled, &self.w);
        for (a, v) in self.gw.iter_mut().zip(&gw) {
            *a += v;
        }
        for (a, v) in self.gb.iter_mut().zip(&gb) {
            *a += v;
        }
        global_avg_pool_backward(&gpooled, cache.feat_shape)
    }
}

/// One of the five residual stages.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Which Table 2 layer.
    pub name: LayerName,
    /// The Table 4 plan realized by this stage.
    pub plan: LayerPlan,
    /// Block instances (1 for ODE stages, the stack for ResNet stages;
    /// empty when the variant removes the layer).
    pub blocks: Vec<ResBlock>,
}

impl Stage {
    /// Run the stage's blocks in order on `z`: each ODE instance takes
    /// its `execs` Euler steps, each plain instance one residual step.
    pub fn forward(&self, z: &Tensor<f32>, mode: BnMode) -> Tensor<f32> {
        self.blocks.iter().fold(z.clone(), |z, block| {
            if self.plan.is_ode {
                block.ode_forward(&z, self.plan.execs, mode)
            } else {
                block.residual_forward(&z, mode)
            }
        })
    }
}

/// Per-block training trace.
#[allow(clippy::large_enum_variant)] // Plain's cache is the common case
enum BlockTrace {
    Plain {
        x_shape: Shape4,
        cache: CoreCache,
    },
    OdeUnrolled {
        traj: Vec<Tensor<f32>>,
        caches: Vec<CoreCache>,
    },
    OdeAdjoint {
        z1: Tensor<f32>,
    },
}

/// Everything the backward pass needs from one forward pass.
pub struct NetCache {
    pre: PreCache,
    traces: Vec<Vec<BlockTrace>>,
    fc: FcCache,
}

/// Adapter implementing the solver-facing dynamics traits for one block.
struct BlockField<'a> {
    block: &'a mut ResBlock,
}

impl OdeField<f32> for BlockField<'_> {
    fn eval(&self, z: &Tensor<f32>, t: f32) -> Tensor<f32> {
        self.block.f_eval_batch(z, t)
    }
}

impl OdeVjp for BlockField<'_> {
    fn vjp(&mut self, z: &Tensor<f32>, t: f32, a: &Tensor<f32>, weight: f32) -> Tensor<f32> {
        let (_, cache) = self.block.f_train(z, t, false);
        self.block.f_backward(a, &cache, weight)
    }
}

/// The assembled network.
pub struct Network {
    /// The architecture this network realizes.
    pub spec: NetSpec,
    /// conv1.
    pub pre: PreLayer,
    /// layer1 … layer3_2 in execution order.
    pub stages: Vec<Stage>,
    /// fc.
    pub fc: FcLayer,
}

impl Network {
    /// Build and initialize a network for `spec` with a deterministic seed.
    pub fn new(spec: NetSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pre = PreLayer::new(&mut rng);
        let stage_names = [
            LayerName::Layer1,
            LayerName::Layer2_1,
            LayerName::Layer2_2,
            LayerName::Layer3_1,
            LayerName::Layer3_2,
        ];
        let stages = stage_names
            .iter()
            .map(|&name| {
                let plan = spec.plan(name);
                let blocks = (0..plan.stacked)
                    .map(|_| ResBlock::new(&mut rng, name, plan.is_ode))
                    .collect();
                Stage { name, plan, blocks }
            })
            .collect();
        let fc = FcLayer::new(&mut rng, 64, spec.classes);
        Network {
            spec,
            pre,
            stages,
            fc,
        }
    }

    /// Total trainable parameters (matches [`crate::params::spec_params`]).
    pub fn param_count(&self) -> usize {
        let mut total = self.pre.conv.w.len() + 2 * self.pre.bn.gamma.len();
        for stage in &self.stages {
            for block in &stage.blocks {
                total += block.param_count();
            }
        }
        total + self.fc.w.len() + self.fc.b.len()
    }

    /// Inference forward pass to logits.
    pub fn forward(&self, x: &Tensor<f32>, mode: BnMode) -> Tensor<f32> {
        self.walk(x, mode, |stage, z| stage.forward(z, mode))
    }

    /// The inference chain every executor shares: conv1 with `pre_bn`
    /// statistics, then `stage` applied to each residual stage the
    /// variant keeps (stages without blocks are skipped), in network
    /// order, then fc. `stage` decides where and in which number system
    /// each stage runs; [`Network::forward`] runs them all in `f32`.
    ///
    /// The `zynq-sim` engine backends and the calibration pass walk
    /// with `pre_bn = `[`BnMode::OnTheFly`]: the deployed conv1
    /// computes its statistics on the device, whatever mode the
    /// PS-resident stages use. A `Running` engine therefore differs
    /// from `forward(x, BnMode::Running)` at conv1.
    pub fn walk(
        &self,
        x: &Tensor<f32>,
        pre_bn: BnMode,
        mut stage: impl FnMut(&Stage, &Tensor<f32>) -> Tensor<f32>,
    ) -> Tensor<f32> {
        let z = self
            .stages
            .iter()
            .filter(|s| !s.blocks.is_empty())
            .fold(self.pre.forward(x, pre_bn), |z, s| stage(s, &z));
        self.fc.forward(&z)
    }

    /// Class predictions.
    pub fn predict(&self, x: &Tensor<f32>, mode: BnMode) -> Vec<usize> {
        tensor::softmax::argmax(&self.forward(x, mode))
    }

    /// Training forward pass: batch-stat BN everywhere, caches for
    /// backward, running statistics updated.
    pub fn forward_train(
        &mut self,
        x: &Tensor<f32>,
        grad_mode: GradMode,
    ) -> (Tensor<f32>, NetCache) {
        let (mut z, pre_cache) = self.pre.forward_train(x);
        let mut traces: Vec<Vec<BlockTrace>> = Vec::with_capacity(self.stages.len());
        for stage in &mut self.stages {
            let mut stage_traces = Vec::with_capacity(stage.blocks.len());
            for block in &mut stage.blocks {
                if stage.plan.is_ode {
                    let steps = stage.plan.execs;
                    let h = 1.0 / steps as f32;
                    match grad_mode {
                        GradMode::Unrolled => {
                            let mut traj = Vec::with_capacity(steps + 1);
                            let mut caches = Vec::with_capacity(steps);
                            traj.push(z.clone());
                            for i in 0..steps {
                                let t = i as f32 * h;
                                let (f, cache) = block.f_train(&z, t, true);
                                z = z.zip_map(&f, |a, b| a + h * b);
                                traj.push(z.clone());
                                caches.push(cache);
                            }
                            stage_traces.push(BlockTrace::OdeUnrolled { traj, caches });
                        }
                        GradMode::Adjoint => {
                            for i in 0..steps {
                                let t = i as f32 * h;
                                let (f, _) = block.f_train(&z, t, true);
                                z = z.zip_map(&f, |a, b| a + h * b);
                            }
                            stage_traces.push(BlockTrace::OdeAdjoint { z1: z.clone() });
                        }
                    }
                } else {
                    let x_shape = z.shape();
                    let (y, cache) = block.residual_train(&z);
                    z = y;
                    stage_traces.push(BlockTrace::Plain { x_shape, cache });
                }
            }
            traces.push(stage_traces);
        }
        let (logits, fc_cache) = self.fc.forward_train(&z);
        (
            logits,
            NetCache {
                pre: pre_cache,
                traces,
                fc: fc_cache,
            },
        )
    }

    /// Backward pass from the logits gradient; accumulates parameter
    /// gradients throughout the network.
    pub fn backward(&mut self, glogits: &Tensor<f32>, cache: &NetCache) {
        let mut a = self.fc.backward(glogits, &cache.fc);
        for (stage, stage_traces) in self.stages.iter_mut().zip(&cache.traces).rev() {
            for (block, trace) in stage.blocks.iter_mut().zip(stage_traces).rev() {
                a = match trace {
                    BlockTrace::Plain { x_shape, cache } => {
                        block.residual_backward(&a, cache, *x_shape)
                    }
                    BlockTrace::OdeUnrolled { traj, caches } => {
                        let steps = caches.len();
                        let h = 1.0 / steps as f32;
                        let mut acc = a;
                        for i in (0..steps).rev() {
                            // Recompute is unnecessary: reuse the stored cache.
                            let _ = &traj[i];
                            let adf = block.f_backward(&acc, &caches[i], h);
                            acc = acc.zip_map(&adf, |x, y| x + h * y);
                        }
                        acc
                    }
                    BlockTrace::OdeAdjoint { z1 } => {
                        let steps = stage.plan.execs;
                        let opts = SolveOpts::euler_unit(steps);
                        let mut field = BlockField { block };
                        let (_z0, a0) = adjoint_backward(&mut field, z1, &a, opts);
                        a0
                    }
                };
            }
        }
        self.pre.backward(&a, &cache.pre);
    }

    /// Visit every parameter group in a fixed order (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlice<'_>)) {
        f(ParamSlice {
            w: self.pre.conv.w.as_mut_slice(),
            g: self.pre.conv.g.as_mut_slice(),
            decay: true,
        });
        f(ParamSlice {
            w: &mut self.pre.bn.gamma,
            g: &mut self.pre.bn.ggamma,
            decay: false,
        });
        f(ParamSlice {
            w: &mut self.pre.bn.beta,
            g: &mut self.pre.bn.gbeta,
            decay: false,
        });
        for stage in &mut self.stages {
            for block in &mut stage.blocks {
                f(ParamSlice {
                    w: block.conv1.w.as_mut_slice(),
                    g: block.conv1.g.as_mut_slice(),
                    decay: true,
                });
                f(ParamSlice {
                    w: &mut block.bn1.gamma,
                    g: &mut block.bn1.ggamma,
                    decay: false,
                });
                f(ParamSlice {
                    w: &mut block.bn1.beta,
                    g: &mut block.bn1.gbeta,
                    decay: false,
                });
                f(ParamSlice {
                    w: block.conv2.w.as_mut_slice(),
                    g: block.conv2.g.as_mut_slice(),
                    decay: true,
                });
                f(ParamSlice {
                    w: &mut block.bn2.gamma,
                    g: &mut block.bn2.ggamma,
                    decay: false,
                });
                f(ParamSlice {
                    w: &mut block.bn2.beta,
                    g: &mut block.bn2.gbeta,
                    decay: false,
                });
            }
        }
        f(ParamSlice {
            w: &mut self.fc.w,
            g: &mut self.fc.gw,
            decay: true,
        });
        f(ParamSlice {
            w: &mut self.fc.b,
            g: &mut self.fc.gb,
            decay: false,
        });
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.g.fill(0.0));
    }

    /// conv1 forward only — for external executors (e.g. the FPGA
    /// system simulator) that route the residual stages themselves.
    pub fn pre_forward(&self, x: &Tensor<f32>) -> Tensor<f32> {
        self.pre.forward(x, BnMode::OnTheFly)
    }

    /// fc forward only — counterpart of [`Network::pre_forward`].
    pub fn fc_forward(&self, z: &Tensor<f32>) -> Tensor<f32> {
        self.fc.forward(z)
    }

    /// A stage by layer name (None when the variant removed it).
    pub fn stage(&self, name: LayerName) -> Option<&Stage> {
        self.stages
            .iter()
            .find(|s| s.name == name && !s.blocks.is_empty())
    }

    /// Run a single residual stage on an activation — the per-stage
    /// counterpart of [`Network::pre_forward`] / [`Network::fc_forward`],
    /// used by external executors and the hot-path profiler to time PS
    /// stages one at a time. Returns `None` when the variant removed the
    /// stage (its activation passes through unchanged in [`forward`]).
    ///
    /// [`forward`]: Network::forward
    pub fn stage_forward(
        &self,
        name: LayerName,
        z: &Tensor<f32>,
        mode: BnMode,
    ) -> Option<Tensor<f32>> {
        Some(self.stage(name)?.forward(z, mode))
    }

    /// Quantize the whole network into scalar type `S` — conv1, every
    /// residual stage, and the classification head — producing the
    /// forward-only deployment artifact the fully-fixed-point engine
    /// backend executes. Batch norm runs on-the-fly everywhere, as the
    /// PL circuit computes it.
    pub fn quantize<S: tensor::Scalar>(&self) -> crate::quant::QuantNetwork<S> {
        use crate::quant::{QuantFc, QuantNetwork, QuantPre, QuantStage};
        let qv = |v: &[f32]| -> Vec<S> { v.iter().map(|&x| S::from_f32(x)).collect() };
        QuantNetwork {
            spec: self.spec,
            pre: QuantPre {
                w: tensor::conv::ConvWeights::new(
                    Tensor::from_f32_tensor(&self.pre.conv.w),
                    self.pre.conv.cfg,
                ),
                gamma: qv(&self.pre.bn.gamma),
                beta: qv(&self.pre.bn.beta),
                eps: S::from_f32(self.pre.bn.eps),
            },
            stages: self
                .stages
                .iter()
                .map(|stage| QuantStage {
                    name: stage.name,
                    plan: stage.plan,
                    blocks: stage.blocks.iter().map(|b| b.quantize()).collect(),
                })
                .collect(),
            fc: QuantFc {
                w: qv(&self.fc.w),
                b: qv(&self.fc.b),
                out_features: self.fc.out_features,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Variant;
    use crate::params::spec_params;
    use tensor::softmax::cross_entropy;

    fn tiny_input(n: usize, hw: usize, seed: u64) -> Tensor<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        Tensor::from_fn(Shape4::new(n, 3, hw, hw), |_, _, _, _| {
            rng.random::<f32>() * 2.0 - 1.0
        })
    }

    #[test]
    fn param_count_matches_accounting_all_variants() {
        for v in Variant::ALL {
            let spec = NetSpec::new(v, 20);
            let net = Network::new(spec, 1);
            assert_eq!(net.param_count(), spec_params(&spec), "{v}");
        }
    }

    #[test]
    fn forward_shapes() {
        let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 2);
        let x = tiny_input(2, 32, 3);
        let logits = net.forward(&x, BnMode::OnTheFly);
        assert_eq!(logits.shape(), Shape4::new(2, 10, 1, 1));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stage_forward_chain_matches_forward() {
        // pre → each stage individually → fc must reproduce the fused
        // forward pass bit-for-bit (same kernels, same order), for a
        // variant with removed stages and one with all present.
        for v in [Variant::ROdeNet3, Variant::ResNet] {
            let net = Network::new(NetSpec::new(v, 20).with_classes(10), 5);
            let x = tiny_input(2, 16, 3);
            let full = net.forward(&x, BnMode::OnTheFly);
            let mut z = net.pre_forward(&x);
            for name in [
                LayerName::Layer1,
                LayerName::Layer2_1,
                LayerName::Layer2_2,
                LayerName::Layer3_1,
                LayerName::Layer3_2,
            ] {
                if let Some(out) = net.stage_forward(name, &z, BnMode::OnTheFly) {
                    z = out;
                }
            }
            let logits = net.fc_forward(&z);
            assert_eq!(full.as_slice(), logits.as_slice(), "{v}");
        }
    }

    #[test]
    fn all_variants_forward_small_input() {
        // 16×16 inputs shrink the spatial pyramid but every variant must
        // still produce finite logits.
        for v in Variant::ALL {
            let net = Network::new(NetSpec::new(v, 20).with_classes(5), 7);
            let x = tiny_input(1, 16, 11);
            let logits = net.forward(&x, BnMode::OnTheFly);
            assert_eq!(logits.shape().c, 5, "{v}");
            assert!(logits.as_slice().iter().all(|f| f.is_finite()), "{v}");
        }
    }

    #[test]
    fn training_step_reduces_loss_unrolled() {
        let mut net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(4), 5);
        let x = tiny_input(4, 16, 13);
        let labels = [0usize, 1, 2, 3];
        let (logits, cache) = net.forward_train(&x, GradMode::Unrolled);
        let (loss0, glogits) = cross_entropy(&logits, &labels);
        net.zero_grads();
        net.backward(&glogits, &cache);
        // Plain SGD step.
        net.visit_params(&mut |p| {
            for (w, g) in p.w.iter_mut().zip(p.g.iter()) {
                *w -= 0.05 * g;
            }
        });
        let (logits1, _) = net.forward_train(&x, GradMode::Unrolled);
        let (loss1, _) = cross_entropy(&logits1, &labels);
        assert!(
            loss1 < loss0,
            "one SGD step must reduce loss: {loss0} -> {loss1}"
        );
    }

    #[test]
    fn training_step_reduces_loss_adjoint() {
        let mut net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(4), 6);
        let x = tiny_input(4, 16, 17);
        let labels = [0usize, 1, 2, 3];
        let (logits, cache) = net.forward_train(&x, GradMode::Adjoint);
        let (loss0, glogits) = cross_entropy(&logits, &labels);
        net.zero_grads();
        net.backward(&glogits, &cache);
        net.visit_params(&mut |p| {
            for (w, g) in p.w.iter_mut().zip(p.g.iter()) {
                *w -= 0.05 * g;
            }
        });
        let (logits1, _) = net.forward_train(&x, GradMode::Adjoint);
        let (loss1, _) = cross_entropy(&logits1, &labels);
        assert!(
            loss1 < loss0,
            "adjoint step must reduce loss: {loss0} -> {loss1}"
        );
    }

    #[test]
    fn adjoint_and_unrolled_gradients_close() {
        // Same network, same batch: the two grad modes should produce
        // similar (not identical) parameter gradients.
        let spec = NetSpec::new(Variant::Hybrid3, 20).with_classes(3);
        let x = tiny_input(2, 16, 23);
        let labels = [0usize, 2];
        let grads = |mode: GradMode| -> Vec<f32> {
            let mut net = Network::new(spec, 9);
            let (logits, cache) = net.forward_train(&x, mode);
            let (_, glogits) = cross_entropy(&logits, &labels);
            net.zero_grads();
            net.backward(&glogits, &cache);
            let mut out = Vec::new();
            net.visit_params(&mut |p| out.extend_from_slice(p.g));
            out
        };
        let gu = grads(GradMode::Unrolled);
        let ga = grads(GradMode::Adjoint);
        let dot: f64 = gu
            .iter()
            .zip(&ga)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let nu: f64 = gu.iter().map(|a| (*a as f64).powi(2)).sum::<f64>().sqrt();
        let na: f64 = ga.iter().map(|a| (*a as f64).powi(2)).sum::<f64>().sqrt();
        let cosine = dot / (nu * na).max(1e-30);
        assert!(cosine > 0.95, "gradient directions agree: cos = {cosine}");
    }

    #[test]
    fn visit_params_count_consistent() {
        let mut net = Network::new(NetSpec::new(Variant::ResNet, 20), 3);
        let mut total = 0usize;
        net.visit_params(&mut |p| {
            assert_eq!(p.w.len(), p.g.len());
            total += p.w.len();
        });
        assert_eq!(total, net.param_count());
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = Network::new(NetSpec::new(Variant::ROdeNet1, 20).with_classes(3), 4);
        let x = tiny_input(2, 16, 29);
        let (logits, cache) = net.forward_train(&x, GradMode::Unrolled);
        let (_, g) = cross_entropy(&logits, &[0, 1]);
        net.backward(&g, &cache);
        net.zero_grads();
        net.visit_params(&mut |p| assert!(p.g.iter().all(|&v| v == 0.0)));
    }
}
