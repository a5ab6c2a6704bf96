//! Property tests for the tensor kernels: linear-algebra identities that
//! must hold regardless of shapes, plus fixed/float agreement bounds.

use proptest::prelude::*;
use qfixed::{Fix16, Q16, Q20};
use tensor::conv::{
    conv2d, conv2d_backward_input, conv2d_backward_weights, conv2d_fast_3x3, conv2d_packed,
    conv2d_reference, conv2d_winograd, Conv2dParams, ConvWeights,
};
use tensor::ops::{concat_time_channel, euler_step, relu, relu_backward, split_time_channel_grad};
use tensor::pool::{global_avg_pool, shortcut_a};
use tensor::softmax::{cross_entropy, softmax};
use tensor::{Scalar, Shape4, Tensor};

fn small_tensor(max_c: usize, max_hw: usize) -> impl Strategy<Value = Tensor<f32>> {
    (1usize..=2, 1usize..=max_c, 2usize..=max_hw, 2usize..=max_hw).prop_flat_map(|(n, c, h, w)| {
        let len = n * c * h * w;
        prop::collection::vec(-2.0f32..2.0, len)
            .prop_map(move |data| Tensor::from_vec(Shape4::new(n, c, h, w), data))
    })
}

/// Random 3×3 convolution instances over the fast path's whole domain:
/// both strides, 1–2 batch items, and spatial extents from the degenerate
/// 1×1 (all 9 taps padded for stride 1) through border-dominated 4×4 up
/// to 8×8, with and without a ragged tile of output pixels. Input
/// channels start at 0 (every sum empty); output channels reach 9, two
/// whole register tiles of 4 rows plus a remainder.
fn conv3x3_instance() -> impl Strategy<Value = (Tensor<f32>, Tensor<f32>, Conv2dParams)> {
    (
        1usize..=2,
        0usize..=4,
        1usize..=8,
        1usize..=8,
        1usize..=9,
        1usize..=2,
    )
        .prop_flat_map(|(n, c, h, w, o, stride)| {
            let xlen = n * c * h * w;
            let wlen = o * c * 9;
            (
                prop::collection::vec(-2.0f32..2.0, xlen),
                prop::collection::vec(-0.5f32..0.5, wlen),
            )
                .prop_map(move |(xd, wd)| {
                    (
                        Tensor::from_vec(Shape4::new(n, c, h, w), xd),
                        Tensor::from_vec(Shape4::new(o, c, 3, 3), wd),
                        Conv2dParams { stride, pad: 1 },
                    )
                })
        })
}

/// Raw 32-bit fixed-point bit patterns over all of `i32`. About half the
/// cases mix `MIN`, `MAX` and `-1` into uniform draws; the rest draw only
/// `MIN` and `MAX`, whose products wrap the wide accumulator fastest.
fn raw_bits(len: usize) -> impl Strategy<Value = Vec<i32>> {
    (
        any::<bool>(),
        prop::collection::vec((0u8..8, any::<i32>()), len),
    )
        .prop_map(|(extremes_only, draws)| {
            draws
                .into_iter()
                .map(|(pick, raw)| match (extremes_only, pick) {
                    (true, p) if p % 2 == 0 => i32::MIN,
                    (true, _) => i32::MAX,
                    (false, 0) => i32::MIN,
                    (false, 1) => i32::MAX,
                    (false, 2) => -1,
                    (false, _) => raw,
                })
                .collect()
        })
}

/// Random 3×3 Q20 convolution instances with full-range bit patterns:
/// both strides, extents down to 1×1, and output-channel counts (GEMM M)
/// and pixel counts (GEMM N) that are mostly not multiples of the
/// fixed-point kernel's register tile.
fn conv3x3_raw_q20_instance() -> impl Strategy<Value = (Tensor<Q20>, Tensor<Q20>, Conv2dParams)> {
    (
        1usize..=2,
        1usize..=5,
        1usize..=9,
        1usize..=9,
        1usize..=7,
        1usize..=2,
    )
        .prop_flat_map(|(n, c, h, w, o, stride)| {
            (raw_bits(n * c * h * w), raw_bits(o * c * 9)).prop_map(move |(xd, wd)| {
                let q = |bits: Vec<i32>| bits.into_iter().map(Q20::from_bits).collect();
                (
                    Tensor::from_vec(Shape4::new(n, c, h, w), q(xd)),
                    Tensor::from_vec(Shape4::new(o, c, 3, 3), q(wd)),
                    Conv2dParams { stride, pad: 1 },
                )
            })
        })
}

/// The largest raw input magnitude the Winograd route admits
/// (`max|x_raw| < 2^29`).
const X_MAX: i32 = (1 << 29) - 1;
/// The largest raw weight magnitude the Winograd route admits
/// (`9·max|w_raw| < 2^31`).
const W_MAX: i32 = i32::MAX / 9;

/// Raw bit patterns in `[-bound, bound]`, with `±bound` and `-1` mixed
/// into uniform draws.
fn bounded_bits(len: usize, bound: i32) -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec((0u8..8, -bound..=bound), len).prop_map(move |draws| {
        draws
            .into_iter()
            .map(|(pick, raw)| match pick {
                0 => -bound,
                1 => bound,
                2 => -1,
                _ => raw,
            })
            .collect()
    })
}

/// Random 3×3 Q20 convolution instances whose raw operands pass the
/// Winograd route's guards: both strides, 1–2 batch items, extents 1–9
/// (the odd ones, like stride 2, take the direct core) and 0–5 input
/// channels. Inputs and weights reach the guards' bounds, so the
/// reference's sums wrap the wide accumulator.
fn conv3x3_in_range_q20_instance() -> impl Strategy<Value = (Tensor<Q20>, Tensor<Q20>, Conv2dParams)>
{
    (
        1usize..=2,
        0usize..=5,
        1usize..=9,
        1usize..=9,
        1usize..=7,
        1usize..=2,
    )
        .prop_flat_map(|(n, c, h, w, o, stride)| {
            (
                bounded_bits(n * c * h * w, X_MAX),
                bounded_bits(o * c * 9, W_MAX),
            )
                .prop_map(move |(xd, wd)| {
                    let q = |bits: Vec<i32>| bits.into_iter().map(Q20::from_bits).collect();
                    (
                        Tensor::from_vec(Shape4::new(n, c, h, w), q(xd)),
                        Tensor::from_vec(Shape4::new(o, c, 3, 3), q(wd)),
                        Conv2dParams { stride, pad: 1 },
                    )
                })
        })
}

/// The packed entry, the reference, and whether the Winograd route took
/// the call, with the weights packed once ahead of it.
fn packed_reference_routed<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    p: Conv2dParams,
) -> (Tensor<S>, Tensor<S>, bool) {
    let packed = ConvWeights::new(w.clone(), p);
    (
        conv2d_packed(x, &packed),
        conv2d_reference(x, w, p),
        conv2d_winograd(x, &packed).is_some(),
    )
}

/// The packed entry and the reference on `x` and `w` quantized to `S`,
/// the weights packed once ahead of the call as a quantized block holds
/// them.
fn packed_and_reference<S: Scalar>(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    p: Conv2dParams,
) -> (Tensor<S>, Tensor<S>) {
    let (x, w) = (
        Tensor::<S>::from_f32_tensor(x),
        Tensor::<S>::from_f32_tensor(w),
    );
    let packed = ConvWeights::new(w.clone(), p);
    (conv2d_packed(&x, &packed), conv2d_reference(&x, &w, p))
}

fn weights_for(c: usize) -> impl Strategy<Value = Tensor<f32>> {
    (1usize..=4).prop_flat_map(move |o| {
        prop::collection::vec(-0.5f32..0.5, o * c * 9)
            .prop_map(move |data| Tensor::from_vec(Shape4::new(o, c, 3, 3), data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_zero_input_gives_zero(x in small_tensor(3, 6)) {
        let w = Tensor::<f32>::full(Shape4::new(2, x.shape().c, 3, 3), 0.3);
        let zero = Tensor::<f32>::zeros(x.shape());
        let y = conv2d(&zero, &w, Conv2dParams::same_3x3());
        prop_assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conv_scales_linearly((x, s) in (small_tensor(3, 6), -2.0f32..2.0)) {
        let c = x.shape().c;
        let w = Tensor::<f32>::from_fn(Shape4::new(2, c, 3, 3), |o, i, kh, kw| {
            ((o + i + kh + kw) % 3) as f32 * 0.25 - 0.25
        });
        let p = Conv2dParams::same_3x3();
        let y1 = conv2d(&x, &w, p);
        let xs = x.map(|v| v * s);
        let y2 = conv2d(&xs, &w, p);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a * s - b).abs() < 1e-3, "{a} * {s} vs {b}");
        }
    }

    #[test]
    fn conv_q20_tracks_f32(x in small_tensor(2, 5)) {
        let c = x.shape().c;
        let w = Tensor::<f32>::from_fn(Shape4::new(2, c, 3, 3), |o, i, kh, kw| {
            ((o * 7 + i * 3 + kh + kw) % 5) as f32 * 0.125 - 0.25
        });
        // Quantize inputs first so both paths see the same values.
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let wq: Tensor<Q20> = Tensor::from_f32_tensor(&w);
        let yf = conv2d(&xq.to_f32(), &wq.to_f32(), Conv2dParams::same_3x3());
        let yq = conv2d(&xq, &wq, Conv2dParams::same_3x3());
        // Each output truncates once; inputs/weights are identical, so the
        // divergence is bounded by ~1 LSB plus f32 rounding noise.
        prop_assert!(yf.max_abs_diff(&yq.to_f32()) < 1e-4);
    }

    #[test]
    fn conv_grad_input_is_adjoint(x in small_tensor(2, 5)) {
        // <conv(x), r> == <x, conv_backward_input(r)> — the backward op is
        // the linear adjoint of the forward op.
        let c = x.shape().c;
        let w = Tensor::<f32>::from_fn(Shape4::new(3, c, 3, 3), |o, i, kh, kw| {
            ((o + i * 2 + kh * 3 + kw) % 7) as f32 * 0.1 - 0.3
        });
        let p = Conv2dParams::same_3x3();
        let y = conv2d(&x, &w, p);
        let r = Tensor::<f32>::from_fn(y.shape(), |n, cc, h, ww| {
            ((n + cc * 3 + h + ww * 2) % 5) as f32 * 0.2 - 0.4
        });
        let lhs: f64 = y.as_slice().iter().zip(r.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let gx = conv2d_backward_input(&r, &w, x.shape(), p);
        let rhs: f64 = x.as_slice().iter().zip(gx.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_grad_weights_is_adjoint((x, w) in small_tensor(2, 5).prop_flat_map(|x| {
        let c = x.shape().c;
        (Just(x), weights_for(c))
    })) {
        let p = Conv2dParams::same_3x3();
        let y = conv2d(&x, &w, p);
        let r = Tensor::<f32>::from_fn(y.shape(), |n, c, h, ww| {
            ((n * 2 + c + h * 5 + ww) % 9) as f32 * 0.1 - 0.4
        });
        let lhs: f64 = y.as_slice().iter().zip(r.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let gw = conv2d_backward_weights(&r, &x, w.shape(), p);
        let rhs: f64 = w.as_slice().iter().zip(gw.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn fast_conv_matches_reference_f32((x, w, p) in conv3x3_instance()) {
        // The im2col/GEMM path must be bit-identical to the scalar
        // reference on every geometry, including fully-padded 1×1 inputs.
        let fast = conv2d_fast_3x3(&x, &w, p);
        let reference = conv2d_reference(&x, &w, p);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn fast_conv_matches_reference_q20((x, w, p) in conv3x3_instance()) {
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let wq: Tensor<Q20> = Tensor::from_f32_tensor(&w);
        let fast = conv2d_fast_3x3(&xq, &wq, p);
        let reference = conv2d_reference(&xq, &wq, p);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn fast_conv_matches_reference_q16((x, w, p) in conv3x3_instance()) {
        let xq: Tensor<Q16> = Tensor::from_f32_tensor(&x);
        let wq: Tensor<Q16> = Tensor::from_f32_tensor(&w);
        let fast = conv2d_fast_3x3(&xq, &wq, p);
        let reference = conv2d_reference(&xq, &wq, p);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn fast_conv_matches_reference_fix16((x, w, p) in conv3x3_instance()) {
        let xq: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&x);
        let wq: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&w);
        let fast = conv2d_fast_3x3(&xq, &wq, p);
        let reference = conv2d_reference(&xq, &wq, p);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn packed_conv_matches_reference((x, w, p) in conv3x3_instance()) {
        // Weights packed once, ahead of the call: both strides, batch
        // items 1–2 and zero input channels, for every fixed-point width
        // and for f32 (which packs nothing).
        let (packed, reference) = packed_and_reference::<Q20>(&x, &w, p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        let (packed, reference) = packed_and_reference::<Q16>(&x, &w, p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        let (packed, reference) = packed_and_reference::<Fix16<10>>(&x, &w, p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        let (packed, reference) = packed_and_reference::<f32>(&x, &w, p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
    }

    #[test]
    fn fast_conv_matches_reference_full_range_bits((x, w, p) in conv3x3_raw_q20_instance()) {
        // Values far outside [-2, 2] wrap the i64 accumulator; the
        // offset-binary kernel must wrap to the same bits, at Q20 and at
        // Q16 (the same bit patterns read with 16 fraction bits), with
        // weights packed per call or once ahead of it. `Fix16<10>` reads
        // the high half of each pattern (`MIN`, `MAX` and `-1` stay
        // extreme); its sums never wrap, but saturate at write-back.
        let (fast, reference) = (conv2d_fast_3x3(&x, &w, p), conv2d_reference(&x, &w, p));
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
        let packed = conv2d_packed(&x, &ConvWeights::new(w.clone(), p));
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        let q16 = |t: &Tensor<Q20>| t.map(|v| Q16::from_bits(v.to_bits()));
        let (x16, w16) = (q16(&x), q16(&w));
        let (fast, reference) = (conv2d_fast_3x3(&x16, &w16, p), conv2d_reference(&x16, &w16, p));
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
        let fix16 = |t: &Tensor<Q20>| t.map(|v| Fix16::<10>::from_bits((v.to_bits() >> 16) as i16));
        let (x, w) = (fix16(&x), fix16(&w));
        let (fast, reference) = (conv2d_fast_3x3(&x, &w, p), conv2d_reference(&x, &w, p));
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
        let packed = conv2d_packed(&x, &ConvWeights::new(w.clone(), p));
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
    }

    #[test]
    fn packed_conv_matches_reference_in_winograd_range((x, w, p) in conv3x3_in_range_q20_instance()) {
        // In-range operands take the Winograd route on every stride-1
        // call with even extents, and the direct core otherwise; both
        // equal the reference at Q20, at Q16 (the same bit patterns) and
        // at `Fix16<10>` (every 16-bit pattern is in range).
        let xs = x.shape();
        let winograd = p.stride == 1 && xs.h % 2 == 0 && xs.w % 2 == 0;
        let (packed, reference, routed) = packed_reference_routed(&x, &w, p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        prop_assert_eq!(routed, winograd);
        let q16 = |t: &Tensor<Q20>| t.map(|v| Q16::from_bits(v.to_bits()));
        let (packed, reference, routed) = packed_reference_routed(&q16(&x), &q16(&w), p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        prop_assert_eq!(routed, winograd);
        let fix16 = |t: &Tensor<Q20>| t.map(|v| Fix16::<10>::from_bits((v.to_bits() >> 14) as i16));
        let (packed, reference, routed) = packed_reference_routed(&fix16(&x), &fix16(&w), p);
        prop_assert_eq!(packed.as_slice(), reference.as_slice());
        prop_assert_eq!(routed, winograd);
    }

    #[test]
    fn relu_backward_zero_where_inactive(x in small_tensor(3, 6)) {
        let g = Tensor::<f32>::full(x.shape(), 1.0);
        let gx = relu_backward(&g, &x);
        for (gv, xv) in gx.as_slice().iter().zip(x.as_slice()) {
            prop_assert_eq!(*gv != 0.0, *xv > 0.0);
        }
    }

    #[test]
    fn relu_forward_is_max_zero(x in small_tensor(3, 6)) {
        let y = relu(&x);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            prop_assert_eq!(*a, b.max(0.0));
        }
    }

    #[test]
    fn euler_h_zero_is_identity(x in small_tensor(3, 6)) {
        let f = Tensor::<f32>::full(x.shape(), 3.21);
        let y = euler_step(&x, &f, 0.0);
        prop_assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn concat_then_split_roundtrips(x in small_tensor(3, 6), t in -1.0f32..1.0) {
        let cat = concat_time_channel(&x, t);
        prop_assert_eq!(cat.shape().c, x.shape().c + 1);
        let back = split_time_channel_grad(&cat);
        prop_assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn avg_pool_of_constant_is_constant(v in -3.0f32..3.0) {
        let x = Tensor::<f32>::full(Shape4::new(2, 3, 5, 5), v);
        let y = global_avg_pool(&x);
        for &o in y.as_slice() {
            prop_assert!((o - v).abs() < 1e-5);
        }
    }

    #[test]
    fn shortcut_preserves_subsampled_values(x in small_tensor(2, 6)) {
        let s = x.shape();
        let y = shortcut_a(&x, s.c + 2, 2);
        for n in 0..s.n {
            for c in 0..s.c {
                prop_assert_eq!(y.get(n, c, 0, 0), x.get(n, c, 0, 0));
            }
            for c in s.c..s.c + 2 {
                prop_assert!(y.plane(n, c).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-5.0f32..5.0, 2..12)) {
        let k = logits.len();
        let t = Tensor::from_vec(Shape4::new(1, k, 1, 1), logits);
        let p = softmax(&t);
        let sum: f32 = p.as_slice().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cross_entropy_nonnegative(
        logits in prop::collection::vec(-5.0f32..5.0, 3..9),
        label_seed in 0usize..100
    ) {
        let k = logits.len();
        let t = Tensor::from_vec(Shape4::new(1, k, 1, 1), logits);
        let (loss, grad) = cross_entropy(&t, &[label_seed % k]);
        prop_assert!(loss >= 0.0);
        let gsum: f32 = grad.as_slice().iter().sum();
        prop_assert!(gsum.abs() < 1e-5);
    }
}
