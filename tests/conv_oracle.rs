//! Kernel oracle at the root: the fast conv, with its weights packed per
//! call (`conv2d_fast_3x3`) and once ahead of it (`conv2d_packed`, as
//! the quantized blocks hold them), must equal the scalar
//! `conv2d_reference` bit for bit on every rODENet conv geometry, for the
//! PS's f32, the PL's Q20, the reduced-range Q16 and the 16-bit
//! `Fix16<10>`.
//!
//! On the stride-1 geometries the resident weights take the Winograd
//! route (`conv2d_winograd`), and the sweep asserts that they do; the
//! guards' boundary cases pin where the route hands over to the direct
//! core.
//!
//! `tests/props.rs::accel_always_bit_exact` runs the fast `conv2d` on both
//! sides of its comparison, so it cannot catch a fast kernel that drifts;
//! this sweep can. It is a fixed, cheap sweep (well under a second), not
//! a proptest: the randomized oracles live in `crates/tensor/tests`.

use qfixed::{Fix16, Q16, Q20};
use tensor::conv::{
    conv2d_fast_3x3, conv2d_packed, conv2d_reference, conv2d_winograd, Conv2dParams, ConvWeights,
};
use tensor::{Scalar, Shape4, Tensor};

/// `(name, in channels, out channels, extent)` of every 3×3 conv in
/// rODENet-3-56: the stem, one conv of each ODE block, and layer3_2's
/// 65-channel input (64 maps plus the concatenated time channel).
const CONV_GEOMS: [(&str, usize, usize, usize); 5] = [
    ("conv1", 3, 16, 32),
    ("layer1", 16, 16, 32),
    ("layer2_1", 32, 32, 16),
    ("layer3_1", 64, 64, 8),
    ("layer3_2", 65, 64, 8),
];

/// Deterministic values in [-1, 1).
fn uniform(shape: Shape4, seed: u64) -> Tensor<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Tensor::from_fn(shape, |_, _, _, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

fn assert_fast_is_reference<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams, what: &str) {
    let fast = conv2d_fast_3x3(x, w, p);
    let reference = conv2d_reference(x, w, p);
    assert!(
        fast.as_slice() == reference.as_slice(),
        "{what}: fast conv differs from conv2d_reference"
    );
    let packed = conv2d_packed(x, &ConvWeights::new(w.clone(), p));
    assert!(
        packed.as_slice() == reference.as_slice(),
        "{what}: packed conv differs from conv2d_reference"
    );
}

/// The f32 case and its Q20, Q16 and 16-bit `Fix16<10>` quantizations.
fn check_all_types(x: &Tensor<f32>, w: &Tensor<f32>, p: Conv2dParams, name: &str) {
    assert_fast_is_reference(x, w, p, &format!("{name} f32"));
    let (xq, wq) = (
        Tensor::<Q20>::from_f32_tensor(x),
        Tensor::<Q20>::from_f32_tensor(w),
    );
    assert_fast_is_reference(&xq, &wq, p, &format!("{name} Q20"));
    let (xq, wq) = (
        Tensor::<Q16>::from_f32_tensor(x),
        Tensor::<Q16>::from_f32_tensor(w),
    );
    assert_fast_is_reference(&xq, &wq, p, &format!("{name} Q16"));
    let (xq, wq) = (
        Tensor::<Fix16<10>>::from_f32_tensor(x),
        Tensor::<Fix16<10>>::from_f32_tensor(w),
    );
    assert_fast_is_reference(&xq, &wq, p, &format!("{name} Fix16<10>"));
}

#[test]
fn fast_conv_is_bit_exact_on_every_rodenet_geometry() {
    for (i, (name, cin, cout, hw)) in CONV_GEOMS.into_iter().enumerate() {
        let x = uniform(Shape4::new(1, cin, hw, hw), 2 * i as u64 + 1);
        let w = uniform(Shape4::new(cout, cin, 3, 3), 2 * i as u64 + 2);
        check_all_types(&x, &w, Conv2dParams::same_3x3(), name);
    }
}

/// The Winograd route itself, which must take the call, equals the
/// reference.
fn assert_winograd_is_reference<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, what: &str) {
    let p = Conv2dParams::same_3x3();
    let winograd = conv2d_winograd(x, &ConvWeights::new(w.clone(), p))
        .unwrap_or_else(|| panic!("{what}: resident weights skip the Winograd route"));
    assert!(
        winograd.as_slice() == conv2d_reference(x, w, p).as_slice(),
        "{what}: Winograd conv differs from conv2d_reference"
    );
}

/// The Winograd route must decline the call, and the packed entry's
/// direct fallback must equal the reference.
fn assert_falls_back<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, what: &str) {
    let p = Conv2dParams::same_3x3();
    let packed = ConvWeights::new(w.clone(), p);
    assert!(
        conv2d_winograd(x, &packed).is_none(),
        "{what}: the Winograd route took an operand past its guard"
    );
    assert!(
        conv2d_packed(x, &packed).as_slice() == conv2d_reference(x, w, p).as_slice(),
        "{what}: direct fallback differs from conv2d_reference"
    );
}

#[test]
fn resident_weights_take_the_winograd_route_on_every_stride1_geometry() {
    for (i, (name, cin, cout, hw)) in CONV_GEOMS.into_iter().enumerate() {
        let x = uniform(Shape4::new(1, cin, hw, hw), 2 * i as u64 + 1);
        let w = uniform(Shape4::new(cout, cin, 3, 3), 2 * i as u64 + 2);
        assert_winograd_is_reference(
            &Tensor::<Q20>::from_f32_tensor(&x),
            &Tensor::<Q20>::from_f32_tensor(&w),
            &format!("{name} Q20"),
        );
        assert_winograd_is_reference(
            &Tensor::<Q16>::from_f32_tensor(&x),
            &Tensor::<Q16>::from_f32_tensor(&w),
            &format!("{name} Q16"),
        );
        assert_winograd_is_reference(
            &Tensor::<Fix16<10>>::from_f32_tensor(&x),
            &Tensor::<Fix16<10>>::from_f32_tensor(&w),
            &format!("{name} Fix16<10>"),
        );
    }
}

#[test]
fn winograd_guards_hand_over_to_the_direct_core_at_their_bounds() {
    // layer3_2's geometry with every operand at its guard's bound, so
    // the reference's sums wrap the wide accumulator: the route still
    // recovers every bit `acc_finish` reads.
    const X_MAX: i32 = (1 << 29) - 1; // max|x_raw| < 2^29
    const W_MAX: i32 = i32::MAX / 9; // 9·max|w_raw| < 2^31
    let sign = |x: f32| if x < 0.0 { -1 } else { 1 };
    let raw = |t: &Tensor<f32>, bound: i32| t.map(|v| Q20::from_bits(sign(v) * bound));
    let x = raw(&uniform(Shape4::new(1, 65, 8, 8), 21), X_MAX);
    let w = raw(&uniform(Shape4::new(64, 65, 3, 3), 22), W_MAX);
    assert_winograd_is_reference(&x, &w, "largest admitted input and weights");

    // One input word just past the bound: the direct core.
    let mut past = x.clone();
    past.as_mut_slice()[100] = Q20::from_bits(1 << 29);
    assert_falls_back(&past, &w, "input at 2^29");
    past.as_mut_slice()[100] = Q20::from_bits(-(1 << 29));
    assert_falls_back(&past, &w, "input at -2^29");

    // One weight past its bound: the weights keep direct rows.
    let mut over = w.clone();
    over.as_mut_slice()[7] = Q20::from_bits(W_MAX + 1);
    assert_falls_back(&x, &over, "weight past 2^31 / 9");

    // An odd extent (7×8) at Q20 values.
    let x = Tensor::<Q20>::from_f32_tensor(&uniform(Shape4::new(1, 65, 7, 8), 23));
    let w = Tensor::<Q20>::from_f32_tensor(&uniform(Shape4::new(64, 65, 3, 3), 24));
    assert_falls_back(&x, &w, "odd extent");
}

#[test]
fn fast_conv_is_bit_exact_on_the_stride2_downsample() {
    // layer3_1's downsampling conv: 32 → 64 channels, 16×16 → 8×8.
    let x = uniform(Shape4::new(1, 32, 16, 16), 11);
    let w = uniform(Shape4::new(64, 32, 3, 3), 12);
    check_all_types(&x, &w, Conv2dParams::down_3x3(), "down3_1");
}

#[test]
fn fast_conv_is_bit_exact_on_stride2_and_ragged_shapes() {
    // Both downsample convs (16 → 32 on 32×32, 32 → 64 on 16×16), then a
    // ragged geometry at both strides: O % 4 != 0 and output rows
    // shorter than one 8-pixel run.
    let down = [("down2_1", 16, 32, 32), ("down3_1", 32, 64, 16)];
    for (i, (name, cin, cout, hw)) in down.into_iter().enumerate() {
        let x = uniform(Shape4::new(1, cin, hw, hw), 31 + 2 * i as u64);
        let w = uniform(Shape4::new(cout, cin, 3, 3), 32 + 2 * i as u64);
        check_all_types(&x, &w, Conv2dParams::down_3x3(), name);
    }
    let x = uniform(Shape4::new(1, 5, 7, 7), 35);
    let w = uniform(Shape4::new(6, 5, 3, 3), 36);
    check_all_types(&x, &w, Conv2dParams::same_3x3(), "ragged 5->6 7x7 stride 1");
    check_all_types(&x, &w, Conv2dParams::down_3x3(), "ragged 5->6 7x7 stride 2");
}

#[test]
fn fast_q20_conv_wraps_like_the_reference_on_raw_bits() {
    // Full-range bit patterns overflow the wide accumulator; both
    // kernels must wrap it the same way.
    let mut k = 0u32;
    let mut bits = || {
        k = k.wrapping_add(1);
        Q20::from_bits(k.wrapping_mul(0x9e37_79b9).rotate_left(11) as i32)
    };
    let x = Tensor::from_fn(Shape4::new(1, 65, 8, 8), |_, _, _, _| bits());
    let w = Tensor::from_fn(Shape4::new(64, 65, 3, 3), |_, _, _, _| bits());
    assert_fast_is_reference(&x, &w, Conv2dParams::same_3x3(), "layer3_2 raw Q20");
}
