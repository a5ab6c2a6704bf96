//! 2-D convolution: the workhorse of the ODEBlock.
//!
//! The paper's blocks only ever use 3×3 kernels with stride 1 (pad 1) or
//! stride 2 (pad 1, the downsample blocks); the kernels here accept any
//! odd kernel size but are tuned for that case.
//!
//! The forward pass is generic over [`Scalar`]: with `f32` it is the PS
//! software path, with [`qfixed::Q20`] it computes exactly what the PL
//! multiply–add array computes (double-width accumulation, one truncation
//! per output element — see [`crate::scalar`]).
//!
//! Layout: input `(N, I, H, W)`, weights `(O, I, K, K)`, output
//! `(N, O, OH, OW)` with `OH = (H + 2·pad − K)/stride + 1`. Convolutions
//! are bias-free, as in the paper (batch norm immediately follows every
//! convolution, so a bias would be redundant).
//!
//! # Fast path
//!
//! [`conv2d`] dispatches the paper's hot case — 3×3, pad 1, stride 1 or 2
//! — to a packed GEMM kernel ([`conv2d_im2col_3x3`]) whose inner loops
//! carry **no per-element branch**. Every other geometry (and
//! [`set_force_reference`]) falls back to the original scalar kernel,
//! retained verbatim as [`conv2d_reference`]. Which GEMM runs depends on
//! the scalar type's [`Scalar::FIXED_POINT`]:
//!
//! * **f32** packs the input into a `K × (OH·OW)` im2col matrix, each row
//!   `zero border | contiguous interior copy | zero border`, and runs a
//!   register-tiled GEMM: each tile of 4 output channels × 16 output
//!   pixels keeps its 64 accumulators in registers over the whole K loop.
//!   Every output is still its own `acc + w·x` chain in the reference's
//!   `(i, ky, kx)` order; tiling only interleaves independent chains.
//!   Padded taps contribute `acc + (±0.0)`, a bitwise no-op because the
//!   accumulator can never hold `-0.0` (it starts at `+0.0`, and
//!   IEEE-754 addition only produces `-0.0` from two negative zeros).
//!   f32 addition is not associative, so this K order must not change.
//!   The 16 pixels of a tile row are four 4-wide registers in the
//!   baseline build and two 8-wide ones in the AVX2 build (see "Builds").
//! * **Fixed point** (`Fix<F>`, the PL's Q20, and the 16-bit `Fix16<F>`)
//!   runs one offset-binary core over raw 32-bit words, compiled once
//!   for every width. Its reference is a wrapping i64 sum of exact
//!   products, i.e. the sum mod 2^64, and integer sums mod 2^64 are
//!   order-free. With `w' = w + 2^31` and `x' = x + 2^31` (the sign bit
//!   flipped, read as u32),
//!   `Σ w·x ≡ Σ w'x' − 2^31·(Σ w' + Σ x') + K·2^62 (mod 2^64)`, so the
//!   core accumulates unsigned `w'x'` products in any order, corrects
//!   each output once, and hands the format's `acc_finish` exactly the
//!   reference's accumulator bits. Each product is one scalar 64-bit
//!   multiply in both builds; the AVX2 build keeps the tile's eight sums
//!   in two 4-lane registers, which frees the general registers the
//!   baseline build spills its row pointers for (see "Builds"). `Fix16`
//!   operands are sign-extended to 32 bits first. Its i16×i16 products
//!   summed in i64 never wrap, so the mod-2^64 sum is the exact sum its
//!   saturating `acc_finish` sees on the reference path.
//!
//! The fixed-point layout follows the circuit. The weights are packed
//! once, as the PL loads them into BRAM once: a [`ConvWeights`] holds
//! the conv's geometry and one packed form beside the raw tensor — the
//! Winograd rows below for a 3×3 / pad 1 / stride 1 conv where they
//! apply, otherwise the offset-binary rows and row sums of the direct
//! core — and [`conv2d_packed`] reuses it on every call (`rodenet`'s
//! quantized blocks build theirs when they are quantized; [`conv2d`]
//! packs direct rows per call, and so does the direct fallback of
//! weights holding Winograd rows). The input is never
//! expanded into an im2col matrix: it is flipped once into a copy with a
//! one-pixel border of flipped zeros (`0x8000_0000`), and each output
//! pixel's `C×3×3` window is gathered from it straight into the
//! K-contiguous row the core reads, with the row's `Σ x'` taken in the
//! same pass.
//!
//! # Winograd
//!
//! [`conv2d_packed`] runs stride-1 fixed-point convs as Winograd
//! F(2×2,3×3) (Lavin & Gray, arXiv 1509.09308): each 2×2 output tile is
//! `Aᵀ·[U ⊙ V]·A`, with `U = G·g·Gᵀ` per 3×3 filter `g` and `V = Bᵀ·d·B`
//! per 4×4 input tile `d`, so a tile costs 16 multiplies per channel pair
//! instead of 36. The 16 tile positions of `U ⊙ V`, summed over input
//! channels, are 16 GEMMs (K = input channels, N = tiles) through the
//! same offset-binary core. `Bᵀ` and `Aᵀ` are integer; `G` has halves,
//! so the packing uses `G' = 2G = [[2,0,0],[1,1,1],[1,-1,1],[0,0,2]]`
//! and `U' = G'·g·G'ᵀ = 4U`. Every transform is then integer and the
//! identity is exact over the integers, so the tile sums are
//! `4·Σ w·x (mod 2^64)`: bits 2..63 hold bits 0..61 of the reference's
//! wrapping sum, and an arithmetic `>> 2` restores them, sign-extended
//! from bit 61. `Fix<F>`'s `acc_finish` reads bits F..F+31, all of them
//! present for F ≤ 30 ([`crate::scalar::FixedPoint::sum_bits`] ≤ 62).
//! `Fix16`'s sums are exact and below 2^61 in magnitude, so the shift
//! restores the whole sum and its saturating `acc_finish` sees exactly
//! what it sees on the reference path.
//!
//! The core multiplies 32-bit words, so the route runs only where every
//! transformed operand fits an i32. A `U'` word sums at most 9 weights,
//! so the weights are checked once, at pack time (`9·max|w_raw| < 2^31`);
//! a `V` word sums at most 4 inputs, so each call checks its input
//! (`max|x_raw| < 2^29`, i.e. `|x| < 512` in Q20). Weights that fail
//! their check keep direct rows, and so do stride-2 weights. Odd extents
//! and inputs past the bound take the direct core ([`conv2d_winograd`]
//! is the route on its own, `None` where it does not apply).
//!
//! # Builds
//!
//! The two GEMM cores — the f32 register-tile loop of `gemm_blocked`
//! and the offset-binary block, which serves both the direct and the
//! Winograd routes — are each compiled twice from one source: the
//! target's baseline (SSE2 on x86-64) and, on x86-64, a wrapper with
//! `#[target_feature(enable = "avx2")]` around the same
//! `#[inline(always)]` body. Each call picks the AVX2 build where
//! `is_x86_feature_detected!("avx2")` holds and the baseline otherwise;
//! other targets only have the baseline. [`kernel_build`] reports which
//! one runs, and nothing selects it. AVX2 is the one extra build because
//! an AVX-512 build of the f32 core measured slower than the baseline
//! (1.3 vs 9.8 GMAC/s at layer3_2's K = 585, AVX2 15.7), and a global
//! `-C target-cpu` would make every binary fault on x86-64 CPUs without
//! AVX2. FMA stays off: Rust never contracts `acc + w·x` into a fused
//! multiply–add, so each f32 output keeps its own rounded chain in K
//! order, and the integer sums are taken mod 2^64, where order is free —
//! both builds give the same bits, pinned by the two-build unit tests
//! below. The reference kernel is never compiled as an AVX2 build.
//!
//! SAFETY: calling a `#[target_feature]` function is `unsafe`, because
//! running its code on a CPU without the feature is undefined behaviour.
//! Each core has one such call, guarded by the runtime check just before
//! it; these are the crate's only `unsafe` blocks.
//!
//! The equivalence is pinned by unit tests here, proptests in
//! `tensor/tests/props.rs` across shapes × strides × scalar types
//! (including raw Q20, Q16 and `Fix16<10>` bit patterns over their whole
//! range, and in-range ones that take the Winograd route), and a fixed
//! sweep over the rODENet geometries in the root `tests/conv_oracle.rs`.

use crate::scalar::FixedPoint;
use crate::{par, Scalar, Shape4, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};

/// Stride / padding configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (1 in ODE blocks, 2 in the downsample blocks).
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Conv2dParams {
    /// 3×3, stride 1, pad 1 — shape preserving.
    pub const fn same_3x3() -> Self {
        Conv2dParams { stride: 1, pad: 1 }
    }

    /// 3×3, stride 2, pad 1 — halves the feature map.
    pub const fn down_3x3() -> Self {
        Conv2dParams { stride: 2, pad: 1 }
    }

    /// Output spatial extent for an input extent and kernel size.
    pub fn out_extent(&self, extent: usize, k: usize) -> usize {
        assert!(
            extent + 2 * self.pad >= k,
            "kernel larger than padded input"
        );
        (extent + 2 * self.pad - k) / self.stride + 1
    }
}

/// Output shape of a convolution.
pub fn conv2d_out_shape(x: Shape4, w: Shape4, p: Conv2dParams) -> Shape4 {
    assert_eq!(
        x.c, w.c,
        "input channels {} != weight input channels {}",
        x.c, w.c
    );
    assert_eq!(w.h, w.w, "only square kernels are supported");
    Shape4::new(x.n, w.n, p.out_extent(x.h, w.h), p.out_extent(x.w, w.w))
}

/// When set, [`conv2d`] and [`conv2d_packed`] (the resident weights of
/// the engine's PL stage and of `rodenet`'s quantized blocks) always take
/// the scalar reference path — used by `repro -- hotpath`,
/// `tests/hotpath.rs` and the repo benchmark's reference logits to measure
/// or check the fast kernels against their baseline without duplicating
/// the call sites. Numerics are identical either way; only wall-clock
/// differs. The reference kernel has no AVX2 build, so the toggle also
/// bypasses the AVX2 builds of the GEMM cores.
static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Route all [`conv2d`] and [`conv2d_packed`] calls through
/// [`conv2d_reference`] (`true`) or restore fast-path dispatch (`false`).
/// Process-global; intended for benchmarking, not concurrent toggling
/// mid-inference.
pub fn set_force_reference(force: bool) {
    FORCE_REFERENCE.store(force, Ordering::SeqCst);
}

/// Whether [`set_force_reference`] currently pins the reference path.
pub fn force_reference() -> bool {
    FORCE_REFERENCE.load(Ordering::SeqCst)
}

/// Which build of the two GEMM cores this CPU runs: `"avx2"` or
/// `"baseline"` (see "Builds" in the module docs). It only reports; no
/// option selects a build.
pub fn kernel_build() -> &'static str {
    match Build::detect() {
        Build::Baseline => "baseline",
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 => "avx2",
    }
}

/// A compiled build of the GEMM cores (see "Builds" in the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Build {
    /// The target's baseline features (SSE2 on x86-64).
    Baseline,
    /// The same source compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Build {
    /// The build for this CPU: AVX2 where the CPU has it.
    fn detect() -> Build {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Build::Avx2;
        }
        Build::Baseline
    }
}

/// Forward convolution, generic over the scalar type.
///
/// Dispatches 3×3 / pad 1 / stride 1-or-2 (the only geometries the
/// paper's networks use) to the fast path; everything else runs the
/// scalar reference kernel. Both produce bit-identical outputs. A
/// fixed-point call packs its weights afresh; [`conv2d_packed`] reuses a
/// packing made once.
pub fn conv2d<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    conv2d_with(x, w, None, p)
}

/// [`conv2d`] with weights packed once, ahead of the call, at the
/// geometry they were packed for ([`ConvWeights::params`]) — the
/// software image of the circuit's BRAM-resident weights. It takes the
/// Winograd route ([`conv2d_winograd`]) where that applies and otherwise
/// routes exactly as [`conv2d`] does; [`set_force_reference`] pins the
/// reference kernel on the raw weights.
pub fn conv2d_packed<S: Scalar>(x: &Tensor<S>, w: &ConvWeights<S>) -> Tensor<S> {
    if force_reference() {
        return conv2d_reference(x, &w.raw, w.params);
    }
    if let Some(out) = conv2d_winograd(x, w) {
        return out;
    }
    let direct = match &w.packed {
        Some(Packed::Direct(rows)) => Some(rows),
        _ => None,
    };
    conv2d_with(x, &w.raw, direct, w.params)
}

/// The Winograd F(2×2,3×3) route of [`conv2d_packed`] on its own
/// (see the module docs), bit-identical to [`conv2d_reference`], or
/// `None` where it does not apply: weights without Winograd rows (f32,
/// a geometry other than 3×3 / pad 1 / stride 1, weights past
/// `9·max|w_raw| < 2^31`, formats whose `acc_finish` reads past bit
/// 61), an odd extent, or an input past `max|x_raw| < 2^29`.
pub fn conv2d_winograd<S: Scalar>(x: &Tensor<S>, w: &ConvWeights<S>) -> Option<Tensor<S>> {
    let (Some(fp), Some(Packed::Winograd(u))) = (S::FIXED_POINT, &w.packed) else {
        return None;
    };
    let xs = x.shape();
    let fits = || {
        x.as_slice()
            .iter()
            .all(|&v| (fp.bits)(v).unsigned_abs() < X_BOUND)
    };
    if xs.h % 2 == 1 || xs.w % 2 == 1 || !fits() {
        return None;
    }
    let mut out = Tensor::<S>::zeros(conv2d_out_shape(xs, w.raw.shape(), w.params));
    if xs.c > 0 {
        winograd_3x3(x, u, fp, &mut out);
    }
    Some(out)
}

fn conv2d_with<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    packed: Option<&PackedRows>,
    p: Conv2dParams,
) -> Tensor<S> {
    let ws = w.shape();
    let hot = ws.h == 3 && ws.w == 3 && p.pad == 1 && (p.stride == 1 || p.stride == 2);
    if hot && !force_reference() {
        fast_3x3(x, w, packed, p)
    } else {
        conv2d_reference(x, w, p)
    }
}

/// Convolution weights prepared once for the fast path: the raw tensor,
/// which the reference kernel and the f32 GEMM read, the conv's stride
/// and padding, and, for a fixed-point [`Scalar`], the one packed form
/// the fixed-point core reads on every call (see the module docs).
#[derive(Clone, Debug)]
pub struct ConvWeights<S: Scalar> {
    raw: Tensor<S>,
    params: Conv2dParams,
    packed: Option<Packed>,
}

/// The packed form a fixed-point [`ConvWeights`] holds.
#[derive(Clone, Debug)]
enum Packed {
    /// The raw weights' rows, for the direct core.
    Direct(PackedRows),
    /// `U' = G'·g·G'ᵀ`, one matrix per tile position `t = 4·r + c` of
    /// the 4×4 transformed tile: row `o`, column `i` of matrix `t` is
    /// `U'[r][c]` of filter `(o, i)`.
    Winograd(Vec<PackedRows>),
}

impl<S: Scalar> ConvWeights<S> {
    /// Pack `raw`, shaped `(O, I, K, K)`, for a conv at `params`: the
    /// Winograd rows where they apply (3×3 / pad 1 / stride 1), the
    /// direct rows otherwise.
    pub fn new(raw: Tensor<S>, params: Conv2dParams) -> Self {
        let packed = S::FIXED_POINT.map(|fp| {
            let winograd = (params == Conv2dParams::same_3x3())
                .then(|| winograd_rows(&raw, fp))
                .flatten();
            match winograd {
                Some(u) => Packed::Winograd(u),
                None => Packed::Direct(direct_rows(&raw, fp)),
            }
        });
        ConvWeights {
            raw,
            params,
            packed,
        }
    }

    /// The weights as given.
    pub fn raw(&self) -> &Tensor<S> {
        &self.raw
    }

    /// The stride and padding the weights were packed for.
    pub fn params(&self) -> Conv2dParams {
        self.params
    }
}

/// Offset-binary weight rows for the fixed-point core: row `m` holds
/// `w'[m][k] = w[m][k] + 2^31`, and zero rows pad the matrix to a whole
/// `TILE_MR`.
#[derive(Clone, Debug)]
struct PackedRows {
    rows: Vec<u32>,
    /// `Σ_k w'[m][k]` per row, padded rows included.
    sums: Vec<u64>,
}

impl PackedRows {
    /// Offset-binary `rows`, `kdim` words each, with their sums.
    fn new(rows: Vec<u32>, kdim: usize) -> Self {
        let sums = rows.chunks(kdim.max(1)).map(row_sum).collect();
        PackedRows { rows, sums }
    }
}

/// The direct core's rows: `w` as an `O × (I·K·K)` matrix, taps in the
/// reference's `(i, ky, kx)` order.
fn direct_rows<S: Scalar>(w: &Tensor<S>, fp: FixedPoint<S>) -> PackedRows {
    let ws = w.shape();
    let kdim = ws.c * ws.h * ws.w;
    let mut rows = vec![0u32; ws.n.next_multiple_of(TILE_MR) * kdim];
    for (d, &v) in rows.iter_mut().zip(w.as_slice()) {
        *d = offset_binary((fp.bits)(v));
    }
    PackedRows::new(rows, kdim)
}

/// Input words of the Winograd route stay below this magnitude, so each
/// `V` word (a sum of 4) fits an i32.
const X_BOUND: u32 = 1 << 29;

/// The Winograd rows of `w`, or `None` where the route does not apply:
/// a kernel other than 3×3, a format whose `acc_finish` reads past the
/// 62 bits the route recovers, or a weight whose `U'` words (sums of up
/// to 9) could leave i32. The filter transform uses adds only.
fn winograd_rows<S: Scalar>(w: &Tensor<S>, fp: FixedPoint<S>) -> Option<Vec<PackedRows>> {
    let ws = w.shape();
    let fits = |v: S| 9 * u64::from((fp.bits)(v).unsigned_abs()) < 1 << 31;
    if (ws.h, ws.w) != (3, 3) || fp.sum_bits > 62 || !w.as_slice().iter().all(|&v| fits(v)) {
        return None;
    }
    // Each row `x` of a 3×3 block times `G'ᵀ`.
    let g_prime = |x: [i32; 3]| {
        [
            x[0] + x[0],
            x[0] + x[1] + x[2],
            x[0] - x[1] + x[2],
            x[2] + x[2],
        ]
    };
    let mut u = vec![vec![0u32; ws.n.next_multiple_of(TILE_MR) * ws.c]; 16];
    for (f, g) in w.as_slice().chunks_exact(9).enumerate() {
        let h: [[i32; 4]; 3] =
            std::array::from_fn(|r| g_prime(std::array::from_fn(|k| (fp.bits)(g[3 * r + k]))));
        // `cols[c][r]` is `U'[r][c]`.
        let cols: [[i32; 4]; 4] = std::array::from_fn(|c| g_prime(h.map(|row| row[c])));
        for (t, ut) in u.iter_mut().enumerate() {
            ut[f] = offset_binary(cols[t % 4][t / 4]);
        }
    }
    Some(
        u.into_iter()
            .map(|rows| PackedRows::new(rows, ws.c))
            .collect(),
    )
}

/// The original scalar convolution kernel, kept verbatim as the reference
/// implementation: any kernel size, per-tap bounds checks, one `(n, o)`
/// output plane per parallel chunk. The fast path is pinned bit-identical
/// to this.
pub fn conv2d_reference<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    let xs = x.shape();
    let ws = w.shape();
    let os = conv2d_out_shape(xs, ws, p);
    let mut out = Tensor::<S>::zeros(os);
    let k = ws.h;
    let plane = os.plane();
    let wsl = w.as_slice();

    // One chunk = one (n, o) output plane; disjoint, so freely parallel.
    par_chunks_mut(&mut out, plane, xs.c * k * k, |chunk_idx, oplane| {
        let n = chunk_idx / os.c;
        let o = chunk_idx % os.c;
        for oy in 0..os.h {
            for ox in 0..os.w {
                let mut acc = S::acc_zero();
                for i in 0..xs.c {
                    let xplane = x.plane(n, i);
                    let wbase = ((o * ws.c + i) * k) * k;
                    let wk = &wsl[wbase..wbase + k * k];
                    for ky in 0..k {
                        let y = (oy * p.stride + ky) as isize - p.pad as isize;
                        if y < 0 || y >= xs.h as isize {
                            continue;
                        }
                        let xrow = &xplane[(y as usize) * xs.w..(y as usize + 1) * xs.w];
                        let wrow = &wk[ky * k..(ky + 1) * k];
                        for (kx, &wv) in wrow.iter().enumerate() {
                            let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                            if xcol < 0 || xcol >= xs.w as isize {
                                continue;
                            }
                            acc = S::mac(acc, wv, xrow[xcol as usize]);
                        }
                    }
                }
                oplane[oy * os.w + ox] = S::acc_finish(acc);
            }
        }
    });
    out
}

/// Register-tile height of [`gemm_blocked`]: output channels whose
/// accumulators share each load of a `cols` row.
const GEMM_MB: usize = 4;
/// Register-tile width of [`gemm_blocked`]: output pixels per tile, each
/// weight broadcast across them. With `GEMM_MB` this keeps 64
/// accumulators live over the whole K loop.
const GEMM_NB: usize = 16;

/// The fast path for 3×3 / pad 1 / stride 1 or 2, packing fixed-point
/// weights per call (see the module docs for both GEMMs).
///
/// For f32, each batch item's input is packed into a `K × (OH·OW)`
/// column matrix (`K = C·9`, rows ordered `(i, ky, kx)` — the reference
/// kernel's tap order) and multiplied by the `(O × K)` weight matrix in
/// a register-tiled GEMM. Padded taps are packed as explicit zeros, which
/// leave every accumulator bit-unchanged. The packed rows are built from
/// precomputed interior ranges — `copy_from_slice` for stride 1, a
/// `step_by(2)` zip for stride 2 — so no per-element bounds check runs.
/// Fixed point runs the offset-binary core on directly packed windows.
pub fn conv2d_im2col_3x3<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    fast_3x3(x, w, None, p)
}

fn fast_3x3<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    packed: Option<&PackedRows>,
    p: Conv2dParams,
) -> Tensor<S> {
    let xs = x.shape();
    let ws = w.shape();
    assert_eq!(ws.h, 3, "fast path is 3x3 only");
    assert_eq!(p.pad, 1, "fast path needs pad 1");
    assert!(p.stride == 1 || p.stride == 2, "fast path needs stride 1/2");
    let os = conv2d_out_shape(xs, ws, p);
    let mut out = Tensor::<S>::zeros(os);
    if xs.c == 0 {
        // No input channels: every reference sum is empty.
        return out;
    }
    match S::FIXED_POINT {
        Some(fp) => {
            let fresh;
            let packed = match packed {
                Some(rows) => rows,
                None => {
                    fresh = direct_rows(w, fp);
                    &fresh
                }
            };
            offset_binary_3x3(x, packed, p.stride, fp, &mut out);
        }
        None => im2col_3x3(x, w, p.stride, &mut out),
    }
    out
}

/// The f32 fast path: im2col, then [`gemm_blocked`], per batch item.
fn im2col_3x3<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, stride: usize, out: &mut Tensor<S>) {
    let xs = x.shape();
    let os = out.shape();
    let kdim = xs.c * 9; // GEMM K: taps per output, (i, ky, kx) order.
    let nc = os.h * os.w; // GEMM N: output pixels of one plane.

    // The packed column matrix is reused across batch items; batch-level
    // parallelism lives a layer up (Engine::infer_batch), so packing
    // sequentially here wastes nothing.
    let mut cols = vec![S::ZERO; kdim * nc];
    let build = Build::detect();
    for n in 0..xs.n {
        for i in 0..xs.c {
            let xplane = x.plane(n, i);
            for ky in 0..3 {
                for kx in 0..3 {
                    let row = (i * 9 + ky * 3 + kx) * nc;
                    pack_row_3x3(
                        &mut cols[row..row + nc],
                        xplane,
                        xs.h,
                        xs.w,
                        os.h,
                        os.w,
                        stride,
                        ky,
                        kx,
                    );
                }
            }
        }
        gemm_blocked(build, w.as_slice(), &cols, kdim, out.item_mut(n));
    }
}

/// The f32 fast path's register-tiled GEMM: `out = W · cols` for one
/// batch item, with `W` the `(O × kdim)` weight matrix, `cols` the
/// packed `(kdim × NC)` column matrix and `out` the item's `(O × NC)`
/// output planes, on `build`.
///
/// Each `GEMM_MB × GEMM_NB` tile of outputs is computed by
/// [`gemm_tile`], one `mac` chain per output in K order. A ragged last
/// row block reads zero-padded weight panels and a ragged last pixel tile
/// reads a zero-padded copy of its columns; the padded lanes' results
/// are never written back.
fn gemm_blocked<S: Scalar>(build: Build, wsl: &[S], cols: &[S], kdim: usize, oitem: &mut [S]) {
    let nc = cols.len() / kdim;
    // K-major weight panels, one per block of GEMM_MB output channels:
    // `panels[blk·kdim + r][m]` is `W[blk·GEMM_MB + m][r]`.
    let blocks = (oitem.len() / nc).div_ceil(GEMM_MB);
    let mut panels = vec![[S::ZERO; GEMM_MB]; blocks * kdim];
    for (m, wrow) in wsl.chunks_exact(kdim).enumerate() {
        let panel = &mut panels[m / GEMM_MB * kdim..][..kdim];
        for (p, &v) in panel.iter_mut().zip(wrow) {
            p[m % GEMM_MB] = v;
        }
    }
    let full = nc - nc % GEMM_NB;
    let mut tail = vec![S::ZERO; if full < nc { kdim * GEMM_NB } else { 0 }];
    for (t, crow) in tail.chunks_exact_mut(GEMM_NB).zip(cols.chunks_exact(nc)) {
        t[..nc - full].copy_from_slice(&crow[full..]);
    }
    par::par_chunks_mut(oitem, GEMM_MB * nc, kdim, |blk, chunk| {
        let panel = &panels[blk * kdim..(blk + 1) * kdim];
        gemm_rows_on(build, panel, cols, &tail, nc, chunk);
    });
}

/// [`gemm_rows`] on `build`: the AVX2 build where it was asked for and
/// the CPU has AVX2, the baseline build otherwise.
#[allow(unsafe_code)]
fn gemm_rows_on<S: Scalar>(
    build: Build,
    panel: &[[S; GEMM_MB]],
    cols: &[S],
    tail: &[S],
    nc: usize,
    chunk: &mut [S],
) {
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if std::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 is the only feature `gemm_rows_avx2` enables,
            // and the CPU has it (checked by the guard just above).
            unsafe { gemm_rows_avx2(panel, cols, tail, nc, chunk) }
        }
        _ => gemm_rows(panel, cols, tail, nc, chunk),
    }
}

/// The AVX2 build of [`gemm_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2<S: Scalar>(
    panel: &[[S; GEMM_MB]],
    cols: &[S],
    tail: &[S],
    nc: usize,
    chunk: &mut [S],
) {
    gemm_rows(panel, cols, tail, nc, chunk)
}

/// One block of [`gemm_blocked`]: the outputs `chunk` (up to `GEMM_MB`
/// rows of `nc`) of the weight `panel`, tile by tile, the ragged last
/// pixel tile read from `tail`.
#[inline(always)]
fn gemm_rows<S: Scalar>(
    panel: &[[S; GEMM_MB]],
    cols: &[S],
    tail: &[S],
    nc: usize,
    chunk: &mut [S],
) {
    let full = nc - nc % GEMM_NB;
    for j0 in (0..nc).step_by(GEMM_NB) {
        let acc = if j0 < full {
            gemm_tile(panel, &cols[j0..], nc)
        } else {
            gemm_tile(panel, tail, GEMM_NB)
        };
        let nb = GEMM_NB.min(nc - j0);
        for (arow, orow) in acc.iter().zip(chunk.chunks_exact_mut(nc)) {
            for (o, &a) in orow[j0..j0 + nb].iter_mut().zip(arow) {
                *o = S::acc_finish(a);
            }
        }
    }
}

/// One register tile: `acc[m][j] = Σ_r panel[r][m]·x[r·stride + j]`,
/// each output's `mac` chain running over `r` in order. The `GEMM_MB`
/// weights of a tap share one `GEMM_NB`-wide load of its `x` row.
#[inline(always)]
fn gemm_tile<S: Scalar>(
    panel: &[[S; GEMM_MB]],
    x: &[S],
    stride: usize,
) -> [[S::Acc; GEMM_NB]; GEMM_MB] {
    let mut acc = [[S::acc_zero(); GEMM_NB]; GEMM_MB];
    for (wk, xrow) in panel.iter().zip(x.chunks(stride)) {
        let xk = xrow
            .first_chunk::<GEMM_NB>()
            .expect("every tile lies inside its column rows");
        for (arow, &wv) in acc.iter_mut().zip(wk) {
            for (a, &xv) in arow.iter_mut().zip(xk) {
                *a = S::mac(*a, wv, xv);
            }
        }
    }
    acc
}

/// Register-tile height (output channels) of the offset-binary core.
const TILE_MR: usize = 2;
/// Register-tile width (output pixels) of the offset-binary core.
const TILE_NR: usize = 4;
/// The offset-binary word of a flipped zero: the padding border's value.
const FLIPPED_ZERO: u32 = 0x8000_0000;

/// Offset-binary view of a sign-extended fixed-point value: flipping the
/// sign bit reads the i32 `v` as the u32 `v + 2^31`.
#[inline]
fn offset_binary(v: i32) -> u32 {
    (v as u32) ^ FLIPPED_ZERO
}

/// `Σ row` without wrapping: at most `K·(2^32 − 1)`.
fn row_sum(row: &[u32]) -> u64 {
    row.iter().map(|&v| u64::from(v)).sum()
}

/// The fixed-point fast path: per batch item, flip the input into a
/// bordered copy, gather every window into its K-contiguous row, run the
/// core, and apply the format's `acc_finish` to each sum.
fn offset_binary_3x3<S: Scalar>(
    x: &Tensor<S>,
    w: &PackedRows,
    stride: usize,
    fp: FixedPoint<S>,
    out: &mut Tensor<S>,
) {
    let xs = x.shape();
    let os = out.shape();
    let (ph, pw) = (xs.h + 2, xs.w + 2);
    let kdim = xs.c * 9;
    let nc = os.h * os.w;
    // The border is written once; each item overwrites only the interior.
    let mut xpad = vec![FLIPPED_ZERO; xs.c * ph * pw];
    let mut xt = vec![0u32; nc.next_multiple_of(TILE_NR) * kdim];
    let mut xsum = vec![0u64; nc.next_multiple_of(TILE_NR)];
    let mut sums = vec![0i64; os.c * nc];
    let build = Build::detect();
    for n in 0..xs.n {
        let planes = x.item(n).chunks_exact(xs.h * xs.w);
        for (plane, src) in xpad.chunks_exact_mut(ph * pw).zip(planes) {
            for (row, srow) in plane[pw..].chunks_exact_mut(pw).zip(src.chunks_exact(xs.w)) {
                for (d, &v) in row[1..].iter_mut().zip(srow) {
                    *d = offset_binary((fp.bits)(v));
                }
            }
        }
        pack_windows(
            &xpad,
            xs.c,
            pw,
            os.w,
            stride,
            &mut xt[..nc * kdim],
            &mut xsum,
        );
        offset_binary_gemm(build, w, kdim, nc, &xt, &xsum, &mut sums);
        for (o, &s) in out.item_mut(n).iter_mut().zip(&sums) {
            *o = (fp.finish)(s);
        }
    }
}

/// Gather each output pixel's `C×3×3` window of the bordered, flipped
/// input `xpad` (`c` planes, rows `pw` words wide) into its K-contiguous
/// row of `xt`, in the weight rows' `(i, ky, kx)` order, and store the
/// row's sum in `xsum`. The border puts every window in bounds, so each
/// channel is three 3-word copies with no branch.
fn pack_windows(
    xpad: &[u32],
    c: usize,
    pw: usize,
    ow: usize,
    stride: usize,
    xt: &mut [u32],
    xsum: &mut [u64],
) {
    let plane = xpad.len() / c;
    for (j, (row, sum)) in xt.chunks_exact_mut(c * 9).zip(xsum).enumerate() {
        let at = (j / ow * pw + j % ow) * stride;
        for (taps, src) in row.chunks_exact_mut(9).zip(xpad.chunks_exact(plane)) {
            let win = &src[at..at + 2 * pw + 3];
            for (ky, dst) in taps.chunks_exact_mut(3).enumerate() {
                dst.copy_from_slice(&win[ky * pw..ky * pw + 3]);
            }
        }
        *sum = row_sum(row);
    }
}

/// The fixed-point GEMM core over raw words, compiled once for every
/// width: `sums[m][j] = Σ_k w[m][k]·x[j][k]` as a wrapping i64, from the
/// offset-binary weight rows `w` and the window rows `xt` (row sums
/// `xsum`), both K-contiguous and padded to whole tiles, on `build`. The
/// output-channel blocks are split over [`crate::par`].
fn offset_binary_gemm(
    build: Build,
    w: &PackedRows,
    kdim: usize,
    nc: usize,
    xt: &[u32],
    xsum: &[u64],
    sums: &mut [i64],
) {
    par::par_chunks_mut(sums, TILE_MR * nc, kdim, |blk, chunk| {
        offset_binary_block_on(build, w, blk * TILE_MR, kdim, nc, xt, xsum, chunk);
    });
}

/// [`offset_binary_block`] on `build`: the AVX2 build where it was asked
/// for and the CPU has AVX2, the baseline build otherwise.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
fn offset_binary_block_on(
    build: Build,
    w: &PackedRows,
    m0: usize,
    kdim: usize,
    nc: usize,
    xt: &[u32],
    xsum: &[u64],
    out: &mut [i64],
) {
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if std::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 is the only feature `offset_binary_block_avx2`
            // enables, and the CPU has it (checked by the guard just above).
            unsafe { offset_binary_block_avx2(w, m0, kdim, nc, xt, xsum, out) }
        }
        _ => offset_binary_block(w, m0, kdim, nc, xt, xsum, out),
    }
}

/// The AVX2 build of [`offset_binary_block`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn offset_binary_block_avx2(
    w: &PackedRows,
    m0: usize,
    kdim: usize,
    nc: usize,
    xt: &[u32],
    xsum: &[u64],
    out: &mut [i64],
) {
    offset_binary_block(w, m0, kdim, nc, xt, xsum, out)
}

/// One block of the core: `out[m][j]` (up to `TILE_MR` rows of `nc`) is
/// the wrapping i64 `Σ w·x` of weight row `m0 + m` and window row `j`.
/// Each unsigned `Σ w'x'` is corrected to the signed sum once, by the
/// identity in the module docs.
///
/// Each `w'x'` is one unsigned 32×32→64 multiply, and the `TILE_MR ×
/// TILE_NR` accumulators stay in registers over the whole K loop.
#[inline(always)]
fn offset_binary_block(
    w: &PackedRows,
    m0: usize,
    kdim: usize,
    nc: usize,
    xt: &[u32],
    xsum: &[u64],
    out: &mut [i64],
) {
    let bias = (kdim as u64) << 62;
    let wblock = &w.rows[m0 * kdim..(m0 + TILE_MR) * kdim];
    for j0 in (0..nc).step_by(TILE_NR) {
        let acc = offset_binary_tile(wblock, &xt[j0 * kdim..(j0 + TILE_NR) * kdim], kdim);
        let nb = TILE_NR.min(nc - j0);
        for ((arow, orow), &rsum) in acc.iter().zip(out.chunks_mut(nc)).zip(&w.sums[m0..]) {
            for ((o, &a), &csum) in orow[j0..j0 + nb].iter_mut().zip(arow).zip(&xsum[j0..]) {
                *o = a.wrapping_sub((rsum + csum) << 31).wrapping_add(bias) as i64;
            }
        }
    }
}

/// `Aᵀ·M·A` for one tile's 4×4 `M` (row-major), wrapping: the tile's
/// 2×2 outputs, still scaled by 4.
#[inline]
fn winograd_output(m: [i64; 16]) -> [[i64; 2]; 2] {
    // `Aᵀ·x` for a 4-vector `x`.
    let a = |x: [i64; 4]| {
        [
            x[0].wrapping_add(x[1]).wrapping_add(x[2]),
            x[1].wrapping_sub(x[2]).wrapping_sub(x[3]),
        ]
    };
    // `am[c]` is column `c` of `Aᵀ·M`.
    let am: [[i64; 2]; 4] = std::array::from_fn(|c| a([m[c], m[4 + c], m[8 + c], m[12 + c]]));
    std::array::from_fn(|q| a(am.map(|col| col[q])))
}

/// The Winograd route (see the module docs): per batch item, copy the
/// input into a zero-bordered buffer, transform its 4×4 tiles, run the
/// 16 tile-position GEMMs, and apply `>> 2` and the format's
/// `acc_finish` to each output.
fn winograd_3x3<S: Scalar>(
    x: &Tensor<S>,
    u: &[PackedRows],
    fp: FixedPoint<S>,
    out: &mut Tensor<S>,
) {
    let xs = x.shape();
    let os = out.shape();
    let pw = xs.w + 2;
    let (tw, nt) = (os.w / 2, os.h / 2 * (os.w / 2));
    let ntp = nt.next_multiple_of(TILE_NR);
    // The border is written once; each item overwrites only the interior.
    let mut xpad = vec![0i32; xs.c * (xs.h + 2) * pw];
    let mut v = vec![0u32; 16 * ntp * xs.c];
    let mut vsum = vec![0u64; 16 * ntp];
    let mut sums = vec![0i64; os.c * os.h * os.w];
    let build = Build::detect();
    for n in 0..xs.n {
        let planes = x.item(n).chunks_exact(xs.h * xs.w);
        for (plane, src) in xpad.chunks_exact_mut((xs.h + 2) * pw).zip(planes) {
            for (row, srow) in plane[pw..].chunks_exact_mut(pw).zip(src.chunks_exact(xs.w)) {
                for (d, &s) in row[1..].iter_mut().zip(srow) {
                    *d = (fp.bits)(s);
                }
            }
        }
        winograd_input(&xpad, xs.c, pw, tw, nt, &mut v, &mut vsum);
        par::par_chunks_mut(&mut sums, TILE_MR * 4 * nt, 4 * xs.c, |blk, chunk| {
            // The block's `M[t][m][j]`: tile `j`'s position `t`, summed
            // over input channels.
            let mut mt = vec![0i64; 16 * TILE_MR * nt];
            for ((t, ut), out) in u.iter().enumerate().zip(mt.chunks_exact_mut(TILE_MR * nt)) {
                let (vt, vs) = (&v[t * ntp * xs.c..(t + 1) * ntp * xs.c], &vsum[t * ntp..]);
                offset_binary_block_on(build, ut, blk * TILE_MR, xs.c, nt, vt, vs, out);
            }
            for (m, plane) in chunk.chunks_exact_mut(4 * nt).enumerate() {
                for j in 0..nt {
                    let y =
                        winograd_output(std::array::from_fn(|t| mt[(t * TILE_MR + m) * nt + j]));
                    let at = 2 * (j / tw * os.w + j % tw);
                    plane[at..at + 2].copy_from_slice(&y[0]);
                    plane[at + os.w..at + os.w + 2].copy_from_slice(&y[1]);
                }
            }
        });
        for (o, &s) in out.item_mut(n).iter_mut().zip(&sums) {
            *o = (fp.finish)(s >> 2);
        }
    }
}

/// `V = Bᵀ·d·B` for each channel's 4×4 tile `d` of the bordered input
/// `xpad` (`c` planes, rows `pw` words wide; tile `j` has its corner at
/// `(2·(j / tw), 2·(j % tw))`), flipped to offset binary into the
/// K-contiguous rows `v[t][j][·]` of tile position `t`, with their sums
/// in `vsum[t][j]`.
fn winograd_input(
    xpad: &[i32],
    c: usize,
    pw: usize,
    tw: usize,
    nt: usize,
    v: &mut [u32],
    vsum: &mut [u64],
) {
    // Each row `x` of a 4×4 block times `B`.
    let b = |x: [i32; 4]| [x[0] - x[2], x[1] + x[2], x[2] - x[1], x[1] - x[3]];
    let (ntp, plane) = (vsum.len() / 16, xpad.len() / c);
    for j in 0..nt {
        let at = 2 * (j / tw * pw + j % tw);
        let mut sums = [0u64; 16];
        for (i, src) in xpad[at..].chunks(plane).enumerate() {
            let h: [[i32; 4]; 4] =
                std::array::from_fn(|r| b(std::array::from_fn(|k| src[r * pw + k])));
            // `cols[col][r]` is `V[r][col]`.
            let cols: [[i32; 4]; 4] = std::array::from_fn(|col| b(h.map(|row| row[col])));
            for (t, sum) in sums.iter_mut().enumerate() {
                let word = offset_binary(cols[t % 4][t / 4]);
                v[(t * ntp + j) * c + i] = word;
                *sum += u64::from(word);
            }
        }
        for (t, sum) in sums.into_iter().enumerate() {
            vsum[t * ntp + j] = sum;
        }
    }
}

/// `Σ_k w'[m][k]·x'[j][k]` for the `TILE_MR` weight rows in `w` and the
/// `TILE_NR` window rows in `x`, wrapping mod 2^64.
#[inline(always)]
fn offset_binary_tile(w: &[u32], x: &[u32], kdim: usize) -> [[u64; TILE_NR]; TILE_MR] {
    let w: [&[u32]; TILE_MR] = std::array::from_fn(|m| &w[m * kdim..(m + 1) * kdim]);
    let x: [&[u32]; TILE_NR] = std::array::from_fn(|j| &x[j * kdim..(j + 1) * kdim]);
    let mut acc = [[0u64; TILE_NR]; TILE_MR];
    for k in 0..kdim {
        for (arow, wrow) in acc.iter_mut().zip(w) {
            let wv = u64::from(wrow[k]);
            for (a, xrow) in arow.iter_mut().zip(x) {
                *a = a.wrapping_add(wv * u64::from(xrow[k]));
            }
        }
    }
    acc
}

/// Pack one im2col row: the values tap `(ky, kx)` reads for every output
/// pixel, zero-filled where the tap falls in the padding border.
///
/// For output column `ox`, the tap reads
/// `x[oy·stride + ky − 1][ox·stride + kx − 1]`. With pad 1 and
/// `kx ∈ {0,1,2}` the in-bounds `ox` range is a single contiguous
/// interval `[lo, hi)` computed up front, so the borders are bulk
/// zero-fills and the interior is a straight copy (stride 1) or a
/// strided gather (stride 2) — no per-element branches.
#[allow(clippy::too_many_arguments)]
fn pack_row_3x3<S: Scalar>(
    dst: &mut [S],
    xplane: &[S],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    ky: usize,
    kx: usize,
) {
    // In-bounds ox interval: ox·stride + kx − 1 ∈ [0, w).
    let lo = if kx == 0 { 1 } else { 0 };
    let hi = if w < kx {
        0
    } else {
        ow.min((w - kx) / stride + 1)
    }
    .max(lo);
    let x0 = lo * stride + kx - 1; // first in-bounds x column
    for oy in 0..oh {
        let drow = &mut dst[oy * ow..(oy + 1) * ow];
        let y = (oy * stride + ky) as isize - 1;
        if y < 0 || y >= h as isize {
            drow.fill(S::ZERO);
            continue;
        }
        let xrow = &xplane[(y as usize) * w..(y as usize + 1) * w];
        drow[..lo].fill(S::ZERO);
        drow[hi..].fill(S::ZERO);
        if stride == 1 {
            drow[lo..hi].copy_from_slice(&xrow[x0..x0 + (hi - lo)]);
        } else {
            for (d, &v) in drow[lo..hi].iter_mut().zip(xrow[x0..].iter().step_by(2)) {
                *d = v;
            }
        }
    }
}

fn par_chunks_mut<S: Scalar>(
    t: &mut Tensor<S>,
    chunk: usize,
    cost: usize,
    f: impl Fn(usize, &mut [S]) + Sync,
) {
    par::par_chunks_mut(t.as_mut_slice(), chunk, cost, f);
}

/// Gradient of the loss w.r.t. the convolution **input**.
///
/// `gout` has the output shape; the result has shape `x_shape`.
pub fn conv2d_backward_input(
    gout: &Tensor<f32>,
    w: &Tensor<f32>,
    x_shape: Shape4,
    p: Conv2dParams,
) -> Tensor<f32> {
    let os = gout.shape();
    let ws = w.shape();
    assert_eq!(
        os.c, ws.n,
        "gout channels must match weight output channels"
    );
    assert_eq!(
        x_shape.c, ws.c,
        "x channels must match weight input channels"
    );
    let k = ws.h;
    let mut gx = Tensor::<f32>::zeros(x_shape);
    let plane = x_shape.plane();
    let wsl = w.as_slice();

    // One chunk = one (n, i) input-gradient plane.
    par_chunks_mut(&mut gx, plane, os.c * k * k, |chunk_idx, gplane| {
        let n = chunk_idx / x_shape.c;
        let i = chunk_idx % x_shape.c;
        for o in 0..os.c {
            let gout_plane = gout.plane(n, o);
            let wbase = ((o * ws.c + i) * k) * k;
            let wk = &wsl[wbase..wbase + k * k];
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let g = gout_plane[oy * os.w + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..k {
                        let y = (oy * p.stride + ky) as isize - p.pad as isize;
                        if y < 0 || y >= x_shape.h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                            if xcol < 0 || xcol >= x_shape.w as isize {
                                continue;
                            }
                            gplane[(y as usize) * x_shape.w + xcol as usize] += wk[ky * k + kx] * g;
                        }
                    }
                }
            }
        }
    });
    gx
}

/// Gradient of the loss w.r.t. the convolution **weights**.
pub fn conv2d_backward_weights(
    gout: &Tensor<f32>,
    x: &Tensor<f32>,
    w_shape: Shape4,
    p: Conv2dParams,
) -> Tensor<f32> {
    let os = gout.shape();
    let xs = x.shape();
    assert_eq!(os.c, w_shape.n);
    assert_eq!(xs.c, w_shape.c);
    let k = w_shape.h;
    let mut gw = Tensor::<f32>::zeros(w_shape);
    let per_o = w_shape.c * k * k;

    // One chunk = all weights of one output channel.
    par_chunks_mut(&mut gw, per_o, os.n * os.plane(), |o, gw_o| {
        for n in 0..os.n {
            let gout_plane = gout.plane(n, o);
            for (i, gw_oi) in gw_o.chunks_mut(k * k).enumerate() {
                let xplane = x.plane(n, i);
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let g = gout_plane[oy * os.w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..k {
                            let y = (oy * p.stride + ky) as isize - p.pad as isize;
                            if y < 0 || y >= xs.h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                                if xcol < 0 || xcol >= xs.w as isize {
                                    continue;
                                }
                                gw_oi[ky * k + kx] +=
                                    xplane[(y as usize) * xs.w + xcol as usize] * g;
                            }
                        }
                    }
                }
            }
        }
    });
    gw
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfixed::{Q16, Q20};

    fn seq_tensor(shape: Shape4, scale: f32) -> Tensor<f32> {
        let mut k = 0.0f32;
        Tensor::from_fn(shape, |_, _, _, _| {
            k += 1.0;
            (k % 7.0 - 3.0) * scale
        })
    }

    /// A splitmix64 stream, the two-build tests' operands.
    fn words(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `core` on the baseline build and, where the CPU has AVX2, on the
    /// AVX2 build, which must give the same bits; returns the baseline's.
    fn both_builds<T: PartialEq>(what: &str, core: impl Fn(Build) -> T) -> T {
        let baseline = core(Build::Baseline);
        let build = Build::detect();
        if build == Build::Baseline {
            println!("note: no AVX2 on this CPU; {what} ran the baseline only");
        } else {
            assert!(core(build) == baseline, "{what}: the AVX2 build differs");
        }
        baseline
    }

    #[test]
    fn f32_gemm_builds_agree_bit_for_bit() {
        let mut next = words(1);
        let mut value = || (next() >> 40) as f32 / (1 << 23) as f32 - 1.0;
        for kdim in [1, 9, 65, 585] {
            // O % 4 != 0 and NC % 16 != 0: ragged row blocks and pixel tiles.
            for (o, nc) in [(7, 37), (5, 19), (4, 16)] {
                let w: Vec<f32> = (0..o * kdim).map(|_| value()).collect();
                let cols: Vec<f32> = (0..kdim * nc).map(|_| value()).collect();
                let out = both_builds("the f32 GEMM", |build| {
                    let mut out = vec![0f32; o * nc];
                    gemm_blocked(build, &w, &cols, kdim, &mut out);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                });
                // Each output is its own `acc + w·x` chain in K order.
                for (m, orow) in out.chunks_exact(nc).enumerate() {
                    for (j, &bits) in orow.iter().enumerate() {
                        let chain =
                            (0..kdim).fold(0f32, |a, k| a + w[m * kdim + k] * cols[k * nc + j]);
                        assert_eq!(bits, chain.to_bits(), "kdim={kdim} o={o} nc={nc}");
                    }
                }
            }
        }
    }

    #[test]
    fn offset_binary_builds_agree_bit_for_bit() {
        let mut next = words(2);
        let extremes = [0u32, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff];
        for kdim in [1, 9, 65, 585] {
            // NC % 4 != 0 and odd O: ragged pixel tiles and row blocks.
            for (o, nc) in [(3usize, 7), (5, 6), (1, 4)] {
                // Raw words: the extremes, any i32 (Q20 or Q16), and a
                // sign-extended i16 (`Fix16<10>`).
                for source in 0..3 {
                    let mut raw = || match source {
                        0 => extremes[next() as usize % 4] as i32,
                        1 => next() as i32,
                        _ => i32::from(next() as i16),
                    };
                    let w: Vec<i32> = (0..o * kdim).map(|_| raw()).collect();
                    let x: Vec<i32> = (0..nc * kdim).map(|_| raw()).collect();
                    let mut rows = vec![0u32; o.next_multiple_of(TILE_MR) * kdim];
                    for (d, &v) in rows.iter_mut().zip(&w) {
                        *d = offset_binary(v);
                    }
                    let packed = PackedRows::new(rows, kdim);
                    let mut xt = vec![0u32; nc.next_multiple_of(TILE_NR) * kdim];
                    for (d, &v) in xt.iter_mut().zip(&x) {
                        *d = offset_binary(v);
                    }
                    let xsum: Vec<u64> = xt.chunks_exact(kdim).map(row_sum).collect();
                    let sums = both_builds("the offset-binary core", |build| {
                        let mut sums = vec![0i64; o * nc];
                        offset_binary_gemm(build, &packed, kdim, nc, &xt, &xsum, &mut sums);
                        sums
                    });
                    // Each sum is the wrapping i64 sum of exact products.
                    for (m, srow) in sums.chunks_exact(nc).enumerate() {
                        for (j, &sum) in srow.iter().enumerate() {
                            let exact = (0..kdim).fold(0i64, |a, k| {
                                a.wrapping_add(
                                    i64::from(w[m * kdim + k]) * i64::from(x[j * kdim + k]),
                                )
                            });
                            assert_eq!(sum, exact, "kdim={kdim} o={o} nc={nc} source={source}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        let x = seq_tensor(Shape4::new(1, 1, 5, 5), 0.5);
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 3));
        w.set(0, 0, 1, 1, 1.0); // centre tap
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_small_case() {
        // 1x1x3x3 input, all-ones 3x3 kernel, pad 1: centre output = sum of
        // all inputs, corner output = sum of its 2x2 neighbourhood.
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let w = Tensor::<f32>::full(Shape4::new(1, 1, 3, 3), 1.0);
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.get(0, 0, 1, 1), 36.0);
        assert_eq!(y.get(0, 0, 0, 0), 0.0 + 1.0 + 3.0 + 4.0);
        assert_eq!(y.get(0, 0, 2, 2), 4.0 + 5.0 + 7.0 + 8.0);
    }

    #[test]
    fn multi_channel_sums_inputs() {
        let x = Tensor::<f32>::full(Shape4::new(1, 4, 4, 4), 1.0);
        let mut w = Tensor::<f32>::zeros(Shape4::new(2, 4, 3, 3));
        for i in 0..4 {
            w.set(0, i, 1, 1, 1.0);
            w.set(1, i, 1, 1, 2.0);
        }
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.get(0, 0, 2, 2), 4.0);
        assert_eq!(y.get(0, 1, 2, 2), 8.0);
    }

    #[test]
    fn stride2_shapes_and_values() {
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 1, 6, 6), |_, _, h, w| (h * 6 + w) as f32);
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 3));
        w.set(0, 0, 1, 1, 1.0);
        let y = conv2d(&x, &w, Conv2dParams::down_3x3());
        assert_eq!(y.shape(), Shape4::new(1, 1, 3, 3));
        // Centre taps at stride 2 pick x[0,0], x[0,2], ...
        assert_eq!(y.get(0, 0, 0, 0), 0.0);
        assert_eq!(y.get(0, 0, 0, 1), 2.0);
        assert_eq!(y.get(0, 0, 1, 0), 12.0);
    }

    #[test]
    fn conv_is_linear() {
        let p = Conv2dParams::same_3x3();
        let x1 = seq_tensor(Shape4::new(1, 2, 6, 6), 0.3);
        let x2 = seq_tensor(Shape4::new(1, 2, 6, 6), -0.7);
        let w = seq_tensor(Shape4::new(3, 2, 3, 3), 0.1);
        let sum = x1.zip_map(&x2, |a, b| a + b);
        let y_sum = conv2d(&sum, &w, p);
        let y1 = conv2d(&x1, &w, p);
        let y2 = conv2d(&x2, &w, p);
        let y12 = y1.zip_map(&y2, |a, b| a + b);
        assert!(y_sum.max_abs_diff(&y12) < 1e-4);
    }

    #[test]
    fn q20_matches_f32_on_dyadic_values() {
        // Weights and inputs representable exactly in Q20; products and sums
        // stay exact, so both paths must agree to the last bit.
        let xs = Shape4::new(1, 3, 5, 5);
        let ws = Shape4::new(4, 3, 3, 3);
        let xf = Tensor::<f32>::from_fn(xs, |_, c, h, w| ((c + h + w) % 5) as f32 * 0.25 - 0.5);
        let wf = Tensor::<f32>::from_fn(ws, |o, i, kh, kw| {
            ((o + 2 * i + kh + kw) % 7) as f32 * 0.125 - 0.375
        });
        let yf = conv2d(&xf, &wf, Conv2dParams::same_3x3());
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&xf);
        let wq: Tensor<Q20> = Tensor::from_f32_tensor(&wf);
        let yq = conv2d(&xq, &wq, Conv2dParams::same_3x3());
        assert_eq!(yq.to_f32().as_slice(), yf.as_slice());
    }

    /// Central-difference gradient check for both backward kernels.
    #[test]
    fn gradients_match_finite_differences() {
        let p = Conv2dParams::same_3x3();
        let xs = Shape4::new(2, 2, 4, 4);
        let ws = Shape4::new(3, 2, 3, 3);
        let x = seq_tensor(xs, 0.17);
        let w = seq_tensor(ws, 0.09);
        // Loss = sum(conv(x, w) * r) for a fixed random-ish r.
        let os = conv2d_out_shape(xs, ws, p);
        let r = seq_tensor(os, 0.23);
        let loss = |x: &Tensor<f32>, w: &Tensor<f32>| -> f32 {
            conv2d(x, w, p)
                .as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let gx = conv2d_backward_input(&r, &w, xs, p);
        let gw = conv2d_backward_weights(&r, &x, ws, p);
        let eps = 1e-2f32;
        for probe in [0usize, 7, 23, xs.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[probe]).abs() < 1e-2,
                "gx[{probe}] analytic {} vs numeric {num}",
                gx.as_slice()[probe]
            );
        }
        for probe in [0usize, 11, ws.len() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[probe]).abs() < 1e-1,
                "gw[{probe}] analytic {} vs numeric {num}",
                gw.as_slice()[probe]
            );
        }
    }

    #[test]
    fn backward_input_transposes_stride2() {
        // Shape sanity for the downsample case.
        let p = Conv2dParams::down_3x3();
        let xs = Shape4::new(1, 2, 8, 8);
        let ws = Shape4::new(4, 2, 3, 3);
        let os = conv2d_out_shape(xs, ws, p);
        assert_eq!(os, Shape4::new(1, 4, 4, 4));
        let gout = Tensor::<f32>::full(os, 1.0);
        let w = Tensor::<f32>::full(ws, 0.5);
        let gx = conv2d_backward_input(&gout, &w, xs, p);
        assert_eq!(gx.shape(), xs);
        // Every input pixel receives at least one contribution.
        assert!(gx.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn one_by_one_kernels_are_channel_mixing() {
        // 1×1 convolution with pad 0 = per-pixel channel mix.
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 2, 3, 3), |_, c, h, w| {
            (c * 9 + h * 3 + w) as f32
        });
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 2, 1, 1));
        w.set(0, 0, 0, 0, 1.0);
        w.set(0, 1, 0, 0, 10.0);
        let y = conv2d(&x, &w, Conv2dParams { stride: 1, pad: 0 });
        assert_eq!(y.shape(), Shape4::new(1, 1, 3, 3));
        assert_eq!(y.get(0, 0, 1, 1), 4.0 + 10.0 * 13.0);
    }

    #[test]
    fn five_by_five_kernels_supported() {
        let x = Tensor::<f32>::full(Shape4::new(1, 1, 7, 7), 1.0);
        let w = Tensor::<f32>::full(Shape4::new(1, 1, 5, 5), 1.0);
        let y = conv2d(&x, &w, Conv2dParams { stride: 1, pad: 2 });
        assert_eq!(y.shape(), Shape4::new(1, 1, 7, 7));
        // Centre sees the full 25-tap window; corner sees 3×3 of it.
        assert_eq!(y.get(0, 0, 3, 3), 25.0);
        assert_eq!(y.get(0, 0, 0, 0), 9.0);
    }

    #[test]
    fn batch_dimension_independent() {
        let p = Conv2dParams::same_3x3();
        let a = seq_tensor(Shape4::new(1, 2, 4, 4), 0.2);
        let b = seq_tensor(Shape4::new(1, 2, 4, 4), -0.4);
        let w = seq_tensor(Shape4::new(2, 2, 3, 3), 0.1);
        // Concatenate a and b into one batch; outputs must match the
        // separate runs exactly.
        let mut joint = Tensor::<f32>::zeros(Shape4::new(2, 2, 4, 4));
        joint.item_mut(0).copy_from_slice(a.as_slice());
        joint.item_mut(1).copy_from_slice(b.as_slice());
        let yj = conv2d(&joint, &w, p);
        let ya = conv2d(&a, &w, p);
        let yb = conv2d(&b, &w, p);
        assert_eq!(yj.item(0), ya.as_slice());
        assert_eq!(yj.item(1), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let x = Tensor::<f32>::zeros(Shape4::new(1, 3, 4, 4));
        let w = Tensor::<f32>::zeros(Shape4::new(2, 4, 3, 3));
        let _ = conv2d(&x, &w, Conv2dParams::same_3x3());
    }

    #[test]
    fn fast_path_matches_reference_f32() {
        // Geometry sweep over both hot strides, odd/even extents, and a
        // border-dominated 4×4 map; outputs must be bit-identical.
        for (c, o, h, w) in [(1, 1, 4, 4), (3, 5, 7, 9), (16, 16, 8, 8), (2, 3, 1, 1)] {
            for p in [Conv2dParams::same_3x3(), Conv2dParams::down_3x3()] {
                let x = seq_tensor(Shape4::new(2, c, h, w), 0.13);
                let wt = seq_tensor(Shape4::new(o, c, 3, 3), 0.07);
                let fast = conv2d_im2col_3x3(&x, &wt, p);
                let reference = conv2d_reference(&x, &wt, p);
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "c={c} o={o} h={h} w={w} stride={}",
                    p.stride
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_fixed_point() {
        let x = seq_tensor(Shape4::new(1, 4, 6, 5), 0.21);
        let wt = seq_tensor(Shape4::new(3, 4, 3, 3), 0.11);
        for p in [Conv2dParams::same_3x3(), Conv2dParams::down_3x3()] {
            let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
            let wq: Tensor<Q20> = Tensor::from_f32_tensor(&wt);
            assert_eq!(
                conv2d_im2col_3x3(&xq, &wq, p).as_slice(),
                conv2d_reference(&xq, &wq, p).as_slice()
            );
            let x16: Tensor<Q16> = Tensor::from_f32_tensor(&x);
            let w16: Tensor<Q16> = Tensor::from_f32_tensor(&wt);
            assert_eq!(
                conv2d_im2col_3x3(&x16, &w16, p).as_slice(),
                conv2d_reference(&x16, &w16, p).as_slice()
            );
        }
    }

    #[test]
    fn zero_input_channels_give_the_zero_output() {
        // f32 runs the K-ordered GEMM, the fixed-point formats the
        // offset-binary core, per call and packed.
        fn check<S: Scalar>() {
            let p = Conv2dParams::same_3x3();
            let x = Tensor::<S>::zeros(Shape4::new(2, 0, 5, 4));
            let w = Tensor::<S>::zeros(Shape4::new(3, 0, 3, 3));
            let reference = conv2d_reference(&x, &w, p);
            assert_eq!(reference.shape(), Shape4::new(2, 3, 5, 4));
            assert_eq!(conv2d(&x, &w, p).as_slice(), reference.as_slice());
            let packed = ConvWeights::new(w, p);
            assert_eq!(conv2d_packed(&x, &packed).as_slice(), reference.as_slice());
        }
        check::<f32>();
        check::<Q20>();
        check::<qfixed::Fix16<10>>();
    }

    #[test]
    fn force_reference_toggle_routes_dispatch() {
        // Both routes are bit-identical, so this checks that the toggle
        // round-trips and conv2d still works under it, then that the
        // packed entry honours it too: with its packed form zeroed (the
        // Winograd rows here, or the direct rows of weights without
        // them), only the reference route still reads the raw weights.
        let x = seq_tensor(Shape4::new(1, 2, 6, 6), 0.3);
        let w = seq_tensor(Shape4::new(2, 2, 3, 3), 0.2);
        let p = Conv2dParams::same_3x3();
        let fast = conv2d(&x, &w, p);
        let (xq, wq) = (
            Tensor::<Q20>::from_f32_tensor(&x),
            Tensor::<Q20>::from_f32_tensor(&w),
        );
        let mut stale = ConvWeights::new(wq.clone(), p);
        match stale
            .packed
            .as_mut()
            .expect("fixed point packs its weights")
        {
            Packed::Direct(rows) => rows.rows.fill(0),
            Packed::Winograd(u) => u.iter_mut().for_each(|rows| rows.rows.fill(0)),
        }
        set_force_reference(true);
        assert!(force_reference());
        let slow = conv2d(&x, &w, p);
        let routed = conv2d_packed(&xq, &stale);
        set_force_reference(false);
        assert!(!force_reference());
        assert_eq!(fast.as_slice(), slow.as_slice());
        let reference = conv2d_reference(&xq, &wq, p);
        assert_eq!(routed.as_slice(), reference.as_slice());
        assert_ne!(conv2d_packed(&xq, &stale).as_slice(), reference.as_slice());
    }

    #[test]
    fn stride2_weights_hold_the_direct_rows_they_read() {
        // Stride-2 weights pack the direct core's rows, not Winograd
        // rows the route would never take, and every call reads them:
        // zeroed, the output changes; intact, it is the reference.
        fn check<S: Scalar>() {
            let x = Tensor::<S>::from_f32_tensor(&seq_tensor(Shape4::new(1, 2, 6, 6), 0.3));
            let w = Tensor::<S>::from_f32_tensor(&seq_tensor(Shape4::new(3, 2, 3, 3), 0.2));
            let p = Conv2dParams::down_3x3();
            let packed = ConvWeights::new(w.clone(), p);
            assert_eq!(packed.params(), p);
            let reference = conv2d_reference(&x, &w, p);
            assert_eq!(conv2d_packed(&x, &packed).as_slice(), reference.as_slice());
            let mut stale = packed.clone();
            match stale.packed.as_mut() {
                Some(Packed::Direct(rows)) => rows.rows.fill(0),
                other => panic!("stride-2 weights hold {other:?}"),
            }
            assert_ne!(conv2d_packed(&x, &stale).as_slice(), reference.as_slice());
        }
        check::<Q20>();
        check::<qfixed::Fix16<10>>();
    }

    #[test]
    fn formats_without_winograd_rows_take_the_direct_routes() {
        // f32 sums depend on their order, and `Fix<31>`'s `acc_finish`
        // reads bit 62, past the 62 bits the Winograd route recovers.
        fn check<S: Scalar>(scale: f32) {
            let p = Conv2dParams::same_3x3();
            let w = Tensor::<S>::from_f32_tensor(&seq_tensor(Shape4::new(3, 2, 3, 3), scale));
            let x = Tensor::<S>::from_f32_tensor(&seq_tensor(Shape4::new(1, 2, 4, 4), scale));
            let packed = ConvWeights::new(w.clone(), p);
            assert!(conv2d_winograd(&x, &packed).is_none());
            assert_eq!(
                conv2d_packed(&x, &packed).as_slice(),
                conv2d_reference(&x, &w, p).as_slice()
            );
        }
        check::<f32>(0.1);
        check::<qfixed::Fix<31>>(0.01);
    }
}
