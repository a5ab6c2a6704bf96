//! FPGA resource model — Table 3 of the paper.
//!
//! ## BRAM (structural, exact)
//!
//! The ODEBlock stores three uniformly-sized feature-map buffers (input
//! with the concatenated t channel, the intermediate map, the output) and
//! one weight bank *per output channel* holding both convolutions'
//! weights for that channel, so that `n` multiply–add units can stream
//! `n` weights per cycle:
//!
//! * feature buffers: `3 · ceil((C+1)·H·W·4 / 4608)` BRAM36;
//! * weight banks: `wb = 2·(C+1)·9·4` bytes each. A bank occupies one
//!   BRAM18 half-block when `wb ≤ 2304` **and** at most half the banks
//!   are read simultaneously (`n ≤ C/2`); otherwise whole BRAM36s
//!   (`ceil(wb/4608)` each).
//!
//! This reproduces all 12 BRAM cells of Table 3 exactly, including the
//! layer1 jump from 56 to 64 BRAM at conv_x16 and layer3_2's flat 140
//! (= 100 %).
//!
//! ## DSP (structural, exact)
//!
//! `4·n + 4`: each 32-bit Q20 multiply–add unit consumes four DSP48E1
//! slices (a 32×32 multiplier), and the batch-norm mean/σ unit another
//! four. Exact on all 12 cells.
//!
//! ## LUT / FF (characterized)
//!
//! Synthesis results are not closed-form; the crate carries the paper's
//! synthesis numbers as a characterization table (the way EDA flows ship
//! characterized macros) and falls back to a per-layer linear model for
//! configurations outside the table.

use crate::board::Board;
#[cfg(test)]
use crate::board::PYNQ_Z2;
use rodenet::LayerName;

/// Geometry of an offloadable ODE layer: data channels and spatial extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerGeom {
    /// Data channels C (16/32/64).
    pub c: usize,
    /// Height = width of the feature map.
    pub hw: usize,
}

/// Geometry of the three offloadable layers (Table 2).
pub fn layer_geom(layer: LayerName) -> LayerGeom {
    let (c, hw) = layer.geometry();
    assert!(
        matches!(
            layer,
            LayerName::Layer1 | LayerName::Layer2_2 | LayerName::Layer3_2
        ),
        "only the shape-preserving ODE layers are offloadable (got {layer})"
    );
    LayerGeom { c, hw }
}

/// Resource usage of one ODEBlock circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceReport {
    /// The layer this circuit implements.
    pub layer: LayerName,
    /// Multiply–add units (conv_x·n).
    pub parallelism: usize,
    /// BRAM18 half-blocks (2 per BRAM36).
    pub bram18: u32,
    /// DSP48E1 slices.
    pub dsp: u32,
    /// Look-up tables (characterized/modelled).
    pub lut: u32,
    /// Flip-flops (characterized/modelled).
    pub ff: u32,
    /// Whether `lut`/`ff` come from the synthesis characterization table
    /// (`true`) or the linear model (`false`).
    pub characterized: bool,
}

impl ResourceReport {
    /// BRAM36-equivalent count (may be half-integral).
    pub fn bram36_used(&self) -> f64 {
        self.bram18 as f64 / 2.0
    }

    /// Utilization percentages against a board, in Table 3 order
    /// (BRAM, DSP, LUT, FF).
    pub fn utilization(&self, board: &Board) -> [f64; 4] {
        [
            100.0 * self.bram36_used() / board.bram36 as f64,
            100.0 * self.dsp as f64 / board.dsp as f64,
            100.0 * self.lut as f64 / board.lut as f64,
            100.0 * self.ff as f64 / board.ff as f64,
        ]
    }

    /// True when the circuit fits the board.
    pub fn fits(&self, board: &Board) -> bool {
        self.bram36_used() <= board.bram36 as f64
            && self.dsp <= board.dsp
            && self.lut <= board.lut
            && self.ff <= board.ff
    }
}

/// BRAM18 half-blocks used by the feature-map buffers at a parameter
/// width of `bytes_per_value` (4 = the paper's 32-bit build; the
/// footnote-2 exploration: "using reduced bit widths (e.g., 16-bit or
/// less) can implement more layers in PL").
pub fn feature_buffer_bram18(geom: LayerGeom, bytes_per_value: usize) -> u32 {
    let bytes = (geom.c + 1) * geom.hw * geom.hw * bytes_per_value;
    3 * 2 * bytes.div_ceil(Board::BRAM36_BYTES) as u32
}

/// BRAM18 half-blocks used by the per-output-channel weight banks at a
/// parameter width of `bytes_per_value`.
pub fn weight_bank_bram18(geom: LayerGeom, parallelism: usize, bytes_per_value: usize) -> u32 {
    let bank_bytes = 2 * (geom.c + 1) * 9 * bytes_per_value;
    let banks = geom.c as u32;
    if bank_bytes <= Board::BRAM18_BYTES && parallelism <= geom.c / 2 {
        banks // one BRAM18 each
    } else {
        banks * 2 * bank_bytes.div_ceil(Board::BRAM36_BYTES) as u32
    }
}

/// DSP48E1 slices at a parameter width of `bytes_per_value`. A b×b
/// multiplier tiles onto `⌈b/25⌉·⌈b/18⌉` of the slice's 25×18 signed
/// multipliers: 4 for the paper's 32-bit build (exact on Table 3), 1
/// for 16-bit or less, 2 for a 17–24-bit operand, 12 for a 64-bit one.
/// The BN mean/σ unit keeps its four slices at every width.
pub fn dsp_slices(parallelism: usize, bytes_per_value: usize) -> u32 {
    let bits = (bytes_per_value * 8) as u32;
    let per_mac = bits.div_ceil(25) * bits.div_ceil(18);
    per_mac * parallelism as u32 + 4
}

/// The paper's synthesis results (Table 3) as a characterization table:
/// `(layer, n) → (LUT, FF)`.
pub fn characterized_lut_ff(layer: LayerName, parallelism: usize) -> Option<(u32, u32)> {
    let table: &[(usize, (u32, u32))] = match layer {
        LayerName::Layer1 => &[
            (1, (1486, 835)),
            (4, (2992, 1358)),
            (8, (4740, 2058)),
            (16, (8994, 4145)),
        ],
        LayerName::Layer2_2 => &[
            (1, (1482, 833)),
            (4, (2946, 1346)),
            (8, (4737, 2032)),
            (16, (8844, 4873)),
        ],
        LayerName::Layer3_2 => &[
            (1, (1692, 927)),
            (4, (3048, 1411)),
            (8, (4907, 2059)),
            (16, (12720, 6378)),
        ],
        _ => return None,
    };
    table
        .iter()
        .find(|(n, _)| *n == parallelism)
        .map(|(_, v)| *v)
}

/// `(lut_base, lut_per_mac, ff_base, ff_per_mac)` of the per-layer
/// linear LUT/FF model, least-squares fitted on n ∈ {1, 4, 8}. The base
/// terms are the width-independent control logic (FSMs, address
/// generators); the per-MAC terms are datapath (operand registers,
/// adder trees) and scale with the operand width.
fn lut_ff_coeffs(layer: LayerName) -> (f64, f64, f64, f64) {
    match layer {
        LayerName::Layer1 => (1065.0, 463.3, 660.0, 174.7),
        LayerName::Layer2_2 => (1038.0, 465.4, 661.6, 171.3),
        LayerName::Layer3_2 => (1224.0, 459.5, 765.0, 161.7),
        _ => panic!("no LUT/FF model for {layer}"),
    }
}

/// Linear LUT/FF model per layer, least-squares fitted to the
/// characterized points at n ≤ 8 (the region where synthesis scales
/// linearly). Above 8 units synthesis goes superlinear (wider adder
/// trees, control replication); a quadratic correction approximates the
/// n = 16 jump. Used only for parallelism values outside Table 3.
pub fn modelled_lut_ff(layer: LayerName, parallelism: usize) -> (u32, u32) {
    let (lb, lm, fb, fm) = lut_ff_coeffs(layer);
    // Superlinear correction calibrated on the layer3_2 conv_x16 cell.
    let n = parallelism as f64;
    let extra = if n > 8.0 {
        (n - 8.0) * (n - 8.0) * 65.0
    } else {
        0.0
    };
    let extra_ff = if n > 8.0 {
        (n - 8.0) * (n - 8.0) * 60.0
    } else {
        0.0
    };
    (
        (lb + lm * n + extra).round() as u32,
        (fb + fm * n + extra_ff).round() as u32,
    )
}

/// LUT/FF of one circuit at a parameter width of `bytes_per_value`.
/// The 32-bit figure is the synthesis characterization when Table 3
/// has the cell and the linear model otherwise. Other widths split it
/// into a width-independent control base and a datapath share that
/// scales linearly with the operand width: a Q16 multiply–add keeps
/// its FSMs and address generators but halves its operand registers
/// and adder trees, so a 16-bit circuit lands at
/// `base + (lut32 − base) · 16/32`. Wider analysis formats scale up
/// symmetrically.
pub fn lut_ff(layer: LayerName, parallelism: usize, bytes_per_value: usize) -> (u32, u32) {
    let (lut32, ff32) = characterized_lut_ff(layer, parallelism)
        .unwrap_or_else(|| modelled_lut_ff(layer, parallelism));
    if bytes_per_value == 4 {
        return (lut32, ff32);
    }
    let (lb, _, fb, _) = lut_ff_coeffs(layer);
    let scale = (bytes_per_value * 8) as f64 / 32.0;
    let lut = lb + (lut32 as f64 - lb).max(0.0) * scale;
    let ff = fb + (ff32 as f64 - fb).max(0.0) * scale;
    (lut.round() as u32, ff.round() as u32)
}

/// Full resource report for one ODEBlock circuit.
pub fn ode_block_resources(layer: LayerName, parallelism: usize) -> ResourceReport {
    assert!(parallelism >= 1, "at least one multiply-add unit");
    let geom = layer_geom(layer);
    assert!(
        parallelism <= geom.c,
        "parallelism is bounded by the output channel count ({})",
        geom.c
    );
    let bram18 = feature_buffer_bram18(geom, 4) + weight_bank_bram18(geom, parallelism, 4);
    let characterized = characterized_lut_ff(layer, parallelism).is_some();
    let (lut, ff) = lut_ff(layer, parallelism, 4);
    ResourceReport {
        layer,
        parallelism,
        bram18,
        dsp: dsp_slices(parallelism, 4),
        lut,
        ff,
        characterized,
    }
}

/// Total BRAM36-equivalents of one ODEBlock circuit at a given parameter
/// width (4 = the paper's 32-bit build).
pub fn bram36_at_width(layer: LayerName, parallelism: usize, bytes_per_value: usize) -> f64 {
    let geom = layer_geom(layer);
    (feature_buffer_bram18(geom, bytes_per_value)
        + weight_bank_bram18(geom, parallelism, bytes_per_value)) as f64
        / 2.0
}

/// Bytes of parameters one offloaded stage's circuit holds at the
/// given word width — the block's convolution weights and batch-norm
/// terms as priced by [`rodenet::params::block_bytes`], with the
/// variant's ODE/plain flavor resolved from `spec`. This is the
/// payload a replica broadcast ships to each extra carrier of the
/// stage (see [`crate::replica`]).
pub fn stage_param_bytes(spec: &rodenet::NetSpec, layer: LayerName, bytes_per_value: usize) -> u64 {
    let plan = spec.plan(layer);
    (plan.stacked.max(1)
        * rodenet::params::block_bytes(layer, plan.is_ode, spec.classes, bytes_per_value))
        as u64
}

/// Aggregate `(BRAM36, DSP, LUT, FF)` demand of a multi-circuit
/// placement — the totals a board must offer to carry every circuit
/// simultaneously. Each `(layer, bytes_per_value)` pair is priced at
/// its own word width, so a mixed-precision placement sums its
/// differently-sized circuits. The single summation behind
/// [`crate::planner::OffloadTarget::fits`].
pub fn placement_resources(
    stages: &[(LayerName, usize)],
    parallelism: usize,
) -> (f64, u32, u32, u32) {
    let mut bram36 = 0.0f64;
    let mut dsp = 0u32;
    let mut lut = 0u32;
    let mut ff = 0u32;
    for &(layer, bytes_per_value) in stages {
        bram36 += bram36_at_width(layer, parallelism, bytes_per_value);
        dsp += dsp_slices(parallelism, bytes_per_value);
        let (l, f) = lut_ff(layer, parallelism, bytes_per_value);
        lut += l;
        ff += f;
    }
    (bram36, dsp, lut, ff)
}

/// Maximum PL clock the conv_x·n circuit closes timing at, in Hz.
///
/// The paper reports that conv_x32 alone fails the 100 MHz constraint; the
/// model degrades the achievable clock with the log of the adder-tree
/// depth beyond 16 units.
pub fn timing_closure_hz(parallelism: usize) -> u64 {
    if parallelism <= 16 {
        100_000_000
    } else {
        90_000_000 // the paper's conv_x32 misses 100 MHz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_bram_exact_all_cells() {
        // (layer, n, BRAM36) — all 12 published cells.
        let cells = [
            (LayerName::Layer1, 1, 56.0),
            (LayerName::Layer1, 4, 56.0),
            (LayerName::Layer1, 8, 56.0),
            (LayerName::Layer1, 16, 64.0),
            (LayerName::Layer2_2, 1, 56.0),
            (LayerName::Layer2_2, 4, 56.0),
            (LayerName::Layer2_2, 8, 56.0),
            (LayerName::Layer2_2, 16, 56.0),
            (LayerName::Layer3_2, 1, 140.0),
            (LayerName::Layer3_2, 4, 140.0),
            (LayerName::Layer3_2, 8, 140.0),
            (LayerName::Layer3_2, 16, 140.0),
        ];
        for (layer, n, bram) in cells {
            let r = ode_block_resources(layer, n);
            assert_eq!(r.bram36_used(), bram, "{layer} conv_x{n}");
        }
    }

    #[test]
    fn table3_dsp_exact_all_cells() {
        for n in [1usize, 4, 8, 16] {
            let expect = match n {
                1 => 8,
                4 => 20,
                8 => 36,
                16 => 68,
                _ => unreachable!(),
            };
            for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
                assert_eq!(
                    ode_block_resources(layer, n).dsp,
                    expect,
                    "{layer} conv_x{n}"
                );
            }
        }
    }

    #[test]
    fn table3_percentages() {
        // Spot-check the printed percentages.
        let r = ode_block_resources(LayerName::Layer3_2, 16);
        let [bram, dsp, lut, ff] = r.utilization(&PYNQ_Z2);
        assert_eq!(bram, 100.0);
        assert!((dsp - 30.91).abs() < 0.01, "dsp {dsp}");
        assert!((lut - 23.91).abs() < 0.01, "lut {lut}");
        assert!((ff - 5.99).abs() < 0.01, "ff {ff}");
        let r1 = ode_block_resources(LayerName::Layer1, 16);
        let [bram, dsp, ..] = r1.utilization(&PYNQ_Z2);
        assert!((bram - 45.71).abs() < 0.01, "bram {bram}");
        assert!((dsp - 30.91).abs() < 0.01);
    }

    #[test]
    fn characterized_cells_used_verbatim() {
        let r = ode_block_resources(LayerName::Layer2_2, 8);
        assert!(r.characterized);
        assert_eq!((r.lut, r.ff), (4737, 2032));
    }

    #[test]
    fn model_close_to_characterization() {
        // The linear model should land within ~20% of synthesis for the
        // characterized points (synthesis is noisy; BRAM/DSP carry the
        // exactness requirements, LUT/FF do not).
        for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
            for n in [1usize, 4, 8] {
                let (ml, mf) = modelled_lut_ff(layer, n);
                let (cl, cf) = characterized_lut_ff(layer, n).unwrap();
                assert!(
                    (ml as f64 / cl as f64 - 1.0).abs() < 0.10,
                    "{layer} x{n} lut model {ml} vs {cl}"
                );
                assert!(
                    (mf as f64 / cf as f64 - 1.0).abs() < 0.10,
                    "{layer} x{n} ff model {mf} vs {cf}"
                );
            }
        }
        // The superlinear correction keeps n = 16 in the right range too.
        let (ml, _) = modelled_lut_ff(LayerName::Layer3_2, 16);
        let (cl, _) = characterized_lut_ff(LayerName::Layer3_2, 16).unwrap();
        assert!(
            (ml as f64 / cl as f64 - 1.0).abs() < 0.35,
            "x16 lut {ml} vs {cl}"
        );
    }

    #[test]
    fn uncharacterized_falls_back_to_model() {
        let r = ode_block_resources(LayerName::Layer3_2, 32);
        assert!(!r.characterized);
        assert!(r.lut > 12_720, "32 units need more LUTs than 16");
        assert_eq!(r.dsp, 132);
    }

    #[test]
    fn layer1_and_layer2_2_fit_together() {
        // §3.2 case 3: both layers on the PL simultaneously.
        let a = ode_block_resources(LayerName::Layer1, 16);
        let b = ode_block_resources(LayerName::Layer2_2, 16);
        let bram = a.bram36_used() + b.bram36_used();
        assert!(bram <= PYNQ_Z2.bram36 as f64, "56+64 = 120 ≤ 140");
        assert!(a.dsp + b.dsp <= PYNQ_Z2.dsp);
    }

    #[test]
    fn layer3_2_excludes_everything_else() {
        // §3.2: layer3_2 at 100% BRAM cannot share with another layer.
        let a = ode_block_resources(LayerName::Layer3_2, 16);
        let b = ode_block_resources(LayerName::Layer1, 1);
        assert!(a.bram36_used() + b.bram36_used() > PYNQ_Z2.bram36 as f64);
        assert!(a.fits(&PYNQ_Z2), "alone it fits exactly");
    }

    #[test]
    fn reduced_width_frees_bram() {
        // Footnote 2: at 16-bit, layer3_2 drops well below 100% BRAM and
        // can share the fabric with layer1 — "more layers in PL".
        let full = bram36_at_width(LayerName::Layer3_2, 16, 4);
        let half = bram36_at_width(LayerName::Layer3_2, 16, 2);
        assert_eq!(full, 140.0);
        assert!(half < 80.0, "16-bit layer3_2 = {half} BRAM36");
        let l1_half = bram36_at_width(LayerName::Layer1, 16, 2);
        assert!(
            half + l1_half <= PYNQ_Z2.bram36 as f64,
            "16-bit layer3_2 + layer1 fit together: {half} + {l1_half}"
        );
    }

    #[test]
    fn dsp_tiling_by_width() {
        // 4-byte (paper) = 4 per MAC is pinned on every Table 3 cell by
        // `table3_dsp_exact_all_cells`; the other widths follow the
        // ⌈b/25⌉·⌈b/18⌉ tiling of the 25×18 multiplier.
        assert_eq!(dsp_slices(16, 2), 16 + 4);
        assert_eq!(dsp_slices(16, 1), 16 + 4);
        assert_eq!(dsp_slices(16, 3), 2 * 16 + 4, "24-bit needs 1×2 tiles");
        assert_eq!(dsp_slices(16, 8), 12 * 16 + 4, "64-bit needs 3×4 tiles");
    }

    #[test]
    fn width_aware_lut_ff_scales_datapath_only() {
        for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
            // The paper's width reproduces all 12 characterized cells.
            for n in [1usize, 4, 8, 16] {
                assert_eq!(
                    Some(lut_ff(layer, n, 4)),
                    characterized_lut_ff(layer, n),
                    "{layer} x{n}"
                );
            }
            for n in [1usize, 8, 16] {
                // Narrower words shrink, wider grow — monotone in width.
                let (l16, f16) = lut_ff(layer, n, 2);
                let (l32, f32v) = lut_ff(layer, n, 4);
                let (l64, f64v) = lut_ff(layer, n, 8);
                assert!(l16 < l32 && l32 < l64, "{layer} x{n} lut {l16}/{l32}/{l64}");
                assert!(f16 < f32v && f32v < f64v, "{layer} x{n} ff");
                // The control base never scales away: a 1-byte datapath
                // still carries more than half the base logic.
                let (l8, _) = lut_ff(layer, n, 1);
                let (lb, _, _, _) = lut_ff_coeffs(layer);
                assert!(l8 as f64 >= lb, "{layer} x{n}: {l8} under base {lb}");
            }
        }
    }

    #[test]
    fn lut_bound_placement_unlocked_by_reduced_width() {
        // The ROADMAP's LUT/FF-characterization item: a fabric with
        // plenty of BRAM/DSP but few LUTs rejects layer1+layer2_2 at
        // conv_x16/Q20 (17 838 LUTs characterized) yet admits it at Q16
        // (the datapath share halves to ≈9 970) — reduced-width shards
        // must not be gated by the conservative 32-bit table.
        use crate::plan::PlFormat;
        use crate::planner::OffloadTarget;
        let mut lut_starved = PYNQ_Z2;
        lut_starved.lut = 12_000;
        let t = OffloadTarget::Layer1And22;
        assert!(
            !t.fits(&lut_starved, 16, &PlFormat::Q20.into()),
            "17 838 LUTs at 32-bit exceed the 12 000 budget"
        );
        assert!(
            t.fits(&lut_starved, 16, &PlFormat::Q16 { frac: 8 }.into()),
            "the halved datapath fits the same budget at 16-bit"
        );
        // And it is genuinely the LUT axis that flips: BRAM/DSP fit at
        // both widths on this fabric.
        let bram: f64 = t.layers().iter().map(|&l| bram36_at_width(l, 16, 4)).sum();
        assert!(bram <= lut_starved.bram36 as f64);
        assert!(2 * dsp_slices(16, 4) <= lut_starved.dsp);
    }

    #[test]
    fn placement_totals_sum_the_circuits() {
        use rodenet::LayerName::{Layer1, Layer2_2};
        let (b1, d1, l1, f1) = placement_resources(&[(Layer1, 4)], 16);
        let (b2, d2, l2, f2) = placement_resources(&[(Layer2_2, 2)], 16);
        let (b, d, l, f) = placement_resources(&[(Layer1, 4), (Layer2_2, 2)], 16);
        assert_eq!(b, b1 + b2);
        assert_eq!((d, l, f), (d1 + d2, l1 + l2, f1 + f2));
        assert_eq!(b1, bram36_at_width(Layer1, 16, 4));
        assert_eq!(
            placement_resources(&[], 16),
            (0.0, 0, 0, 0),
            "a software placement demands nothing"
        );
    }

    #[test]
    fn timing_closure_rule() {
        assert_eq!(timing_closure_hz(16), 100_000_000);
        assert!(timing_closure_hz(32) < 100_000_000, "conv_x32 fails timing");
    }

    #[test]
    #[should_panic(expected = "offloadable")]
    fn downsample_layers_not_offloadable() {
        let _ = layer_geom(LayerName::Layer2_1);
    }

    #[test]
    #[should_panic(expected = "bounded by the output channel count")]
    fn parallelism_bounded_by_channels() {
        let _ = ode_block_resources(LayerName::Layer1, 32);
    }
}
