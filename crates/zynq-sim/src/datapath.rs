//! The ODEBlock datapath: cycle-accurate timing + bit-exact Q20 execution.
//!
//! ## Cycle model (§3.1)
//!
//! The convolution engine is a non-pipelined multiply–add loop: for every
//! output position it iterates over `ceil(O/n)` output-channel groups; a
//! group performs the `9·C` multiply–adds of a 3×3 window over the C data
//! channels at **5 cycles per MAC** plus 3 cycles of group bookkeeping.
//! Each position additionally pays a window-load/write-back overhead of
//! `2·9·C + O + 49` cycles (loading the 3×3×C window into the operand
//! registers at 2 cycles per word, writing O outputs through the ReLU
//! mux, and fixed control). The t-channel contribution rides the bias
//! path of the MAC array and does not lengthen the loop.
//!
//! ```text
//! conv_cycles(n) = P·⌈O/n⌉·(9·C·5 + 3) + P·(2·9·C + O + 49)
//! ```
//!
//! For layer3_2 (P = 64, O = C = 64) the two convolutions of one block
//! take 23 779 456 / 6 066 304 / 3 114 112 / 1 638 016 / 899 968 cycles
//! at n = 1/4/8/16/32 — the paper reports 23.78M / 6.07M / 3.12M / 1.64M
//! / 0.90M (the n = 8 cell differs by 0.2 %, inside the paper's rounding).
//!
//! Batch-norm statistics accumulate in parallel with the convolution
//! write-back; only the divider and square-root latencies remain on the
//! critical path (34 cycles each, one mean division + one σ root + one
//! reciprocal per channel). The Euler update is folded into write-back.
//!
//! ## Numerics
//!
//! Execution delegates to [`rodenet::QuantBlock`] over [`qfixed::Q20`] —
//! the same wide-accumulate / truncate-once semantics as the DSP48
//! cascade, so the simulator's outputs are bit-exact with a Q20 software
//! reference by construction (tested in `tests/`).
//!
//! Like the circuit, which loads its quantized weights into BRAM once
//! and then streams feature maps past them, [`OdeBlockAccel::new`] packs
//! both convs' weights once ([`tensor::conv::ConvWeights`]). Both are
//! stride-1 3×3 convs, so the packing holds their exact integer
//! Winograd F(2×2,3×3) rows, and every Euler step's conv transforms only
//! its input and runs 16 multiplies per output tile and channel pair
//! instead of 36 through the offset-binary core, bit-identical to the
//! direct sum; an input past the route's bound (`|x| ≥ 512` at Q20)
//! takes the direct core. The 16-bit formats run the same route. This
//! changes host time only: the cycle and resource model above is the
//! circuit's direct multiply–add loop.

use crate::board::Board;
#[cfg(test)]
use crate::board::PYNQ_Z2;
use crate::resources::{layer_geom, timing_closure_hz, LayerGeom};
use qfixed::Q20;
use rodenet::{LayerName, QuantBlock, ResBlock};
use tensor::{Scalar, Tensor};

/// Cycles per multiply–add in the non-pipelined conv loop.
pub const MAC_CYCLES: u64 = 5;
/// Bookkeeping cycles per output-channel group.
pub const GROUP_CYCLES: u64 = 3;
/// Fixed per-position control cycles.
pub const POS_FIXED_CYCLES: u64 = 49;
/// Divider latency (32-bit restoring divider: one bit per cycle + setup).
pub const DIV_CYCLES: u64 = 34;
/// Square-root unit latency (non-restoring, one bit pair per cycle).
pub const SQRT_CYCLES: u64 = 34;

/// Cycles of one 3×3 convolution over `geom` with `n` multiply–add units.
pub fn conv_cycles(geom: LayerGeom, n: usize) -> u64 {
    assert!(n >= 1 && n <= geom.c);
    let p = (geom.hw * geom.hw) as u64;
    let o = geom.c as u64;
    let c = geom.c as u64;
    let groups = o.div_ceil(n as u64);
    let per_group = 9 * c * MAC_CYCLES + GROUP_CYCLES;
    let per_pos_overhead = 2 * 9 * c + o + POS_FIXED_CYCLES;
    p * groups * per_group + p * per_pos_overhead
}

/// Post-accumulation batch-norm cycles for one BN (statistics are
/// pipelined with write-back; div/sqrt/reciprocal remain).
pub fn bn_cycles(geom: LayerGeom) -> u64 {
    geom.c as u64 * (DIV_CYCLES + SQRT_CYCLES + DIV_CYCLES)
}

/// Cycles of one full block execution: two convolutions + two batch
/// norms (ReLU and the Euler update ride the write-back path).
pub fn block_exec_cycles(layer: LayerName, n: usize) -> u64 {
    let geom = layer_geom(layer);
    2 * conv_cycles(geom, n) + 2 * bn_cycles(geom)
}

/// AXI DMA 32-bit bus words to enter + leave an offloaded stage at a
/// value width of `bytes_per_value` (1 cycle per bus word — the paper's
/// stated optimistic assumption). A 16-bit feature map packs two
/// values per bus word, halving the transfer (the footnote-2
/// reduced-width datapath). The feature map stays resident in BRAM
/// between repeated executions.
pub fn dma_words(layer: LayerName, bytes_per_value: usize) -> u64 {
    let geom = layer_geom(layer);
    (2 * geom.c * geom.hw * geom.hw * bytes_per_value).div_ceil(4) as u64
}

/// Cycles for a whole offloaded stage: `execs` block runs + one DMA
/// round trip at `bytes_per_value`. The compute cycles are
/// width-independent — the MAC loop issues one multiply–add per
/// element either way — but the DMA round trip shrinks with the word.
pub fn stage_cycles(layer: LayerName, n: usize, execs: usize, bytes_per_value: usize) -> u64 {
    execs as u64 * block_exec_cycles(layer, n) + dma_words(layer, bytes_per_value)
}

/// Outcome of a simulated accelerator invocation.
#[derive(Clone, Debug)]
pub struct AccelRun<S: Scalar = Q20> {
    /// The output feature map in the circuit's number system, bit-exact
    /// with the hardware.
    pub output: Tensor<S>,
    /// Modelled PL cycles consumed.
    pub cycles: u64,
    /// Modelled wall-clock seconds at the configured clock.
    pub seconds: f64,
}

/// A simulated ODEBlock accelerator: one layer's circuit configured with
/// `n` multiply–add units, holding the quantized parameters in its BRAM.
///
/// The scalar type `S` is the circuit's word format — [`Q20`] is the
/// paper's build; 16-bit formats ([`qfixed::Fix16`]) model the
/// footnote-2 reduced-width datapath (same cycle counts, half the DMA
/// words — see [`stage_cycles`]).
#[derive(Clone, Debug)]
pub struct OdeBlockAccel<S: Scalar = Q20> {
    /// The quantized block resident in BRAM.
    pub block: QuantBlock<S>,
    /// conv_x·n configuration.
    pub parallelism: usize,
    /// PL clock (defaults to the closed timing of the configuration).
    pub clock_hz: u64,
}

impl<S: Scalar> OdeBlockAccel<S> {
    /// Quantize `block` and load it into a simulated circuit with `n`
    /// multiply–add units on `board`.
    pub fn new(block: &ResBlock, parallelism: usize, board: &Board) -> Self {
        assert_eq!(
            block.stride, 1,
            "the PL circuit implements shape-preserving blocks"
        );
        let clock = timing_closure_hz(parallelism).min(board.pl_clock_hz);
        OdeBlockAccel {
            block: block.quantize(),
            parallelism,
            clock_hz: clock,
        }
    }

    /// Execute the stage as the hardware does: DMA in, `execs` Euler
    /// steps with the feature map resident in BRAM, DMA out.
    pub fn run_stage(&self, z: &Tensor<S>, execs: usize) -> AccelRun<S> {
        let output = if self.block.time_aug {
            self.block.ode_forward(z, execs)
        } else {
            assert_eq!(execs, 1, "plain blocks execute once");
            self.block.residual_forward(z)
        };
        let cycles = stage_cycles(self.block.layer, self.parallelism, execs, S::BYTES);
        AccelRun {
            output,
            cycles,
            seconds: cycles as f64 / self.clock_hz as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Shape4;

    #[test]
    fn section31_layer3_2_cycle_counts() {
        // The five published layer3_2 numbers (both convs, in Mcycles).
        let geom = layer_geom(LayerName::Layer3_2);
        let expect = [
            (1usize, 23.78),
            (4, 6.07),
            (8, 3.12), // paper prints 3.12; the exact A/n law gives 3.114
            (16, 1.64),
            (32, 0.90),
        ];
        for (n, m) in expect {
            let got = 2.0 * conv_cycles(geom, n) as f64 / 1e6;
            assert!(
                (got - m).abs() < 0.011,
                "conv_x{n}: {got:.3}M vs paper {m}M"
            );
        }
        // And the exactly-reproduced cells:
        assert_eq!(2 * conv_cycles(geom, 1), 23_779_456);
        assert_eq!(2 * conv_cycles(geom, 4), 6_066_304);
        assert_eq!(2 * conv_cycles(geom, 16), 1_638_016);
        assert_eq!(2 * conv_cycles(geom, 32), 899_968);
    }

    #[test]
    fn cycles_scale_inversely_with_macs() {
        let geom = layer_geom(LayerName::Layer2_2);
        let c1 = conv_cycles(geom, 1);
        let c16 = conv_cycles(geom, 16);
        // "execution cycles decrease in inverse proportion" modulo the
        // fixed per-position overhead.
        let ratio = c1 as f64 / c16 as f64;
        assert!(ratio > 10.0 && ratio < 16.0, "{ratio}");
    }

    #[test]
    fn footnote1_conv_dominates_at_x1() {
        // "The two convolution steps consume about 99% of execution
        // cycles of layer3_2 when only a single multiply-add unit is used".
        let layer = LayerName::Layer3_2;
        let conv = 2 * conv_cycles(layer_geom(layer), 1);
        let total = block_exec_cycles(layer, 1);
        let ratio = conv as f64 / total as f64;
        assert!(ratio > 0.99, "conv share {ratio}");
    }

    #[test]
    fn bn_cycles_are_small() {
        let geom = layer_geom(LayerName::Layer3_2);
        assert_eq!(bn_cycles(geom), 64 * 102);
        let share =
            (2 * bn_cycles(geom)) as f64 / block_exec_cycles(LayerName::Layer3_2, 16) as f64;
        assert!(share < 0.01, "{share}");
    }

    #[test]
    fn dma_words_match_feature_maps() {
        assert_eq!(dma_words(LayerName::Layer3_2, 4), 2 * 64 * 64);
        assert_eq!(dma_words(LayerName::Layer1, 4), 2 * 16 * 1024);
    }

    #[test]
    fn accel_is_bit_exact_with_quantized_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        let block = ResBlock::new(&mut rng, LayerName::Layer1, true);
        let accel = OdeBlockAccel::new(&block, 16, &PYNQ_Z2);
        use rand::Rng;
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 16, 32, 32), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let reference = block.quantize::<Q20>().ode_forward(&xq, 3);
        let run = accel.run_stage(&xq, 3);
        assert_eq!(
            run.output.as_slice(),
            reference.as_slice(),
            "simulated PL must equal the Q20 software reference bit-for-bit"
        );
    }

    #[test]
    fn stage_timing_rodenet3_56() {
        // 24 executions of layer3_2 at conv_x16, 100 MHz → ≈ 0.40 s
        // (Table 5 "Target w/ PL").
        let cycles = stage_cycles(LayerName::Layer3_2, 16, 24, 4);
        let secs = PYNQ_Z2.pl_seconds(cycles);
        assert!((secs - 0.40).abs() < 0.005, "{secs}");
    }

    #[test]
    fn reduced_width_halves_dma() {
        assert_eq!(dma_words(LayerName::Layer3_2, 2), 64 * 64);
        // Compute cycles are width-independent; only the DMA share shrinks.
        let full = stage_cycles(LayerName::Layer3_2, 16, 6, 4);
        let half = stage_cycles(LayerName::Layer3_2, 16, 6, 2);
        assert_eq!(full - half, dma_words(LayerName::Layer3_2, 4) / 2);
    }

    #[test]
    fn sixteen_bit_accel_is_bit_exact_with_fix16_reference() {
        use qfixed::Fix16;
        let mut rng = StdRng::seed_from_u64(91);
        let block = ResBlock::new(&mut rng, LayerName::Layer1, true);
        let accel: OdeBlockAccel<Fix16<10>> = OdeBlockAccel::new(&block, 16, &PYNQ_Z2);
        use rand::Rng;
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 16, 16, 16), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let xq: Tensor<Fix16<10>> = Tensor::from_f32_tensor(&x);
        let reference = block.quantize::<Fix16<10>>().ode_forward(&xq, 2);
        let run = accel.run_stage(&xq, 2);
        assert_eq!(run.output.as_slice(), reference.as_slice());
        assert_eq!(
            run.cycles,
            stage_cycles(LayerName::Layer1, 16, 2, 2),
            "16-bit stage pays half the DMA words"
        );
    }

    #[test]
    fn conv_x32_runs_at_reduced_clock() {
        let mut rng = StdRng::seed_from_u64(5);
        let block = ResBlock::new(&mut rng, LayerName::Layer3_2, true);
        let accel: OdeBlockAccel = OdeBlockAccel::new(&block, 32, &PYNQ_Z2);
        assert!(accel.clock_hz < 100_000_000);
    }
}
