//! End-to-end prediction-latency model — Table 5 of the paper.
//!
//! The PS side is a **calibrated software-cost model** of the Cortex-A9:
//! per-block-execution cycle costs least-squares fitted to the 48 "w/o
//! PL" cells of Table 5 (fit residual < 0.02 s, which is the scatter of
//! the paper's own measurements — e.g. the implied per-execution time of
//! layer1 varies between 61.6 and 62.9 ms across rows). An analytic
//! fallback (cycles per MAC / per element) covers configurations outside
//! the paper's grid. The calibration reproduces the published table; it
//! is not claimed to decompose the ARM's microarchitecture physically.
//!
//! The PL side is the cycle model of [`crate::datapath`] at the closed
//! clock, plus the paper's 1-cycle-per-word DMA assumption.

use crate::board::{Board, PYNQ_Z2};
use crate::planner::OffloadTarget;
use crate::precision::StageFormats;
use crate::resources::timing_closure_hz;
use rodenet::{LayerName, NetSpec, Variant};

/// Calibrated per-execution PS cycles (650 MHz Cortex-A9, fitted to
/// Table 5; see module docs).
mod calibrated {
    /// layer1 as an ODE block (time-augmented convs).
    pub const L1_ODE: u64 = 39_977_808;
    /// layer1 as a plain block.
    pub const L1_PLAIN: u64 = 35_823_376;
    /// layer2_2 as an ODE block.
    pub const L22_ODE: u64 = 36_004_596;
    /// layer2_2 as a plain block.
    pub const L22_PLAIN: u64 = 38_377_324;
    /// layer3_2 as an ODE block.
    pub const L32_ODE: u64 = 37_457_529;
    /// layer3_2 as a plain block.
    pub const L32_PLAIN: u64 = 38_974_196;
    /// conv1 pre-processing.
    pub const CONV1: u64 = 5_000_000;
    /// layer2_1 downsample block.
    pub const L21: u64 = 28_800_000;
    /// layer3_1 downsample block.
    pub const L31: u64 = 28_800_000;
    /// Pool + FC + softmax.
    pub const FC: u64 = 1_000_000;
    /// Per-inference framework overhead of the PYNQ software stack
    /// (the residue of the fit: ~38 ms — realistic for a Python-driven
    /// inference loop on the board).
    pub const RUNTIME: u64 = 24_927_250;
}

/// Multiply–accumulates of one block execution on `layer`.
pub fn block_macs(layer: LayerName, is_ode: bool) -> u64 {
    let (c, hw) = layer.geometry();
    let t = u64::from(is_ode);
    match layer {
        LayerName::Conv1 => 32 * 32 * 16 * 9 * 3,
        LayerName::Fc => 64 * 100,
        LayerName::Layer2_1 | LayerName::Layer3_1 => {
            let p = (hw * hw) as u64;
            let o = c as u64;
            let i = o / 2;
            p * o * 9 * i + p * o * 9 * o
        }
        _ => {
            let p = (hw * hw) as u64;
            let o = c as u64;
            2 * p * o * 9 * (o + t)
        }
    }
}

/// Element-wise work (BN + ReLU + residual add) of one block execution.
pub fn block_elems(layer: LayerName) -> u64 {
    let (c, hw) = layer.geometry();
    match layer {
        LayerName::Conv1 => (c * hw * hw * 2) as u64,
        LayerName::Fc => 64 * 64 + 300,
        _ => (c * hw * hw * 4) as u64,
    }
}

/// The PS (software) cost model.
#[derive(Clone, Copy, Debug)]
pub enum PsModel {
    /// Per-block costs fitted to Table 5 (default).
    Calibrated,
    /// Analytic: `cycles = macs·a + elems·b + c` per block execution.
    Analytic {
        /// Cycles per multiply–accumulate.
        cycles_per_mac: f64,
        /// Cycles per element-wise operation.
        cycles_per_elem: f64,
        /// Fixed cycles per block execution.
        cycles_per_block: f64,
    },
}

impl PsModel {
    /// The analytic model with constants matching the calibrated fit's
    /// global averages (≈ 7.6 cycles/MAC — a plausible scalar-FPU ARM).
    pub fn analytic_default() -> Self {
        PsModel::Analytic {
            cycles_per_mac: 7.6,
            cycles_per_elem: 12.0,
            cycles_per_block: 500_000.0,
        }
    }

    /// PS cycles for one execution of a residual-layer block.
    pub fn block_exec_cycles(&self, layer: LayerName, is_ode: bool) -> u64 {
        match self {
            PsModel::Calibrated => match (layer, is_ode) {
                (LayerName::Layer1, true) => calibrated::L1_ODE,
                (LayerName::Layer1, false) => calibrated::L1_PLAIN,
                (LayerName::Layer2_2, true) => calibrated::L22_ODE,
                (LayerName::Layer2_2, false) => calibrated::L22_PLAIN,
                (LayerName::Layer3_2, true) => calibrated::L32_ODE,
                (LayerName::Layer3_2, false) => calibrated::L32_PLAIN,
                (LayerName::Layer2_1, _) => calibrated::L21,
                (LayerName::Layer3_1, _) => calibrated::L31,
                (LayerName::Conv1, _) => calibrated::CONV1,
                (LayerName::Fc, _) => calibrated::FC,
            },
            PsModel::Analytic {
                cycles_per_mac,
                cycles_per_elem,
                cycles_per_block,
            } => {
                (block_macs(layer, is_ode) as f64 * cycles_per_mac
                    + block_elems(layer) as f64 * cycles_per_elem
                    + cycles_per_block) as u64
            }
        }
    }

    /// Per-inference fixed overhead outside the residual stages.
    pub fn runtime_overhead_cycles(&self) -> u64 {
        match self {
            PsModel::Calibrated => calibrated::RUNTIME,
            PsModel::Analytic { .. } => 10_000_000,
        }
    }

    /// Total PS cycles for a full software inference of `spec`.
    pub fn spec_cycles(&self, spec: &NetSpec) -> u64 {
        let mut total = self.block_exec_cycles(LayerName::Conv1, false)
            + self.block_exec_cycles(LayerName::Fc, false)
            + self.runtime_overhead_cycles();
        for layer in [
            LayerName::Layer1,
            LayerName::Layer2_1,
            LayerName::Layer2_2,
            LayerName::Layer3_1,
            LayerName::Layer3_2,
        ] {
            let plan = spec.plan(layer);
            total += (plan.total_execs() as u64) * self.block_exec_cycles(layer, plan.is_ode);
        }
        total
    }

    /// PS cycles for one stage of `execs` block runs — the integer
    /// counterpart of [`PsModel::stage_seconds`], for callers that
    /// accumulate several stages into one segment before converting
    /// (the cluster scheduler's merged PS segments).
    pub fn stage_cycles(&self, layer: LayerName, is_ode: bool, execs: usize) -> u64 {
        execs as u64 * self.block_exec_cycles(layer, is_ode)
    }

    /// PS seconds for one stage of `execs` block runs.
    pub fn stage_seconds(
        &self,
        layer: LayerName,
        is_ode: bool,
        execs: usize,
        board: &Board,
    ) -> f64 {
        board.ps_seconds(execs as u64 * self.block_exec_cycles(layer, is_ode))
    }

    /// Seconds for a full software inference.
    pub fn spec_seconds(&self, spec: &NetSpec, board: &Board) -> f64 {
        board.ps_seconds(self.spec_cycles(spec))
    }
}

/// The PL (circuit) timing model.
#[derive(Clone, Copy, Debug)]
pub struct PlModel {
    /// conv_x·n multiply–add units (16 is the paper's default).
    pub parallelism: usize,
}

impl Default for PlModel {
    fn default() -> Self {
        PlModel { parallelism: 16 }
    }
}

impl PlModel {
    /// Reject a circuit no timing model can price: conv_x0 has no
    /// multiply–add unit.
    pub(crate) fn validate(&self) -> Result<(), crate::engine::EngineError> {
        if self.parallelism == 0 {
            return Err(crate::engine::EngineError::InvalidHardware {
                board: None,
                reason: "PL parallelism is 0: a conv_x0 circuit has no multiply-add unit"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Seconds for an offloaded stage of `execs` block runs (including
    /// the DMA round trip) at the configuration's closed clock and a PL
    /// word width of `bytes_per_value`: the compute cycles are
    /// width-independent, the DMA round trip scales with the word (see
    /// [`crate::datapath::stage_cycles`]).
    pub fn stage_seconds(
        &self,
        layer: LayerName,
        execs: usize,
        board: &Board,
        bytes_per_value: usize,
    ) -> f64 {
        let clock = timing_closure_hz(self.parallelism).min(board.pl_clock_hz);
        crate::datapath::stage_cycles(layer, self.parallelism, execs, bytes_per_value) as f64
            / clock as f64
    }

    /// Per-image PL busy seconds of one board carrying every layer of
    /// `target` for `spec` (each ODE stage repeats its solver steps,
    /// plain stages run once; DMA included), each stage's DMA share
    /// priced at its own format in `formats`. This is the per-board
    /// term the partitioner's balanced search drives down — and a
    /// cheap lower bound on any schedule's makespan share for that
    /// board ([`crate::partition::Partitioner::BalancedMakespan`]
    /// prunes candidates with it before simulating).
    pub fn placement_seconds(
        &self,
        spec: &NetSpec,
        target: &OffloadTarget,
        board: &Board,
        formats: &StageFormats,
    ) -> f64 {
        target
            .layers()
            .iter()
            .map(|&layer| {
                let plan = spec.plan(layer);
                let execs = if plan.is_ode { plan.execs } else { 1 };
                self.stage_seconds(layer, execs, board, formats.bytes_of(layer))
            })
            .sum()
    }
}

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// The architecture.
    pub variant: Variant,
    /// Depth N.
    pub n: usize,
    /// Offloaded layers (empty for the software baseline).
    pub offload: Vec<LayerName>,
    /// "Total w/o PL" — full software latency in seconds.
    pub total_wo_pl: f64,
    /// "Target w/o PL" — software latency of each offloaded stage.
    pub targets_wo_pl: Vec<f64>,
    /// "Ratio of target [%]".
    pub ratio_pct: Vec<f64>,
    /// "Target w/ PL" — circuit latency of each offloaded stage.
    pub targets_w_pl: Vec<f64>,
    /// "Total w/ PL".
    pub total_w_pl: f64,
    /// "Overall speedup" (total w/o ÷ total w/).
    pub speedup: f64,
}

/// Compute one Table 5 row. The PS side is width-independent; each
/// offloaded stage's "Target w/ PL" cell pays its own format's DMA
/// share from `formats` (`&StageFormats::default()` is the paper's
/// uniform 32-bit Q20 build).
pub fn table5_row(
    variant: Variant,
    n: usize,
    offload: &OffloadTarget,
    ps: &PsModel,
    pl: &PlModel,
    board: &Board,
    formats: &StageFormats,
) -> Table5Row {
    let spec = NetSpec::new(variant, n);
    let total_wo_pl = ps.spec_seconds(&spec, board);
    let mut targets_wo_pl = Vec::new();
    let mut targets_w_pl = Vec::new();
    let mut ratio_pct = Vec::new();
    for &layer in offload.layers() {
        let plan = spec.plan(layer);
        assert!(
            plan.stacked == 1,
            "only single-instance (ODE) layers are offloaded in the paper"
        );
        let wo = ps.stage_seconds(layer, plan.is_ode, plan.execs, board);
        let w = pl.stage_seconds(layer, plan.execs, board, formats.bytes_of(layer));
        ratio_pct.push(100.0 * wo / total_wo_pl);
        targets_wo_pl.push(wo);
        targets_w_pl.push(w);
    }
    let total_w_pl =
        total_wo_pl - targets_wo_pl.iter().sum::<f64>() + targets_w_pl.iter().sum::<f64>();
    Table5Row {
        variant,
        n,
        offload: offload.layers().to_vec(),
        total_wo_pl,
        targets_wo_pl,
        ratio_pct,
        targets_w_pl,
        total_w_pl,
        speedup: total_wo_pl / total_w_pl,
    }
}

/// Overall speedup of an offloaded variant against the pure-software
/// ResNet-N baseline (the paper's "2.67× vs ResNet-56" quote).
pub fn speedup_vs_resnet(row: &Table5Row, ps: &PsModel, board: &Board) -> f64 {
    let resnet = ps.spec_seconds(&NetSpec::new(Variant::ResNet, row.n), board);
    resnet / row.total_w_pl
}

/// Default board + paper configuration row helper.
pub fn paper_row(variant: Variant, n: usize) -> Table5Row {
    table5_row(
        variant,
        n,
        &OffloadTarget::paper_default(variant),
        &PsModel::Calibrated,
        &PlModel::default(),
        &PYNQ_Z2,
        &StageFormats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(variant: Variant, n: usize) -> Table5Row {
        paper_row(variant, n)
    }

    #[test]
    fn resnet_totals_match_table5() {
        for (n, expect) in [(20, 0.54), (32, 0.89), (44, 1.24), (56, 1.58)] {
            let r = row(Variant::ResNet, n);
            assert!(
                (r.total_wo_pl - expect).abs() < 0.015,
                "ResNet-{n}: {:.3} vs {expect}",
                r.total_wo_pl
            );
            assert!(r.offload.is_empty());
        }
    }

    #[test]
    fn rodenet3_row_matches_table5() {
        // The paper's headline row: rODENet-3-56.
        let r = row(Variant::ROdeNet3, 56);
        assert!(
            (r.total_wo_pl - 1.57).abs() < 0.02,
            "total w/o {}",
            r.total_wo_pl
        );
        assert!(
            (r.targets_wo_pl[0] - 1.38).abs() < 0.02,
            "target w/o {}",
            r.targets_wo_pl[0]
        );
        assert!(
            (r.ratio_pct[0] - 87.87).abs() < 1.0,
            "ratio {}",
            r.ratio_pct[0]
        );
        assert!(
            (r.targets_w_pl[0] - 0.40).abs() < 0.005,
            "target w/ {}",
            r.targets_w_pl[0]
        );
        assert!(
            (r.total_w_pl - 0.59).abs() < 0.02,
            "total w/ {}",
            r.total_w_pl
        );
        assert!((r.speedup - 2.66).abs() < 0.1, "speedup {}", r.speedup);
    }

    #[test]
    fn pl_targets_match_all_20_cells() {
        // "Target w/ PL" column for every offloaded row of Table 5.
        let cells: [(Variant, usize, &[f64]); 5] = [
            (Variant::ROdeNet1, 20, &[0.15]),
            (Variant::ROdeNet2, 20, &[0.11]),
            (Variant::ROdeNet12, 20, &[0.09, 0.06]),
            (Variant::ROdeNet3, 20, &[0.10]),
            (Variant::Hybrid3, 20, &[0.03]),
        ];
        for (v, n, expect) in cells {
            let r = row(v, n);
            for (got, want) in r.targets_w_pl.iter().zip(expect) {
                assert!((got - want).abs() < 0.006, "{v}-{n}: {got:.4} vs {want}");
            }
        }
        for (n, expect) in [(32, 0.29), (44, 0.42), (56, 0.55)] {
            let r = row(Variant::ROdeNet1, n);
            assert!((r.targets_w_pl[0] - expect).abs() < 0.006, "rODENet-1-{n}");
        }
        for (n, expect) in [(32, 0.22), (44, 0.33), (56, 0.44)] {
            let r = row(Variant::ROdeNet2, n);
            assert!((r.targets_w_pl[0] - expect).abs() < 0.006, "rODENet-2-{n}");
        }
        for (n, expect) in [(32, 0.20), (44, 0.30), (56, 0.40)] {
            let r = row(Variant::ROdeNet3, n);
            assert!((r.targets_w_pl[0] - expect).abs() < 0.006, "rODENet-3-{n}");
        }
        for (n, expect) in [(32, 0.07), (44, 0.10), (56, 0.13)] {
            let r = row(Variant::Hybrid3, n);
            assert!((r.targets_w_pl[0] - expect).abs() < 0.006, "Hybrid-3-{n}");
        }
    }

    #[test]
    fn speedups_track_table5_shape() {
        // rODENet speedups grow with N and beat ODENet-3/Hybrid-3 at
        // every depth (the paper's central performance claim).
        let mut last = 0.0;
        for n in [20usize, 32, 44, 56] {
            let r3 = row(Variant::ROdeNet3, n);
            assert!(r3.speedup > last, "monotone in N");
            last = r3.speedup;
            let h3 = row(Variant::Hybrid3, n);
            assert!(r3.speedup > h3.speedup, "rODENet-3 ≥ Hybrid-3 at N={n}");
            assert!(h3.speedup > 1.1, "even Hybrid-3 gains");
        }
        // Largest overall speedup: rODENet-3-56 ≈ 2.66.
        let r = row(Variant::ROdeNet3, 56);
        assert!(r.speedup > 2.5 && r.speedup < 2.8);
    }

    #[test]
    fn ratio_of_target_bands() {
        // §4.4: layer3_2 is 21–30 % of ODENet-3/Hybrid-3 but 64–88 % of
        // rODENet-3.
        for n in [20usize, 32, 44, 56] {
            let h = row(Variant::Hybrid3, n);
            assert!(
                h.ratio_pct[0] > 18.0 && h.ratio_pct[0] < 32.0,
                "Hybrid-3-{n}: {}",
                h.ratio_pct[0]
            );
            let r = row(Variant::ROdeNet3, n);
            assert!(
                r.ratio_pct[0] > 60.0 && r.ratio_pct[0] < 90.0,
                "rODENet-3-{n}: {}",
                r.ratio_pct[0]
            );
        }
    }

    #[test]
    fn cross_variant_speedup_quote() {
        // "rODENet-3-56 is 2.67 times faster than a software execution of
        //  ResNet-56."
        let r = row(Variant::ROdeNet3, 56);
        let s = speedup_vs_resnet(&r, &PsModel::Calibrated, &PYNQ_Z2);
        assert!((s - 2.67).abs() < 0.1, "{s}");
    }

    #[test]
    fn placement_seconds_sum_the_stages() {
        // One board carrying a multi-layer placement is busy for the
        // sum of its stage times — identical to the "Target w/ PL"
        // cells of the Table 5 row for the same placement.
        let pl = PlModel::default();
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let q16 = StageFormats::from(crate::plan::PlFormat::Q16 { frac: 8 });
        for target in [
            OffloadTarget::None,
            OffloadTarget::Layer1,
            OffloadTarget::Layer1And22,
            OffloadTarget::AllOde,
        ] {
            let busy = pl.placement_seconds(&spec, &target, &PYNQ_Z2, &q16);
            let row = table5_row(
                spec.variant,
                spec.n,
                &target,
                &PsModel::Calibrated,
                &pl,
                &PYNQ_Z2,
                &q16,
            );
            let expect: f64 = row.targets_w_pl.iter().sum();
            assert!(
                (busy - expect).abs() < 1e-12,
                "{target:?}: {busy} vs {expect}"
            );
        }
        assert_eq!(
            pl.placement_seconds(&spec, &OffloadTarget::None, &PYNQ_Z2, &q16),
            0.0
        );
    }

    #[test]
    fn analytic_model_is_same_order() {
        let cal = PsModel::Calibrated;
        let ana = PsModel::analytic_default();
        let spec = NetSpec::new(Variant::ResNet, 32);
        let a = cal.spec_seconds(&spec, &PYNQ_Z2);
        let b = ana.spec_seconds(&spec, &PYNQ_Z2);
        assert!((a / b - 1.0).abs() < 0.3, "calibrated {a} vs analytic {b}");
    }

    #[test]
    fn macs_match_design_doc() {
        assert_eq!(block_macs(LayerName::Layer3_2, true), 4_792_320);
        assert_eq!(block_macs(LayerName::Layer3_2, false), 4_718_592);
        assert_eq!(block_macs(LayerName::Layer1, true), 5_013_504);
        assert_eq!(block_macs(LayerName::Layer2_1, false), 3_538_944);
        assert_eq!(block_macs(LayerName::Conv1, false), 442_368);
    }
}
