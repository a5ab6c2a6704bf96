//! Offload planning — the §3.2 feasibility cases and the choice the
//! paper makes for each variant.
//!
//! Section 3.2 enumerates four legal placements on the XC7Z020: layer1
//! alone, layer2_2 alone, layer1 + layer2_2 together, or layer3_2 alone
//! (layer3_2 occupies 100 % of BRAM, so nothing shares the fabric with
//! it). The planner validates placements against the resource model and
//! can pick the latency-optimal one for a given architecture.
//!
//! Since the partitioner refactor, the Auto selection here is the
//! 1-board degenerate case of the cluster search: [`plan_offload`]
//! and [`crate::cluster::plan_cluster`]'s `Auto` loop share one cost
//! path in [`crate::partition`].
//!
//! Every function here takes the PL word widths as one
//! [`StageFormats`] table; `&StageFormats::default()` is the paper's
//! uniform 32-bit Q20 build.

use crate::board::Board;
use crate::precision::StageFormats;
use crate::timing::{PlModel, PsModel};
use rodenet::{LayerName, NetSpec, Variant};

/// A PL placement of ODE layers.
///
/// The first five cases are the §3.2 enumeration for the paper's 32-bit
/// datapath. The remaining combinations share the fabric with layer3_2
/// — impossible at 32 bits (layer3_2 alone is 100 % of BRAM, Table 3)
/// but feasible at reduced word widths, which is exactly the paper's
/// footnote-2 motivation ("using reduced bit widths … can implement
/// more layers in PL part"). They participate in planning whenever the
/// width-aware feasibility check ([`OffloadTarget::fits`]) admits
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OffloadTarget {
    /// Pure software.
    None,
    /// layer1 on the PL.
    Layer1,
    /// layer2_2 on the PL.
    Layer22,
    /// layer1 and layer2_2 both on the PL (§3.2 case 3).
    Layer1And22,
    /// layer3_2 on the PL (100 % BRAM at 32-bit).
    Layer32,
    /// layer1 and layer3_2 (reduced width only).
    Layer1And32,
    /// layer2_2 and layer3_2 (reduced width only).
    Layer22And32,
    /// All three shape-preserving layers on the PL (reduced width only).
    AllOde,
}

impl OffloadTarget {
    /// All placements, software first.
    pub const ALL: [OffloadTarget; 8] = [
        OffloadTarget::None,
        OffloadTarget::Layer1,
        OffloadTarget::Layer22,
        OffloadTarget::Layer1And22,
        OffloadTarget::Layer32,
        OffloadTarget::Layer1And32,
        OffloadTarget::Layer22And32,
        OffloadTarget::AllOde,
    ];

    /// The layers this placement puts on the PL.
    pub fn layers(&self) -> &'static [LayerName] {
        match self {
            OffloadTarget::None => &[],
            OffloadTarget::Layer1 => &[LayerName::Layer1],
            OffloadTarget::Layer22 => &[LayerName::Layer2_2],
            OffloadTarget::Layer1And22 => &[LayerName::Layer1, LayerName::Layer2_2],
            OffloadTarget::Layer32 => &[LayerName::Layer3_2],
            OffloadTarget::Layer1And32 => &[LayerName::Layer1, LayerName::Layer3_2],
            OffloadTarget::Layer22And32 => &[LayerName::Layer2_2, LayerName::Layer3_2],
            OffloadTarget::AllOde => &[LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2],
        }
    }

    /// The placement the paper evaluates for each variant (Table 5's
    /// "Offload target" column).
    pub fn paper_default(variant: Variant) -> OffloadTarget {
        match variant {
            Variant::ResNet => OffloadTarget::None,
            Variant::ROdeNet1 => OffloadTarget::Layer1,
            Variant::ROdeNet2 => OffloadTarget::Layer22,
            Variant::ROdeNet12 => OffloadTarget::Layer1And22,
            Variant::ROdeNet3 | Variant::OdeNet | Variant::Hybrid3 => OffloadTarget::Layer32,
        }
    }

    /// Whether the placement fits `board` at the given parallelism,
    /// every layer priced at its **own** word format from `formats` —
    /// so a mixed deployment (layer1 at Q16 next to layer3_2 at Q20) is
    /// admitted exactly when the sum of its differently-sized circuits
    /// fits the fabric. BRAM scales via
    /// [`crate::resources::bram36_at_width`], DSP via
    /// [`crate::resources::dsp_slices`], and LUT/FF via
    /// [`crate::resources::lut_ff`] (control base fixed, datapath share
    /// scaled by the operand width) — so a reduced-width shard is not
    /// gated by the conservative 32-bit characterization.
    ///
    /// A circuit with no multiply–add unit, or with more units than a
    /// target layer has output channels (there is no ⌈O/n⌉-th channel
    /// group to feed the extra units), cannot be instantiated, so `fits`
    /// reports every placement with a circuit as infeasible at such a
    /// parallelism; [`OffloadTarget::None`] still fits. This is what the
    /// planner and the engine builder consult. Note the guard lives
    /// here, at the placement level: the low-level per-circuit models
    /// ([`crate::resources::ode_block_resources`],
    /// [`crate::datapath::conv_cycles`]) keep `1 ≤ parallelism ≤
    /// channels` as an asserted precondition.
    ///
    /// # Panics
    ///
    /// On a degenerate format in `formats` — callers that accept
    /// untrusted tables should [`StageFormats::validate`] first, as
    /// every planning entry point does.
    pub fn fits(&self, board: &Board, parallelism: usize, formats: &StageFormats) -> bool {
        for &layer in self.layers() {
            let (channels, _) = layer.geometry();
            if parallelism == 0 || parallelism > channels {
                return false;
            }
        }
        let (bram36, dsp, lut, ff) =
            crate::resources::placement_resources(&formats.bytes_for(self.layers()), parallelism);
        bram36 <= board.bram36 as f64 && dsp <= board.dsp && lut <= board.lut && ff <= board.ff
    }

    /// The placement covering exactly `layers` (any order, duplicates
    /// ignored), or `None` when the set contains a non-offloadable
    /// layer. Inverse of [`OffloadTarget::layers`]; the cluster
    /// sharder uses it to name the per-board slices of a placement.
    pub fn from_layers(layers: &[LayerName]) -> Option<OffloadTarget> {
        let has = |l: LayerName| layers.contains(&l);
        if layers.iter().any(|l| {
            !matches!(
                l,
                LayerName::Layer1 | LayerName::Layer2_2 | LayerName::Layer3_2
            )
        }) {
            return None;
        }
        Some(
            match (
                has(LayerName::Layer1),
                has(LayerName::Layer2_2),
                has(LayerName::Layer3_2),
            ) {
                (false, false, false) => OffloadTarget::None,
                (true, false, false) => OffloadTarget::Layer1,
                (false, true, false) => OffloadTarget::Layer22,
                (true, true, false) => OffloadTarget::Layer1And22,
                (false, false, true) => OffloadTarget::Layer32,
                (true, false, true) => OffloadTarget::Layer1And32,
                (false, true, true) => OffloadTarget::Layer22And32,
                (true, true, true) => OffloadTarget::AllOde,
            },
        )
    }

    /// Whether the placement matches the paper's policy for `spec`:
    /// every offloaded layer must be a (single-instance) ODE block —
    /// "only heavily-used layers are offloaded to PL part" (§4.4).
    pub fn applicable(&self, spec: &NetSpec) -> bool {
        self.layers().iter().all(|&l| {
            let plan = spec.plan(l);
            plan.stacked == 1 && plan.is_ode
        })
    }

    /// Relaxed applicability: any single-instance layer, ODE or plain.
    /// Offloading a once-executed plain block is legal on the simulated
    /// fabric and occasionally beats the paper's placement (e.g.
    /// rODENet-2 gains a few ms by also offloading its plain layer1);
    /// see `plan_offload_extended`.
    pub fn applicable_extended(&self, spec: &NetSpec) -> bool {
        self.layers().iter().all(|&l| {
            let plan = spec.plan(l);
            plan.stacked == 1 && plan.execs >= 1
        })
    }
}

/// All placements that fit the board at `parallelism` and the word
/// widths in `formats`.
pub fn feasible_targets(
    board: &Board,
    parallelism: usize,
    formats: &StageFormats,
) -> Vec<OffloadTarget> {
    OffloadTarget::ALL
        .into_iter()
        .filter(|t| t.fits(board, parallelism, formats))
        .collect()
}

/// Pick the placement minimizing modelled end-to-end latency for `spec`
/// under the paper's ODE-blocks-only policy, at `pl.parallelism`.
/// Feasibility and the DMA share of the cost model price every
/// candidate stage at its **own** format in `formats`, so a 16-bit
/// plan can legally pick the layer3_2-sharing placements that a 32-bit
/// plan must reject, and the latency-optimal placement can mix widths.
///
/// A single board is planned as the 1-board degenerate case of the
/// cluster cost model, so this and [`crate::cluster::plan_cluster`]'s
/// `Auto` loop run the same code path — one cost function decides
/// placements everywhere.
///
/// # Panics
///
/// On a degenerate format in `formats` — [`StageFormats::validate`]
/// first (the `plan_deployment`/`plan_cluster` entry points do).
pub fn plan_offload(
    spec: &NetSpec,
    board: &Board,
    ps: &PsModel,
    pl: &PlModel,
    formats: &StageFormats,
) -> OffloadTarget {
    crate::partition::select_single_board(spec, board, ps, pl, false, formats)
}

/// Like [`plan_offload`] but also considers once-executed plain blocks
/// (can beat the paper's placement slightly; see
/// [`OffloadTarget::applicable_extended`]).
pub fn plan_offload_extended(
    spec: &NetSpec,
    board: &Board,
    ps: &PsModel,
    pl: &PlModel,
    formats: &StageFormats,
) -> OffloadTarget {
    crate::partition::select_single_board(spec, board, ps, pl, true, formats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::PYNQ_Z2;
    use crate::plan::PlFormat;

    /// The paper's uniform 32-bit build.
    fn q20() -> StageFormats {
        StageFormats::default()
    }

    /// A uniform 16-bit build (only the storage width reaches the
    /// resource and DMA models).
    fn q16() -> StageFormats {
        PlFormat::Q16 { frac: 8 }.into()
    }

    #[test]
    fn section32_four_cases_feasible() {
        let feasible = feasible_targets(&PYNQ_Z2, 16, &q20());
        for t in [
            OffloadTarget::Layer1,
            OffloadTarget::Layer22,
            OffloadTarget::Layer1And22,
            OffloadTarget::Layer32,
        ] {
            assert!(feasible.contains(&t), "{t:?} must fit per §3.2");
        }
    }

    #[test]
    fn layer32_plus_anything_infeasible() {
        // At the paper's 32-bit width, layer3_2 + another layer can
        // never fit (BRAM is at 100 %) — the layer3_2-sharing enum
        // cases exist solely for reduced widths; verify the arithmetic.
        use crate::resources::ode_block_resources;
        let a = ode_block_resources(LayerName::Layer3_2, 16);
        let b = ode_block_resources(LayerName::Layer1, 1);
        assert!(a.bram18 + b.bram18 > 2 * PYNQ_Z2.bram36);
    }

    #[test]
    fn zero_parallelism_plans_no_circuit() {
        // No multiply–add unit means no circuit: only the software
        // placement fits, and both planners fall back to it instead of
        // pricing a circuit at n = 0.
        assert_eq!(
            feasible_targets(&PYNQ_Z2, 0, &q20()),
            vec![OffloadTarget::None]
        );
        let pl = PlModel { parallelism: 0 };
        for v in [Variant::ROdeNet3, Variant::OdeNet, Variant::ROdeNet12] {
            let spec = NetSpec::new(v, 56);
            for formats in [q20(), q16()] {
                let ps = PsModel::Calibrated;
                let plan = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &formats);
                assert_eq!(plan, OffloadTarget::None, "{v}");
                let plan = plan_offload_extended(&spec, &PYNQ_Z2, &ps, &pl, &formats);
                assert_eq!(plan, OffloadTarget::None, "{v} extended");
            }
        }
    }

    #[test]
    fn paper_defaults() {
        assert_eq!(
            OffloadTarget::paper_default(Variant::ResNet),
            OffloadTarget::None
        );
        assert_eq!(
            OffloadTarget::paper_default(Variant::ROdeNet3),
            OffloadTarget::Layer32
        );
        assert_eq!(
            OffloadTarget::paper_default(Variant::ROdeNet12),
            OffloadTarget::Layer1And22
        );
    }

    #[test]
    fn planner_picks_paper_choice_for_each_variant() {
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        for v in [
            Variant::ROdeNet1,
            Variant::ROdeNet2,
            Variant::ROdeNet12,
            Variant::ROdeNet3,
            Variant::Hybrid3,
        ] {
            let spec = NetSpec::new(v, 56);
            let choice = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q20());
            assert_eq!(choice, OffloadTarget::paper_default(v), "{v}");
        }
    }

    #[test]
    fn planner_beats_paper_for_full_odenet() {
        // The paper offloads layer3_2 from ODENet ("ODENet-3") to compare
        // against rODENet-3 — but it is not the latency-optimal choice:
        // layer1 + layer2_2 are also single-instance ODE blocks, run
        // 9 + 8 times at N = 56, and fit the fabric together.
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let choice = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q20());
        assert_eq!(choice, OffloadTarget::Layer1And22);
        let t_paper = crate::timing::table5_row(
            spec.variant,
            spec.n,
            &OffloadTarget::paper_default(Variant::OdeNet),
            &ps,
            &pl,
            &PYNQ_Z2,
            &q20(),
        )
        .total_w_pl;
        let t_planned =
            crate::timing::table5_row(spec.variant, spec.n, &choice, &ps, &pl, &PYNQ_Z2, &q20())
                .total_w_pl;
        assert!(t_planned < t_paper, "{t_planned} < {t_paper}");
    }

    #[test]
    fn planner_falls_back_to_software_for_resnet() {
        let spec = NetSpec::new(Variant::ResNet, 20);
        let choice = plan_offload(
            &spec,
            &PYNQ_Z2,
            &PsModel::Calibrated,
            &PlModel::default(),
            &q20(),
        );
        assert_eq!(
            choice,
            OffloadTarget::None,
            "stacked layers cannot be offloaded"
        );
    }

    #[test]
    fn applicability_respects_removed_layers() {
        let spec = NetSpec::new(Variant::ROdeNet3, 20);
        assert!(
            !OffloadTarget::Layer22.applicable(&spec),
            "layer2_2 was removed"
        );
        assert!(OffloadTarget::Layer32.applicable(&spec));
        // layer1 exists but is a once-executed plain block: outside the
        // paper policy, allowed in the extended policy.
        assert!(!OffloadTarget::Layer1.applicable(&spec));
        assert!(OffloadTarget::Layer1.applicable_extended(&spec));
    }

    #[test]
    fn extended_planner_beats_paper_for_rodenet2() {
        // rODENet-2 keeps a once-executed plain layer1; offloading it too
        // (layer1 + layer2_2 fit together) shaves a few more ms.
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        let spec = NetSpec::new(Variant::ROdeNet2, 56);
        let paper = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q20());
        assert_eq!(paper, OffloadTarget::Layer22);
        let extended = plan_offload_extended(&spec, &PYNQ_Z2, &ps, &pl, &q20());
        assert_eq!(extended, OffloadTarget::Layer1And22);
        let t_paper =
            crate::timing::table5_row(spec.variant, spec.n, &paper, &ps, &pl, &PYNQ_Z2, &q20())
                .total_w_pl;
        let t_ext =
            crate::timing::table5_row(spec.variant, spec.n, &extended, &ps, &pl, &PYNQ_Z2, &q20())
                .total_w_pl;
        assert!(t_ext < t_paper, "{t_ext} < {t_paper}");
    }

    #[test]
    fn layer32_combos_need_reduced_width() {
        // The three layer3_2-sharing placements are exactly the ones a
        // 32-bit build must reject (Table 3: layer3_2 = 100 % BRAM) and
        // a 16-bit build admits (footnote 2).
        for t in [
            OffloadTarget::Layer1And32,
            OffloadTarget::Layer22And32,
            OffloadTarget::AllOde,
        ] {
            assert!(!t.fits(&PYNQ_Z2, 16, &q20()), "{t:?} cannot fit at 32-bit");
            assert!(t.fits(&PYNQ_Z2, 16, &q16()), "{t:?} fits at 16-bit");
        }
    }

    #[test]
    fn sixteen_bit_planner_offloads_more_layers() {
        // ODENet has all three shape-preserving layers as single-instance
        // ODE blocks; at 16-bit the latency-optimal placement puts all of
        // them on the PL — unreachable at 32-bit.
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let choice32 = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q20());
        let choice16 = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q16());
        assert_eq!(choice32, OffloadTarget::Layer1And22);
        assert_eq!(choice16, OffloadTarget::AllOde);
    }

    #[test]
    fn from_layers_inverts_layers() {
        for t in OffloadTarget::ALL {
            assert_eq!(OffloadTarget::from_layers(t.layers()), Some(t), "{t:?}");
        }
        assert_eq!(
            OffloadTarget::from_layers(&[LayerName::Layer3_2, LayerName::Layer1]),
            Some(OffloadTarget::Layer1And32),
            "order-insensitive"
        );
        assert_eq!(OffloadTarget::from_layers(&[LayerName::Layer2_1]), None);
    }

    #[test]
    fn unified_cost_path_preserves_single_board_auto_selections() {
        // The Auto loop now runs through the cluster cost model (one
        // board == 1-board cluster). Pin that every selection matches
        // the direct Table-5 argmin the planner used before the
        // unification, across variants × depths × widths × policies.
        let ps = PsModel::Calibrated;
        let pl = PlModel::default();
        for v in Variant::ALL {
            for n in rodenet::PAPER_DEPTHS {
                let spec = NetSpec::new(v, n);
                for formats in [q16(), q20()] {
                    for extended in [false, true] {
                        let mut best = OffloadTarget::None;
                        let mut best_time = f64::INFINITY;
                        for target in OffloadTarget::ALL {
                            let ok = if extended {
                                target.applicable_extended(&spec)
                            } else {
                                target.applicable(&spec)
                            };
                            if !ok || !target.fits(&PYNQ_Z2, 16, &formats) {
                                continue;
                            }
                            let row = crate::timing::table5_row(
                                v, n, &target, &ps, &pl, &PYNQ_Z2, &formats,
                            );
                            if row.total_w_pl < best_time {
                                best_time = row.total_w_pl;
                                best = target;
                            }
                        }
                        let unified = if extended {
                            plan_offload_extended(&spec, &PYNQ_Z2, &ps, &pl, &formats)
                        } else {
                            plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &formats)
                        };
                        assert_eq!(unified, best, "{v}-{n} at {formats} (ext {extended})");
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_board_rejects_everything() {
        let mut small = PYNQ_Z2;
        small.bram36 = 10;
        let feasible = feasible_targets(&small, 16, &q20());
        assert_eq!(feasible, vec![OffloadTarget::None]);
    }
}
