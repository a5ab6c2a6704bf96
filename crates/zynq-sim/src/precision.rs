//! Per-stage precision policies — the mixed-width generalization of the
//! single global [`PlFormat`].
//!
//! Since the precision-polymorphic engine (PR 2) the PL word format was
//! one builder argument applied to every offloaded stage. That leaves
//! the paper's footnote-2 observation half-exploited: the stages have
//! very different dynamic ranges and BRAM footprints, so a deployment
//! often wants layer1 in a narrow 16-bit format (its envelope is small,
//! its feature buffers are the largest) next to layer3_2 at the paper's
//! Q20. This module owns that vocabulary:
//!
//! * [`Precision`] — the *policy* a caller configures on
//!   [`crate::engine::EngineBuilder::precision`]: one uniform format,
//!   an explicit per-stage table, or [`Precision::Calibrated`], which
//!   measures per-stage activation envelopes on a sample batch
//!   ([`rodenet::calibrate`]) and picks the largest executable `frac`
//!   with a requested integer-bit headroom — the ROADMAP's
//!   "reduced-width accuracy calibration" pass, zero training.
//! * [`StageFormats`] — the *resolved* table: a base format plus
//!   optional per-stage overrides for the three offloadable layers.
//!   Everything width-aware downstream (feasibility, DMA timing, the
//!   partitioner's makespan cost, cluster sharding, the engine's
//!   per-stage circuits) consumes this, so a rack can place layer1 at
//!   Q16 next to layer3_2 at Q20 and every stage is priced at its own
//!   width.
//!
//! ## Calibration model
//!
//! [`Precision::Calibrated`] runs the **float** network forward on the
//! sample and records, per offloadable stage, the max |value| over the
//! stage input, every Euler state, every `f(z, t)` evaluation, and the
//! stage parameters (see [`rodenet::calibrate::stage_ranges`]). The
//! chosen format is the largest-`frac` executable width of the
//! requested `total_bits` whose integer bits cover that envelope plus
//! `headroom_bits` more — headroom absorbs the float-vs-quantized
//! trajectory gap the float proxy cannot see. The pass is
//! deterministic, needs no labels and no training, and is the one
//! place in the planning stack that touches weights and numerics
//! (documented on [`crate::engine::EngineBuilder::plan`]).

use crate::engine::EngineError;
use crate::plan::PlFormat;
use qfixed::QFormat;
use rodenet::calibrate::{stage_ranges, OFFLOADABLE_LAYERS};
use rodenet::{BnMode, LayerName, Network};
use tensor::Tensor;

/// Index of an offloadable layer in the per-stage override table.
fn slot(layer: LayerName) -> Option<usize> {
    OFFLOADABLE_LAYERS.iter().position(|&l| l == layer)
}

/// A resolved per-stage PL word-format table: one base format plus
/// optional overrides for the three offloadable stages. This is what a
/// [`Precision`] policy resolves to and what every width-aware layer
/// of the planning stack consumes ([`crate::plan::PlanRequest`],
/// [`crate::cluster::ClusterRequest`], feasibility, timing, sharding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageFormats {
    base: PlFormat,
    overrides: [Option<PlFormat>; 3],
}

impl Default for StageFormats {
    fn default() -> Self {
        StageFormats::uniform(PlFormat::Q20)
    }
}

impl From<PlFormat> for StageFormats {
    fn from(format: PlFormat) -> Self {
        StageFormats::uniform(format)
    }
}

impl StageFormats {
    /// Every stage in one format — the pre-policy behavior.
    pub fn uniform(format: PlFormat) -> Self {
        StageFormats {
            base: format,
            overrides: [None; 3],
        }
    }

    /// Override the format of one offloadable stage (layer1, layer2_2
    /// or layer3_2). Panics on a non-offloadable layer — those never
    /// live in a PL circuit, so they have no word format to set.
    pub fn with(mut self, layer: LayerName, format: PlFormat) -> Self {
        let i = slot(layer)
            .unwrap_or_else(|| panic!("{layer} is not offloadable — no PL word format applies"));
        self.overrides[i] = Some(format);
        self
    }

    /// The base format (stages without an override; also the number
    /// system a fully-fixed-point backend would run the whole network
    /// in, which is why that backend requires [`StageFormats::uniform_format`]).
    pub fn base(&self) -> PlFormat {
        self.base
    }

    /// The format `layer` deploys in. Non-offloadable layers report the
    /// base format (they never reach a DMA boundary, so it is only
    /// ever used for display).
    pub fn format_of(&self, layer: LayerName) -> PlFormat {
        slot(layer)
            .and_then(|i| self.overrides[i])
            .unwrap_or(self.base)
    }

    /// `Some(format)` when every stage resolves to the same bit layout
    /// — the policies the single-`S` backends can execute. Formats are
    /// compared by layout ([`PlFormat::same_layout`]), not spelling:
    /// `Q20` next to `Custom(QFormat::new(32, 20))` is still uniform.
    pub fn uniform_format(&self) -> Option<PlFormat> {
        if OFFLOADABLE_LAYERS
            .iter()
            .all(|&l| self.format_of(l).same_layout(&self.base))
        {
            Some(self.base)
        } else {
            None
        }
    }

    /// Storage bytes per value of `layer`'s format.
    ///
    /// # Panics
    ///
    /// On a degenerate format — call [`StageFormats::validate`] first
    /// for a typed error instead (every planning entry point does;
    /// this is only reachable by handing an unvalidated table straight
    /// to a low-level width-aware helper).
    pub fn bytes_of(&self, layer: LayerName) -> usize {
        self.format_of(layer)
            .bytes()
            .unwrap_or_else(|_| panic!("degenerate format for {layer}: run validate() first"))
    }

    /// `(layer, bytes)` pairs for a placement's layers — the shape the
    /// width-aware resource/timing models consume.
    pub fn bytes_for(&self, layers: &[LayerName]) -> Vec<(LayerName, usize)> {
        layers.iter().map(|&l| (l, self.bytes_of(l))).collect()
    }

    /// Reject degenerate formats, naming the offending *stage* when a
    /// per-stage override (rather than the base) is broken — the error
    /// a caller of a mixed policy needs to act on.
    pub fn validate(&self) -> Result<(), EngineError> {
        // The base's own error already carries `stage: None`.
        self.base.qformat()?;
        for (i, o) in self.overrides.iter().enumerate() {
            if let Some(f) = o {
                f.qformat().map_err(|e| match e {
                    EngineError::UnsupportedFormat {
                        total_bits,
                        frac_bits,
                        ..
                    } => EngineError::UnsupportedFormat {
                        total_bits,
                        frac_bits,
                        stage: Some(OFFLOADABLE_LAYERS[i]),
                    },
                    other => other,
                })?;
            }
        }
        Ok(())
    }
}

impl core::fmt::Display for StageFormats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.uniform_format() {
            Some(u) => write!(f, "{u}"),
            None => {
                write!(f, "mixed[")?;
                for (i, &layer) in OFFLOADABLE_LAYERS.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{layer}: {}", self.format_of(layer))?;
                }
                write!(f, "]")
            }
        }
    }
}

/// How the engine chooses each stage's PL word format. Resolves to a
/// [`StageFormats`] table at plan/build time
/// ([`Precision::resolve`]).
#[derive(Clone, Debug)]
pub enum Precision {
    /// One format for every stage — the paper's single-width build.
    Uniform(PlFormat),
    /// An explicit per-stage table (base + overrides), e.g.
    /// `StageFormats::uniform(Q20).with(Layer1, Q16 { frac: 10 })`.
    PerStage(StageFormats),
    /// Measure per-stage activation envelopes on `sample` (float
    /// forward, no training, no labels) and pick, per stage, the
    /// largest-`frac` executable format of `total_bits` whose integer
    /// bits cover the envelope plus `headroom_bits` of margin. An
    /// empty sample is a typed error
    /// ([`EngineError::CalibrationEmpty`]); an envelope no executable
    /// `frac` can cover is [`EngineError::CalibrationRange`].
    Calibrated {
        /// Storage bits of every chosen format (32 or 16 — the widths
        /// with monomorphized datapaths).
        total_bits: u32,
        /// Extra integer bits beyond the measured envelope, absorbing
        /// the float-vs-quantized trajectory gap (1–2 is typical).
        headroom_bits: u32,
        /// The calibration inputs (CIFAR-shaped tensors).
        sample: Vec<Tensor<f32>>,
    },
}

impl Default for Precision {
    fn default() -> Self {
        Precision::Uniform(PlFormat::Q20)
    }
}

impl From<PlFormat> for Precision {
    fn from(format: PlFormat) -> Self {
        Precision::Uniform(format)
    }
}

impl From<StageFormats> for Precision {
    fn from(table: StageFormats) -> Self {
        Precision::PerStage(table)
    }
}

/// Integer bits needed to represent magnitudes up to `max_abs`
/// (smallest `i ≥ 0` with `max_abs < 2^i`).
fn needed_int_bits(max_abs: f64) -> u32 {
    let mut i = 0u32;
    while max_abs >= (2.0f64).powi(i as i32) {
        i += 1;
        if i > 64 {
            break;
        }
    }
    i
}

/// The largest-`frac` executable format of `total_bits` whose integer
/// bits cover `max_abs` plus `headroom_bits` — the calibration rule.
pub fn choose_format(
    total_bits: u32,
    headroom_bits: u32,
    max_abs: f64,
    layer: LayerName,
) -> Result<PlFormat, EngineError> {
    let mut fracs: Vec<u32> = PlFormat::EXECUTABLE_WIDTHS
        .iter()
        .filter(|(t, _)| *t == total_bits)
        .map(|(_, fr)| *fr)
        .collect();
    if fracs.is_empty() {
        return Err(EngineError::UnsupportedFormat {
            total_bits,
            frac_bits: 0,
            stage: Some(layer),
        });
    }
    fracs.sort_unstable_by(|a, b| b.cmp(a)); // largest frac first
    let needed = needed_int_bits(max_abs) + headroom_bits;
    for frac in fracs {
        if total_bits - 1 - frac >= needed {
            return Ok(PlFormat::Custom(QFormat::new(total_bits, frac)));
        }
    }
    Err(EngineError::CalibrationRange {
        layer,
        max_abs,
        total_bits,
        headroom_bits,
    })
}

impl Precision {
    /// Resolve the policy against `net` into the per-stage format
    /// table. `Uniform`/`PerStage` are pure table lookups; `Calibrated`
    /// runs the measurement pass of [`rodenet::calibrate`] on the
    /// sample (the one planning step that executes numerics). `bn` is
    /// the PS-side statistics mode the deployment will run with, so
    /// the calibration forward matches the deployed float path.
    pub fn resolve(&self, net: &Network, bn: BnMode) -> Result<StageFormats, EngineError> {
        match self {
            Precision::Uniform(f) => Ok(StageFormats::uniform(*f)),
            Precision::PerStage(t) => Ok(*t),
            Precision::Calibrated {
                total_bits,
                headroom_bits,
                sample,
            } => {
                if sample.is_empty() {
                    return Err(EngineError::CalibrationEmpty);
                }
                let ranges = stage_ranges(net, sample, bn);
                let mut formats: Vec<(LayerName, PlFormat)> = Vec::with_capacity(ranges.len());
                for r in &ranges {
                    formats.push((
                        r.layer,
                        choose_format(*total_bits, *headroom_bits, r.max_abs() as f64, r.layer)?,
                    ));
                }
                // Base = the widest-range (smallest-frac) choice, so
                // anything falling back to the base is covered too.
                let base = match formats
                    .iter()
                    .map(|(_, f)| *f)
                    .min_by_key(|f| f.qformat().expect("chosen formats are valid").frac_bits)
                {
                    Some(f) => f,
                    // No measurable stages (a stacked ResNet): fall
                    // back to the widest-range executable frac of the
                    // requested width, erroring only if the width has
                    // no datapath at all.
                    None => PlFormat::Custom(QFormat::new(
                        *total_bits,
                        PlFormat::EXECUTABLE_WIDTHS
                            .iter()
                            .filter(|(t, _)| t == total_bits)
                            .map(|(_, fr)| *fr)
                            .min()
                            .ok_or(EngineError::UnsupportedFormat {
                                total_bits: *total_bits,
                                frac_bits: 0,
                                stage: None,
                            })?,
                    )),
                };
                let mut table = StageFormats::uniform(base);
                for (layer, format) in formats {
                    table = table.with(layer, format);
                }
                Ok(table)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodenet::{NetSpec, Variant};
    use tensor::Shape4;

    fn image(seed: u64) -> Tensor<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape4::new(1, 3, 16, 16), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        })
    }

    #[test]
    fn uniform_table_has_no_overrides() {
        let t = StageFormats::uniform(PlFormat::Q20);
        assert_eq!(t.uniform_format(), Some(PlFormat::Q20));
        for layer in OFFLOADABLE_LAYERS {
            assert_eq!(t.format_of(layer), PlFormat::Q20);
            assert_eq!(t.bytes_of(layer), 4);
        }
        assert_eq!(format!("{t}"), "Q11.20 (32-bit)");
    }

    #[test]
    fn overrides_resolve_per_stage() {
        let t = StageFormats::uniform(PlFormat::Q20)
            .with(LayerName::Layer1, PlFormat::Q16 { frac: 10 });
        assert_eq!(t.uniform_format(), None);
        assert_eq!(t.bytes_of(LayerName::Layer1), 2);
        assert_eq!(t.bytes_of(LayerName::Layer3_2), 4);
        assert_eq!(
            t.format_of(LayerName::Conv1),
            PlFormat::Q20,
            "base fallback"
        );
        let d = format!("{t}");
        assert!(d.contains("mixed[") && d.contains("Q5.10"), "{d}");
        assert_eq!(
            t.bytes_for(&[LayerName::Layer1, LayerName::Layer3_2]),
            vec![(LayerName::Layer1, 2), (LayerName::Layer3_2, 4)]
        );
    }

    #[test]
    fn uniformity_ignores_format_spelling() {
        // Calibration always emits `Custom`; a table mixing spellings
        // of one layout is still uniform (the fixed-point backend can
        // execute it, Display prints one format).
        let t = StageFormats::uniform(PlFormat::Q20)
            .with(LayerName::Layer1, PlFormat::Custom(QFormat::new(32, 20)));
        assert_eq!(t.uniform_format(), Some(PlFormat::Q20));
        assert_eq!(format!("{t}"), "Q11.20 (32-bit)");
        let t16 = StageFormats::uniform(PlFormat::Q16 { frac: 10 })
            .with(LayerName::Layer3_2, PlFormat::Custom(QFormat::new(16, 10)));
        assert_eq!(t16.uniform_format(), Some(PlFormat::Q16 { frac: 10 }));
        // A genuinely different layout still reads as mixed.
        assert_eq!(
            StageFormats::uniform(PlFormat::Q20)
                .with(LayerName::Layer1, PlFormat::Custom(QFormat::new(32, 16)))
                .uniform_format(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "not offloadable")]
    fn override_of_downsample_layer_panics() {
        let _ = StageFormats::uniform(PlFormat::Q20)
            .with(LayerName::Layer2_1, PlFormat::Q16 { frac: 10 });
    }

    #[test]
    fn validate_names_the_offending_stage() {
        let bad = PlFormat::Q16 { frac: 16 };
        let t = StageFormats::uniform(PlFormat::Q20).with(LayerName::Layer2_2, bad);
        match t.validate() {
            Err(EngineError::UnsupportedFormat { stage, .. }) => {
                assert_eq!(stage, Some(LayerName::Layer2_2));
            }
            other => panic!("expected stage-naming error, got {other:?}"),
        }
        // A degenerate base carries no stage (the policy is uniform
        // in the broken format).
        match StageFormats::uniform(bad).validate() {
            Err(EngineError::UnsupportedFormat { stage: None, .. }) => {}
            other => panic!("expected base error, got {other:?}"),
        }
        assert!(StageFormats::uniform(PlFormat::Q20).validate().is_ok());
    }

    #[test]
    fn choose_format_takes_largest_covering_frac() {
        // 16-bit executable fracs {6, 8, 10, 12} → int bits {9, 7, 5, 3}.
        let l = LayerName::Layer1;
        // |v| < 2 with headroom 1 needs 2 int bits → frac 12 (3 int bits).
        assert_eq!(
            choose_format(16, 1, 1.5, l).unwrap(),
            PlFormat::Custom(QFormat::new(16, 12))
        );
        // |v| up to 6 with headroom 1 needs 4 int bits → frac 10.
        assert_eq!(
            choose_format(16, 1, 6.0, l).unwrap(),
            PlFormat::Custom(QFormat::new(16, 10))
        );
        // A huge envelope exceeds every executable frac.
        assert!(matches!(
            choose_format(16, 1, 1e6, l),
            Err(EngineError::CalibrationRange { .. })
        ));
        // A width with no datapath at all is the format error.
        assert!(matches!(
            choose_format(24, 1, 1.0, l),
            Err(EngineError::UnsupportedFormat { total_bits: 24, .. })
        ));
        // 32-bit: small envelope → frac 24 (7 int bits).
        assert_eq!(
            choose_format(32, 2, 3.0, l).unwrap(),
            PlFormat::Custom(QFormat::new(32, 24))
        );
    }

    #[test]
    fn calibrated_resolution_covers_the_measured_envelope() {
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 21);
        let sample = vec![image(1), image(2)];
        let policy = Precision::Calibrated {
            total_bits: 16,
            headroom_bits: 1,
            sample: sample.clone(),
        };
        let table = policy.resolve(&net, BnMode::OnTheFly).expect("resolves");
        let ranges = rodenet::calibrate::stage_ranges(&net, &sample, BnMode::OnTheFly);
        for r in &ranges {
            let q = table.format_of(r.layer).qformat().expect("valid");
            assert_eq!(q.total_bits, 16, "{}", r.layer);
            // The chosen format represents the envelope (headroom makes
            // this strict, not marginal).
            assert!(
                q.max_value() >= r.max_abs() as f64,
                "{}: {} ≥ {}",
                r.layer,
                q.max_value(),
                r.max_abs()
            );
        }
        assert!(table.validate().is_ok());
    }

    #[test]
    fn empty_sample_is_a_typed_error() {
        let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(5), 22);
        let err = Precision::Calibrated {
            total_bits: 16,
            headroom_bits: 1,
            sample: Vec::new(),
        }
        .resolve(&net, BnMode::OnTheFly)
        .expect_err("no sample, no envelope");
        assert_eq!(err, EngineError::CalibrationEmpty);
    }
}
