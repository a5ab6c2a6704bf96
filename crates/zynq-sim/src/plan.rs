//! Deployment planning — placement, resources, and timing **without
//! numerics**.
//!
//! A [`DeploymentPlan`] is everything [`crate::engine::EngineBuilder::build`]
//! decides *before* any weight is quantized or any tensor is touched:
//! the resolved [`OffloadTarget`], the per-stage width-aware resource
//! report, and the full input-independent latency decomposition (the
//! configuration's Table 5 row). Because the paper's timing model is
//! input-independent, a plan answers every "how fast / does it fit /
//! what would it cost" question by itself — build one with
//! [`plan_deployment`] (from a bare [`NetSpec`]) or
//! [`crate::engine::EngineBuilder::plan`] (from a builder), inspect it,
//! and only then pay for an [`crate::engine::Engine`].
//!
//! The PL word width is a first-class plan parameter, resolved **per
//! stage** ([`PlFormat`] entries in a
//! [`crate::precision::StageFormats`] table): the paper's footnote 2
//! observes that reduced bit widths "can implement more layers in PL
//! part", and each stage's width flows through the BRAM/DSP
//! feasibility check ([`OffloadTarget::fits`]) and the DMA share
//! of the timing model, so a 16-bit plan can legally choose the
//! layer3_2-sharing placements a 32-bit plan must reject — and a mixed
//! plan can pair a Q20 layer1 with a Q16 layer3_2 on one fabric.
//!
//! A single board is a cluster of one. [`plan_deployment`] checks a
//! fixed target against the board, then plans the board as a one-board
//! [`ClusterPlan`] with [`crate::cluster::plan_cluster`]: placement
//! search, per-stage resources and the per-image stage pipeline are
//! the rack's, so single-board and sharded plans can never disagree
//! about which placement is fastest. A [`DeploymentPlan`] is a view
//! over that cluster plan that adds what only one board has: the
//! resolved [`BackendKind`] and the paper's Table 5 row.

use crate::board::{Board, PYNQ_Z2};
use crate::cluster::{plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect, Schedule};
use crate::engine::{BackendKind, EngineError, Offload};
use crate::partition::Partitioner;
use crate::planner::OffloadTarget;
use crate::precision::StageFormats;
use crate::replica::Replication;
use crate::timing::{table5_row, PlModel, PsModel, Table5Row};
use qfixed::QFormat;
use rodenet::{BnMode, LayerName, NetSpec};

/// The PL datapath word format, chosen at plan time.
///
/// [`PlFormat::Q20`] is the paper's 32-bit build and the default;
/// [`PlFormat::Q16`] is the footnote-2 16-bit datapath with a
/// selectable binary point; [`PlFormat::Custom`] admits any
/// [`QFormat`] for planning/analysis (execution additionally requires
/// one of the widths the engine can instantiate — see
/// [`crate::engine::EngineBuilder::precision`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlFormat {
    /// The paper's 32-bit Q11.20 datapath.
    #[default]
    Q20,
    /// A 16-bit datapath with `frac` fractional bits (Q(15−frac).frac).
    Q16 {
        /// Fractional bits (must be below 16).
        frac: u32,
    },
    /// Any runtime-described format.
    Custom(QFormat),
}

impl PlFormat {
    /// The `(total_bits, frac_bits)` pair this format describes, before
    /// any validity checking.
    pub(crate) fn bits(&self) -> (u32, u32) {
        match *self {
            PlFormat::Q20 => (32, 20),
            PlFormat::Q16 { frac } => (16, frac),
            PlFormat::Custom(f) => (f.total_bits, f.frac_bits),
        }
    }

    /// Whether two formats describe the same bit layout, regardless of
    /// how they are spelled — `Q20`, `Q16 { frac }`, and
    /// `Custom(QFormat)` can all name the same width (calibration
    /// always emits `Custom`), and policy-level comparisons must not
    /// depend on the spelling.
    pub fn same_layout(&self, other: &PlFormat) -> bool {
        self.bits() == other.bits()
    }

    /// Whether the described bit layout is structurally invalid
    /// (zero-width, `frac ≥ total bits`, or wider than 64 bits) — the
    /// single definition behind [`PlFormat::qformat`]'s rejection and
    /// the error message wording. Degenerate formats cannot even plan;
    /// contrast [`PlFormat::has_datapath`], which gates execution only.
    pub fn is_degenerate(&self) -> bool {
        let (total, frac) = self.bits();
        !(2..=64).contains(&total) || frac >= total
    }

    /// The format as a runtime [`QFormat`] description, or an
    /// [`EngineError::UnsupportedFormat`] when
    /// [degenerate](PlFormat::is_degenerate).
    pub fn qformat(&self) -> Result<QFormat, EngineError> {
        let (total, frac) = self.bits();
        if self.is_degenerate() {
            return Err(EngineError::UnsupportedFormat {
                total_bits: total,
                frac_bits: frac,
                stage: None,
            });
        }
        Ok(QFormat::new(total, frac))
    }

    /// Storage bytes per value (what the BRAM/DMA models charge).
    pub fn bytes(&self) -> Result<usize, EngineError> {
        Ok(self.qformat()?.bytes())
    }

    /// The `(total_bits, frac_bits)` pairs the engine has a
    /// monomorphized datapath for — the single source of truth behind
    /// [`PlFormat::has_datapath`], the builder's dispatch, and the
    /// `UnsupportedFormat` error text. Everything else plans but does
    /// not execute.
    pub const EXECUTABLE_WIDTHS: &'static [(u32, u32)] = &[
        (32, 12),
        (32, 16),
        (32, 20),
        (32, 24),
        (16, 6),
        (16, 8),
        (16, 10),
        (16, 12),
    ];

    /// Whether [`crate::engine::EngineBuilder::build`] can instantiate
    /// a quantized datapath for this format (planning never needs this).
    pub fn has_datapath(&self) -> bool {
        self.qformat()
            .map(|q| Self::EXECUTABLE_WIDTHS.contains(&(q.total_bits, q.frac_bits)))
            .unwrap_or(false)
    }
}

impl core::fmt::Display for PlFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.qformat() {
            Ok(q) => write!(f, "{q}"),
            Err(_) => write!(f, "{self:?} (degenerate)"),
        }
    }
}

/// Everything the builder decides for one board, minus the engine:
/// see module docs. A thin view over a one-board [`ClusterPlan`] (the
/// plan the engine runs on) that adds the resolved [`BackendKind`] and
/// the configuration's Table 5 row. Constructed by [`plan_deployment`] /
/// [`crate::engine::EngineBuilder::plan`]; every accessor is pure — no
/// numerics ran and none will.
#[derive(Clone, Debug)]
pub struct DeploymentPlan {
    cluster: ClusterPlan,
    backend: BackendKind,
    timing: Table5Row,
}

/// One offloaded stage of a [`DeploymentPlan`]: placement + width-aware
/// resources + input-independent timing, all at the **stage's own**
/// resolved word format.
#[derive(Clone, Debug)]
pub struct PlannedStage {
    /// The offloaded layer.
    pub layer: LayerName,
    /// The word format this stage deploys in (per-stage policies give
    /// different stages different formats).
    pub format: PlFormat,
    /// Block executions per inference (ODE steps, or 1 for plain blocks).
    pub execs: usize,
    /// BRAM36-equivalents at the plan's word width.
    pub bram36: f64,
    /// DSP48E1 slices at the plan's word width.
    pub dsp: u32,
    /// Look-up tables at the plan's word width (control base fixed,
    /// datapath share scaled — see
    /// [`crate::resources::lut_ff`]).
    pub lut: u32,
    /// Flip-flops at the plan's word width.
    pub ff: u32,
    /// Modelled circuit seconds per inference (incl. DMA).
    pub pl_seconds: f64,
    /// 32-bit AXI bus words per inference.
    pub dma_words: u64,
    /// Parameter bytes the stage's circuit holds at this word width —
    /// the payload a replica broadcast ships (see [`crate::replica`])
    /// and the unit a failover re-broadcast is priced in (see
    /// [`crate::fault`]).
    pub param_bytes: u64,
}

/// The configuration a [`DeploymentPlan`] is computed from — the same
/// knobs as [`crate::engine::EngineBuilder`], minus the network (plans
/// are weight-free, which is also why this carries the *resolved*
/// [`StageFormats`] table rather than a
/// [`crate::precision::Precision`] policy: resolving
/// `Precision::Calibrated` needs weights, so the engine builder does
/// it before constructing the request). `Default` is the paper's
/// deployment: PYNQ-Z2, planner-chosen placement, calibrated PS model,
/// conv_x16, uniform Q20, on-the-fly batch norm.
#[derive(Clone, Copy, Debug)]
pub struct PlanRequest {
    /// Target device.
    pub board: Board,
    /// Placement policy.
    pub offload: Offload,
    /// Executing backend.
    pub backend: BackendKind,
    /// PS-side batch-norm statistics mode.
    pub bn: BnMode,
    /// PS software-cost model.
    pub ps: PsModel,
    /// PL circuit configuration.
    pub pl: PlModel,
    /// Resolved per-stage PL word formats (`PlFormat::Q20.into()` for
    /// the paper's uniform build).
    pub precision: StageFormats,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest {
            board: PYNQ_Z2,
            offload: Offload::Auto,
            backend: BackendKind::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: StageFormats::uniform(PlFormat::Q20),
        }
    }
}

/// Resolve placement, backend, feasibility, and timing for `spec` on
/// one board — the numerics-free half of
/// [`crate::engine::EngineBuilder::build`].
///
/// The placement is planned by [`plan_cluster`] over a one-board
/// cluster of `req.board`, so single-board and sharded plans share one
/// search, one stage table and one per-image pipeline. A fixed target
/// is checked against the board first: one board reports
/// [`EngineError::InfeasiblePlacement`], not the rack's
/// [`EngineError::ShardInfeasible`].
///
/// Any structurally valid [`PlFormat`] plans, including widths the
/// engine cannot execute (an 8-bit plan is a legitimate resource-model
/// question); executability is checked when an engine is built from
/// the same configuration.
pub fn plan_deployment(spec: &NetSpec, req: &PlanRequest) -> Result<DeploymentPlan, EngineError> {
    req.precision.validate()?;
    // Zero parallelism fits no circuit, but it is bad hardware, not a
    // bad placement: report it as `plan_cluster` does.
    req.pl.validate()?;

    // 1. A fixed placement must exist in the architecture and fit the
    //    board's fabric at the requested per-stage word widths.
    if let Offload::Target(t) = req.offload {
        if !t.applicable_extended(spec) {
            return Err(EngineError::TargetNotApplicable {
                target: t,
                variant: spec.variant,
            });
        }
        if !t.fits(&req.board, req.pl.parallelism, &req.precision) {
            return Err(EngineError::InfeasiblePlacement {
                target: t,
                parallelism: req.pl.parallelism,
            });
        }
    }

    // 2. Placement, per-stage resources and the stage pipeline: the
    //    board as a cluster of one, under the planner's own search
    //    settings. A sequential schedule keeps the engine's batch
    //    summary additive, as one board serves one image at a time.
    let cluster = plan_cluster(
        spec,
        &ClusterRequest {
            cluster: Cluster::homogeneous(&req.board, 1, Interconnect::GIGABIT_ETHERNET),
            offload: req.offload,
            bn: req.bn,
            ps: req.ps,
            pl: req.pl,
            precision: req.precision,
            schedule: Schedule::Sequential,
            partitioner: Partitioner::FirstFit,
            replication: Replication::None,
        },
    )?;
    let target = cluster.target();

    // 3. Resolve the backend and check conflicts.
    let backend = match req.backend {
        BackendKind::Auto => {
            if target == OffloadTarget::None {
                BackendKind::PsSoftware
            } else {
                BackendKind::Hybrid
            }
        }
        explicit => explicit,
    };
    if backend == BackendKind::PsSoftware && target != OffloadTarget::None {
        return Err(EngineError::BackendConflict {
            backend: "ps-software",
            target,
        });
    }
    if backend == BackendKind::PlBitExact && req.bn == BnMode::Running {
        return Err(EngineError::BnModeConflict {
            backend: "pl-bit-exact",
        });
    }

    // 4. The cached Table 5 row, from the paper's additive model (its
    //    sums are not the pipeline's, so it is computed, not derived).
    let timing = table5_row(
        spec.variant,
        spec.n,
        &target,
        &req.ps,
        &req.pl,
        &req.board,
        &req.precision,
    );

    Ok(DeploymentPlan {
        cluster,
        backend,
        timing,
    })
}

impl DeploymentPlan {
    /// The architecture this plan deploys.
    pub fn spec(&self) -> &NetSpec {
        self.cluster.spec()
    }

    /// The configured device.
    pub fn board(&self) -> &Board {
        self.cluster.cluster().head()
    }

    /// The resolved placement.
    pub fn target(&self) -> OffloadTarget {
        self.cluster.target()
    }

    /// The resolved per-stage PL word-format table the plan was
    /// computed for.
    pub fn precision(&self) -> &StageFormats {
        self.cluster.precision()
    }

    /// The resolved (never `Auto`) backend kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The PS-side batch-norm statistics mode.
    pub fn bn_mode(&self) -> BnMode {
        self.cluster.bn_mode()
    }

    /// The PS cost model the timing was computed with.
    pub fn ps_model(&self) -> &PsModel {
        self.cluster.ps_model()
    }

    /// The PL circuit configuration (parallelism).
    pub fn pl_model(&self) -> &PlModel {
        self.cluster.pl_model()
    }

    /// The offloaded stages with width-aware resources and timing.
    pub fn stages(&self) -> &[PlannedStage] {
        self.cluster.shards().first().map_or(&[], |s| &s.stages)
    }

    /// The one-board [`ClusterPlan`] this view wraps: the stage
    /// pipeline [`crate::engine::Engine::serve`] replays and the plan
    /// every built-in engine runs on.
    pub fn cluster_plan(&self) -> &ClusterPlan {
        &self.cluster
    }

    /// The configuration's Table 5 row, cached at plan time — serve
    /// latency queries from here without executing any inference
    /// (`total_w_pl` is what [`crate::engine::RunReport::total_seconds`]
    /// will report for this configuration).
    pub fn table5(&self) -> &Table5Row {
        &self.timing
    }

    /// Modelled end-to-end seconds per image for this configuration.
    pub fn total_seconds(&self) -> f64 {
        self.timing.total_w_pl
    }

    /// Modelled PL seconds per image across all offloaded stages; zero
    /// on a PS-only plan (`+0.0`: an empty `f64` sum is `-0.0`).
    pub fn pl_seconds(&self) -> f64 {
        self.stages().iter().fold(0.0, |acc, s| acc + s.pl_seconds)
    }

    /// Modelled PS seconds per image (total minus the PL share).
    pub fn ps_seconds(&self) -> f64 {
        self.total_seconds() - self.pl_seconds()
    }

    /// 32-bit AXI bus words per image.
    pub fn dma_words(&self) -> u64 {
        self.stages().iter().map(|s| s.dma_words).sum()
    }

    /// Total BRAM36-equivalents of the planned circuits at the plan's
    /// word width.
    pub fn bram36_used(&self) -> f64 {
        self.stages().iter().map(|s| s.bram36).sum()
    }

    /// Total DSP48E1 slices of the planned circuits.
    pub fn dsp_used(&self) -> u32 {
        self.stages().iter().map(|s| s.dsp).sum()
    }

    /// One-line human description for logs and examples.
    pub fn describe(&self) -> String {
        format!(
            "{} · {} · {:?} ({} PL stage{}, {:.1} BRAM36) · {:.3}s/img",
            self.spec().display_name(),
            self.precision(),
            self.target(),
            self.stages().len(),
            if self.stages().len() == 1 { "" } else { "s" },
            self.bram36_used(),
            self.total_seconds(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodenet::Variant;

    #[test]
    fn ps_only_plan_has_positive_zero_pl_seconds() {
        let spec = NetSpec::new(Variant::ResNet, 20);
        let plan = plan_deployment(&spec, &PlanRequest::default()).expect("plans");
        assert_eq!(plan.target(), OffloadTarget::None);
        for pl in [plan.pl_seconds(), plan.cluster_plan().pl_seconds()] {
            assert_eq!(pl, 0.0);
            assert!(
                pl.is_sign_positive(),
                "PS-only plan reports {pl:?} PL seconds"
            );
        }
    }

    #[test]
    fn default_plan_matches_paper_row() {
        let spec = NetSpec::new(Variant::ROdeNet3, 56);
        let plan = plan_deployment(&spec, &PlanRequest::default()).expect("plans");
        assert_eq!(plan.target(), OffloadTarget::Layer32);
        assert_eq!(plan.backend_kind(), BackendKind::Hybrid);
        let row = crate::timing::paper_row(Variant::ROdeNet3, 56);
        assert_eq!(plan.table5().total_w_pl, row.total_w_pl);
        assert_eq!(plan.total_seconds(), plan.ps_seconds() + plan.pl_seconds());
        assert_eq!(plan.dma_words(), 2 * 64 * 64);
        assert_eq!(plan.bram36_used(), 140.0);
    }

    #[test]
    fn sixteen_bit_plan_admits_layer32_combos() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let req = PlanRequest {
            precision: PlFormat::Q16 { frac: 10 }.into(),
            ..PlanRequest::default()
        };
        let plan = plan_deployment(&spec, &req).expect("16-bit plans");
        assert_eq!(plan.target(), OffloadTarget::AllOde);
        assert!(plan.bram36_used() <= PYNQ_Z2.bram36 as f64);
        // The same placement is a typed error at the paper's width.
        let err = plan_deployment(
            &spec,
            &PlanRequest {
                offload: Offload::Target(OffloadTarget::AllOde),
                ..PlanRequest::default()
            },
        )
        .expect_err("AllOde cannot fit at 32-bit");
        assert!(matches!(err, EngineError::InfeasiblePlacement { .. }));
    }

    #[test]
    fn degenerate_format_is_a_typed_error() {
        let spec = NetSpec::new(Variant::ROdeNet3, 20);
        for format in [
            PlFormat::Q16 { frac: 16 },
            PlFormat::Custom(QFormat {
                total_bits: 80,
                frac_bits: 20,
            }),
        ] {
            let err = plan_deployment(
                &spec,
                &PlanRequest {
                    precision: format.into(),
                    ..PlanRequest::default()
                },
            )
            .expect_err("degenerate format");
            assert!(
                matches!(err, EngineError::UnsupportedFormat { .. }),
                "{format:?}"
            );
        }
    }

    #[test]
    fn eight_bit_plans_for_analysis() {
        // Analysis-only widths plan fine (engines reject them at build).
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let req = PlanRequest {
            precision: PlFormat::Custom(QFormat::new(8, 4)).into(),
            ..PlanRequest::default()
        };
        let plan = plan_deployment(&spec, &req).expect("8-bit analysis plan");
        let plan16 = plan_deployment(
            &spec,
            &PlanRequest {
                precision: PlFormat::Q16 { frac: 10 }.into(),
                ..PlanRequest::default()
            },
        )
        .expect("16-bit plan");
        assert!(
            plan.bram36_used() <= plan16.bram36_used(),
            "8-bit ({}) uses no more BRAM than 16-bit ({})",
            plan.bram36_used(),
            plan16.bram36_used()
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PlFormat::Q20), "Q11.20 (32-bit)");
        assert_eq!(format!("{}", PlFormat::Q16 { frac: 10 }), "Q5.10 (16-bit)");
    }
}
