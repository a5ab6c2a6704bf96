//! The deployment engine — configure once, infer many times.
//!
//! Serving workloads must not re-plan the offload or re-quantize the
//! PL weights on every call: validate a configuration once, then make
//! inference a cheap, repeatable, batchable operation. [`Engine`] is
//! that shape:
//!
//! ```text
//! Engine::builder(&net)            // the trained f32 network
//!     .board(&PYNQ_Z2)             // which device (default PYNQ-Z2)
//!     .offload(Offload::Auto)      // planner-chosen PL placement
//!     .precision(Precision::Uniform(PlFormat::Q20)) // per-stage word widths
//!     .ps_model(PsModel::Calibrated)
//!     .pl_model(PlModel::default())
//!     .bn_mode(BnMode::OnTheFly)   // PS-side batch-norm statistics
//!     .build()?                    // plan + pre-quantize ONCE
//!     .infer(&image)?              // -> RunReport (logits + timing)
//! ```
//!
//! Building is **plan-centric**: [`EngineBuilder::plan`] resolves the
//! placement via [`crate::planner`], checks width-aware resource
//! feasibility and paper-policy applicability, and computes the full
//! input-independent timing decomposition — all without touching a
//! weight. The resulting [`DeploymentPlan`] is queryable on its own
//! (latency, BRAM, DMA — see [`crate::plan`]);
//! [`EngineBuilder::build`] computes the same plan, then pre-quantizes
//! the offloaded blocks into simulated BRAM — exactly once — and keeps
//! the plan for [`Engine::plan`] / [`Engine::latency_report`].
//! Configuration mistakes surface as [`EngineError`] values instead of
//! asserts deep inside an inference call.
//!
//! The PL word format is a runtime builder parameter, resolved **per
//! stage** ([`EngineBuilder::precision`]): one uniform format (the
//! paper's Q20, any 16-bit Q(15−n).n, or a custom
//! [`qfixed::QFormat`]), an explicit per-stage table, or a calibrated
//! policy that measures activation ranges on a sample batch and picks
//! each stage's `frac` itself. Each offloaded stage quantizes at its
//! own DMA boundary into its own format, so a deployment can run
//! layer1 at Q16 next to layer3_2 at Q20; at reduced widths the
//! planner may legally choose placements that share the fabric with
//! layer3_2 (footnote 2: "more layers in PL").
//!
//! Every built-in engine runs on one [`ClusterPlan`]: a single board
//! is a cluster of one, kept as a [`DeploymentPlan`] (the one-board
//! view that adds the resolved [`BackendKind`] and the Table 5 row).
//! Serving, load sweeps, failover and the pipelined batch schedule all
//! read that plan. Execution is dispatched through the [`Backend`]
//! trait, and the built-in backends are one PS+PL walk plus one
//! fully-fixed-point path. Both compute their per-image timing once,
//! at build, from the plan (the cost model is input-independent), so
//! `infer` runs numerics only:
//!
//! * the **PS+PL walk** ([`Network::walk`]) runs offloaded stages on
//!   the bit-exact fixed-point ODEBlock circuit of the board carrying
//!   them and everything else in `f32` on the head board's PS. It
//!   reports under three names: `"ps-software"`
//!   ([`BackendKind::PsSoftware`]: nothing offloaded, the "w/o PL"
//!   rows of Table 5), `"hybrid"`
//!   ([`BackendKind::Hybrid`]: the paper's deployment, bit-identical to
//!   the original pre-engine hybrid loop at the default Q20, pinned in
//!   `tests/engine_equivalence.rs`), and `"cluster"` (a placement
//!   sharded across an [`EngineBuilder::cluster`], interconnect
//!   hand-offs folded into `pl_seconds`; with [`Schedule::Pipelined`],
//!   [`Engine::infer_batch_summary`] reports the pipelined makespan);
//! * `"pl-bit-exact"` ([`BackendKind::PlBitExact`]) runs the *whole*
//!   network in the PL number system via [`rodenet::QuantNetwork`],
//!   offloaded stages on the modelled circuit: what a fully-fixed-point
//!   deployment would compute. Requires on-the-fly batch norm (the
//!   circuit has no running statistics), enforced at build time.
//!
//! Further backends (alternate fabrics) implement [`Backend`] and plug
//! in through [`EngineBuilder::custom_backend`] without touching call
//! sites.
//!
//! ## Batch-norm semantics (deployment parity)
//!
//! [`EngineBuilder::bn_mode`] selects the statistics source for the
//! **PS-resident residual stages**, mirroring the deployed PYNQ flow
//! end to end: conv1 statistics are computed on-device (on-the-fly)
//! in every backend and the PL circuit always computes statistics per
//! feature map — that is what its divider/square-root units exist for.

use crate::board::Board;
#[cfg(test)]
use crate::board::PYNQ_Z2;
use crate::cluster::{plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect, Schedule};
use crate::datapath::OdeBlockAccel;
use crate::partition::Partitioner;
use crate::plan::{plan_deployment, DeploymentPlan, PlFormat, PlanRequest};
use crate::planner::OffloadTarget;
use crate::precision::{Precision, StageFormats};
use crate::replica::Replication;
use crate::serve::{LoadPoint, LoadSweep, ServeReport, ServeRequest};
use crate::timing::{PlModel, PsModel, Table5Row};
use crate::trace::{Recorder, Trace};
use qfixed::{Fix, Fix16};
use rodenet::{BnMode, LayerName, Network, QuantNetwork, ResBlock, Variant};
use tensor::{par, Scalar, Shape4, Tensor};

/// How the engine chooses the PL placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Offload {
    /// Latency-optimal placement under the paper's ODE-blocks-only
    /// policy ([`crate::planner::plan_offload`]).
    #[default]
    Auto,
    /// Latency-optimal placement, also considering once-executed plain
    /// blocks ([`crate::planner::plan_offload_extended`]).
    AutoExtended,
    /// A fixed placement, validated at build time.
    Target(OffloadTarget),
}

/// Which built-in [`Backend`] executes inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// [`BackendKind::PsSoftware`] when the resolved placement is
    /// [`OffloadTarget::None`], [`BackendKind::Hybrid`] otherwise.
    #[default]
    Auto,
    /// Pure `f32` software on the PS.
    PsSoftware,
    /// PS software + bit-exact Q20 PL circuit (the paper's system).
    Hybrid,
    /// The whole network in the Q20 number system.
    PlBitExact,
}

/// Everything that can go wrong configuring or running an [`Engine`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The requested placement does not fit the board's fabric at the
    /// configured parallelism.
    InfeasiblePlacement {
        /// The rejected placement.
        target: OffloadTarget,
        /// conv_x·n multiply–add units it was sized for.
        parallelism: usize,
    },
    /// The placement names a layer the architecture removed or stacks
    /// (only single-instance blocks can live in BRAM).
    TargetNotApplicable {
        /// The rejected placement.
        target: OffloadTarget,
        /// The architecture it was checked against.
        variant: Variant,
    },
    /// The explicit backend cannot honor the resolved placement (e.g.
    /// [`BackendKind::PsSoftware`] with PL stages planned, or a
    /// non-hybrid backend requested together with a [`Cluster`]).
    BackendConflict {
        /// The conflicting backend.
        backend: &'static str,
        /// The resolved placement.
        target: OffloadTarget,
    },
    /// The placement's layers cannot be distributed over the cluster's
    /// boards at the configured width and parallelism under the
    /// requested [`crate::partition::Partitioner`] (see
    /// [`crate::cluster::shard_placement`] and
    /// [`crate::partition::partition_placement`]).
    ShardInfeasible {
        /// The rejected overall placement.
        target: OffloadTarget,
        /// Boards the cluster offered.
        boards: usize,
        /// conv_x·n multiply–add units each shard was sized for.
        parallelism: usize,
        /// The first layer that fit no remaining board (first-fit) or
        /// no board on its own (balanced search); `None` when every
        /// layer fits some board alone but no joint assignment exists.
        stuck: Option<LayerName>,
        /// BRAM36-equivalents the stuck layer demands at the plan's
        /// word width (`0.0` when `stuck` is `None`).
        stuck_bram36: f64,
        /// BRAM36 capacity of every board consulted, in network order.
        board_bram36: Vec<u32>,
        /// An actionable remedy when one exists: the same placement
        /// shards once the rack grows by one board, so a
        /// [`crate::replica::Replication::Stage`] deployment on the
        /// larger rack is within reach. `None` when even a bigger rack
        /// would not help.
        hint: Option<String>,
    },
    /// The requested [`crate::replica::Replication`] policy cannot be
    /// realized on this cluster (not enough boards, a layer the
    /// placement never offloads, or timing-mismatched board groups).
    ReplicationInfeasible {
        /// Why the policy was rejected.
        reason: String,
    },
    /// The backend cannot honor the requested batch-norm mode (the Q20
    /// circuit computes statistics on the fly; it has no running
    /// statistics to consult).
    BnModeConflict {
        /// The conflicting backend.
        backend: &'static str,
    },
    /// The requested PL word format is degenerate (`frac ≥ total bits`,
    /// or outside 2–64 bits), or — at build time — not one of the
    /// widths the engine can instantiate a datapath for (see
    /// [`EngineBuilder::precision`]; any structurally valid format
    /// still *plans*).
    UnsupportedFormat {
        /// Requested storage bits.
        total_bits: u32,
        /// Requested fractional bits.
        frac_bits: u32,
        /// The stage whose per-stage override carries the offending
        /// format, when the precision policy is per-stage (`None` when
        /// the policy is uniform — every stage is equally affected).
        stage: Option<LayerName>,
    },
    /// [`Precision::Calibrated`] was configured with an empty sample
    /// batch — there is no activation envelope to measure.
    CalibrationEmpty,
    /// Calibration measured an activation envelope too wide for every
    /// executable `frac` of the requested width at the requested
    /// headroom (the stage would saturate; widen `total_bits` or relax
    /// `headroom_bits`).
    CalibrationRange {
        /// The stage whose envelope overflows.
        layer: LayerName,
        /// The measured max |value| (activations and parameters).
        max_abs: f64,
        /// The requested storage bits.
        total_bits: u32,
        /// The requested integer-bit margin.
        headroom_bits: u32,
    },
    /// The backend executes the whole network in one number system
    /// (the fully-fixed-point path), but the precision policy resolved
    /// to per-stage formats.
    MixedPrecisionUnsupported {
        /// The conflicting backend.
        backend: &'static str,
    },
    /// The input tensor is not CIFAR-shaped.
    ShapeMismatch {
        /// The offending shape.
        got: Shape4,
    },
    /// `infer_batch` was called with no inputs.
    EmptyBatch,
    /// [`Engine::serve`] needs the build-time stage pipeline to replay
    /// the request stream against, and the engine has no plan that
    /// carries one (custom backends own their execution strategy).
    ServeRequiresPlan {
        /// The planless backend.
        backend: &'static str,
    },
    /// A serving request that cannot produce a well-formed arrival
    /// stream or dispatch policy (see [`crate::serve`]).
    InvalidServe {
        /// What is malformed, in the caller's terms.
        reason: &'static str,
    },
    /// A hardware figure no timing model can price: a zero PS or PL
    /// clock, a link whose bandwidth is not finite and positive or
    /// whose latency is not finite and non-negative, or a
    /// [`PlModel`] with zero multiply–add units. Checked by
    /// [`crate::cluster::plan_cluster`], which every built-in build
    /// runs.
    InvalidHardware {
        /// Index of the offending board in the cluster (`None` for the
        /// interconnect or the PL model; a single board is board 0).
        board: Option<usize>,
        /// What is wrong, naming the offending figures.
        reason: String,
    },
    /// A fault plan or health policy the fault subsystem cannot
    /// honour: an unknown board index, overlapping windows on one
    /// board, a non-positive duration or out-of-range factor, or
    /// fault injection configured without a cluster deployment (see
    /// [`crate::fault`]).
    InvalidFaultPlan {
        /// Index of the offending [`crate::fault::FaultEvent`] in the
        /// plan (`None` when the problem is not a single event).
        event: Option<usize>,
        /// What is malformed, naming the offending parameters.
        reason: String,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::InfeasiblePlacement {
                target,
                parallelism,
            } => write!(
                f,
                "placement {target:?} does not fit the fabric at conv_x{parallelism} \
                 (see zynq_sim::resources)"
            ),
            EngineError::TargetNotApplicable { target, variant } => write!(
                f,
                "placement {target:?} is not applicable to {variant}: every offloaded \
                 layer must be present as a single block instance"
            ),
            EngineError::BackendConflict { backend, target } => {
                write!(f, "backend `{backend}` cannot execute placement {target:?}")
            }
            EngineError::ShardInfeasible {
                target,
                boards,
                parallelism,
                stuck,
                stuck_bram36,
                board_bram36,
                hint,
            } => {
                write!(
                    f,
                    "placement {target:?} cannot be sharded across {boards} board(s) at \
                     conv_x{parallelism}"
                )?;
                match stuck {
                    Some(layer) => write!(
                        f,
                        ": {layer} ({stuck_bram36} BRAM36 at this width) fits no remaining \
                         board — per-board BRAM36 capacities {board_bram36:?}; feasibility \
                         also weighs DSP/LUT/FF and the conv_x-parallelism bound"
                    )?,
                    None => write!(
                        f,
                        ": every layer fits some board alone, yet no joint assignment fits \
                         the per-board fabrics (BRAM36 capacities {board_bram36:?}; \
                         DSP/LUT/FF also checked)"
                    )?,
                }
                if let Some(hint) = hint {
                    write!(f, "; hint: {hint}")?;
                }
                write!(f, " (see zynq_sim::cluster)")
            }
            EngineError::ReplicationInfeasible { reason } => {
                write!(
                    f,
                    "replication infeasible: {reason} (see zynq_sim::replica)"
                )
            }
            EngineError::BnModeConflict { backend } => write!(
                f,
                "backend `{backend}` computes batch-norm statistics on the fly; \
                 BnMode::Running is not available on the Q20 datapath"
            ),
            EngineError::UnsupportedFormat {
                total_bits,
                frac_bits,
                stage,
            } => {
                if let Some(layer) = stage {
                    // A per-stage policy: name the stage whose override
                    // is broken, so the caller knows which entry of the
                    // table to fix.
                    write!(f, "stage {layer}: ")?;
                }
                let degenerate = PlFormat::Custom(qfixed::QFormat {
                    total_bits: *total_bits,
                    frac_bits: *frac_bits,
                })
                .is_degenerate();
                if degenerate {
                    // Structurally invalid — rejected at plan time,
                    // before executability is even a question.
                    write!(
                        f,
                        "degenerate fixed-point format: {total_bits} total bits with \
                         {frac_bits} fractional bits (need 2 ≤ total ≤ 64 and frac < total)"
                    )
                } else {
                    let widths = PlFormat::EXECUTABLE_WIDTHS
                        .iter()
                        .map(|(t, fr)| format!("{t}-bit/frac {fr}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    write!(
                        f,
                        "no PL datapath for a {total_bits}-bit format with {frac_bits} \
                         fractional bits — it plans but cannot execute \
                         (executable widths: {widths})"
                    )
                }
            }
            EngineError::CalibrationEmpty => f.write_str(
                "Precision::Calibrated needs at least one sample input to measure \
                 activation ranges from",
            ),
            EngineError::CalibrationRange {
                layer,
                max_abs,
                total_bits,
                headroom_bits,
            } => write!(
                f,
                "calibration: stage {layer}'s envelope (max |value| {max_abs:.3}) plus \
                 {headroom_bits} headroom bit(s) exceeds every executable {total_bits}-bit \
                 fraction — widen total_bits or relax headroom_bits"
            ),
            EngineError::MixedPrecisionUnsupported { backend } => write!(
                f,
                "backend `{backend}` runs the whole network in one number system; \
                 a per-stage precision policy needs the hybrid backend"
            ),
            EngineError::ShapeMismatch { got } => write!(
                f,
                "input must be shaped (N\u{2265}1, 3, H\u{2265}4, W\u{2265}4), got {got:?}"
            ),
            EngineError::EmptyBatch => f.write_str("infer_batch needs at least one input"),
            EngineError::ServeRequiresPlan { backend } => write!(
                f,
                "cannot serve through backend `{backend}`: no deployment plan carries \
                 its stage timing — serving replays arrivals against the build-time \
                 pipeline, so it needs a built-in (planned) backend"
            ),
            EngineError::InvalidServe { reason } => {
                write!(f, "invalid serve request: {reason}")
            }
            EngineError::InvalidHardware { reason, .. } => {
                write!(f, "invalid hardware: {reason}")
            }
            EngineError::InvalidFaultPlan { event, reason } => match event {
                Some(i) => write!(
                    f,
                    "invalid fault plan: event #{i}: {reason} (see zynq_sim::fault)"
                ),
                None => write!(f, "invalid fault plan: {reason} (see zynq_sim::fault)"),
            },
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of one engine inference: logits plus the modelled wall-clock
/// decomposition, from the same execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Classifier logits (batch × classes), always reported in `f32`
    /// (quantized backends convert on the way out).
    pub logits: Tensor<f32>,
    /// Images in this run's input tensor.
    pub images: usize,
    /// Modelled PS seconds per image (software stages + fixed overhead).
    pub ps_seconds: f64,
    /// Modelled PL seconds per image (offloaded stages incl. DMA).
    pub pl_seconds: f64,
    /// 32-bit words across the AXI bus, per image.
    pub dma_words: u64,
    /// Layers that ran on the PL.
    pub offloaded: Vec<LayerName>,
    /// Name of the backend that executed the run.
    pub backend: &'static str,
}

impl RunReport {
    /// Total modelled latency per image.
    pub fn total_seconds(&self) -> f64 {
        self.ps_seconds + self.pl_seconds
    }

    /// Total modelled latency for every image of the run (the board
    /// processes one image at a time).
    pub fn batch_seconds(&self) -> f64 {
        self.total_seconds() * self.images as f64
    }
}

/// Accumulated timing over a batch of [`RunReport`]s, plus the
/// schedule's wall-clock and per-image latency distribution — one
/// struct that makes [`Schedule::Sequential`] and
/// [`Schedule::Pipelined`] directly comparable.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchSummary {
    /// Total images served.
    pub images: usize,
    /// Accumulated PS seconds (per-image × images).
    pub ps_seconds: f64,
    /// Accumulated PL seconds (for cluster runs, incl. interconnect).
    pub pl_seconds: f64,
    /// Accumulated DMA words.
    pub dma_words: u64,
    /// Modelled wall-clock seconds of the whole batch under the
    /// schedule that produced the summary: additive
    /// (`= total_seconds()`) for [`BatchSummary::from_runs`] and
    /// sequential execution, the pipeline makespan for
    /// [`Schedule::Pipelined`].
    pub wall_seconds: f64,
    /// Median per-image latency in seconds (lower median; `0.0` for an
    /// empty batch). Under a pipelined schedule this includes queueing
    /// behind the bottleneck resource.
    pub latency_p50: f64,
    /// 99th-percentile per-image latency in seconds (`0.0` for an
    /// empty batch) — the SLO tail the serving layer reports on.
    pub latency_p99: f64,
    /// Worst-case per-image latency in seconds.
    pub latency_max: f64,
}

impl BatchSummary {
    /// Fold a slice of reports into accumulated totals with additive
    /// wall-clock (one image at a time — the single-board serving
    /// model). Latency percentiles come from the per-image totals.
    pub fn from_runs(runs: &[RunReport]) -> Self {
        let mut s = BatchSummary::default();
        let mut latencies: Vec<f64> = Vec::new();
        for r in runs {
            s.images += r.images;
            s.ps_seconds += r.ps_seconds * r.images as f64;
            s.pl_seconds += r.pl_seconds * r.images as f64;
            s.dma_words += r.dma_words * r.images as u64;
            latencies.extend(std::iter::repeat_n(r.total_seconds(), r.images));
        }
        s.wall_seconds = s.total_seconds();
        (s.latency_p50, s.latency_p99, s.latency_max) = latency_percentiles(latencies);
        s
    }

    /// Accumulated execution seconds (PS + PL), schedule-independent.
    pub fn total_seconds(&self) -> f64 {
        self.ps_seconds + self.pl_seconds
    }

    /// Modelled images per second of the executed schedule (`0.0` for
    /// an empty summary — an idle server has no throughput, not a
    /// near-infinite one).
    pub fn throughput(&self) -> f64 {
        if self.images == 0 {
            return 0.0;
        }
        self.images as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }
}

/// The `q`-quantile of an **ascending** latency sample under the
/// suite's pinned index convention — element `⌊q · (len − 1)⌋`, so
/// `q = 0.5` is the lower median ([`BatchSummary::latency_p50`]'s
/// contract) and `q = 1.0` the maximum; `0.0` for an empty sample.
/// One helper serves [`BatchSummary`], [`crate::cluster::PipelineRun`],
/// and [`crate::serve::ServeReport`], so every percentile the suite
/// prints is comparable.
pub(crate) fn latency_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `(p50, p99, max)` of a latency sample — see [`latency_quantile`]
/// for the index convention; zeros for an empty sample.
pub(crate) fn latency_percentiles(mut latencies: Vec<f64>) -> (f64, f64, f64) {
    latencies.sort_by(f64::total_cmp);
    (
        latency_quantile(&latencies, 0.5),
        latency_quantile(&latencies, 0.99),
        latency_quantile(&latencies, 1.0),
    )
}

/// A whole-inference executor. Implementations own whatever pre-built
/// state they need (quantized weights, simulated circuits), so `infer`
/// is cheap and repeatable; the [`Engine`] validates inputs and
/// delegates here.
///
/// `Send + Sync` is part of the contract: a built engine serves from
/// multiple threads behind a shared reference, so backends must too
/// (`infer` takes `&self` — keep per-call state on the stack).
pub trait Backend: Send + Sync {
    /// Short stable name, reported in [`RunReport::backend`].
    fn name(&self) -> &'static str;
    /// The layers this backend runs on the PL fabric.
    fn offloaded(&self) -> &[LayerName];
    /// Execute one (possibly batched) input to logits + timing.
    fn infer(&self, x: &Tensor<f32>) -> Result<RunReport, EngineError>;
    /// Fold a batch's reports into one [`BatchSummary`] under the
    /// backend's batch schedule. The default is the additive
    /// single-board model ([`BatchSummary::from_runs`]); a custom
    /// backend with its own scheduler overrides the wall-clock and
    /// latency fields. Built-in engines under [`Schedule::Pipelined`]
    /// take those fields from their plan instead (see
    /// [`Engine::infer_batch_summary`]).
    fn summarize_batch(&self, runs: &[RunReport]) -> BatchSummary {
        BatchSummary::from_runs(runs)
    }
}

/// Monomorphized datapaths over every executable word width: circuits
/// behind one enum so *different stages of one engine can run in
/// different formats* (the per-stage precision policy), and the
/// uniform dispatch of the fully-fixed-point backend. The list must
/// stay in lockstep with [`PlFormat::EXECUTABLE_WIDTHS`] — pinned by
/// `every_listed_executable_width_builds`.
macro_rules! any_accel {
    ($(($variant:ident, $ty:ty, $total:literal, $frac:literal)),+ $(,)?) => {
        /// One stage's simulated circuit in whichever executable width
        /// its format resolved to.
        enum AnyAccel {
            $($variant(OdeBlockAccel<$ty>),)+
        }

        impl AnyAccel {
            /// Quantize `block` into the circuit for `q`, or `None`
            /// when no monomorphized datapath exists for that width.
            fn build(
                block: &ResBlock,
                parallelism: usize,
                board: &Board,
                q: qfixed::QFormat,
            ) -> Option<Self> {
                match (q.total_bits, q.frac_bits) {
                    $(($total, $frac) => {
                        Some(AnyAccel::$variant(OdeBlockAccel::new(block, parallelism, board)))
                    })+
                    _ => None,
                }
            }

            /// Run the stage at the f32 DMA boundary: quantize the
            /// feature map into the stage's format, execute on the
            /// circuit, dequantize on the way out.
            fn run_stage(&self, z: &Tensor<f32>, execs: usize) -> Tensor<f32> {
                match self {
                    $(AnyAccel::$variant(accel) => {
                        let zq: Tensor<$ty> = Tensor::from_f32_tensor(z);
                        accel.run_stage(&zq, execs).output.to_f32()
                    })+
                }
            }
        }

        /// The fully-fixed-point backend for `plan` in the uniform
        /// format `q` — the whole network in one number system — or
        /// `None` when no monomorphized datapath exists for that width.
        fn bit_exact_backend<'n>(
            net: &'n Network,
            plan: &DeploymentPlan,
            q: qfixed::QFormat,
        ) -> Option<Box<dyn Backend + 'n>> {
            match (q.total_bits, q.frac_bits) {
                $(($total, $frac) => Some(build_bit_exact_backend::<$ty>(net, plan)),)+
                _ => None,
            }
        }
    };
}

any_accel!(
    (F32x12, Fix<12>, 32, 12),
    (F32x16, Fix<16>, 32, 16),
    (F32x20, Fix<20>, 32, 20),
    (F32x24, Fix<24>, 32, 24),
    (F16x6, Fix16<6>, 16, 6),
    (F16x8, Fix16<8>, 16, 8),
    (F16x10, Fix16<10>, 16, 10),
    (F16x12, Fix16<12>, 16, 12),
);

/// One pre-built PL stage: the simulated circuit holding the quantized
/// block in the stage's own word format, and how often the stage
/// executes per inference.
struct PlStage {
    layer: LayerName,
    accel: AnyAccel,
    execs: usize,
}

/// Pre-quantize — once — each offloaded stage of `layers` into its
/// *own* format's circuit. `board_of` names the fabric carrying each
/// stage (constant for a single board, the shard map for a cluster).
/// A stage whose format has no monomorphized datapath is a typed
/// [`EngineError::UnsupportedFormat`] naming that stage when the
/// policy is per-stage.
fn build_pl_stages(
    net: &Network,
    layers: &[LayerName],
    formats: &StageFormats,
    parallelism: usize,
    board_of: impl Fn(LayerName) -> Board,
) -> Result<Vec<PlStage>, EngineError> {
    layers
        .iter()
        .map(|&layer| {
            let stage = net
                .stage(layer)
                .expect("applicability check guarantees the stage exists");
            debug_assert_eq!(
                stage.blocks.len(),
                1,
                "single-instance checked at plan time"
            );
            let q = formats
                .format_of(layer)
                .qformat()
                .expect("validated by plan()");
            let accel = AnyAccel::build(&stage.blocks[0], parallelism, &board_of(layer), q).ok_or(
                EngineError::UnsupportedFormat {
                    total_bits: q.total_bits,
                    frac_bits: q.frac_bits,
                    // A uniform policy affects every stage equally;
                    // only a per-stage table names the culprit.
                    stage: if formats.uniform_format().is_some() {
                        None
                    } else {
                        Some(layer)
                    },
                },
            )?;
            Ok(PlStage {
                layer,
                accel,
                execs: if stage.plan.is_ode {
                    stage.plan.execs
                } else {
                    1
                },
            })
        })
        .collect()
}

/// The per-image modelled timing of a built-in backend. The cost model
/// is input-independent, so each backend computes it once, at build,
/// from its plan, and `infer` runs numerics only.
#[derive(Clone, Copy, Debug)]
struct ImageTiming {
    ps_seconds: f64,
    pl_seconds: f64,
    dma_words: u64,
}

impl ImageTiming {
    /// One image through `plan`: the head board's PS seconds
    /// ([`ClusterPlan::ps_seconds`]); the PL seconds of the offloaded
    /// stages (DMA included) in network order, plus the interconnect
    /// hand-offs (zero on one board); and the on-board DMA words.
    fn of(plan: &ClusterPlan) -> Self {
        ImageTiming {
            ps_seconds: plan.ps_seconds(),
            pl_seconds: plan.pl_seconds() + plan.transfer_seconds(),
            dma_words: plan.dma_words(),
        }
    }

    /// The report of one run whose numerics produced `logits`.
    fn report(
        &self,
        logits: Tensor<f32>,
        offloaded: &[LayerName],
        backend: &'static str,
    ) -> RunReport {
        RunReport {
            images: logits.shape().n,
            logits,
            ps_seconds: self.ps_seconds,
            pl_seconds: self.pl_seconds,
            dma_words: self.dma_words,
            offloaded: offloaded.to_vec(),
            backend,
        }
    }
}

/// The PS+PL walk backend, for one board or a rack: offloaded stages
/// run on the pre-built circuit of the board carrying them — each in
/// its *own* word format, quantized at its DMA boundary — and
/// everything else in `f32` on the head board's PS with `bn`
/// statistics. Sharding changes *where* and *when* stages run, never
/// the Q-format arithmetic, so logits are bit-identical to the
/// one-board walk with the same overall placement; with a uniform Q20
/// table they are bit-identical to the original pre-engine hybrid loop.
/// Timing is per image and additive, with interconnect hand-offs (zero
/// on one board) folded into `pl_seconds`.
struct ClusterBackend<'n> {
    /// `"ps-software"`, `"hybrid"` or `"cluster"`.
    name: &'static str,
    net: &'n Network,
    pl_stages: Vec<PlStage>,
    offloaded: Vec<LayerName>,
    bn: BnMode,
    timing: ImageTiming,
}

impl Backend for ClusterBackend<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn offloaded(&self) -> &[LayerName] {
        &self.offloaded
    }

    fn infer(&self, x: &Tensor<f32>) -> Result<RunReport, EngineError> {
        let logits = self.net.walk(x, BnMode::OnTheFly, |stage, z| {
            match self.pl_stages.iter().find(|p| p.layer == stage.name) {
                Some(pl) => pl.accel.run_stage(z, pl.execs),
                None => stage.forward(z, self.bn),
            }
        });
        Ok(self.timing.report(logits, &self.offloaded, self.name))
    }
}

/// Fully-fixed-point backend: the whole network executes in the PL
/// number system `S` via [`QuantNetwork`]; the offloaded stages carry
/// circuit timing, the rest PS timing (a fully-quantized PS runtime
/// would run the same integer ops the float one does, so the calibrated
/// cost model still applies).
///
/// The quantized network already *is* the circuit's datapath
/// ([`OdeBlockAccel`] wraps the same [`rodenet::QuantBlock`] forward),
/// so offloaded stages execute straight out of `qnet` — one
/// quantization at build, no duplicate weight copies. Placement decides
/// only the timing, taken from the plan at build like the walk
/// backend's.
struct PlBitExactBackend<S: Scalar> {
    qnet: QuantNetwork<S>,
    offloaded: Vec<LayerName>,
    timing: ImageTiming,
}

impl<S: Scalar> Backend for PlBitExactBackend<S> {
    fn name(&self) -> &'static str {
        "pl-bit-exact"
    }

    fn offloaded(&self) -> &[LayerName] {
        &self.offloaded
    }

    fn infer(&self, x: &Tensor<f32>) -> Result<RunReport, EngineError> {
        let logits = self.qnet.forward(&Tensor::from_f32_tensor(x)).to_f32();
        Ok(self.timing.report(logits, &self.offloaded, self.name()))
    }
}

/// Fluent configuration for an [`Engine`]. Start from
/// [`Engine::builder`]; every setting has the paper's default.
pub struct EngineBuilder<'n> {
    net: &'n Network,
    board: Board,
    offload: Offload,
    ps: PsModel,
    pl: PlModel,
    bn: BnMode,
    precision: Precision,
    backend: BackendKind,
    cluster: Option<Cluster>,
    schedule: Schedule,
    partitioner: Partitioner,
    replication: Replication,
    trace: bool,
    faults: crate::fault::FaultPlan,
    health: crate::fault::HealthPolicy,
    custom: Option<Box<dyn Backend + 'n>>,
}

impl<'n> EngineBuilder<'n> {
    /// Target device (default: the PYNQ-Z2 of Table 1).
    pub fn board(mut self, board: &Board) -> Self {
        self.board = *board;
        self
    }

    /// Placement policy (default: [`Offload::Auto`]).
    pub fn offload(mut self, offload: Offload) -> Self {
        self.offload = offload;
        self
    }

    /// PS software-cost model (default: [`PsModel::Calibrated`]).
    pub fn ps_model(mut self, ps: PsModel) -> Self {
        self.ps = ps;
        self
    }

    /// PL circuit configuration (default: conv_x16).
    pub fn pl_model(mut self, pl: PlModel) -> Self {
        self.pl = pl;
        self
    }

    /// Batch-norm statistics for PS-resident stages (default:
    /// [`BnMode::OnTheFly`], matching the PL circuit end to end).
    ///
    /// conv1 uses on-the-fly statistics in every engine backend,
    /// whatever this mode (the deployed pre-processing computes them
    /// on the device; see [`Network::walk`]). A `Running` engine
    /// therefore differs from `Network::forward(x, BnMode::Running)`
    /// at conv1.
    pub fn bn_mode(mut self, bn: BnMode) -> Self {
        self.bn = bn;
        self
    }

    /// Per-stage PL word-format policy (default:
    /// [`Precision::Uniform`] at [`PlFormat::Q20`], the paper's 32-bit
    /// build).
    ///
    /// Each stage's width threads through placement feasibility, the
    /// DMA share of the timing model, the partitioner's makespan cost,
    /// cluster sharding, and the number system that stage's circuit
    /// executes in — so a deployment can put layer1 at Q16 next to
    /// layer3_2 at Q20 ([`Precision::PerStage`]), or let
    /// [`Precision::Calibrated`] pick each `frac` from measured
    /// activation ranges. Any structurally valid format *plans*
    /// ([`EngineBuilder::plan`]); **executing** additionally requires
    /// widths the engine has monomorphized datapaths for — 32-bit with
    /// 12/16/20/24 fractional bits, or 16-bit with 6/8/10/12 — else
    /// [`EngineBuilder::build`] returns
    /// [`EngineError::UnsupportedFormat`] (naming the stage when the
    /// policy is per-stage).
    pub fn precision(mut self, precision: impl Into<Precision>) -> Self {
        self.precision = precision.into();
        self
    }

    /// Which built-in backend executes (default: [`BackendKind::Auto`]).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Deploy across a multi-board [`Cluster`] instead of the single
    /// [`EngineBuilder::board`]: the placement is resolved against the
    /// cluster's combined capacity and sharded board-by-board
    /// ([`crate::cluster`]), and `build` produces the cluster backend.
    /// Only [`BackendKind::Auto`] / [`BackendKind::Hybrid`] are
    /// compatible — the PS stages always run in `f32` on the head
    /// board. A one-board cluster is bit- and timing-identical to the
    /// plain hybrid engine on that board.
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Batch execution order for [`Engine::infer_batch_summary`]
    /// (default: [`Schedule::Sequential`], the additive single-board
    /// model). Only meaningful together with
    /// [`EngineBuilder::cluster`].
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shard-assignment strategy for cluster deployments (default:
    /// [`Partitioner::FirstFit`], the pre-partitioner greedy behavior).
    /// [`Partitioner::BalancedMakespan`] searches every layer→board
    /// assignment and keeps the one minimizing the pipelined
    /// bottleneck busy time — on a heterogeneous rack it places the
    /// heavy ODE stages on the bigger fabric instead of wherever
    /// first-fit left them, raising [`Schedule::Pipelined`] batch
    /// throughput without touching the numerics (logits are
    /// bit-identical across partitioners for the same placement). On a
    /// single board every strategy resolves to the same one-shard
    /// assignment, so this only matters with [`EngineBuilder::cluster`].
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Replication policy for cluster deployments (default:
    /// [`Replication::None`], the unreplicated planner bit-for-bit).
    /// [`Replication::Stage`] burns one offloaded stage onto several
    /// fabrics and round-robins images between them;
    /// [`Replication::Placement`] clones the whole placement across
    /// disjoint board groups for data parallelism;
    /// [`Replication::Auto`] searches both grains and keeps whatever
    /// strictly beats the unreplicated reference-batch makespan.
    /// Replication decides *where and when* an image runs, never
    /// *what* — logits stay bit-identical (see [`crate::replica`]).
    /// Only meaningful with [`EngineBuilder::cluster`].
    pub fn replication(mut self, replication: Replication) -> Self {
        self.replication = replication;
        self
    }

    /// Record an event trace of every traced run (default: off).
    /// When on, [`Engine::serve`] and pipelined
    /// [`Engine::infer_batch_summary`] capture typed spans — stage
    /// executions per resource, interconnect hand-offs, queue and
    /// dispatch events — retrievable via [`Engine::last_trace`] /
    /// `ServeReport::trace()` and exportable with
    /// [`crate::trace::Trace::to_chrome_json`]. Tracing never touches
    /// the simulation's arithmetic: schedules, reports, and logits are
    /// bit-identical on or off (see [`crate::trace`]).
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Inject deterministic faults into every [`Engine::serve`] run
    /// (default: the empty plan, which is bit-identical to the
    /// fault-free path end to end). Crashes trigger health-driven
    /// failover onto the surviving boards; slowdowns, hangs, and link
    /// degrades stretch the schedule in place. Requires a configured
    /// [`EngineBuilder::cluster`] — the plan is validated against it
    /// at build time (see [`crate::fault`]). [`Engine::load_sweep`]
    /// stays fault-free by design (it characterizes the healthy
    /// load/latency curve).
    pub fn faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Failure-detection policy for injected crashes (default:
    /// [`crate::fault::HealthPolicy`] with a 3× stage-seconds
    /// timeout). Only consulted when a non-empty fault plan is
    /// configured.
    pub fn health(mut self, health: crate::fault::HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Plug in a caller-provided [`Backend`] (multi-board sharding,
    /// alternate fabrics, …). Placement planning and conflict checks
    /// are skipped — the backend owns its execution strategy. The
    /// precision policy is still resolved (a [`Precision::Calibrated`]
    /// policy runs its measurement pass) purely so
    /// [`Engine::precision`] can report the table; pair a custom
    /// backend with `Uniform`/`PerStage` if that startup cost matters.
    pub fn custom_backend(mut self, backend: Box<dyn Backend + 'n>) -> Self {
        self.custom = Some(backend);
        self
    }

    /// Resolve the precision policy into the per-stage format table
    /// ([`Precision::resolve`] — a pure lookup for
    /// `Uniform`/`PerStage`, the calibration measurement pass for
    /// `Calibrated`).
    fn resolve_precision(&self) -> Result<StageFormats, EngineError> {
        self.precision.resolve(self.net, self.bn)
    }

    /// [`EngineBuilder::plan`] with the precision policy already
    /// resolved to `precision`.
    fn plan_with(&self, precision: StageFormats) -> Result<DeploymentPlan, EngineError> {
        let req = PlanRequest {
            board: self.board,
            offload: self.offload,
            backend: self.backend,
            bn: self.bn,
            ps: self.ps,
            pl: self.pl,
            precision,
        };
        plan_deployment(&self.net.spec, &req)
    }

    /// [`EngineBuilder::plan_cluster`] with the precision policy
    /// already resolved to `precision`.
    fn plan_cluster_with(&self, precision: StageFormats) -> Result<ClusterPlan, EngineError> {
        let cluster = self.cluster.clone().unwrap_or_else(|| {
            Cluster::homogeneous(&self.board, 1, Interconnect::GIGABIT_ETHERNET)
        });
        let req = ClusterRequest {
            cluster,
            offload: self.offload,
            bn: self.bn,
            ps: self.ps,
            pl: self.pl,
            precision,
            schedule: self.schedule,
            partitioner: self.partitioner,
            replication: self.replication,
        };
        plan_cluster(&self.net.spec, &req)
    }

    /// Resolve placement, backend, width-aware feasibility, and the
    /// full input-independent timing decomposition — **without running
    /// any numerics or quantizing any weight** (one exception: a
    /// [`Precision::Calibrated`] policy runs its float measurement
    /// pass on the sample batch here, since the chosen formats gate
    /// feasibility). The returned [`DeploymentPlan`] answers
    /// latency/resource/DMA queries on its own; pass the same builder
    /// to [`EngineBuilder::build`] when you want to execute it.
    ///
    /// A caller-provided [`EngineBuilder::custom_backend`] is ignored
    /// here: plans describe the built-in execution paths. Likewise a
    /// configured [`EngineBuilder::cluster`]: this is the single-board
    /// plan; see [`EngineBuilder::plan_cluster`] for the sharded one.
    pub fn plan(&self) -> Result<DeploymentPlan, EngineError> {
        self.plan_with(self.resolve_precision()?)
    }

    /// The sharded-placement counterpart of [`EngineBuilder::plan`]:
    /// resolve placement, per-board feasibility, the per-image stage
    /// pipeline, and both batch-schedule makespans against the
    /// configured cluster — zero numerics. Without a configured
    /// [`EngineBuilder::cluster`] this plans a one-board cluster of
    /// [`EngineBuilder::board`] (useful to compare the pipelined
    /// schedule against the plain additive engine).
    pub fn plan_cluster(&self) -> Result<ClusterPlan, EngineError> {
        self.plan_cluster_with(self.resolve_precision()?)
    }

    /// Validate the configuration ([`EngineBuilder::plan`] /
    /// [`EngineBuilder::plan_cluster`]) and pre-quantize each offloaded
    /// block into its stage's resolved format — once. All placement,
    /// sharding, resource, format, calibration, and mode errors surface
    /// here, never inside `infer`.
    pub fn build(mut self) -> Result<Engine<'n>, EngineError> {
        if !self.faults.is_empty() {
            // Fault injection replays serves over the cluster plan's
            // stage pipeline and replans over the surviving boards —
            // neither exists for custom backends or the single-board
            // additive engine.
            if self.custom.is_some() || self.cluster.is_none() {
                return Err(EngineError::InvalidFaultPlan {
                    event: None,
                    reason: "fault injection needs a cluster deployment — configure \
                             EngineBuilder::cluster with a built-in backend"
                        .to_string(),
                });
            }
            self.faults
                .validate(self.cluster.as_ref().map_or(1, Cluster::len))?;
            self.health.validate()?;
        }
        let formats = self.resolve_precision()?;
        if let Some(custom) = self.custom.take() {
            return Ok(self.into_engine(formats, None, custom));
        }

        let deployment = if self.cluster.is_some() {
            let cplan = self.plan_cluster_with(formats)?;
            // A rack runs the PS+PL walk with per-board circuits; a
            // backend that forbids PL stages (or replaces the PS
            // numerics) cannot honor it.
            let backend = match self.backend {
                BackendKind::Auto | BackendKind::Hybrid => None,
                BackendKind::PsSoftware => Some("ps-software"),
                BackendKind::PlBitExact => Some("pl-bit-exact"),
            };
            if let Some(backend) = backend {
                return Err(EngineError::BackendConflict {
                    backend,
                    target: cplan.target(),
                });
            }
            Deployment::Rack(cplan)
        } else {
            Deployment::Board(self.plan_with(formats)?)
        };
        let backend = match &deployment {
            Deployment::Board(plan) if plan.backend_kind() == BackendKind::PlBitExact => {
                // The fully-fixed-point network is one number system;
                // a per-stage table cannot be honored.
                let Some(uniform) = formats.uniform_format() else {
                    return Err(EngineError::MixedPrecisionUnsupported {
                        backend: "pl-bit-exact",
                    });
                };
                let q = uniform.qformat().expect("validated by plan()");
                bit_exact_backend(self.net, plan, q).ok_or(EngineError::UnsupportedFormat {
                    total_bits: q.total_bits,
                    frac_bits: q.frac_bits,
                    stage: None,
                })?
            }
            walk => build_walk_backend(self.net, walk, &formats)?,
        };
        Ok(self.into_engine(formats, Some(deployment), backend))
    }

    fn into_engine(
        self,
        formats: StageFormats,
        deployment: Option<Deployment>,
        backend: Box<dyn Backend + 'n>,
    ) -> Engine<'n> {
        Engine {
            // A rack reports its head board.
            board: deployment
                .as_ref()
                .map_or(self.board, |d| *d.cluster().cluster().head()),
            bn: self.bn,
            formats,
            deployment,
            backend,
            trace_enabled: self.trace,
            faults: self.faults,
            health: self.health,
            last_trace: std::sync::Mutex::new(None),
        }
    }
}

/// The plan a built-in engine runs on. A single board is a cluster of
/// one, so both arms carry a [`ClusterPlan`] underneath.
enum Deployment {
    /// One board: the one-board view, with its resolved backend and
    /// Table 5 row.
    Board(DeploymentPlan),
    /// A configured [`EngineBuilder::cluster`].
    Rack(ClusterPlan),
}

impl Deployment {
    /// The cluster plan underneath: the stage pipeline every serve,
    /// sweep, failover and pipelined batch replays.
    fn cluster(&self) -> &ClusterPlan {
        match self {
            Deployment::Board(plan) => plan.cluster_plan(),
            Deployment::Rack(plan) => plan,
        }
    }
}

/// Pre-quantize — once — the offloaded stages of `deployment` onto the
/// fabric of the board carrying each, and build the PS+PL walk over
/// them, named after what it runs: `"cluster"` on a rack,
/// `"ps-software"` or `"hybrid"` on one board.
fn build_walk_backend<'n>(
    net: &'n Network,
    deployment: &Deployment,
    formats: &StageFormats,
) -> Result<Box<dyn Backend + 'n>, EngineError> {
    let name = match deployment {
        Deployment::Rack(_) => "cluster",
        Deployment::Board(plan) if plan.backend_kind() == BackendKind::PsSoftware => "ps-software",
        Deployment::Board(_) => "hybrid",
    };
    // The software path never touches the PL number system.
    if name != "ps-software" {
        require_uniform_datapath(formats)?;
    }
    let cplan = deployment.cluster();
    let offloaded = cplan.target().layers().to_vec();
    let pl_stages = build_pl_stages(
        net,
        &offloaded,
        formats,
        cplan.pl_model().parallelism,
        |layer| {
            let board = cplan.board_of(layer).expect("offloaded layers are sharded");
            cplan.cluster().boards()[board]
        },
    )?;
    Ok(Box::new(ClusterBackend {
        name,
        net,
        pl_stages,
        offloaded,
        bn: cplan.bn_mode(),
        timing: ImageTiming::of(cplan),
    }))
}

/// A *uniform* policy in a format without a datapath is rejected at
/// build even when nothing is offloaded — the engine was configured to
/// execute in that number system, and it cannot (the pre-policy
/// behavior, pinned by the builder-misuse matrix). Per-stage tables
/// are checked stage-by-stage instead: only formats that actually
/// reach a circuit need a datapath.
fn require_uniform_datapath(formats: &StageFormats) -> Result<(), EngineError> {
    if let Some(u) = formats.uniform_format() {
        if !u.has_datapath() {
            let q = u.qformat()?;
            return Err(EngineError::UnsupportedFormat {
                total_bits: q.total_bits,
                frac_bits: q.frac_bits,
                stage: None,
            });
        }
    }
    Ok(())
}

/// Quantize — once — the whole network into the scalar type `S` and
/// build the fully-fixed-point backend (its offloaded stages execute
/// straight out of the quantized network, so no second weight copy is
/// built).
fn build_bit_exact_backend<'n, S: Scalar>(
    net: &'n Network,
    plan: &DeploymentPlan,
) -> Box<dyn Backend + 'n> {
    Box::new(PlBitExactBackend {
        qnet: net.quantize::<S>(),
        offloaded: plan.target().layers().to_vec(),
        timing: ImageTiming::of(plan.cluster_plan()),
    })
}

/// A validated, pre-quantized inference engine over a trained network.
///
/// Build via [`Engine::builder`]; see the module docs for the data
/// flow. `infer` borrows the engine immutably, so one engine can serve
/// from multiple threads behind a shared reference.
pub struct Engine<'n> {
    board: Board,
    bn: BnMode,
    formats: StageFormats,
    /// `None` for custom backends: they own their execution strategy.
    deployment: Option<Deployment>,
    backend: Box<dyn Backend + 'n>,
    trace_enabled: bool,
    faults: crate::fault::FaultPlan,
    health: crate::fault::HealthPolicy,
    // Interior-mutable so `serve`/`infer_batch_summary` keep their
    // `&self` signatures (one engine serves from several threads —
    // pinned by `engine_serves_from_multiple_threads`).
    last_trace: std::sync::Mutex<Option<Trace>>,
}

impl core::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("target", &self.target())
            .field("board", &self.board.name)
            .field("bn", &self.bn)
            .field("precision", &self.formats)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl<'n> Engine<'n> {
    /// Start configuring an engine over `net`.
    pub fn builder(net: &'n Network) -> EngineBuilder<'n> {
        // One source of defaults: the same PlanRequest the spec-level
        // planning entry point uses.
        let d = PlanRequest::default();
        EngineBuilder {
            net,
            board: d.board,
            offload: d.offload,
            ps: d.ps,
            pl: d.pl,
            bn: d.bn,
            precision: d.precision.into(),
            backend: d.backend,
            cluster: None,
            schedule: Schedule::default(),
            partitioner: Partitioner::default(),
            replication: Replication::default(),
            trace: false,
            faults: crate::fault::FaultPlan::none(),
            health: crate::fault::HealthPolicy::default(),
            custom: None,
        }
    }

    /// The placement the engine was built with ([`OffloadTarget::None`]
    /// for custom backends — they own their placement).
    pub fn target(&self) -> OffloadTarget {
        self.deployment
            .as_ref()
            .map_or(OffloadTarget::None, |d| d.cluster().target())
    }

    /// The deployment plan the engine was built from (`None` for
    /// custom backends — they own their execution strategy — and for
    /// cluster engines, which keep a [`Engine::cluster_plan`] instead).
    pub fn plan(&self) -> Option<&DeploymentPlan> {
        match &self.deployment {
            Some(Deployment::Board(plan)) => Some(plan),
            _ => None,
        }
    }

    /// The sharded cluster plan the engine was built from (`Some` only
    /// when [`EngineBuilder::cluster`] was configured).
    pub fn cluster_plan(&self) -> Option<&ClusterPlan> {
        match &self.deployment {
            Some(Deployment::Rack(plan)) => Some(plan),
            _ => None,
        }
    }

    /// The configuration's cached latency decomposition (its Table 5
    /// row), served straight from the build-time plan — **no inference
    /// executes**. `total_w_pl` here equals what
    /// [`RunReport::total_seconds`] reports from an actual `infer`
    /// (the timing model is input-independent). `None` for custom
    /// backends.
    pub fn latency_report(&self) -> Option<&Table5Row> {
        self.plan().map(DeploymentPlan::table5)
    }

    /// The resolved per-stage PL word-format table the engine executes
    /// with (for [`Precision::Calibrated`], the formats the
    /// measurement pass chose).
    pub fn precision(&self) -> &StageFormats {
        &self.formats
    }

    /// The layers running on the PL fabric.
    pub fn offloaded(&self) -> &[LayerName] {
        self.backend.offloaded()
    }

    /// Name of the executing backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The configured device.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The PS-side batch-norm statistics mode.
    pub fn bn_mode(&self) -> BnMode {
        self.bn
    }

    /// One-line human description for logs and examples.
    pub fn describe(&self) -> String {
        format!(
            "{} on {} — PL: {:?} ({} stage{}, {})",
            self.backend.name(),
            self.board.name,
            self.target(),
            self.offloaded().len(),
            if self.offloaded().len() == 1 { "" } else { "s" },
            self.formats,
        )
    }

    fn check_shape(&self, x: &Tensor<f32>) -> Result<(), EngineError> {
        let s = x.shape();
        if s.n < 1 || s.c != 3 || s.h < 4 || s.w < 4 {
            return Err(EngineError::ShapeMismatch { got: s });
        }
        Ok(())
    }

    /// Run one (possibly batched) input through the configured backend.
    /// Setup — planning, validation, quantization — happened at build;
    /// this call only executes.
    pub fn infer(&self, x: &Tensor<f32>) -> Result<RunReport, EngineError> {
        self.check_shape(x)?;
        self.backend.infer(x)
    }

    /// Run a batch of inputs, amortizing the engine's one-time setup
    /// across all of them. Every input is validated before any work is
    /// done, so a malformed item cannot waste a partial batch. Timing
    /// accumulates across reports (fold with
    /// [`BatchSummary::from_runs`]); the board serves one image at a
    /// time, so latency is additive.
    ///
    /// Images are spread across cores at batch grain via
    /// [`tensor::par`]: each image's report lands in its own slot
    /// (disjoint outputs, so logits and modelled timings are
    /// bit-identical for any [`par::threads`] setting), and the kernels'
    /// plane-level parallelism degrades to sequential inside batch
    /// workers (`par::in_worker`) so the pool is never oversubscribed.
    /// Errors are reported deterministically: the lowest-index failure
    /// wins regardless of completion order.
    pub fn infer_batch(&self, xs: &[Tensor<f32>]) -> Result<Vec<RunReport>, EngineError> {
        if xs.is_empty() {
            return Err(EngineError::EmptyBatch);
        }
        for x in xs {
            self.check_shape(x)?;
        }
        let mut slots: Vec<Option<Result<RunReport, EngineError>>> =
            (0..xs.len()).map(|_| None).collect();
        // One image is far above the spawn-amortization gate; the hint
        // only needs to say so.
        par::par_chunks_mut(&mut slots, 1, usize::MAX / 2, |i, slot| {
            slot[0] = Some(self.backend.infer(&xs[i]));
        });
        let mut runs = Vec::with_capacity(xs.len());
        for slot in slots {
            runs.push(slot.expect("every batch slot filled")?);
        }
        Ok(runs)
    }

    /// [`Engine::infer_batch`] plus the deployment's batch schedule:
    /// the per-image [`RunReport`]s (identical to `infer_batch`'s) and
    /// one [`BatchSummary`] whose wall-clock reflects how the batch is
    /// actually ordered — additive for single-board engines and
    /// [`Schedule::Sequential`] clusters, the event-driven pipeline
    /// makespan for [`Schedule::Pipelined`], where board *k* starts
    /// image *i+1* as soon as it finishes image *i*. Custom backends
    /// fold the batch with [`Backend::summarize_batch`].
    pub fn infer_batch_summary(
        &self,
        xs: &[Tensor<f32>],
    ) -> Result<(Vec<RunReport>, BatchSummary), EngineError> {
        let runs = self.infer_batch(xs)?;
        let mut summary = self.backend.summarize_batch(&runs);
        let pipelined = self
            .deployment
            .as_ref()
            .map(Deployment::cluster)
            .filter(|plan| plan.schedule() == Schedule::Pipelined && summary.images > 0);
        if let Some(cplan) = pipelined {
            // Recording only reads the committed spans, so the run is
            // bit-identical with tracing on or off.
            let mut rec = if self.trace_enabled {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            };
            let run = crate::cluster::pipelined_schedule_released_traced(
                cplan.timeline(),
                &vec![0.0f64; summary.images],
                &mut rec,
            );
            let latencies = run.finishes.iter().zip(&run.starts);
            let latencies = latencies.map(|(f, s)| f - s).collect();
            summary.wall_seconds = run.makespan;
            (
                summary.latency_p50,
                summary.latency_p99,
                summary.latency_max,
            ) = latency_percentiles(latencies);
            if self.trace_enabled {
                let mut trace = rec.finish();
                trace.set_broadcast_seconds(cplan.broadcast_seconds());
                *self.last_trace.lock().expect("trace mutex") = Some(trace);
            }
        }
        Ok((runs, summary))
    }

    /// The plan serving replays arrivals against. Custom backends own
    /// their execution strategy and carry no plan, so they cannot
    /// serve.
    fn serve_plan(&self) -> Result<&ClusterPlan, EngineError> {
        self.deployment
            .as_ref()
            .map(Deployment::cluster)
            .ok_or(EngineError::ServeRequiresPlan {
                backend: self.backend.name(),
            })
    }

    /// Replay an open-loop request stream against this engine's
    /// deployment and report what an online SLO is written against:
    /// p50/p99/p99.9 **total** (queueing + service) latency, goodput
    /// vs offered load, the admission queue's high-water mark, and
    /// per-board utilization — all in deterministic virtual time (see
    /// [`crate::serve`]). Serving decides *when* each image runs,
    /// never *what* it computes: logits are untouched, and no
    /// inference executes here at all — like [`Engine::latency_report`],
    /// this reads the build-time timing model. A single-board engine
    /// serves over its one-board cluster plan's pipeline.
    ///
    /// Every serve runs the one serve driver (see
    /// [`crate::fault::serve_faulted`]): a fault-free engine serves a
    /// single crash-free epoch, bit-identical to
    /// [`crate::serve::serve_timeline`] over the same pipeline. A
    /// [`EngineBuilder::faults`] plan adds its injected faults,
    /// health-driven failover replanning onto the surviving boards, and
    /// an availability section on the report.
    pub fn serve(&self, req: &ServeRequest) -> Result<ServeReport, EngineError> {
        let cplan = self.serve_plan()?;
        let mut report = crate::fault::serve_epochs(
            cplan.timeline(),
            req,
            &self.faults,
            Some((cplan, &self.health)),
            self.trace_enabled,
        )?;
        if let Some(trace) = report.trace.as_mut() {
            trace.set_broadcast_seconds(cplan.broadcast_seconds());
            *self.last_trace.lock().expect("trace mutex") = Some(trace.clone());
        }
        Ok(report)
    }

    /// Walk Poisson offered load across fractions of this deployment's
    /// pipelined throughput ceiling and serve a stream at each point —
    /// the load/latency curve (see [`crate::serve::LoadSweep`]). Sweeps
    /// serve fault-free and untraced even under [`EngineBuilder::faults`]
    /// or [`EngineBuilder::trace`] — a trace per load point is rarely
    /// what you want; trace one [`Engine::serve`] at the load you care
    /// about instead.
    pub fn load_sweep(&self, sweep: &LoadSweep) -> Result<Vec<LoadPoint>, EngineError> {
        crate::serve::sweep_timeline(self.serve_plan()?.timeline(), sweep)
    }

    /// The event [`Trace`] of the most recent traced run on this
    /// engine — [`Engine::serve`] or a pipelined
    /// [`Engine::infer_batch_summary`] under
    /// [`EngineBuilder::trace`]`(true)`. `None` before the first traced
    /// run (or when tracing is off). Cloned out so the engine keeps
    /// serving concurrently.
    pub fn last_trace(&self) -> Option<Trace> {
        self.last_trace.lock().expect("trace mutex").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodenet::{NetSpec, Variant};

    fn image(seed: u64) -> Tensor<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        })
    }

    fn net(v: Variant) -> Network {
        Network::new(NetSpec::new(v, 20).with_classes(10), 77)
    }

    #[test]
    fn auto_plan_matches_planner() {
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net)
            .build()
            .expect("default config builds");
        assert_eq!(engine.target(), OffloadTarget::Layer32);
        assert_eq!(engine.backend_name(), "hybrid");
        assert_eq!(engine.offloaded(), &[rodenet::LayerName::Layer3_2]);
    }

    #[test]
    fn resnet_auto_falls_back_to_software() {
        let net = net(Variant::ResNet);
        let engine = Engine::builder(&net).build().expect("software fallback");
        assert_eq!(engine.target(), OffloadTarget::None);
        assert_eq!(engine.backend_name(), "ps-software");
        let run = engine.infer(&image(1)).expect("runs");
        assert_eq!(run.pl_seconds, 0.0);
        assert_eq!(run.dma_words, 0);
    }

    #[test]
    fn removed_layer_is_rejected_at_build() {
        let net = net(Variant::ROdeNet3); // layer2_2 removed
        let err = Engine::builder(&net)
            .offload(Offload::Target(OffloadTarget::Layer22))
            .build()
            .expect_err("layer2_2 does not exist");
        assert_eq!(
            err,
            EngineError::TargetNotApplicable {
                target: OffloadTarget::Layer22,
                variant: Variant::ROdeNet3
            }
        );
    }

    #[test]
    fn stacked_layer_is_rejected_at_build() {
        let net = net(Variant::ResNet);
        let err = Engine::builder(&net)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .build()
            .expect_err("stacked blocks cannot offload");
        assert!(matches!(err, EngineError::TargetNotApplicable { .. }));
    }

    #[test]
    fn tiny_board_is_infeasible() {
        let mut small = PYNQ_Z2;
        small.bram36 = 10;
        let net = net(Variant::ROdeNet3);
        let err = Engine::builder(&net)
            .board(&small)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .build()
            .expect_err("10 BRAMs fit nothing");
        assert_eq!(
            err,
            EngineError::InfeasiblePlacement {
                target: OffloadTarget::Layer32,
                parallelism: 16
            }
        );
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net).build().unwrap();
        let bad = Tensor::<f32>::zeros(Shape4::new(1, 1, 32, 32));
        assert!(matches!(
            engine.infer(&bad),
            Err(EngineError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.infer_batch(&[]),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn software_backend_with_pl_target_conflicts() {
        let net = net(Variant::ROdeNet3);
        let err = Engine::builder(&net)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .backend(BackendKind::PsSoftware)
            .build()
            .expect_err("software backend cannot run PL stages");
        assert!(matches!(err, EngineError::BackendConflict { .. }));
    }

    #[test]
    fn pl_bit_exact_rejects_running_stats() {
        let net = net(Variant::ROdeNet3);
        let err = Engine::builder(&net)
            .backend(BackendKind::PlBitExact)
            .bn_mode(BnMode::Running)
            .build()
            .expect_err("the circuit has no running statistics");
        assert_eq!(
            err,
            EngineError::BnModeConflict {
                backend: "pl-bit-exact"
            }
        );
    }

    #[test]
    fn infer_batch_accumulates() {
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net).build().unwrap();
        let xs: Vec<Tensor<f32>> = (0..3).map(image).collect();
        let runs = engine.infer_batch(&xs).expect("batch runs");
        assert_eq!(runs.len(), 3);
        let summary = BatchSummary::from_runs(&runs);
        assert_eq!(summary.images, 3);
        let single = runs[0].total_seconds();
        assert!((summary.total_seconds() - 3.0 * single).abs() < 1e-12);
        assert!(summary.throughput() > 0.0);
        assert_eq!(summary.dma_words, 3 * runs[0].dma_words);
        // The additive fold: wall-clock equals accumulated execution,
        // and the timing model is input-independent, so every image
        // shares one latency — p50 == max == the per-image total.
        assert_eq!(summary.wall_seconds, summary.total_seconds());
        assert_eq!(summary.latency_p50, single);
        assert_eq!(summary.latency_p99, single);
        assert_eq!(summary.latency_max, single);
    }

    #[test]
    fn empty_summary_has_zero_throughput() {
        // An idle server serves zero images per second — the previous
        // `max(f64::MIN_POSITIVE)` clamp returned ~1.8e308 instead.
        let s = BatchSummary::default();
        assert_eq!(s.images, 0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(BatchSummary::from_runs(&[]).throughput(), 0.0);
        // The latency percentiles keep the same guard: an empty batch
        // has no distribution, not a NaN one.
        assert_eq!(s.latency_p50, 0.0);
        assert_eq!(s.latency_p99, 0.0);
        assert_eq!(s.latency_max, 0.0);
        assert_eq!(BatchSummary::from_runs(&[]).latency_max, 0.0);
    }

    #[test]
    fn summary_percentiles_track_mixed_latencies() {
        // Synthetic reports with distinct latencies: p50 is the lower
        // median, max the worst case, and throughput uses wall-clock.
        let mk = |ps: f64| RunReport {
            logits: Tensor::zeros(Shape4::new(1, 10, 1, 1)),
            images: 1,
            ps_seconds: ps,
            pl_seconds: 0.0,
            dma_words: 0,
            offloaded: Vec::new(),
            backend: "test",
        };
        let s = BatchSummary::from_runs(&[mk(0.3), mk(0.1), mk(0.2)]);
        assert_eq!(s.latency_p50, 0.2);
        // ⌊0.99·(3−1)⌋ = index 1: p99 of a 3-image batch is its median
        // — the tail needs ≥ 100 samples to separate from the max.
        assert_eq!(s.latency_p99, 0.2);
        assert_eq!(s.latency_max, 0.3);
        assert!((s.wall_seconds - 0.6).abs() < 1e-12);
        assert!((s.throughput() - 3.0 / 0.6).abs() < 1e-9);
        // Even-sized batches take the LOWER median, as documented.
        let even = BatchSummary::from_runs(&[mk(0.4), mk(0.2)]);
        assert_eq!(even.latency_p50, 0.2);
        assert_eq!(even.latency_max, 0.4);
        // With 200 distinct latencies the p99 index is ⌊0.99·199⌋ =
        // 197: strictly inside the tail, strictly below the max.
        let many: Vec<RunReport> = (1..=200).map(|i| mk(i as f64 * 1e-3)).collect();
        let big = BatchSummary::from_runs(&many);
        assert_eq!(big.latency_p99, 198.0 * 1e-3);
        assert_eq!(big.latency_max, 200.0 * 1e-3);
    }

    #[test]
    fn sixteen_bit_engine_builds_and_infers() {
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net)
            .precision(Precision::Uniform(PlFormat::Q16 { frac: 10 }))
            .build()
            .expect("16-bit datapath builds");
        assert_eq!(
            engine.precision().uniform_format(),
            Some(PlFormat::Q16 { frac: 10 })
        );
        assert_eq!(engine.target(), OffloadTarget::Layer32);
        let run = engine.infer(&image(9)).expect("runs");
        assert!(run.logits.as_slice().iter().all(|v| v.is_finite()));
        // Half-width feature maps halve the modelled DMA words.
        assert_eq!(run.dma_words, 64 * 64);
    }

    #[test]
    fn custom_format_dispatches_or_errors() {
        use qfixed::QFormat;
        let net = net(Variant::ROdeNet3);
        // A supported custom width executes…
        let ok = Engine::builder(&net)
            .precision(PlFormat::Custom(QFormat::new(32, 16)))
            .build()
            .expect("Q15.16 has a datapath");
        assert!(ok.infer(&image(2)).is_ok());
        // …an analysis-only width is a typed error, not a panic.
        let err = Engine::builder(&net)
            .precision(PlFormat::Custom(QFormat::new(8, 4)))
            .build()
            .expect_err("no 8-bit datapath");
        assert_eq!(
            err,
            EngineError::UnsupportedFormat {
                total_bits: 8,
                frac_bits: 4,
                stage: None
            }
        );
        // But the same configuration still *plans* (resource analysis).
        let plan = Engine::builder(&net)
            .precision(PlFormat::Custom(QFormat::new(8, 4)))
            .plan()
            .expect("8-bit plans fine");
        assert!(plan.bram36_used() < 140.0);
    }

    #[test]
    fn every_listed_executable_width_builds() {
        // `PlFormat::EXECUTABLE_WIDTHS` and the `any_accel!` list must
        // agree: every listed width builds through both dispatches
        // the macro generates — the per-stage `AnyAccel` enum (hybrid
        // path) and the uniform `bit_exact_backend` match
        // (fully-fixed-point path).
        let net = net(Variant::ROdeNet3);
        for &(total, frac) in PlFormat::EXECUTABLE_WIDTHS {
            let format = PlFormat::Custom(qfixed::QFormat::new(total, frac));
            assert!(format.has_datapath(), "({total},{frac}) is listed");
            let engine = Engine::builder(&net)
                .precision(format)
                .build()
                .unwrap_or_else(|e| panic!("({total},{frac}) listed as executable: {e}"));
            engine.infer(&image(1)).expect("listed widths serve");
            let bit_exact = Engine::builder(&net)
                .precision(format)
                .backend(BackendKind::PlBitExact)
                .build()
                .unwrap_or_else(|e| panic!("({total},{frac}) must dispatch PlBitExact: {e}"));
            bit_exact.infer(&image(1)).expect("listed widths serve");
        }
        assert!(!PlFormat::Custom(qfixed::QFormat::new(24, 12)).has_datapath());
    }

    #[test]
    fn plan_without_numerics_matches_built_engine() {
        let net = net(Variant::ROdeNet3);
        let builder_plan = Engine::builder(&net).plan().expect("plans");
        let engine = Engine::builder(&net).build().expect("builds");
        let engine_plan = engine.plan().expect("built-in backend keeps its plan");
        assert_eq!(builder_plan.target(), engine_plan.target());
        assert_eq!(
            builder_plan.table5().total_w_pl,
            engine_plan.table5().total_w_pl
        );
        assert_eq!(
            engine.latency_report().expect("cached").total_w_pl,
            engine_plan.table5().total_w_pl
        );
    }

    #[test]
    fn pl_bit_exact_tracks_hybrid_logits() {
        let net = net(Variant::ROdeNet3);
        let hybrid = Engine::builder(&net).build().unwrap();
        let full_q = Engine::builder(&net)
            .backend(BackendKind::PlBitExact)
            .build()
            .unwrap();
        let x = image(3);
        let a = hybrid.infer(&x).unwrap();
        let b = full_q.infer(&x).unwrap();
        // Same placement, same timing model; numerics differ only by
        // the PS-side stages running in Q20.
        assert_eq!(a.total_seconds(), b.total_seconds());
        assert_eq!(a.dma_words, b.dma_words);
        let d = a.logits.max_abs_diff(&b.logits);
        assert!(d < 0.1, "full-Q20 drift {d}");
    }

    #[test]
    fn custom_backend_plugs_in() {
        struct Constant;
        impl Backend for Constant {
            fn name(&self) -> &'static str {
                "constant"
            }
            fn offloaded(&self) -> &[LayerName] {
                &[]
            }
            fn infer(&self, x: &Tensor<f32>) -> Result<RunReport, EngineError> {
                Ok(RunReport {
                    logits: Tensor::zeros(Shape4::new(x.shape().n, 10, 1, 1)),
                    images: x.shape().n,
                    ps_seconds: 0.5,
                    pl_seconds: 0.0,
                    dma_words: 0,
                    offloaded: Vec::new(),
                    backend: "constant",
                })
            }
        }
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net)
            .custom_backend(Box::new(Constant))
            .build()
            .unwrap();
        assert_eq!(engine.backend_name(), "constant");
        let run = engine.infer(&image(4)).unwrap();
        assert_eq!(run.ps_seconds, 0.5);
    }

    #[test]
    fn one_board_cluster_is_the_hybrid_engine() {
        use crate::cluster::{Cluster, Interconnect, Schedule};
        let net = net(Variant::ROdeNet3);
        let hybrid = Engine::builder(&net).build().unwrap();
        let cluster = Engine::builder(&net)
            .cluster(Cluster::homogeneous(
                &PYNQ_Z2,
                1,
                Interconnect::GIGABIT_ETHERNET,
            ))
            .build()
            .unwrap();
        assert_eq!(cluster.backend_name(), "cluster");
        assert_eq!(cluster.target(), hybrid.target());
        let x = image(6);
        let a = hybrid.infer(&x).unwrap();
        let b = cluster.infer(&x).unwrap();
        assert_eq!(a.logits.as_slice(), b.logits.as_slice(), "bit-identical");
        assert_eq!(a.ps_seconds, b.ps_seconds);
        assert_eq!(a.pl_seconds, b.pl_seconds, "no interconnect on one board");
        assert_eq!(a.dma_words, b.dma_words);
        // The sequential batch summary is the additive fold either way.
        let xs: Vec<Tensor<f32>> = (0..2).map(image).collect();
        let (_, s) = cluster.infer_batch_summary(&xs).unwrap();
        assert_eq!(s.wall_seconds, s.total_seconds());
        // A pipelined single board still overlaps PS and PL stages.
        let pipelined = Engine::builder(&net)
            .cluster(Cluster::homogeneous(
                &PYNQ_Z2,
                1,
                Interconnect::GIGABIT_ETHERNET,
            ))
            .schedule(Schedule::Pipelined)
            .build()
            .unwrap();
        let (_, p) = pipelined.infer_batch_summary(&xs).unwrap();
        assert!(
            p.wall_seconds < s.wall_seconds,
            "{} < {}",
            p.wall_seconds,
            s.wall_seconds
        );
        assert!(p.latency_max >= p.latency_p50);

        // Serving and load sweeps read the same one-board plan whether
        // the board was configured alone or as a cluster of one: the
        // reports are bit-equal for the hybrid and the software walk.
        let req = ServeRequest {
            arrivals: crate::serve::ArrivalProcess::Poisson { rate: 4.0 },
            images: 48,
            dispatch: crate::serve::Dispatch::default(),
            seed: 5,
            window: crate::serve::Window::default(),
        };
        let sweep = LoadSweep {
            fractions: vec![0.5, 1.1],
            images: 48,
            ..LoadSweep::default()
        };
        for (offload, name) in [
            (Offload::Auto, "hybrid"),
            (Offload::Target(OffloadTarget::None), "ps-software"),
        ] {
            let single = Engine::builder(&net).offload(offload).build().unwrap();
            assert_eq!(single.backend_name(), name);
            let rack = Engine::builder(&net)
                .offload(offload)
                .cluster(Cluster::homogeneous(
                    &PYNQ_Z2,
                    1,
                    Interconnect::GIGABIT_ETHERNET,
                ))
                .build()
                .unwrap();
            assert_eq!(rack.target(), single.target());
            assert_eq!(single.serve(&req), rack.serve(&req), "{offload:?}");
            assert_eq!(
                format!("{:?}", single.load_sweep(&sweep)),
                format!("{:?}", rack.load_sweep(&sweep)),
                "{offload:?}"
            );
        }

        // The fully-fixed-point engine serves over its plan's one-board
        // pipeline, with no serve-time plan of its own.
        let bit_exact = Engine::builder(&net)
            .backend(BackendKind::PlBitExact)
            .build()
            .unwrap();
        let timeline = bit_exact
            .plan()
            .expect("single-board plan")
            .cluster_plan()
            .timeline();
        assert_eq!(
            bit_exact.serve(&req),
            crate::serve::serve_timeline(timeline, &req)
        );
    }

    #[test]
    fn impossible_hardware_is_a_typed_error() {
        use crate::board::ARTY_Z7_20;
        use crate::cluster::{Cluster, Interconnect};
        let net = net(Variant::ROdeNet3);
        let is_invalid = |r: Result<Engine<'_>, EngineError>| {
            matches!(r, Err(EngineError::InvalidHardware { .. }))
        };
        // A zero PS clock used to build, price every PS cycle at
        // infinity and trip the serve driver's image conservation.
        let ps_dead = Board {
            ps_clock_hz: 0,
            ..PYNQ_Z2
        };
        assert!(is_invalid(Engine::builder(&net).board(&ps_dead).build()));
        // A zero PL clock used to report pl_seconds = inf.
        let pl_dead = Board {
            pl_clock_hz: 0,
            ..PYNQ_Z2
        };
        assert!(is_invalid(
            Engine::builder(&net)
                .board(&pl_dead)
                .offload(Offload::Target(OffloadTarget::Layer32))
                .build()
        ));
        assert!(matches!(
            Engine::builder(&net).board(&pl_dead).plan(),
            Err(EngineError::InvalidHardware { board: Some(0), .. })
        ));
        // A negative link latency used to report negative PL seconds.
        let odenet = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 77);
        for link in [
            Interconnect {
                latency_s: -1.0,
                ..Interconnect::GIGABIT_ETHERNET
            },
            Interconnect {
                latency_s: f64::NAN,
                ..Interconnect::GIGABIT_ETHERNET
            },
            Interconnect {
                bandwidth_bytes_per_s: 0.0,
                ..Interconnect::GIGABIT_ETHERNET
            },
            Interconnect {
                bandwidth_bytes_per_s: f64::INFINITY,
                ..Interconnect::GIGABIT_ETHERNET
            },
        ] {
            let err = Engine::builder(&odenet)
                .cluster(Cluster::homogeneous(&ARTY_Z7_20, 2, link))
                .build()
                .expect_err("unpriceable link");
            assert!(
                matches!(err, EngineError::InvalidHardware { board: None, .. }),
                "{link:?}: {err}"
            );
            let _ = err.to_string();
        }
        // A circuit with no multiply-add unit used to panic in the
        // cycle model, under the Auto search and a fixed target alike.
        for offload in [Offload::Auto, Offload::Target(OffloadTarget::Layer32)] {
            let no_units = Engine::builder(&net)
                .board(&PYNQ_Z2)
                .pl_model(PlModel { parallelism: 0 })
                .offload(offload);
            assert!(
                matches!(
                    no_units.plan(),
                    Err(EngineError::InvalidHardware { board: None, .. })
                ),
                "{offload:?}"
            );
            assert!(is_invalid(no_units.build()), "{offload:?}");
        }
        // The paper's hardware is untouched by the check.
        assert!(Engine::builder(&net).build().is_ok());
    }

    #[test]
    fn cluster_rejects_non_hybrid_backends() {
        use crate::cluster::{Cluster, Interconnect};
        let net = net(Variant::ROdeNet3);
        for (kind, name) in [
            (BackendKind::PsSoftware, "ps-software"),
            (BackendKind::PlBitExact, "pl-bit-exact"),
        ] {
            let err = Engine::builder(&net)
                .cluster(Cluster::homogeneous(
                    &PYNQ_Z2,
                    2,
                    Interconnect::GIGABIT_ETHERNET,
                ))
                .backend(kind)
                .build()
                .expect_err("only the hybrid walk runs on a cluster");
            // The error names the *requested* backend, so the caller
            // sees which setting to change.
            assert!(
                matches!(err, EngineError::BackendConflict { backend, .. } if backend == name),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn cluster_engine_keeps_its_plan() {
        use crate::cluster::{Cluster, Interconnect};
        let net = net(Variant::OdeNet);
        let engine = Engine::builder(&net)
            .cluster(Cluster::homogeneous(
                &PYNQ_Z2,
                2,
                Interconnect::GIGABIT_ETHERNET,
            ))
            .build()
            .unwrap();
        assert!(engine.plan().is_none());
        let plan = engine
            .cluster_plan()
            .expect("cluster engines keep a cluster plan");
        assert_eq!(plan.target(), engine.target());
        assert_eq!(
            plan.target(),
            OffloadTarget::AllOde,
            "two boards fit everything"
        );
        let run = engine.infer(&image(8)).unwrap();
        assert!(
            (plan.total_seconds() - run.total_seconds()).abs() < 1e-9,
            "plan {} vs run {}",
            plan.total_seconds(),
            run.total_seconds()
        );
    }

    #[test]
    fn engine_serves_from_multiple_threads() {
        // The docs promise shared-reference serving; keep the trait
        // bounds honest (this is a compile-time contract as much as a
        // runtime one).
        fn assert_sync<T: Send + Sync>(_: &T) {}
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net).build().unwrap();
        assert_sync(&engine);
        let logits: Vec<Tensor<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let engine = &engine;
                    s.spawn(move || engine.infer(&image(i)).unwrap().logits)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Same seeds as a serial run — concurrency must not change results.
        for (i, l) in logits.iter().enumerate() {
            let serial = engine.infer(&image(i as u64)).unwrap();
            assert_eq!(l.as_slice(), serial.logits.as_slice());
        }
    }

    #[test]
    fn describe_mentions_backend_and_board() {
        let net = net(Variant::ROdeNet3);
        let engine = Engine::builder(&net).build().unwrap();
        let d = engine.describe();
        assert!(d.contains("hybrid") && d.contains("PYNQ-Z2"), "{d}");
    }
}
