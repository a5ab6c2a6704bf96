//! Multi-board clusters — sharded placements and pipelined batch
//! scheduling.
//!
//! The paper deploys one ODENet on a single low-cost Zynq board;
//! footnote 2 observes that lighter blocks let *more* layers move into
//! the PL. The natural step past one board is several: a [`Cluster`] is
//! an ordered list of [`Board`]s joined by a modelled [`Interconnect`]
//! (board-to-board feature-map transfers at a finite bandwidth plus a
//! per-message latency), and a [`ClusterPlan`] extends the plan-centric
//! flow of [`crate::plan`] to it — [`plan_cluster`] resolves a
//! **sharded placement** (e.g. layer1 + layer2_2 on board A, layer3_2
//! on board B) with per-board width-aware feasibility and per-stage
//! timing that includes the inter-board DMA, all with zero numerics.
//!
//! ## Execution model
//!
//! Board 0 is the **head board**: its PS runs every software stage
//! (conv1, the downsample blocks, any non-offloaded residual stage, the
//! classifier) exactly as the single-board engine does; remote boards
//! contribute only their PL fabric. A feature map crosses the
//! interconnect whenever consecutive stages live on different boards;
//! PS ↔ PL traffic *within* the head board is the AXI DMA already
//! charged by [`crate::datapath::stage_cycles`]. Sharding therefore
//! changes *where* and *when* stages run — never the Q-format numerics
//! — so a sharded deployment stays bit-identical to a single-board one
//! with the same overall placement (pinned in `tests/cluster.rs`).
//!
//! ## Batch schedules
//!
//! A per-image inference is a fixed sequence of [`StageTiming`]s
//! (merged PS segments interleaved with PL stages). Two schedules turn
//! that sequence into a batch makespan:
//!
//! * [`Schedule::Sequential`] — one image fully completes before the
//!   next starts: the additive latency today's `infer_batch` reports.
//! * [`Schedule::Pipelined`] — an event-driven model in which each
//!   resource (the head PS, every board's PL) serves one stage at a
//!   time and a board starts image *i+1* as soon as it finishes its
//!   share of image *i*. The makespan approaches
//!   `latency + (images − 1) · bottleneck`, beating the additive bound
//!   whenever more than one resource carries work.
//!
//! Modelling assumptions (recorded in the ROADMAP): no PS preemption
//! (a PS segment runs to completion), one in-flight image per board,
//! and interconnect transfers occupy no board resource (the DMA engines
//! stream while the next compute stage waits on the data).
//!
//! Replication ([`crate::replica`]) adds three more: images map to a
//! stage's replicas **round-robin** (image `i` → replica `i mod k`, no
//! dynamic load balancing), the one-time weight broadcast to replica
//! boards overlaps deployment (reported in the plan, never added to a
//! makespan), and a hand-off into a replica is priced like the
//! hand-off into the primary (replica boards sit symmetric on the
//! modelled interconnect).
//!
//! Fault injection ([`crate::fault`]) perturbs this execution model
//! without changing it: a [`crate::fault::FaultPlan`] stretches stage
//! durations (slowdowns), defers starts (hangs), dilates transfers
//! (link degradation), or removes a board outright (crash →
//! drain-then-replan failover over the survivors). Healthy and faulted
//! schedules run the same greedy loop, which takes the placement rule
//! as a parameter; a plan without windows computes exactly the nominal
//! rule's arithmetic, so an empty plan is bit-identical to
//! [`pipelined_schedule_released`] by construction.

use crate::board::Board;
use crate::engine::{EngineError, Offload};
use crate::partition::{partition_with, resource_busy, select_with, shard_infeasible, Partitioner};
use crate::plan::PlannedStage;
use crate::planner::OffloadTarget;
use crate::precision::StageFormats;
use crate::replica::{ReplicaPlan, Replication};
use crate::resources::{bram36_at_width, dsp_slices, lut_ff};
use crate::timing::{PlModel, PsModel};
use crate::trace::{Recorder, StageSpan};
use rodenet::{BnMode, LayerName, NetSpec};

/// A modelled board-to-board link (point-to-point, full duplex).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interconnect {
    /// Sustained payload bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Per-transfer setup latency in seconds (driver + NIC + switch).
    pub latency_s: f64,
}

impl Interconnect {
    /// The boards' on-board gigabit Ethernet port: 125 MB/s of payload
    /// and a 50 µs software-stack round-up per message.
    pub const GIGABIT_ETHERNET: Interconnect = Interconnect {
        bandwidth_bytes_per_s: 125_000_000.0,
        latency_s: 50e-6,
    };

    /// Seconds to move `bytes` across the link (zero for zero bytes —
    /// no message, no setup cost).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// An ordered set of boards joined by an [`Interconnect`]. Board 0 is
/// the head board (see the module docs for the execution model).
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    boards: Vec<Board>,
    interconnect: Interconnect,
}

impl Cluster {
    /// A cluster over `boards` (at least one; the first is the head).
    pub fn new(boards: Vec<Board>, interconnect: Interconnect) -> Self {
        assert!(!boards.is_empty(), "a cluster needs at least one board");
        Cluster {
            boards,
            interconnect,
        }
    }

    /// `count` identical boards (the common lab rack).
    pub fn homogeneous(board: &Board, count: usize, interconnect: Interconnect) -> Self {
        Self::new(vec![*board; count], interconnect)
    }

    /// The member boards, head first.
    pub fn boards(&self) -> &[Board] {
        &self.boards
    }

    /// The head board — the PS that drives every inference.
    pub fn head(&self) -> &Board {
        &self.boards[0]
    }

    /// Number of member boards — **always ≥ 1**: [`Cluster::new`]
    /// rejects an empty board list, so a cluster deliberately carries
    /// no `is_empty` (the honest implementation would be a hardcoded
    /// `false`, which is worse than no method at all).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// The modelled board-to-board link.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Reject hardware figures no timing model can price: a zero PS or
    /// PL clock (every cycle would take forever), or an interconnect
    /// whose bandwidth is not finite and positive or whose latency is
    /// not finite and non-negative (hand-offs would cost infinite or
    /// negative seconds).
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        let invalid = |board, reason| Err(EngineError::InvalidHardware { board, reason });
        let dead = |b: &Board| b.ps_clock_hz == 0 || b.pl_clock_hz == 0;
        if let Some(i) = self.boards.iter().position(dead) {
            let b = &self.boards[i];
            let (ps, pl) = (b.ps_clock_hz, b.pl_clock_hz);
            let reason = format!("{} has a zero clock (PS {ps} Hz, PL {pl} Hz)", b.name);
            return invalid(Some(i), reason);
        }
        let link = &self.interconnect;
        let (bw, lat) = (link.bandwidth_bytes_per_s, link.latency_s);
        if !(bw.is_finite() && bw > 0.0 && lat.is_finite() && lat >= 0.0) {
            let reason = format!(
                "interconnect bandwidth {bw} B/s must be finite and positive, \
                 latency {lat} s finite and non-negative"
            );
            return invalid(None, reason);
        }
        Ok(())
    }
}

/// How a cluster engine orders a batch across the board pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One image fully completes before the next starts (the additive
    /// latency of the single-board `infer_batch`).
    #[default]
    Sequential,
    /// Event-driven pipelining: board *k* starts image *i+1* as soon
    /// as it finishes its share of image *i*, and PS segments of later
    /// images fill the head CPU's idle slots.
    Pipelined,
}

/// The execution resource one pipeline stage occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageResource {
    /// The head board's ARM cores.
    Ps,
    /// Board `k`'s ARM cores (`k ≥ 1`) — the head of a replicated
    /// placement group (see [`crate::replica`]). The rack's overall
    /// head stays board 0's [`StageResource::Ps`].
    PsOn(usize),
    /// Board `k`'s PL fabric.
    Pl(usize),
}

impl StageResource {
    /// The board this resource physically lives on (the PS is the head
    /// board's) — decides whether a hand-off crosses the interconnect.
    pub fn board(&self) -> usize {
        match self {
            StageResource::Ps => 0,
            StageResource::PsOn(k) => *k,
            StageResource::Pl(k) => *k,
        }
    }

    /// Dense scheduling slot: board `k`'s PS is `2k`, its PL `2k + 1`,
    /// so every board contributes two independent resources and slots
    /// stay in board order (head PS first).
    pub fn slot(&self) -> usize {
        match self {
            StageResource::Ps => 0,
            StageResource::PsOn(k) => 2 * k,
            StageResource::Pl(k) => 2 * k + 1,
        }
    }

    /// Whether this is an ARM-side resource (any board's PS).
    pub fn is_ps(&self) -> bool {
        matches!(self, StageResource::Ps | StageResource::PsOn(_))
    }
}

/// One stage of the per-image pipeline: a merged PS segment or one
/// offloaded PL stage, with the interconnect hand-off that precedes it.
#[derive(Clone, Debug)]
pub struct StageTiming {
    /// Which resource executes the stage (the **primary** replica when
    /// `replicas` is non-empty).
    pub resource: StageResource,
    /// The offloaded layer (`None` for merged PS segments).
    pub layer: Option<LayerName>,
    /// Modelled execution seconds (PL stages include their AXI DMA).
    pub seconds: f64,
    /// Interconnect seconds to deliver this stage's input when the
    /// previous stage ran on a different board (0 otherwise).
    pub transfer_in: f64,
    /// Replica resources serving this stage round-robin: image `i` runs
    /// on `replicas[i % replicas.len()]`. Empty means unreplicated (the
    /// single `resource` serves every image); when non-empty the first
    /// entry **is** `resource`. See [`crate::replica`].
    pub replicas: Vec<StageResource>,
}

impl StageTiming {
    /// Every resource that can serve this stage (the primary alone when
    /// unreplicated).
    pub fn resources(&self) -> &[StageResource] {
        if self.replicas.is_empty() {
            std::slice::from_ref(&self.resource)
        } else {
            &self.replicas
        }
    }

    /// How many replicas serve this stage (≥ 1).
    pub fn replica_count(&self) -> usize {
        self.resources().len()
    }

    /// The resource that serves image `i` — round-robin over the
    /// replicas, the primary when unreplicated.
    pub fn resource_for(&self, image: usize) -> StageResource {
        let all = self.resources();
        all[image % all.len()]
    }
}

/// Bytes of one feature map entering/leaving `layer` at the given word
/// width (the payload of an inter-board hand-off).
pub fn feature_map_bytes(layer: LayerName, bytes_per_value: usize) -> u64 {
    let (c, hw) = layer.geometry();
    (c * hw * hw * bytes_per_value) as u64
}

/// A sharded placement as `(board index, per-board placement)` pairs,
/// in network order.
pub type ShardAssignment = Vec<(usize, OffloadTarget)>;

/// The slice of a sharded placement one board carries.
#[derive(Clone, Debug)]
pub struct BoardShard {
    /// Index of the carrying board in [`Cluster::boards`].
    pub board: usize,
    /// The layers this board implements, as a placement.
    pub target: OffloadTarget,
    /// Width-aware resources + timing per carried stage.
    pub stages: Vec<PlannedStage>,
}

/// Split `target`'s layers across the cluster's boards, first-fit in
/// network order (so feature maps flow forward through the board
/// list). Every shard is checked with the width-aware
/// [`OffloadTarget::fits`], each layer priced at its own format in
/// `formats`, so a mixed placement (layer1 at Q16 next to layer3_2 at
/// Q20) shards exactly as it will deploy. A layer that fits no
/// remaining board makes the whole placement infeasible — the returned
/// [`EngineError::ShardInfeasible`] names that layer and the board
/// capacities consulted; a degenerate format is a typed
/// [`EngineError::UnsupportedFormat`], and hardware no timing model can
/// price (a zero clock, conv_x0) an [`EngineError::InvalidHardware`],
/// never a panic. This is [`Partitioner::FirstFit`]; see
/// [`crate::partition`] for the cost-driven alternative.
pub fn shard_placement(
    target: OffloadTarget,
    cluster: &Cluster,
    parallelism: usize,
    formats: &StageFormats,
) -> Result<ShardAssignment, EngineError> {
    formats.validate()?;
    cluster.validate()?;
    PlModel { parallelism }.validate()?;
    first_fit(target, cluster.boards(), parallelism, formats)
        .map_err(|stuck| shard_infeasible(target, cluster, parallelism, formats, Some(stuck)))
}

/// The first-fit loop: each layer of `target` joins the current
/// board's shard until it no longer fits, then the next board opens.
/// `Err` names the layer that fit no remaining board. It builds no
/// error itself, so the [`EngineError::ShardInfeasible`] hint can probe
/// a grown rack with it without recursing into the diagnosis.
pub(crate) fn first_fit(
    target: OffloadTarget,
    boards: &[Board],
    parallelism: usize,
    formats: &StageFormats,
) -> Result<ShardAssignment, LayerName> {
    let shard = |layers: &[LayerName]| {
        OffloadTarget::from_layers(layers).expect("subsets of a placement are placements")
    };
    let mut shards: ShardAssignment = Vec::new();
    let mut board = 0usize;
    let mut current: Vec<LayerName> = Vec::new();
    for &layer in target.layers() {
        loop {
            let mut candidate = current.clone();
            candidate.push(layer);
            if shard(&candidate).fits(&boards[board], parallelism, formats) {
                current = candidate;
                break;
            }
            // Close the current shard and try the layer on the next board.
            if !current.is_empty() {
                shards.push((board, shard(&current)));
                current.clear();
            }
            board += 1;
            if board >= boards.len() {
                return Err(layer);
            }
        }
    }
    if !current.is_empty() {
        shards.push((board, shard(&current)));
    }
    Ok(shards)
}

/// The configuration a [`ClusterPlan`] is computed from — the cluster
/// analog of [`crate::plan::PlanRequest`].
#[derive(Clone, Debug)]
pub struct ClusterRequest {
    /// The boards and their interconnect.
    pub cluster: Cluster,
    /// Placement policy (resolved against the *cluster's* capacity).
    pub offload: Offload,
    /// PS-side batch-norm statistics mode.
    pub bn: BnMode,
    /// PS software-cost model (the head board's CPU).
    pub ps: PsModel,
    /// PL circuit configuration (applied on every board).
    pub pl: PlModel,
    /// Resolved per-stage PL word formats (each stage carries its own
    /// width to whichever board it shards onto;
    /// `PlFormat::Q20.into()` for a uniform build).
    pub precision: StageFormats,
    /// Batch execution order.
    pub schedule: Schedule,
    /// Shard-assignment strategy (see [`crate::partition`]).
    /// [`Partitioner::FirstFit`] reproduces the pre-partitioner greedy
    /// behavior; [`Partitioner::BalancedMakespan`] searches for the
    /// assignment minimizing the pipelined bottleneck busy time.
    pub partitioner: Partitioner,
    /// Replication policy: duplicate a bottleneck stage across fabrics
    /// or the whole placement across board groups (see
    /// [`crate::replica`]). [`Replication::None`] reproduces the
    /// unreplicated planner bit-for-bit.
    pub replication: Replication,
}

/// Everything the cluster builder decides, minus the engine: the
/// resolved sharded placement, per-board width-aware resources, the
/// per-image stage pipeline, and both batch-schedule makespans — all
/// without touching a weight.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    spec: NetSpec,
    cluster: Cluster,
    target: OffloadTarget,
    shards: Vec<BoardShard>,
    formats: StageFormats,
    bn: BnMode,
    ps: PsModel,
    pl: PlModel,
    schedule: Schedule,
    partitioner: Partitioner,
    timeline: Vec<StageTiming>,
    replica: Option<ReplicaPlan>,
}

/// Resolve a sharded placement, per-board feasibility, and the full
/// per-image pipeline for `spec` on a cluster — the numerics-free half
/// of every built-in engine build ([`crate::plan::plan_deployment`]
/// calls it with a one-board cluster). Hardware no timing model can
/// price — a zero clock, an unpriceable interconnect, or a PL circuit
/// with no multiply–add unit — is an [`EngineError::InvalidHardware`].
pub fn plan_cluster(spec: &NetSpec, req: &ClusterRequest) -> Result<ClusterPlan, EngineError> {
    req.precision.validate()?;
    req.cluster.validate()?;
    req.pl.validate()?;

    // 1. Resolve the overall placement at cluster capacity, splitting
    //    it under the request's partitioner and replication policy —
    //    `crate::replica::resolve` delegates to the same partition
    //    search as before when no replication is requested, so an
    //    unreplicated plan is bit-identical to the pre-replica planner.
    let resolved = crate::replica::resolve(spec, req)?;
    let (target, shards, timeline, replica) = (
        resolved.target,
        resolved.shards,
        resolved.timeline,
        resolved.plan,
    );

    let shards = shards
        .into_iter()
        .map(|(board, t)| BoardShard {
            board,
            target: t,
            stages: t
                .layers()
                .iter()
                .map(|&layer| {
                    let plan = spec.plan(layer);
                    let execs = if plan.is_ode { plan.execs } else { 1 };
                    let bytes = req.precision.bytes_of(layer);
                    let (lut, ff) = lut_ff(layer, req.pl.parallelism, bytes);
                    PlannedStage {
                        layer,
                        format: req.precision.format_of(layer),
                        execs,
                        bram36: bram36_at_width(layer, req.pl.parallelism, bytes),
                        dsp: dsp_slices(req.pl.parallelism, bytes),
                        lut,
                        ff,
                        pl_seconds: req.pl.stage_seconds(
                            layer,
                            execs,
                            &req.cluster.boards()[board],
                            bytes,
                        ),
                        dma_words: crate::datapath::dma_words(layer, bytes),
                        param_bytes: crate::resources::stage_param_bytes(spec, layer, bytes),
                    }
                })
                .collect(),
        })
        .collect();

    Ok(ClusterPlan {
        spec: *spec,
        cluster: req.cluster.clone(),
        target,
        shards,
        formats: req.precision,
        bn: req.bn,
        ps: req.ps,
        pl: req.pl,
        schedule: req.schedule,
        partitioner: req.partitioner,
        timeline,
        replica,
    })
}

/// Resolve the *unreplicated* placement for a request: a fixed target
/// is validated and split under the request's partitioner; `Auto` runs
/// the same cost-driven selection loop the single-board planner does
/// (see [`crate::partition::select_with`] — one board is the 1-board
/// degenerate case of that search). The replica layer builds on this
/// as its base placement.
pub(crate) fn resolve_placement(
    spec: &NetSpec,
    req: &ClusterRequest,
) -> Result<(OffloadTarget, ShardAssignment), EngineError> {
    match req.offload {
        Offload::Target(t) => {
            if !t.applicable_extended(spec) {
                return Err(EngineError::TargetNotApplicable {
                    target: t,
                    variant: spec.variant,
                });
            }
            Ok((t, partition_with(spec, t, req)?))
        }
        Offload::Auto | Offload::AutoExtended => Ok(select_with(spec, req)),
    }
}

/// Build the per-image stage pipeline for a sharded placement:
/// consecutive PS-resident work merges into one segment (cycles summed
/// before the single clock conversion), each offloaded layer becomes a
/// PL stage on its board, and every hand-off between different boards
/// pays the interconnect.
pub(crate) fn build_timeline(
    spec: &NetSpec,
    shards: &[(usize, OffloadTarget)],
    req: &ClusterRequest,
) -> Vec<StageTiming> {
    let head = req.cluster.head();
    // A layer may appear in several shards — that is a stage replica
    // set (see `crate::replica`). The first carrier in shard order is
    // the primary; the full list becomes the round-robin replicas.
    let boards_of = |layer: LayerName| -> Vec<usize> {
        shards
            .iter()
            .filter(|(_, t)| t.layers().contains(&layer))
            .map(|(b, _)| *b)
            .collect()
    };

    let mut timeline: Vec<StageTiming> = Vec::new();
    let mut ps_acc: u64 =
        req.ps.block_exec_cycles(LayerName::Conv1, false) + req.ps.runtime_overhead_cycles();
    let flush_ps = |timeline: &mut Vec<StageTiming>, acc: &mut u64| {
        if *acc > 0 {
            timeline.push(StageTiming {
                resource: StageResource::Ps,
                layer: None,
                seconds: head.ps_seconds(*acc),
                transfer_in: 0.0,
                replicas: Vec::new(),
            });
            *acc = 0;
        }
    };
    for layer in [
        LayerName::Layer1,
        LayerName::Layer2_1,
        LayerName::Layer2_2,
        LayerName::Layer3_1,
        LayerName::Layer3_2,
    ] {
        let plan = spec.plan(layer);
        if plan.total_execs() == 0 {
            continue;
        }
        let carriers = boards_of(layer);
        if let Some(&board) = carriers.first() {
            flush_ps(&mut timeline, &mut ps_acc);
            let execs = if plan.is_ode { plan.execs } else { 1 };
            timeline.push(StageTiming {
                resource: StageResource::Pl(board),
                layer: Some(layer),
                seconds: req.pl.stage_seconds(
                    layer,
                    execs,
                    &req.cluster.boards()[board],
                    req.precision.bytes_of(layer),
                ),
                transfer_in: 0.0,
                replicas: if carriers.len() > 1 {
                    carriers.iter().map(|&b| StageResource::Pl(b)).collect()
                } else {
                    Vec::new()
                },
            });
        } else {
            ps_acc += plan.total_execs() as u64 * req.ps.block_exec_cycles(layer, plan.is_ode);
        }
    }
    ps_acc += req.ps.block_exec_cycles(LayerName::Fc, false);
    flush_ps(&mut timeline, &mut ps_acc);

    // Interconnect hand-offs: a crossing always has a PL stage on at
    // least one side (the PS never moves); the transferred map is that
    // stage's shape-preserved feature map.
    for i in 1..timeline.len() {
        if timeline[i - 1].resource.board() != timeline[i].resource.board() {
            let layer = timeline[i]
                .layer
                .or(timeline[i - 1].layer)
                .expect("a crossing involves a PL stage");
            timeline[i].transfer_in = req
                .cluster
                .interconnect()
                .transfer_seconds(feature_map_bytes(layer, req.precision.bytes_of(layer)));
        }
    }
    timeline
}

/// Per-image end-to-end seconds of a pipeline: execution plus
/// interconnect hand-offs.
pub fn per_image_seconds(timeline: &[StageTiming]) -> f64 {
    timeline.iter().map(|s| s.seconds + s.transfer_in).sum()
}

/// The pipeline's bottleneck: the largest steady-state per-image busy
/// time of any single resource. A stage served by `k` round-robin
/// replicas charges each replica `seconds / k` (each serves every k-th
/// image), which is exactly how replication pushes this ceiling below
/// one board's busy time. `images × bottleneck` asymptotically
/// lower-bounds every schedule.
pub fn bottleneck_seconds(timeline: &[StageTiming]) -> f64 {
    resource_busy(timeline)
        .into_iter()
        .map(|(_, busy)| busy)
        .fold(0.0, f64::max)
}

/// Makespan of the additive schedule: images strictly one at a time.
pub fn sequential_makespan(timeline: &[StageTiming], images: usize) -> f64 {
    images as f64 * per_image_seconds(timeline)
}

/// Outcome of the event-driven pipelined schedule.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// Wall-clock seconds from the first stage start to the last
    /// stage completion.
    pub makespan: f64,
    /// Per-image seconds from its first stage start to its last stage
    /// completion (stretches beyond the unloaded latency when the
    /// image queues behind the bottleneck resource).
    pub latencies: Vec<f64>,
}

impl PipelineRun {
    /// Lower-median per-image latency (the same convention as
    /// [`crate::engine::BatchSummary::latency_p50`]).
    pub fn latency_p50(&self) -> f64 {
        crate::engine::latency_percentiles(self.latencies.clone()).0
    }

    /// 99th-percentile per-image latency (same index convention as
    /// [`crate::engine::BatchSummary::latency_p99`]).
    pub fn latency_p99(&self) -> f64 {
        crate::engine::latency_percentiles(self.latencies.clone()).1
    }

    /// Worst-case per-image latency.
    pub fn latency_max(&self) -> f64 {
        crate::engine::latency_percentiles(self.latencies.clone()).2
    }
}

/// Outcome of the release-aware event-driven schedule
/// ([`pipelined_schedule_released`]) — the serving generalization of
/// [`PipelineRun`], with absolute per-image instants instead of
/// relative latencies and the head-idle instant the admission side of
/// [`crate::serve`] dispatches on.
#[derive(Clone, Debug)]
pub struct ServedRun {
    /// Virtual seconds from t = 0 to the last image's completion.
    pub makespan: f64,
    /// Per-image instant its first stage begins (minus a leading
    /// hand-off — the transfer is part of serving the image). Never
    /// earlier than the image's release.
    pub starts: Vec<f64>,
    /// Per-image completion instant (last stage done).
    pub finishes: Vec<f64>,
    /// The instant the **head resource** — the one executing the
    /// pipeline's first stage, which lives on the head board — runs out
    /// of scheduled work and goes idle. This is the earliest moment a
    /// new dispatch could begin executing, which is exactly what the
    /// serving micro-batcher triggers on.
    pub head_idle: f64,
}

/// Event-driven pipelined makespan: every resource (head PS, each
/// board's PL) executes one stage at a time to completion; whenever a
/// resource frees, it takes the ready stage with the earliest feasible
/// start (ties to the oldest image), and every stage starts images in
/// index order (per-stage FIFO — which is what the greedy order does
/// anyway until replicas let an image run ahead upstream). Transfers
/// delay readiness but occupy no resource. All images share the same
/// stage timings — the paper's model is input-independent — so this is
/// a deterministic simulation.
pub fn pipelined_schedule(timeline: &[StageTiming], images: usize) -> PipelineRun {
    let run = pipelined_schedule_released(timeline, &vec![0.0f64; images]);
    PipelineRun {
        makespan: run.makespan,
        latencies: run
            .finishes
            .iter()
            .zip(&run.starts)
            .map(|(f, s)| f - s)
            .collect(),
    }
}

/// [`pipelined_schedule`] with per-image **release times**: image `i`
/// may not start before `releases[i]` (its dispatch instant in an
/// online stream; all zeros reproduces the closed-batch schedule
/// exactly). Releases must be sorted ascending so the oldest-image
/// tie-break keeps arrival order.
pub fn pipelined_schedule_released(timeline: &[StageTiming], releases: &[f64]) -> ServedRun {
    schedule_with(timeline, releases, &Nominal, |_, _| {})
}

/// [`pipelined_schedule_released`] with an event [`Recorder`]: every
/// stage execution and interconnect hand-off is recorded as a typed
/// span in virtual time (see [`crate::trace`]). Recording only reads
/// the spans the scheduler commits, so the returned [`ServedRun`] is
/// bit-identical with tracing on or off (pinned in `tests/trace.rs`).
pub fn pipelined_schedule_released_traced(
    timeline: &[StageTiming],
    releases: &[f64],
    rec: &mut Recorder,
) -> ServedRun {
    let run = schedule_with(timeline, releases, &Nominal, |span, _| {
        rec.commit(&span, timeline[span.stage].transfer_in > 0.0)
    });
    let images = releases.len();
    let utilization = resource_busy(timeline)
        .into_iter()
        .map(|(resource, busy)| {
            let util = if run.makespan > 0.0 {
                busy * images as f64 / run.makespan
            } else {
                0.0
            };
            (resource, util)
        })
        .collect();
    rec.run_summary(utilization, images, run.makespan);
    run
}

/// Where and how long a pending stage runs: the rule the scheduler
/// core consults at every placement decision. [`Nominal`] is the
/// healthy rack; `crate::fault::FaultWindows` applies a fault plan's
/// slowdown, hang and link-degrade windows.
pub(crate) trait Placement {
    /// `(hand-off seconds, start)` for `image` entering `stage` with its
    /// input pending at `pending`, given the per-slot free instants.
    fn start(&self, stage: &StageTiming, image: usize, pending: f64, free: &[f64]) -> (f64, f64);

    /// Execution seconds of `stage` starting at `start` on `resource`.
    fn seconds(&self, stage: &StageTiming, resource: StageResource, start: f64) -> f64;
}

/// The healthy rack: hand-offs and stages take their modelled seconds
/// and a resource accepts work the moment it frees.
pub(crate) struct Nominal;

impl Placement for Nominal {
    #[inline]
    fn start(&self, stage: &StageTiming, image: usize, pending: f64, free: &[f64]) -> (f64, f64) {
        let start = (pending + stage.transfer_in).max(free[stage.resource_for(image).slot()]);
        (stage.transfer_in, start)
    }

    #[inline]
    fn seconds(&self, stage: &StageTiming, _: StageResource, _: f64) -> f64 {
        stage.seconds
    }
}

/// The greedy event-driven scheduler behind every pipelined schedule,
/// healthy or faulted: `rule` places each stage, and `on_span` sees
/// every committed stage execution (in commit order) with its
/// execution seconds. Both are statically dispatched, so a no-op
/// `on_span` costs nothing.
pub(crate) fn schedule_with<P: Placement>(
    timeline: &[StageTiming],
    releases: &[f64],
    rule: &P,
    mut on_span: impl FnMut(StageSpan, f64),
) -> ServedRun {
    let images = releases.len();
    let slots = timeline
        .iter()
        .flat_map(|s| s.resources())
        .map(|r| r.slot())
        .max()
        .map_or(1, |m| m + 1);
    let mut free = vec![0.0f64; slots];
    let mut next = vec![0usize; images];
    let mut ready = releases.to_vec();
    let mut starts = vec![0.0f64; images];
    let mut finishes = vec![0.0f64; images];
    // Images started so far per stage: each stage starts images in
    // strict index order (per-stage FIFO). Unreplicated timelines
    // already process in image order — identical timings and
    // oldest-image tie-breaks keep every stage FIFO on their own, so
    // the gate never binds and the schedule is unchanged. With
    // replicas it *does* bind: an image that finished upstream early
    // on a fresh replica may not overtake an older image downstream.
    // That forbids the classic list-scheduling timing anomaly, making
    // added replica capacity monotone — replication never worsens the
    // makespan (pinned by proptest in `tests/replica.rs`).
    let mut started = vec![0usize; timeline.len()];
    let mut makespan = 0.0f64;
    for _ in 0..images * timeline.len() {
        // The globally earliest-startable pending stage among each
        // stage's oldest pending image; ties go to the oldest image so
        // downstream segments outrank later images' prefixes on a
        // shared resource. A replicated stage pins image `i` to its
        // round-robin replica — replicas are distinct resources, so
        // two images on different replicas overlap.
        let mut best: Option<(f64, f64, usize)> = None;
        for i in 0..images {
            let Some(stage) = timeline.get(next[i]) else {
                continue;
            };
            if started[next[i]] != i {
                continue; // FIFO: an older image starts this stage first.
            }
            let (t_in, start) = rule.start(stage, i, ready[i], &free);
            if best.is_none_or(|(b, _, _)| start < b) {
                best = Some((start, t_in, i));
            }
        }
        let (start, t_in, i) = best.expect("pending stages remain");
        let stage = &timeline[next[i]];
        let resource = stage.resource_for(i);
        let seconds = rule.seconds(stage, resource, start);
        let done = start + seconds;
        on_span(
            StageSpan {
                image: i,
                stage: next[i],
                resource,
                layer: stage.layer,
                pending: ready[i],
                ready: ready[i] + t_in,
                start,
                end: done,
            },
            seconds,
        );
        free[resource.slot()] = done;
        started[next[i]] += 1;
        if next[i] == 0 {
            // Latency runs from the moment the image's first transfer
            // begins (a leading hand-off is part of serving the image).
            starts[i] = start - t_in;
        }
        ready[i] = done;
        next[i] += 1;
        if next[i] == timeline.len() {
            finishes[i] = done;
            makespan = makespan.max(done);
        }
    }
    // The next dispatch can begin as soon as ANY replica of the first
    // stage frees — with placement groups that is the least-loaded
    // group head, unreplicated it is the head PS.
    let head_idle = timeline.first().map_or(0.0, |s| {
        s.resources()
            .iter()
            .map(|r| free[r.slot()])
            .fold(f64::INFINITY, f64::min)
    });
    ServedRun {
        makespan,
        starts,
        finishes,
        head_idle,
    }
}

impl ClusterPlan {
    /// The architecture this plan deploys.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The configured boards + interconnect.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The overall resolved placement (union of all shards).
    pub fn target(&self) -> OffloadTarget {
        self.target
    }

    /// The per-board slices of the placement (boards carrying nothing
    /// are omitted).
    pub fn shards(&self) -> &[BoardShard] {
        &self.shards
    }

    /// The board carrying `layer`, if it is offloaded.
    pub fn board_of(&self, layer: LayerName) -> Option<usize> {
        self.shards
            .iter()
            .find(|s| s.target.layers().contains(&layer))
            .map(|s| s.board)
    }

    /// The resolved per-stage PL word-format table the plan was
    /// computed for.
    pub fn precision(&self) -> &StageFormats {
        &self.formats
    }

    /// The PS-side batch-norm statistics mode.
    pub fn bn_mode(&self) -> BnMode {
        self.bn
    }

    /// The PS cost model the timing was computed with.
    pub fn ps_model(&self) -> &PsModel {
        &self.ps
    }

    /// The PL circuit configuration (parallelism).
    pub fn pl_model(&self) -> &PlModel {
        &self.pl
    }

    /// The configured batch schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The shard-assignment strategy the plan was computed with.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Busy seconds per execution resource (head PS, each board's PL)
    /// for one image — the per-board breakdown the partitioner
    /// optimized (see [`crate::partition::resource_busy`]).
    pub fn resource_busy(&self) -> Vec<(StageResource, f64)> {
        resource_busy(&self.timeline)
    }

    /// The pipeline's bottleneck: the largest per-image busy time of
    /// any single resource — what [`Partitioner::BalancedMakespan`]
    /// drives down and what bounds pipelined throughput from above
    /// (`images / makespan → 1 / bottleneck` for deep batches).
    pub fn bottleneck_seconds(&self) -> f64 {
        bottleneck_seconds(&self.timeline)
    }

    /// The per-image stage pipeline (merged PS segments, PL stages,
    /// interconnect hand-offs) the batch schedules run over.
    pub fn timeline(&self) -> &[StageTiming] {
        &self.timeline
    }

    /// Modelled end-to-end seconds per unloaded image (execution plus
    /// interconnect hand-offs).
    pub fn total_seconds(&self) -> f64 {
        per_image_seconds(&self.timeline)
    }

    /// Per-image interconnect seconds (0 on a single board).
    pub fn transfer_seconds(&self) -> f64 {
        self.timeline.iter().map(|s| s.transfer_in).sum()
    }

    /// Per-image PL seconds across all boards (incl. AXI DMA). Each
    /// offloaded stage executes **once** per image no matter how many
    /// replicas carry its circuit, so this sums timeline rows rather
    /// than shards (a replicated stage appears in several shards).
    /// Zero on a PS-only plan (`+0.0`: an empty `f64` sum is `-0.0`).
    pub fn pl_seconds(&self) -> f64 {
        self.timeline
            .iter()
            .filter(|s| s.layer.is_some())
            .fold(0.0, |acc, s| acc + s.seconds)
    }

    /// Per-image PS seconds on the head board: the PS cycles of every
    /// stage left there, summed as integers and converted once — the
    /// figure a run reports as [`crate::engine::RunReport::ps_seconds`].
    pub fn ps_seconds(&self) -> f64 {
        let offloaded_cycles: u64 = self
            .target
            .layers()
            .iter()
            .map(|&layer| {
                let stage = self.spec.plan(layer);
                self.ps
                    .stage_cycles(layer, stage.is_ode, stage.total_execs())
            })
            .sum();
        let cycles = self.ps.spec_cycles(&self.spec) - offloaded_cycles;
        self.cluster.head().ps_seconds(cycles)
    }

    /// Per-image 32-bit AXI bus words (on-board DMA, not interconnect).
    /// Counted per executed stage, not per carrying shard — a replica
    /// holds a copy of the circuit but serves only its share of images.
    pub fn dma_words(&self) -> u64 {
        self.timeline
            .iter()
            .filter_map(|s| s.layer)
            .map(|layer| crate::datapath::dma_words(layer, self.formats.bytes_of(layer)))
            .sum()
    }

    /// The resolved replication plan, when the request replicated a
    /// stage or the placement (see [`crate::replica`]).
    pub fn replica_plan(&self) -> Option<&ReplicaPlan> {
        self.replica.as_ref()
    }

    /// The **resolved** replication policy — [`Replication::Auto`]
    /// never appears here; it resolves to whatever won the search
    /// ([`Replication::None`] when nothing beat the unreplicated plan).
    pub fn replication(&self) -> Replication {
        self.replica
            .as_ref()
            .map_or(Replication::None, |r| r.replication)
    }

    /// One-time weight-broadcast seconds to stage every replica's
    /// parameters over the interconnect (0 without replication).
    /// Reported, never added to per-image or batch makespans — the
    /// broadcast overlaps deployment (see [`crate::replica`]).
    pub fn broadcast_seconds(&self) -> f64 {
        self.replica.as_ref().map_or(0.0, |r| r.broadcast_seconds)
    }

    /// Steady-state per-resource utilization under pipelined serving
    /// at the throughput ceiling: each resource's per-image busy share
    /// over the bottleneck's ([`Self::bottleneck_seconds`]; the
    /// bottleneck itself reads 1.0). These are the fractions a
    /// measured `ServeReport::utilization` approaches at full offered
    /// load, in the same units and [`crate::trace::format_utilization`]
    /// format both describe lines print.
    pub fn utilization(&self) -> Vec<(StageResource, f64)> {
        let bottleneck = self.bottleneck_seconds();
        self.resource_busy()
            .into_iter()
            .map(|(resource, busy)| (resource, busy / bottleneck))
            .collect()
    }

    /// Modelled makespan of a batch under `schedule`.
    pub fn batch_seconds(&self, images: usize, schedule: Schedule) -> f64 {
        match schedule {
            Schedule::Sequential => sequential_makespan(&self.timeline, images),
            Schedule::Pipelined => pipelined_schedule(&self.timeline, images).makespan,
        }
    }

    /// Throughput gain of pipelining a batch over the additive
    /// schedule (≥ 1; approaches latency ÷ bottleneck for large
    /// batches).
    pub fn pipeline_speedup(&self, images: usize) -> f64 {
        if images == 0 {
            return 1.0;
        }
        self.batch_seconds(images, Schedule::Sequential)
            / self.batch_seconds(images, Schedule::Pipelined)
    }

    /// One-line human description for logs and examples.
    pub fn describe(&self) -> String {
        let shards = self
            .shards
            .iter()
            .map(|s| format!("board{}: {:?}", s.board, s.target))
            .collect::<Vec<_>>()
            .join(", ");
        let boards = self.cluster.boards();
        let rack = if boards.iter().all(|b| b.name == boards[0].name) {
            format!("{}×{}", boards.len(), boards[0].name)
        } else {
            boards
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let replica = self
            .replica
            .as_ref()
            .map(|r| format!(" · {}", r.describe()))
            .unwrap_or_default();
        format!(
            "{} · {} · {:?} over {} ({}) · {:.3}s/img · {:?} · {:?}{} · {}",
            self.spec.display_name(),
            self.formats,
            self.target,
            rack,
            if shards.is_empty() { "all PS" } else { &shards },
            self.total_seconds(),
            self.schedule,
            self.partitioner,
            replica,
            crate::trace::format_utilization(&self.utilization()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{ARTY_Z7_20, PYNQ_Z2};
    use crate::plan::PlFormat;
    use rodenet::Variant;

    fn request(boards: usize) -> ClusterRequest {
        ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: PlFormat::Q20.into(),
            schedule: Schedule::Pipelined,
            partitioner: Partitioner::FirstFit,
            replication: Replication::None,
        }
    }

    #[test]
    fn empty_traced_schedule_reports_zero_utilization() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        let mut rec = Recorder::enabled();
        let run = pipelined_schedule_released_traced(plan.timeline(), &[], &mut rec);
        assert_eq!(run.makespan, 0.0);
        let utilization = rec.finish().utilization();
        assert!(!utilization.is_empty());
        assert!(
            utilization.iter().all(|&(_, u)| u == 0.0),
            "{utilization:?}"
        );
    }

    #[test]
    fn interconnect_transfer_math() {
        let link = Interconnect::GIGABIT_ETHERNET;
        assert_eq!(link.transfer_seconds(0), 0.0);
        let t = link.transfer_seconds(125_000_000);
        assert!((t - 1.00005).abs() < 1e-9, "{t}");
        // A layer3_2 map at Q20: 64·8·8·4 bytes ≈ 181 µs.
        let map = feature_map_bytes(LayerName::Layer3_2, 4);
        assert_eq!(map, 16_384);
        assert!((link.transfer_seconds(map) - 181.072e-6).abs() < 1e-8);
    }

    #[test]
    fn first_fit_sharding_follows_network_order() {
        let cluster = Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET);
        // At Q20, layer1+layer2_2 (120 BRAM) fill board 0; layer3_2
        // (140 BRAM = the whole fabric) moves to board 1 — the ISSUE's
        // canonical example.
        let q20 = StageFormats::default();
        let shards = shard_placement(OffloadTarget::AllOde, &cluster, 16, &q20).expect("shards");
        assert_eq!(
            shards,
            vec![(0, OffloadTarget::Layer1And22), (1, OffloadTarget::Layer32)]
        );
        // One board cannot carry all three at 32-bit…
        let one = Cluster::homogeneous(&ARTY_Z7_20, 1, Interconnect::GIGABIT_ETHERNET);
        assert!(matches!(
            shard_placement(OffloadTarget::AllOde, &one, 16, &q20),
            Err(EngineError::ShardInfeasible { boards: 1, .. })
        ));
        // …but can at 16-bit (footnote 2), with no second board needed.
        let q16 = PlFormat::Q16 { frac: 8 }.into();
        let shards16 = shard_placement(OffloadTarget::AllOde, &one, 16, &q16).expect("16-bit");
        assert_eq!(shards16, vec![(0, OffloadTarget::AllOde)]);
    }

    #[test]
    fn auto_plan_on_two_boards_offloads_everything() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        assert_eq!(plan.target(), OffloadTarget::AllOde);
        assert_eq!(plan.shards().len(), 2);
        assert_eq!(plan.board_of(LayerName::Layer1), Some(0));
        assert_eq!(plan.board_of(LayerName::Layer3_2), Some(1));
        // Both interconnect crossings (PS→board1 and board1→PS).
        let crossings = plan
            .timeline()
            .iter()
            .filter(|s| s.transfer_in > 0.0)
            .count();
        assert_eq!(crossings, 2);
        assert!(plan.transfer_seconds() > 0.0 && plan.transfer_seconds() < 1e-3);
    }

    #[test]
    fn single_board_timeline_matches_table5_total() {
        // A 1-board cluster is the paper's system: the pipeline total
        // must equal the plan-level Table 5 row (no interconnect).
        let spec = NetSpec::new(Variant::ROdeNet3, 56);
        let mut req = request(1);
        req.cluster = Cluster::homogeneous(&PYNQ_Z2, 1, Interconnect::GIGABIT_ETHERNET);
        let plan = plan_cluster(&spec, &req).expect("plans");
        assert_eq!(plan.target(), OffloadTarget::Layer32);
        assert_eq!(plan.transfer_seconds(), 0.0);
        let row = crate::timing::paper_row(Variant::ROdeNet3, 56);
        assert!(
            (plan.total_seconds() - row.total_w_pl).abs() < 1e-9,
            "pipeline {} vs table5 {}",
            plan.total_seconds(),
            row.total_w_pl
        );
        // conv1+overhead / layer1 / … merge into PS segments around the
        // single PL stage: [PS, PL, PS].
        assert_eq!(plan.timeline().len(), 3);
        assert_eq!(plan.timeline()[1].layer, Some(LayerName::Layer3_2));
    }

    #[test]
    fn software_only_cluster_is_one_ps_segment() {
        let spec = NetSpec::new(Variant::ResNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        assert_eq!(plan.target(), OffloadTarget::None);
        assert_eq!(plan.timeline().len(), 1);
        let sw = PsModel::Calibrated.spec_seconds(&spec, &ARTY_Z7_20);
        assert!((plan.total_seconds() - sw).abs() < 1e-12);
    }

    #[test]
    fn pipelined_schedule_bounds() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        for images in [1usize, 2, 7, 32] {
            let seq = plan.batch_seconds(images, Schedule::Sequential);
            let pipe = plan.batch_seconds(images, Schedule::Pipelined);
            let lb =
                (images as f64 * bottleneck_seconds(plan.timeline())).max(plan.total_seconds());
            assert!(pipe <= seq + 1e-9, "{images}: {pipe} ≤ {seq}");
            assert!(pipe >= lb - 1e-9, "{images}: {pipe} ≥ {lb}");
        }
        // One image cannot pipeline with itself.
        assert!((plan.batch_seconds(1, Schedule::Pipelined) - plan.total_seconds()).abs() < 1e-9);
        // A deep batch must genuinely beat the additive bound.
        assert!(
            plan.pipeline_speedup(32) > 1.3,
            "{}",
            plan.pipeline_speedup(32)
        );
    }

    #[test]
    fn pipelined_latencies_never_beat_unloaded_latency() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        let run = pipelined_schedule(plan.timeline(), 8);
        assert_eq!(run.latencies.len(), 8);
        // Queueing can only stretch an image (even image 0's later
        // segments may wait behind younger prefixes on the shared PS);
        // a lone image pays exactly the unloaded latency.
        for lat in &run.latencies {
            assert!(*lat >= plan.total_seconds() - 1e-9, "{lat}");
            assert!(*lat <= run.makespan + 1e-9);
        }
        let solo = pipelined_schedule(plan.timeline(), 1);
        assert!((solo.latencies[0] - plan.total_seconds()).abs() < 1e-9);
    }

    #[test]
    fn fixed_target_that_cannot_shard_is_a_typed_error() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let mut req = request(1);
        req.offload = Offload::Target(OffloadTarget::AllOde);
        let err = plan_cluster(&spec, &req).expect_err("one 32-bit board is too small");
        let EngineError::ShardInfeasible {
            target,
            boards,
            parallelism,
            stuck,
            stuck_bram36,
            ref board_bram36,
            ref hint,
        } = err
        else {
            panic!("expected ShardInfeasible, got {err:?}");
        };
        assert_eq!(target, OffloadTarget::AllOde);
        assert_eq!(boards, 1);
        assert_eq!(parallelism, 16);
        assert_eq!(stuck, Some(LayerName::Layer3_2));
        assert_eq!(stuck_bram36, 140.0);
        assert_eq!(*board_bram36, vec![140]);
        // This placement *does* shard on one more XC7Z020, so the error
        // carries the replication-aware follow-up.
        let hint = hint.as_deref().expect("one more board fixes this");
        assert!(hint.contains("Replication::Stage("), "{hint}");
        // The diagnostics are actionable: the report names the layer
        // that got stuck, the capacities that were consulted, and the
        // follow-up.
        let msg = format!("{err}");
        assert!(
            msg.contains("layer3_2") && msg.contains("140") && msg.contains("Replication::Stage("),
            "actionable report: {msg}"
        );
    }

    #[test]
    fn describe_names_the_shards() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        let d = plan.describe();
        assert!(d.contains("board0") && d.contains("board1"), "{d}");
        assert!(d.contains("Arty"), "{d}");
    }
}
