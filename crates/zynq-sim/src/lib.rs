//! # zynq-sim — a PYNQ-Z2 / Zynq XC7Z020 substrate simulator
//!
//! The paper runs its ODEBlocks on the programmable logic (PL) of a TUL
//! PYNQ-Z2 board. This crate replaces the board with a simulator that
//! models each ingredient the evaluation depends on:
//!
//! * [`board`] — the Table 1 device (2× Cortex-A9 @ 650 MHz, Zynq
//!   XC7Z020: 140 BRAM36, 220 DSP48E1, 53 200 LUT, 106 400 FF, PL clock
//!   100 MHz);
//! * [`resources`] — BRAM/DSP/LUT/FF utilization of the conv_x·n ODEBlock
//!   circuits (Table 3). The BRAM and DSP models are *structural and
//!   exact* on all 24 published cells; LUT/FF come from a synthesis
//!   characterization table plus a linear model for unseen configurations;
//! * [`datapath`] — the cycle-accurate ODEBlock datapath model (§3.1:
//!   23.78M/6.07M/3.12M/1.64M/0.90M cycles for layer3_2 at 1–32
//!   multiply-add units) and the bit-exact Q20 execution built on
//!   [`rodenet::QuantBlock`];
//! * [`timing`] — the end-to-end prediction-latency model of Table 5:
//!   a calibrated Cortex-A9 software-cost model for the PS side, the
//!   cycle model at 100 MHz for the PL side, and the paper's optimistic
//!   1-cycle-per-word AXI DMA assumption;
//! * [`planner`] — the §3.2 offload feasibility analysis (which layers
//!   fit in BRAM, which combinations are legal, what conv_x·n passes
//!   timing);
//! * [`plan`] — numerics-free deployment planning: [`DeploymentPlan`]
//!   resolves placement, width-aware resources, and the cached Table 5
//!   timing for any PL word format ([`PlFormat`]) before a single
//!   weight is quantized — a one-board view over a [`ClusterPlan`];
//! * [`precision`] — per-stage word-format policies: one uniform
//!   format, an explicit [`StageFormats`] table (layer1 at Q16 next to
//!   layer3_2 at Q20), or [`Precision::Calibrated`], which measures
//!   per-stage activation envelopes on a sample batch and picks each
//!   `frac` itself;
//! * [`engine`] — the deployment API: a builder-configured, validated
//!   [`Engine`] built from a [`DeploymentPlan`], precision-polymorphic
//!   per stage over the PL word format, serving single or batched
//!   inference through pluggable [`Backend`]s;
//! * [`cluster`] — multi-board scale-out: a [`Cluster`] of boards with
//!   a modelled [`Interconnect`], sharded placements ([`ClusterPlan`]),
//!   and an event-driven pipelined batch scheduler ([`Schedule`]) that
//!   overlaps PS stages of image *i+1* with PL stages of image *i*;
//! * [`partition`] — the cost-driven partitioner layer: one placement
//!   search ([`Partitioner`]) shared by the single-board planner and
//!   the cluster sharder, from greedy first-fit to a balanced-makespan
//!   search that puts heavy stages on the bigger fabric of a
//!   heterogeneous rack;
//! * [`replica`] — the replication layer: [`Replication::Stage`]
//!   burns a bottleneck PL stage onto several fabrics with round-robin
//!   image→replica assignment (pushing the pipelined ceiling below one
//!   board's busy time), [`Replication::Placement`] clones the whole
//!   placement across board groups for data parallelism past the head
//!   PS's floor, and [`Replication::Auto`] searches both grains —
//!   always with bit-identical logits;
//! * [`serve`] — the online-serving subsystem: open-loop seeded
//!   arrival streams ([`ArrivalProcess`]), continuous micro-batching
//!   (dispatch on head-idle or deadline, never on a fixed batch
//!   filling), and deterministic virtual-time replay through the
//!   pipelined cluster schedule into a [`ServeReport`] of tail
//!   latency, goodput, queue depth, and board utilization;
//! * [`trace`] — the observability layer: a zero-cost-when-disabled
//!   event [`Recorder`] threaded through the virtual-time schedulers,
//!   capturing per-image stage spans, interconnect hand-offs, queue
//!   and dispatch events into a [`Trace`] that exports Chrome-trace
//!   JSON (open in `chrome://tracing` / Perfetto) and aggregates into
//!   per-resource utilization plus stall attribution
//!   (waiting-on-upstream vs FIFO-gate-held vs no-work);
//! * [`fault`] — fault injection and failover: a declarative
//!   [`FaultPlan`] of deterministic virtual-time faults (board
//!   crashes, slowdowns, hangs, link degradation), a timeout-based
//!   [`HealthMonitor`], drain-then-replan failover onto the surviving
//!   boards with the weight re-broadcast priced into a recovery
//!   window, head-PS degraded mode as the last resort, and an
//!   [`AvailabilityReport`] on the serve report — the empty plan is
//!   bit-identical to the fault-free path.
//!
//! ```
//! use zynq_sim::resources::{ode_block_resources};
//! use rodenet::LayerName;
//!
//! let r = ode_block_resources(LayerName::Layer3_2, 16);
//! assert_eq!(r.bram36_used(), 140.0); // 100% — Table 3's headline row
//! assert_eq!(r.dsp, 68);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod cluster;
pub mod datapath;
pub mod engine;
pub mod fault;
pub mod partition;
pub mod plan;
pub mod planner;
pub mod power;
pub mod precision;
pub mod replica;
pub mod resources;
pub mod serve;
pub mod timing;
pub mod trace;

pub use board::{Board, ARTY_Z7_10, ARTY_Z7_20, PYNQ_Z2};
pub use cluster::{
    pipelined_schedule_released, plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect,
    Schedule, ServedRun, StageResource,
};
pub use datapath::{block_exec_cycles, conv_cycles, OdeBlockAccel};
pub use engine::{
    Backend, BackendKind, BatchSummary, Engine, EngineBuilder, EngineError, Offload, RunReport,
};
pub use fault::{
    faulted_schedule_released, serve_faulted, AvailabilityReport, FailoverRecord, FaultEvent,
    FaultPlan, HealthMonitor, HealthPolicy,
};
pub use partition::{board_stage_seconds, partition_placement, resource_busy, Partitioner};
pub use plan::{plan_deployment, DeploymentPlan, PlFormat, PlanRequest, PlannedStage};
pub use planner::{plan_offload, OffloadTarget};
pub use power::{EnergyReport, PowerModel};
pub use precision::{Precision, StageFormats};
pub use replica::{restage_seconds, ReplicaPlan, Replication};
pub use resources::{ode_block_resources, ResourceReport};
pub use serve::{
    ArrivalProcess, Dispatch, LoadPoint, LoadSweep, MicroBatcher, ServeReport, ServeRequest,
    Window, WindowReport,
};
pub use timing::{table5_row, PlModel, PsModel, Table5Row};
pub use trace::{
    check_chrome_json, FaultKind, FaultTraceEvent, Metrics, Recorder, ResourceMetrics,
    StallBreakdown, Trace,
};
