//! Event tracing and stall attribution for the virtual-time simulators.
//!
//! The schedulers in [`crate::cluster`] and [`crate::serve`] make rich
//! decisions — pipelined FIFO gates, replica round-robin, deadline
//! micro-batching — but historically emitted only end-of-run aggregates
//! (`PipelineRun`, `ServeReport`). This module records *why* a run
//! looks the way it does:
//!
//! 1. a [`Recorder`] reads the spans the one scheduler core commits,
//!    through [`pipelined_schedule_released_traced`] and the serve
//!    driver behind [`serve_timeline_traced`] and
//!    [`crate::fault::serve_faulted`], capturing typed spans — one
//!    [`StageSpan`] per stage execution per image per
//!    [`StageResource`], [`TransferSpan`]s for interconnect hand-offs
//!    and the one-time replica broadcast, [`QueueEvent`]s for
//!    admission-queue waits, and [`DispatchEvent`]s for micro-batcher
//!    decisions — all in deterministic **virtual** time (no wall clock
//!    is ever read);
//! 2. the finished [`Trace`] exports to Chrome-trace-event JSON via
//!    [`Trace::to_chrome_json`] (one track per resource, hand-rolled
//!    serializer — open it in `chrome://tracing` or Perfetto) and
//!    aggregates into [`Metrics`]: per-resource busy/idle/utilization,
//!    the queue-depth time series, and a **stall attribution** that
//!    splits every idle gap into waiting-on-upstream vs FIFO-gate-held
//!    vs no-work;
//! 3. the surface API is `EngineBuilder::trace(true)` +
//!    `Engine::last_trace()` / `ServeReport::trace()`, and the
//!    `repro -- trace` command writes the JSON artifact and prints the
//!    attribution table.
//!
//! A **disabled** recorder is a single inlined boolean check per event
//! — the schedulers' floating-point arithmetic is untouched either
//! way, so schedules and logits are bit-identical with tracing on or
//! off (pinned in `tests/trace.rs`; the recorder-off column of
//! `repro -- scaling` shows the overhead).
//!
//! # Stall attribution
//!
//! For every idle gap on a resource the recorder knows, for each span
//! that eventually ran there, when its image became *pending* for the
//! stage (previous stage's completion, or the dispatch release for the
//! first stage) and when its input was *delivered* (pending +
//! interconnect hand-off). A gap instant is attributed:
//!
//! - **gate** — some image's input for this resource was already
//!   delivered but the per-stage FIFO gate (or replica round-robin
//!   pinning) held it back: the resource sat idle with runnable work
//!   at hand. This is the visible cost of PR 7's Graham-anomaly guard.
//! - **upstream** — an image destined for this resource was pending
//!   but its input was still in flight across the interconnect.
//! - **no-work** — nothing destined for this resource was even
//!   pending: the image was still executing upstream stages, or the
//!   micro-batcher had admitted nothing.
//!
//! Overlaps resolve gate > upstream > no-work, so "the gate held
//! delivered work" is never misread as starvation.
//!
//! [`pipelined_schedule_released_traced`]: crate::cluster::pipelined_schedule_released_traced
//! [`serve_timeline_traced`]: crate::serve::serve_timeline_traced

use crate::cluster::StageResource;
use rodenet::LayerName;

/// One stage execution on one resource, in virtual seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageSpan {
    /// Stream index of the image.
    pub image: usize,
    /// Index of the stage in the plan's timeline.
    pub stage: usize,
    /// The resource that executed the stage (the image's round-robin
    /// replica when the stage is replicated).
    pub resource: StageResource,
    /// The offloaded layer (`None` for merged PS segments).
    pub layer: Option<LayerName>,
    /// When the image became pending for this stage: its dispatch
    /// release for stage 0, the previous stage's completion otherwise.
    pub pending: f64,
    /// When the stage's input was delivered at the resource
    /// (`pending` + interconnect hand-off; equals `pending` when no
    /// hand-off precedes the stage).
    pub ready: f64,
    /// Execution start (`≥ ready`; the difference is time spent held
    /// behind a busy resource or the per-stage FIFO gate).
    pub start: f64,
    /// Execution end (`start` + the stage's modelled seconds).
    pub end: f64,
}

/// One interconnect hand-off. Transfers occupy no compute resource —
/// they delay readiness — so they live on their own export track and
/// may overlap each other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferSpan {
    /// Stream index of the image in flight.
    pub image: usize,
    /// The stage the transfer feeds.
    pub stage: usize,
    /// The destination resource.
    pub to: StageResource,
    /// Transfer start (the previous stage's completion).
    pub start: f64,
    /// Transfer end (the input's delivery instant).
    pub end: f64,
}

/// One admission-queue depth change: `+1` on arrival, `-count` when a
/// dispatch drains everything waiting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueEvent {
    /// Virtual instant of the change.
    pub at: f64,
    /// Signed depth delta.
    pub delta: i64,
}

/// One micro-batcher dispatch decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchEvent {
    /// The release instant the batcher chose.
    pub at: f64,
    /// Images released together in this batch.
    pub images: usize,
}

/// The category of an injected fault (mirrors
/// [`crate::fault::FaultEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A board died permanently.
    Crash,
    /// A board's stages ran `factor ×` slower for a window.
    Slowdown,
    /// The interconnect lost bandwidth for a window.
    LinkDegrade,
    /// A board accepted no new stage starts for a window.
    Hang,
}

/// One fault-subsystem event on the trace's failover track — injected
/// faults, failover boundaries, and re-dispatches of work lost on a
/// crashed board (see [`crate::fault`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultTraceEvent {
    /// A [`crate::fault::FaultEvent`] took effect.
    FaultInjected {
        /// Virtual instant the fault takes effect.
        at: f64,
        /// What kind of fault.
        kind: FaultKind,
        /// The targeted board (`None` for link-wide faults).
        board: Option<usize>,
    },
    /// The health monitor declared `board` failed; the drain +
    /// replan + re-broadcast recovery window opens.
    FailoverStart {
        /// Detection instant.
        at: f64,
        /// The board declared dead.
        board: usize,
    },
    /// Serving resumed on the replacement placement.
    FailoverEnd {
        /// Resume instant (drain end + re-broadcast).
        at: f64,
        /// Whether the replacement is the degraded head-PS fallback.
        degraded: bool,
    },
    /// An image whose in-flight work died with a crashed board was
    /// re-dispatched onto the replacement placement.
    Redispatch {
        /// The re-dispatch instant (the failover's resume).
        at: f64,
        /// Stream index of the re-dispatched image.
        image: usize,
    },
}

impl FaultTraceEvent {
    /// The event's virtual instant.
    pub fn at(&self) -> f64 {
        match *self {
            FaultTraceEvent::FaultInjected { at, .. }
            | FaultTraceEvent::FailoverStart { at, .. }
            | FaultTraceEvent::FailoverEnd { at, .. }
            | FaultTraceEvent::Redispatch { at, .. } => at,
        }
    }
}

/// A finished event log plus the run summary needed to aggregate it.
///
/// Produced by [`Recorder::finish`]; carried on
/// `ServeReport::trace()` / `Engine::last_trace()`. Everything is in
/// deterministic virtual seconds, so a `Trace` of a seeded run is
/// bit-stable across machines.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Trace {
    /// Every stage execution, in scheduler commit order.
    pub stages: Vec<StageSpan>,
    /// Every interconnect hand-off, in scheduler commit order.
    pub transfers: Vec<TransferSpan>,
    /// Admission-queue depth changes, in queue order (arrivals at a
    /// dispatch's instant precede the dispatch, matching the queue's
    /// push-before-drain accounting).
    pub queue: Vec<QueueEvent>,
    /// Micro-batcher dispatch decisions, ascending.
    pub dispatches: Vec<DispatchEvent>,
    /// Fault-subsystem events (injections, failover boundaries,
    /// re-dispatches), in orchestrator order. Empty for fault-free
    /// runs — the exports of those stay byte-identical to pre-fault
    /// traces.
    pub faults: Vec<FaultTraceEvent>,
    images: usize,
    horizon: f64,
    utilization: Vec<(StageResource, f64)>,
    broadcast_seconds: f64,
}

impl Trace {
    /// Images the traced run served.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Virtual seconds from t = 0 to the last completion (the run's
    /// makespan).
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// One-time replica weight-broadcast seconds, if the deployment
    /// replicates (0 otherwise). Broadcast overlaps deployment — it is
    /// exported on the interconnect track at t = 0 but never attributed
    /// against the serving horizon.
    pub fn broadcast_seconds(&self) -> f64 {
        self.broadcast_seconds
    }

    /// Attach the deployment's replica broadcast cost (see
    /// [`crate::cluster::ClusterPlan::broadcast_seconds`]). The
    /// timeline-level drivers cannot see it; `Engine::serve` and the
    /// `repro -- trace` command stamp it from the plan.
    pub fn set_broadcast_seconds(&mut self, seconds: f64) {
        self.broadcast_seconds = seconds;
    }

    /// Per-resource utilization: the very vector the traced run's
    /// `ServeReport::utilization` carries (for a bare schedule, the
    /// timeline's per-image busy table scaled by `images / horizon`).
    pub fn utilization(&self) -> Vec<(StageResource, f64)> {
        self.utilization.clone()
    }

    /// The admission-queue depth time series as `(instant, depth)`
    /// steps, in queue order. Its running peak equals the release
    /// plan's `queue_peak`, the largest dispatch, exactly (pinned by
    /// proptest).
    pub fn queue_depth_series(&self) -> Vec<(f64, usize)> {
        let mut depth = 0i64;
        self.queue
            .iter()
            .map(|e| {
                depth += e.delta;
                debug_assert!(depth >= 0, "queue depth never goes negative");
                (e.at, depth.max(0) as usize)
            })
            .collect()
    }

    /// Aggregate the event log into per-resource busy/utilization and
    /// stall attribution (see the module docs for the taxonomy).
    pub fn metrics(&self) -> Metrics {
        let mut slots: Vec<StageResource> = Vec::new();
        for s in &self.stages {
            if !slots.contains(&s.resource) {
                slots.push(s.resource);
            }
        }
        slots.sort_by_key(|r| r.slot());
        let resources = slots
            .into_iter()
            .map(|resource| self.resource_metrics(resource))
            .collect();
        Metrics {
            resources,
            queue_peak: self
                .queue_depth_series()
                .into_iter()
                .map(|(_, d)| d)
                .max()
                .unwrap_or(0),
            horizon: self.horizon,
        }
    }

    fn resource_metrics(&self, resource: StageResource) -> ResourceMetrics {
        let mut spans: Vec<&StageSpan> = self
            .stages
            .iter()
            .filter(|s| s.resource == resource)
            .collect();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        let busy: f64 = spans.iter().map(|s| s.end - s.start).sum();
        let utilization = self
            .utilization
            .iter()
            .find(|(r, _)| *r == resource)
            .map_or_else(|| busy / self.horizon, |&(_, u)| u);

        // Interval covers over this resource's spans: when was
        // delivered work held (gate), when was work still in flight
        // (upstream)?
        let gate_cover = merged(
            spans
                .iter()
                .filter(|s| s.start > s.ready)
                .map(|s| (s.ready, s.start))
                .collect(),
        );
        let upstream_cover = subtract(
            &merged(
                spans
                    .iter()
                    .filter(|s| s.ready > s.pending)
                    .map(|s| (s.pending, s.ready))
                    .collect(),
            ),
            &gate_cover,
        );

        let mut stall = StallBreakdown::default();
        let mut attribute = |lo: f64, hi: f64| {
            if hi <= lo {
                return;
            }
            let gate = overlap_len(&gate_cover, lo, hi);
            let upstream = overlap_len(&upstream_cover, lo, hi);
            stall.gate += gate;
            stall.upstream += upstream;
            stall.no_work += ((hi - lo) - gate - upstream).max(0.0);
        };
        let mut cursor = 0.0f64;
        for s in &spans {
            attribute(cursor, s.start);
            cursor = cursor.max(s.end);
        }
        attribute(cursor, self.horizon);

        ResourceMetrics {
            resource,
            spans: spans.len(),
            busy,
            utilization,
            stall,
        }
    }

    /// Serialize to the Chrome trace-event JSON format (the
    /// `{"traceEvents": [...]}` object form), one event per line:
    ///
    /// - a `B`/`E` pair per stage execution on its resource's track
    ///   (spans on one track never overlap, so pairs match exactly);
    /// - an `X` complete event per interconnect hand-off (and the
    ///   replica broadcast) on a shared `interconnect` track;
    /// - `C` counter events for the admission-queue depth;
    /// - `i` instant events for micro-batcher dispatches;
    /// - `M` metadata naming every track.
    ///
    /// Timestamps are virtual microseconds, globally non-decreasing.
    /// The output is bit-stable for a seeded run and validates with
    /// [`check_chrome_json`]. Open it in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        const TID_INTERCONNECT: usize = 100;
        const TID_DISPATCH: usize = 101;
        const TID_FAULTS: usize = 102;
        let us = |t: f64| t * 1e6;
        // (ts, rank, seq) sort key: metadata first, then E before X/C/i
        // before B at equal instants so same-track spans close before
        // their successors open.
        let mut events: Vec<(f64, u8, usize, String)> = Vec::new();
        let mut seq = 0usize;
        let mut push =
            |events: &mut Vec<(f64, u8, usize, String)>, ts: f64, rank: u8, line: String| {
                events.push((ts, rank, seq, line));
                seq += 1;
            };

        let mut tracks: Vec<(usize, String)> = Vec::new();
        for s in &self.stages {
            let tid = s.resource.slot();
            if !tracks.iter().any(|(t, _)| *t == tid) {
                tracks.push((tid, resource_label(s.resource)));
            }
        }
        tracks.sort_by_key(|(t, _)| *t);
        if !self.transfers.is_empty() || self.broadcast_seconds > 0.0 {
            tracks.push((TID_INTERCONNECT, "interconnect".to_string()));
        }
        if !self.dispatches.is_empty() {
            tracks.push((TID_DISPATCH, "dispatch".to_string()));
        }
        if !self.faults.is_empty() {
            tracks.push((TID_FAULTS, "faults".to_string()));
        }
        for (tid, name) in &tracks {
            push(
                &mut events,
                0.0,
                0,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }

        for s in &self.stages {
            let tid = s.resource.slot();
            let name = stage_label(s.layer);
            push(
                &mut events,
                us(s.start),
                3,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"stage\",\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{{\"image\":{},\"stage\":{}}}}}",
                    us(s.start),
                    s.image,
                    s.stage
                ),
            );
            push(
                &mut events,
                us(s.end),
                1,
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{}}}",
                    us(s.end)
                ),
            );
        }

        if self.broadcast_seconds > 0.0 {
            push(
                &mut events,
                0.0,
                2,
                format!(
                    "{{\"name\":\"replica broadcast\",\"cat\":\"transfer\",\"ph\":\"X\",\"pid\":0,\"tid\":{TID_INTERCONNECT},\"ts\":0,\"dur\":{}}}",
                    us(self.broadcast_seconds)
                ),
            );
        }
        for t in &self.transfers {
            push(
                &mut events,
                us(t.start),
                2,
                format!(
                    "{{\"name\":\"to {}\",\"cat\":\"transfer\",\"ph\":\"X\",\"pid\":0,\"tid\":{TID_INTERCONNECT},\"ts\":{},\"dur\":{},\"args\":{{\"image\":{},\"stage\":{}}}}}",
                    resource_label(t.to),
                    us(t.start),
                    us(t.end - t.start),
                    t.image,
                    t.stage
                ),
            );
        }

        for d in &self.dispatches {
            push(
                &mut events,
                us(d.at),
                2,
                format!(
                    "{{\"name\":\"dispatch\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{TID_DISPATCH},\"ts\":{},\"args\":{{\"images\":{}}}}}",
                    us(d.at),
                    d.images
                ),
            );
        }

        for f in &self.faults {
            let (name, args) = match *f {
                FaultTraceEvent::FaultInjected { kind, board, .. } => {
                    let what = match kind {
                        FaultKind::Crash => "crash",
                        FaultKind::Slowdown => "slowdown",
                        FaultKind::LinkDegrade => "link degrade",
                        FaultKind::Hang => "hang",
                    };
                    match board {
                        Some(b) => (format!("{what} board {b}"), String::new()),
                        None => (what.to_string(), String::new()),
                    }
                }
                FaultTraceEvent::FailoverStart { board, .. } => {
                    (format!("failover start (board {board})"), String::new())
                }
                FaultTraceEvent::FailoverEnd { degraded, .. } => (
                    if degraded {
                        "failover end (degraded)".to_string()
                    } else {
                        "failover end".to_string()
                    },
                    String::new(),
                ),
                FaultTraceEvent::Redispatch { image, .. } => (
                    "redispatch".to_string(),
                    format!(",\"args\":{{\"image\":{image}}}"),
                ),
            };
            push(
                &mut events,
                us(f.at()),
                2,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{TID_FAULTS},\"ts\":{}{args}}}",
                    us(f.at())
                ),
            );
        }

        for (at, depth) in self.queue_depth_series() {
            push(
                &mut events,
                us(at),
                2,
                format!(
                    "{{\"name\":\"admission queue\",\"ph\":\"C\",\"pid\":0,\"ts\":{},\"args\":{{\"depth\":{depth}}}}}",
                    us(at)
                ),
            );
        }

        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (_, _, _, line)) in events.iter().enumerate() {
            out.push_str(line);
            out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-resource aggregates plus the queue high-water mark — what the
/// `repro -- trace` attribution table prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Per-resource rows, in [`StageResource::slot`] order.
    pub resources: Vec<ResourceMetrics>,
    /// Peak of the queue-depth series (equals the serve report's
    /// `queue_peak`, the largest dispatch, for traced serves).
    pub queue_peak: usize,
    /// The traced run's horizon in virtual seconds.
    pub horizon: f64,
}

impl Metrics {
    /// The busiest resource — the one whose executed seconds dominate
    /// the run. For an even replica split this matches
    /// [`crate::cluster::bottleneck_seconds`]'s argmax: its per-image
    /// busy share (`busy / images`) is the pipeline's bottleneck.
    pub fn bottleneck(&self) -> Option<&ResourceMetrics> {
        self.resources
            .iter()
            .max_by(|a, b| a.busy.total_cmp(&b.busy))
    }
}

/// One resource's busy/idle accounting over a traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceMetrics {
    /// The resource.
    pub resource: StageResource,
    /// Stage executions recorded on it.
    pub spans: usize,
    /// Executed virtual seconds (sum of span durations).
    pub busy: f64,
    /// Busy fraction of the horizon, read from the report's
    /// utilization vector (see [`Trace::utilization`]).
    pub utilization: f64,
    /// Where the idle seconds went.
    pub stall: StallBreakdown,
}

/// Split of a resource's idle time (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct StallBreakdown {
    /// Idle while work destined here was still in flight upstream
    /// (interconnect hand-off running).
    pub upstream: f64,
    /// Idle while delivered work was held by the per-stage FIFO gate
    /// or replica round-robin pinning.
    pub gate: f64,
    /// Idle with nothing destined here even pending (images still
    /// executing earlier stages, or nothing admitted).
    pub no_work: f64,
}

impl StallBreakdown {
    /// Total attributed idle seconds.
    pub fn total(&self) -> f64 {
        self.upstream + self.gate + self.no_work
    }
}

/// The event sink the schedulers thread through. A disabled recorder
/// (the default for every untraced entry point) reduces every hook to
/// one inlined branch — the zero-cost path the recorder-off column of
/// `repro -- scaling` measures.
#[derive(Clone, Debug)]
pub struct Recorder {
    enabled: bool,
    trace: Trace,
}

impl Recorder {
    /// A recorder that drops every event (the zero-cost path).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            trace: Trace::default(),
        }
    }

    /// A recorder that captures every event.
    pub fn enabled() -> Self {
        Recorder {
            enabled: true,
            trace: Trace::default(),
        }
    }

    /// Whether events are being captured (lets callers skip deriving
    /// event data that would be dropped anyway).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one stage execution.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn stage(
        &mut self,
        image: usize,
        stage: usize,
        resource: StageResource,
        layer: Option<LayerName>,
        pending: f64,
        ready: f64,
        start: f64,
        end: f64,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.stages.push(StageSpan {
            image,
            stage,
            resource,
            layer,
            pending,
            ready,
            start,
            end,
        });
    }

    /// Record one committed stage execution and, when `handoff`, the
    /// interconnect hand-off that delivered its input (`pending` to
    /// `ready`).
    #[inline]
    pub(crate) fn commit(&mut self, span: &StageSpan, handoff: bool) {
        if !self.enabled {
            return;
        }
        self.trace.stages.push(*span);
        if handoff {
            self.transfer(
                span.image,
                span.stage,
                span.resource,
                span.pending,
                span.ready,
            );
        }
    }

    /// Record one interconnect hand-off.
    #[inline]
    pub fn transfer(
        &mut self,
        image: usize,
        stage: usize,
        to: StageResource,
        start: f64,
        end: f64,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.transfers.push(TransferSpan {
            image,
            stage,
            to,
            start,
            end,
        });
    }

    /// Record one admission-queue arrival.
    #[inline]
    pub fn arrival(&mut self, at: f64) {
        if !self.enabled {
            return;
        }
        self.trace.queue.push(QueueEvent { at, delta: 1 });
    }

    /// Record one micro-batcher dispatch draining `images` waiters.
    #[inline]
    pub fn dispatch(&mut self, at: f64, images: usize) {
        if !self.enabled {
            return;
        }
        self.trace.queue.push(QueueEvent {
            at,
            delta: -(images as i64),
        });
        self.trace.dispatches.push(DispatchEvent { at, images });
    }

    /// Record one fault-subsystem event (injection, failover boundary,
    /// re-dispatch) onto the trace's failover track.
    #[inline]
    pub fn fault(&mut self, event: FaultTraceEvent) {
        if !self.enabled {
            return;
        }
        self.trace.faults.push(event);
    }

    /// Stamp the run summary the aggregations need: the run's
    /// per-resource utilization (handed over verbatim, so
    /// [`Trace::utilization`] is the report's own vector), the image
    /// count, and the horizon.
    #[inline]
    pub fn run_summary(
        &mut self,
        utilization: Vec<(StageResource, f64)>,
        images: usize,
        horizon: f64,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.utilization = utilization;
        self.trace.images = images;
        self.trace.horizon = horizon;
    }

    /// Finish recording and hand back the event log.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// Canonical short label for a resource: `PS` (head board's ARM),
/// `PS<k>` (board *k*'s ARM in a placement group), `PL<k>` (board
/// *k*'s fabric). One formatting home for describe strings, repro
/// tables, and trace tracks.
pub fn resource_label(resource: StageResource) -> String {
    match resource {
        StageResource::Ps => "PS".to_string(),
        StageResource::PsOn(k) => format!("PS{k}"),
        StageResource::Pl(k) => format!("PL{k}"),
    }
}

/// Shared utilization formatting for `ClusterPlan::describe` /
/// `ServeReport::describe`: `util PS 61% PL0 46% PL1 15%` (whole
/// percent — describe lines are summaries, the exact fractions live on
/// the reports).
pub fn format_utilization(utilization: &[(StageResource, f64)]) -> String {
    let parts: Vec<String> = utilization
        .iter()
        .map(|&(r, u)| format!("{} {:.0}%", resource_label(r), u * 100.0))
        .collect();
    format!("util {}", parts.join(" "))
}

fn stage_label(layer: Option<LayerName>) -> String {
    layer.map_or_else(|| "ps".to_string(), |l| format!("{l:?}"))
}

/// Merge possibly-overlapping half-open intervals into a disjoint,
/// ascending cover.
fn merged(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.retain(|(lo, hi)| hi > lo);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        match out.last_mut() {
            Some((_, end)) if lo <= *end => *end = end.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Total length of `cover ∩ [lo, hi)` for a disjoint ascending cover.
fn overlap_len(cover: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    cover
        .iter()
        .map(|&(a, b)| (b.min(hi) - a.max(lo)).max(0.0))
        .sum()
}

/// `a \ b` for disjoint ascending covers.
fn subtract(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(mut lo, hi) in a {
        for &(blo, bhi) in b {
            if bhi <= lo || blo >= hi {
                continue;
            }
            if blo > lo {
                out.push((lo, blo));
            }
            lo = lo.max(bhi);
            if lo >= hi {
                break;
            }
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out
}

/// Validate an exported Chrome-trace JSON string line-by-line (no JSON
/// parser needed: [`Trace::to_chrome_json`] emits one event per line):
/// the envelope is the `{"traceEvents": [...]}` object form,
/// timestamps are non-decreasing, and every `B` has a matching `E` on
/// its track with proper nesting. Returns the event count.
///
/// Shared by `tests/trace.rs` and the `repro -- trace` smoke path, so
/// CI asserts the artifact parses without external tooling.
pub fn check_chrome_json(json: &str) -> Result<usize, String> {
    let mut lines = json.lines();
    let head = lines.next().unwrap_or_default();
    if head != "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" {
        return Err(format!("bad header line: {head:?}"));
    }
    let mut events = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    // (tid, open B-event names) stacks for begin/end matching.
    let mut open: Vec<(i64, Vec<String>)> = Vec::new();
    let mut closed = false;
    for line in lines {
        if closed {
            return Err(format!("content after closing bracket: {line:?}"));
        }
        if line == "]}" {
            closed = true;
            continue;
        }
        let event = line.strip_suffix(',').unwrap_or(line);
        if !(event.starts_with('{') && event.ends_with('}')) {
            return Err(format!("event line is not an object: {line:?}"));
        }
        let ph = field_str(event, "ph").ok_or_else(|| format!("event without ph: {line:?}"))?;
        let ts = field_num(event, "ts").ok_or_else(|| format!("event without ts: {line:?}"))?;
        if ts < last_ts {
            return Err(format!("ts went backwards at {line:?}"));
        }
        last_ts = ts;
        if ph == "B" || ph == "E" {
            let tid = field_num(event, "tid")
                .ok_or_else(|| format!("span event without tid: {line:?}"))?
                as i64;
            let stack = match open.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, s)) => s,
                None => {
                    open.push((tid, Vec::new()));
                    &mut open.last_mut().expect("just pushed").1
                }
            };
            let name = field_str(event, "name").unwrap_or_default();
            if ph == "B" {
                stack.push(name);
            } else {
                match stack.pop() {
                    Some(opened) if opened == name => {}
                    Some(opened) => {
                        return Err(format!("E {name:?} closes B {opened:?} on tid {tid}"))
                    }
                    None => return Err(format!("E without matching B on tid {tid}: {line:?}")),
                }
            }
        }
        events += 1;
    }
    if !closed {
        return Err("missing closing bracket line".to_string());
    }
    if let Some((tid, stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!("unclosed B events on tid {tid}: {stack:?}"));
    }
    Ok(events)
}

/// Extract `"key":"value"` from a single-line JSON object.
fn field_str(event: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = event.find(&pat)? + pat.len();
    let rest = &event[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract a numeric `"key":value` from a single-line JSON object.
fn field_num(event: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = event.find(&pat)? + pat.len();
    let rest = &event[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(resource: StageResource, pending: f64, ready: f64, start: f64, end: f64) -> StageSpan {
        StageSpan {
            image: 0,
            stage: 0,
            resource,
            layer: None,
            pending,
            ready,
            start,
            end,
        }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = Recorder::disabled();
        rec.stage(0, 0, StageResource::Ps, None, 0.0, 0.0, 0.0, 1.0);
        rec.transfer(0, 1, StageResource::Pl(0), 1.0, 1.5);
        rec.arrival(0.0);
        rec.dispatch(0.5, 1);
        rec.run_summary(Vec::new(), 1, 1.0);
        assert_eq!(rec.finish(), Trace::default());
    }

    #[test]
    fn interval_helpers_merge_overlap_and_subtract() {
        let m = merged(vec![(3.0, 4.0), (0.0, 1.0), (0.5, 2.0), (4.0, 5.0)]);
        assert_eq!(m, vec![(0.0, 2.0), (3.0, 5.0)]);
        assert!((overlap_len(&m, 1.0, 3.5) - 1.5).abs() < 1e-12);
        assert_eq!(subtract(&m, &[(0.5, 4.5)]), vec![(0.0, 0.5), (4.5, 5.0)]);
        assert_eq!(subtract(&[(0.0, 2.0)], &[(0.0, 2.0)]), Vec::new());
    }

    #[test]
    fn stall_attribution_prefers_gate_over_upstream_over_no_work() {
        // PL0 idle on [0, 4): image A pending from 0, in flight on
        // [0, 1) (upstream), delivered-but-held on [1, 4) (gate).
        // Trailing idle [5, 6) has nothing pending (no-work).
        let mut trace = Trace {
            stages: vec![span(StageResource::Pl(0), 0.0, 1.0, 4.0, 5.0)],
            ..Trace::default()
        };
        trace.images = 1;
        trace.horizon = 6.0;
        trace.utilization = vec![(StageResource::Pl(0), 1.0 / 6.0)];
        let metrics = trace.metrics();
        let pl = &metrics.resources[0];
        assert!((pl.stall.upstream - 1.0).abs() < 1e-12);
        assert!((pl.stall.gate - 3.0).abs() < 1e-12);
        assert!((pl.stall.no_work - 1.0).abs() < 1e-12);
        assert!((pl.busy + pl.stall.total() - trace.horizon()).abs() < 1e-12);
    }

    #[test]
    fn queue_series_tracks_depth_and_peak() {
        let mut rec = Recorder::enabled();
        rec.arrival(0.0);
        rec.arrival(0.1);
        rec.arrival(0.2);
        rec.dispatch(0.2, 3);
        rec.arrival(0.3);
        rec.dispatch(0.4, 1);
        let trace = rec.finish();
        let series = trace.queue_depth_series();
        assert_eq!(
            series,
            vec![(0.0, 1), (0.1, 2), (0.2, 3), (0.2, 0), (0.3, 1), (0.4, 0)]
        );
        assert_eq!(trace.metrics().queue_peak, 3);
    }

    #[test]
    fn chrome_export_is_well_formed_and_checker_rejects_corruption() {
        let mut rec = Recorder::enabled();
        rec.arrival(0.0);
        rec.dispatch(0.0, 1);
        rec.stage(0, 0, StageResource::Ps, None, 0.0, 0.0, 0.0, 0.01);
        rec.transfer(0, 1, StageResource::Pl(1), 0.01, 0.012);
        rec.stage(
            0,
            1,
            StageResource::Pl(1),
            Some(LayerName::Layer1),
            0.01,
            0.012,
            0.012,
            0.03,
        );
        rec.run_summary(Vec::new(), 1, 0.03);
        let mut trace = rec.finish();
        trace.set_broadcast_seconds(0.002);
        let json = trace.to_chrome_json();
        let events = check_chrome_json(&json).expect("exported trace is well-formed");
        // 4 track names + 2 B/E pairs + broadcast + transfer +
        // dispatch + 2 counters.
        assert_eq!(events, 13);

        let unbalanced = json.replacen("\"ph\":\"E\"", "\"ph\":\"B\"", 1);
        assert!(check_chrome_json(&unbalanced).is_err());
        assert!(check_chrome_json("not a trace").is_err());
    }

    #[test]
    fn labels_are_shared_and_stable() {
        assert_eq!(resource_label(StageResource::Ps), "PS");
        assert_eq!(resource_label(StageResource::PsOn(2)), "PS2");
        assert_eq!(resource_label(StageResource::Pl(1)), "PL1");
        assert_eq!(
            format_utilization(&[(StageResource::Ps, 0.609), (StageResource::Pl(0), 0.458)]),
            "util PS 61% PL0 46%"
        );
    }
}
